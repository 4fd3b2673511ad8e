"""Parallel experiment sweep engine: process-pool fan-out of profile jobs.

Every figure/table driver in this package expresses its per-kernel profiling
work as :class:`ProfileJob` specs instead of looping over ``profiler.profile``
inline.  A job is fully self-contained -- it names the kernel through the
picklable :class:`KernelSpec` registry and carries its own backend/profiler
seeds -- so executing it in the driver process, a worker process, or another
machine produces bit-identical results.  :class:`SweepRunner` fans pending
jobs out across a process pool (``workers > 1``), memoises finished jobs in a
content-keyed on-disk cache, and returns results keyed by job id, which makes
assembly deterministic regardless of worker count or completion order.

Jobs default to ``result_mode="full"`` (a complete
:class:`~repro.core.profiler.FinGraVResult`, raw runs included), but every
driver whose ``*_from_results`` assembly never re-stitches the raw runs
registers its jobs with ``result_mode="slim"``: the worker then ships a
:class:`~repro.core.profiler.SlimFinGraVResult` -- bit-identical profiles
plus the summary/golden-run metadata -- through IPC and the on-disk cache,
cutting the pickled payload several-fold.  Slim jobs additionally declare
``profile_sections``: the subset of ``("ssp", "sse", "run")`` profiles the
driver's assembly actually reads (summary-only drivers such as table1
declare ``()``), so undeclared sections are never shipped -- and the
whole-run profile, the bulk of a long kernel's payload, is never even
stitched when no driver asks for it.  Drivers that *do* re-stitch
(Figure 5, the binning-margin ablation) pin ``result_mode="full"``.

On-disk cache entries are pickles in which every large
:class:`~repro.core.profile.ProfileColumns` (``>= spill_points`` LOIs) is
spilled to a sidecar ``<key>.npz`` next to the entry; loading replays the
pickle and maps the sidecar's arrays back in with ``mmap_mode="r"``, so a
cache hit touches only the pages it actually reads.  Cache entries are
keyed by :data:`_CACHE_SCHEMA` -- entries written by earlier schemas are
simply never looked up again and recompute cleanly.

Execution is *supervised* (see ``docs/sweep.md`` for the full fault model).
With ``workers > 1`` the runner dispatches jobs one at a time through
``submit``/``wait`` scheduling instead of a blocking ``pool.map`` barrier:

- every dispatched job carries a wall-clock deadline
  (:attr:`SweepConfig.job_timeout_s` / ``FINGRAV_JOB_TIMEOUT``); a watchdog
  kills-and-rebuilds the pool around a hung worker and requeues the other
  in-flight jobs, so one wedged job costs one retry, not the sweep;
- a crashed worker (``BrokenProcessPool`` -- e.g. a segfaulting compiled
  provider) likewise triggers a bounded pool rebuild and charges each
  affected job one retry;
- transient failures (the taxonomy in :func:`classify_retryable`: broken
  pools, watchdog timeouts, ``OSError`` I/O hiccups, injected transients)
  are retried up to :attr:`SweepConfig.max_retries` times with exponential
  backoff and deterministic per-(job, attempt) jitter; genuinely-fatal job
  errors surface immediately as structured :class:`JobFailure` records,
  formatted traceback included.

A failing job still never aborts the sweep: every pending job runs to a
terminal outcome, finished results are cached and attached to the raised
:class:`SweepJobError` (``.completed`` / ``.failures``).  The cache tier
degrades rather than aborts everywhere: a truncated/corrupt entry (pickle or
sidecar) is quarantined to ``<entry>.corrupt`` and recomputed, and a failed
store (``ENOSPC``, lock trouble) is recorded and ignored.  Each run emits a
machine-checkable ``manifest.json`` next to the cache (per-job
hit/recomputed/failed status, retry/timeout/quarantine counts, timings and
engine+provider provenance) so operators can see what was reused, what was
recomputed and what misbehaved.  The deterministic fault-injection harness in
:mod:`repro.testing.faults` (``FINGRAV_FAULT_PLAN``) drives all of this in
tests and the CI fault-smoke leg.

Command line::

    python -m repro.experiments.sweep --all --scale fast --workers 8
    python -m repro.experiments.sweep --experiments fig7 table1 --json out.json

Environment knobs picked up by :func:`default_runner` (used whenever a driver
is called without an explicit runner): ``FINGRAV_WORKERS`` (worker count,
default 1) and ``FINGRAV_PROFILE_CACHE`` (cache directory, default disabled).
``FINGRAV_RESULT_MODE`` (``slim`` / ``full``) overrides every driver's default
result mode at job-construction time -- it participates in the cache key, so
switching modes never replays a stale payload shape.  The fault-model knobs
(``FINGRAV_JOB_TIMEOUT``, ``FINGRAV_MAX_RETRIES``, ``FINGRAV_RETRY_BACKOFF``)
are read by :meth:`SweepConfig.from_env`, and ``FINGRAV_FAULT_PLAN`` names a
fault-injection plan honoured by the dispatcher and its workers.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import itertools
import json
import os
import pickle
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core.profile import ProfileColumns, load_npz_payload
from ..core.profiler import FinGraVProfiler, ProfilerConfig
from ..gpu.backend import BackendConfig, SimulatedDeviceBackend
from ..gpu.spec import mi300x_spec
from ..kernels.gemm import square_gemm
from ..kernels.workloads import cb_gemm, collective_suite, mb_gemv
from ..testing import faults
from .common import (
    SWEEP_MAX_ADDITIONAL_RUNS,
    ExperimentScale,
    default_scale,
    execution_provenance,
    scale_by_name,
)

#: Bump when job execution semantics change, to invalidate on-disk caches.
#: Schema 4: adaptive-collection-aware jobs (``ProfileJob.adaptive`` enters
#: the key; results carry the collection audit in their metadata/summary).
#: Schema 5: cached results pickle a ``ProfilerConfig`` without the
#: ``vectorized``/``columnar`` switches.  Schema 6: ``ProfileJob.study``
#: enters the key.  Schema 7: the key encodes the profiler and backend
#: configs a job runs (``ProfileJob.configs``, resolved engine included),
#: floats by ``float.hex()``.  Schema 8: a pickled ``BinningResult`` holds
#: its selection and values as arrays.  Older entries recompute cleanly.
_CACHE_SCHEMA = 8

#: Staging files older than this are considered orphaned by a dead writer.
_STALE_STAGING_S = 3600.0

#: Distinguishes staging files written concurrently by one process.
_STAGING_COUNTER = itertools.count()

#: Profiles with at least this many LOIs leave the cache pickle for the
#: sidecar ``.npz`` (overridable per runner and via ``FINGRAV_SPILL_POINTS``).
_SPILL_POINTS_DEFAULT = 4096

#: Persistent-id tag marking a spilled ProfileColumns inside a cache pickle.
_SPILL_TAG = "fingrav-columns"


# --------------------------------------------------------------------------- #
# Kernel registry: names -> factories, so jobs stay picklable.
# --------------------------------------------------------------------------- #
def _collective(name: str):
    for kernel in collective_suite():
        if kernel.name == name:
            return kernel
    raise KeyError(f"no collective kernel named {name!r}")


KERNEL_BUILDERS: dict[str, Callable[..., object]] = {
    "cb_gemm": cb_gemm,
    "mb_gemv": mb_gemv,
    "square_gemm": square_gemm,
    "collective": _collective,
}


@dataclass(frozen=True)
class KernelSpec:
    """A picklable, content-hashable recipe for building a kernel."""

    key: str
    args: tuple = ()
    kwargs: tuple[tuple[str, object], ...] = ()

    def build(self) -> object:
        try:
            builder = KERNEL_BUILDERS[self.key]
        except KeyError as exc:
            raise KeyError(f"unknown kernel builder {self.key!r}") from exc
        return builder(*self.args, **dict(self.kwargs))


def kernel_spec(key: str, *args: object, **kwargs: object) -> KernelSpec:
    """Convenience constructor: ``kernel_spec("cb_gemm", 4096)``."""
    return KernelSpec(key=key, args=tuple(args), kwargs=tuple(sorted(kwargs.items())))


#: Raw-record studies a job can run instead of the methodology: each name
#: maps to the :mod:`repro.experiments.ablations` function that computes it.
STUDIES: dict[str, str] = {
    "coarse_coverage": "run_coarse_coverage",
    "drift_sensitivity": "run_drift_sensitivity",
}


@dataclass(frozen=True)
class ProfileJob:
    """One self-contained profiling job.

    A plain job runs the full FinGraV methodology on ``kernel``.  When
    ``interleave_seed`` is set the job instead measures the single-execution
    interleaved profile of ``kernel`` after ``preceding`` (the Figure-9
    scenarios) and returns a :class:`~repro.core.profile.FineGrainProfile`
    rather than a :class:`~repro.core.profiler.FinGraVResult`.  When
    ``study`` names one of :data:`STUDIES` the job runs that raw-record
    study on ``kernel`` over ``runs`` runs, with ``profiler_seed`` drawing
    its pre-delays and ``backend_seed`` seeding its backends, and returns
    the study's small result.
    """

    job_id: str
    kernel: KernelSpec
    runs: int
    backend_seed: int
    profiler_seed: int
    sampler: str = "averaging"
    synchronize: bool = True
    apply_binning: bool = True
    differentiate: bool = True
    max_additional_runs: int = SWEEP_MAX_ADDITIONAL_RUNS
    preceding: tuple[tuple[KernelSpec, int], ...] = ()
    interleave_seed: int | None = None
    min_lois: int = 5
    max_runs: int | None = None
    #: "full" ships the complete FinGraVResult; "slim" ships the raw-run-free
    #: projection (see the module docstring).  Part of the cache key.
    result_mode: str = "full"
    #: Profile sections a slim result retains -- the subset of
    #: ``("ssp", "sse", "run")`` the driver's assembly reads; ``None`` keeps
    #: all three.  Ignored in full mode.  Part of the cache key.
    profile_sections: tuple[str, ...] | None = None
    #: Collect runs adaptively: stop early once the golden-run SSP/SSE
    #: confidence intervals converge (see ``docs/profiler.md``).  ``False``
    #: is the paper's fixed-count collection.  The remaining adaptive knobs
    #: (``convergence_rtol``/``min_runs``/``checkpoint_every``) run at their
    #: ``ProfilerConfig`` defaults, which the key encodes through
    #: :meth:`configs`.
    adaptive: bool = False
    #: The raw-record study this job runs (a :data:`STUDIES` key), or None
    #: for a methodology job.  Part of the cache key.
    study: str | None = None

    def __post_init__(self) -> None:
        if self.study is None:
            return
        if self.study not in STUDIES:
            raise ValueError(
                f"job {self.job_id!r}: unknown study {self.study!r}; pick from {sorted(STUDIES)}"
            )
        # A study neither bins, differentiates, collects adaptively nor
        # interleaves; a job claiming one of those steps would be taken for
        # a methodology result it is not.
        claimed = [
            name for name in ("apply_binning", "differentiate", "adaptive") if getattr(self, name)
        ]
        if self.interleave_seed is not None or self.preceding:
            claimed.append("interleave_seed/preceding")
        if claimed:
            raise ValueError(
                f"study job {self.job_id!r} ({self.study}) runs raw device records "
                f"only, but sets {', '.join(claimed)}; pass apply_binning=False, "
                "differentiate=False and no interleaving"
            )

    def configs(self) -> tuple[ProfilerConfig, BackendConfig]:
        """The profiler and backend configs this job runs with.

        :func:`execute_job` builds its profiler and backend from exactly
        these objects and :func:`job_key` hashes them, so every input of a
        result is in its key.  Interleaved jobs profile in full mode with
        fixed-count collection: the study returns a bare profile and counts
        its runs by LOIs.  The engine is resolved here, so the backend runs
        the engine the key names.
        """
        interleaved = self.interleave_seed is not None
        profiler_config = ProfilerConfig(
            seed=self.profiler_seed,
            synchronize=self.synchronize,
            apply_binning=self.apply_binning,
            differentiate=self.differentiate,
            max_additional_runs=self.max_additional_runs,
            result_mode="full" if interleaved else self.result_mode,
            profile_sections=self.profile_sections,
            adaptive=False if interleaved else self.adaptive,
        )
        backend_config = BackendConfig(sampler=self.sampler)
        return profiler_config, replace(backend_config, engine=backend_config.resolved_engine())


def configured_result_mode(default: str = "slim") -> str:
    """The result mode a driver should register its jobs with.

    ``FINGRAV_RESULT_MODE`` (``slim`` / ``full``) overrides the driver's
    default; anything else (including unset) keeps it.
    """
    override = os.environ.get("FINGRAV_RESULT_MODE", "").strip().lower()
    return override if override in ("slim", "full") else default


def configured_adaptive(default: bool = False) -> bool:
    """Whether a driver should register its jobs with adaptive collection.

    ``FINGRAV_ADAPTIVE`` (``1``/``true``/``on`` vs ``0``/``false``/``off``)
    overrides the driver's default; anything else (including unset) keeps it.
    """
    override = os.environ.get("FINGRAV_ADAPTIVE", "").strip().lower()
    if override in ("1", "true", "on", "yes"):
        return True
    if override in ("0", "false", "off", "no"):
        return False
    return default


def execute_job(job: ProfileJob) -> object:
    """Run one job from scratch; deterministic in the job's seeds alone."""
    profiler_config, backend_config = job.configs()
    kernel = job.kernel.build()
    if job.study is not None:
        from . import ablations

        study = getattr(ablations, STUDIES[job.study])
        return study(
            kernel=kernel,
            runs=job.runs,
            seed=job.profiler_seed,
            backend_seed=job.backend_seed,
            backend_config=backend_config,
        )
    backend = SimulatedDeviceBackend(
        spec=mi300x_spec(), seed=job.backend_seed, config=backend_config
    )
    profiler = FinGraVProfiler(backend, profiler_config)
    if job.interleave_seed is None:
        return profiler.profile(kernel, runs=job.runs)
    from ..analysis.interleaving import InterleavingStudy

    study = InterleavingStudy(
        backend, profiler=profiler, runs=job.runs, seed=job.interleave_seed
    )
    preceding = tuple((spec.build(), count) for spec, count in job.preceding)
    return study.interleaved_profile(
        kernel, preceding, runs=job.runs, min_lois=job.min_lois, max_runs=job.max_runs
    )


def _canonical(value: object, path: str) -> str:
    """One canonical, type-tagged spelling of a cache-key value.

    Scalars keep their ``repr`` (``1``, ``True`` and ``'1'`` stay distinct),
    floats spell their exact bits with ``float.hex()`` (so ``1.0`` differs
    from ``1`` and ``-0.0`` from ``0.0``), dicts must be str-keyed and are
    sorted, and dataclasses spell their type name and their fields in
    declaration order.  Anything else -- sets, arrays, arbitrary objects --
    has no stable spelling and raises ``TypeError`` naming ``path``.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return repr(value)
    if isinstance(value, float):
        return f"float({value.hex()})"
    if isinstance(value, tuple):
        items = (_canonical(item, f"{path}[{i}]") for i, item in enumerate(value))
        return f"({','.join(items)})"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        items = (f"{key!r}:{_canonical(value[key], f'{path}.{key}')}" for key in sorted(value))
        return f"{{{','.join(items)}}}"
    if is_dataclass(value) and not isinstance(value, type):
        items = (
            f"{f.name}={_canonical(getattr(value, f.name), f'{path}.{f.name}')}"
            for f in fields(value)
        )
        return f"{type(value).__name__}({','.join(items)})"
    raise TypeError(
        f"job_key: {path} is a {type(value).__name__} ({value!r}) with no canonical "
        "spelling; keys take None/bool/int/float/str/bytes, tuples, str-keyed "
        "dicts and dataclasses of those"
    )


def job_key(job: ProfileJob) -> str:
    """Content hash of everything that determines a job's result (not its id).

    Hashes :data:`_CACHE_SCHEMA` and the canonical spelling of the job's
    fields (``job_id`` aside) together with the configs :meth:`ProfileJob.configs`
    builds -- the very objects :func:`execute_job` runs.
    """
    profiler_config, backend_config = job.configs()
    payload = {
        "job": {f.name: getattr(job, f.name) for f in fields(job) if f.name != "job_id"},
        "profiler": profiler_config,
        "backend": backend_config,
    }
    text = f"{_CACHE_SCHEMA}:{_canonical(payload, 'key')}"
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------- #
# The fault model: config knobs, retry taxonomy, structured failures.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepConfig:
    """Fault-model knobs for supervised sweep execution.

    ``job_timeout_s`` is the per-job wall-clock watchdog (None disables it;
    it only protects pool execution -- an inline ``workers=1`` sweep has no
    process boundary to kill across).  Transient failures are retried up to
    ``max_retries`` times per job with exponential backoff
    (``backoff_base_s * 2**attempt`` capped at ``backoff_cap_s``, plus
    deterministic per-(job, attempt) jitter).  ``max_pool_rebuilds`` bounds
    how many times a sweep will rebuild its pool around crashes/hangs before
    declaring the remaining work failed, which guarantees termination even
    under a pathological fault plan.
    """

    job_timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 8.0
    max_pool_rebuilds: int = 8

    def __post_init__(self) -> None:
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ValueError(f"job_timeout_s must be positive or None, got {self.job_timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_cap_s < 0:
            raise ValueError(f"backoff_cap_s must be >= 0, got {self.backoff_cap_s}")
        if self.max_pool_rebuilds < 0:
            raise ValueError(f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}")

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "SweepConfig":
        """Config from ``FINGRAV_JOB_TIMEOUT`` / ``FINGRAV_MAX_RETRIES`` /
        ``FINGRAV_RETRY_BACKOFF`` (unset keeps each default; a timeout of
        ``0`` / ``none`` / ``off`` disables the watchdog)."""
        env = os.environ if environ is None else environ
        kwargs: dict[str, object] = {}
        raw = env.get("FINGRAV_JOB_TIMEOUT", "").strip().lower()
        if raw:
            if raw in ("none", "off", "0"):
                kwargs["job_timeout_s"] = None
            else:
                try:
                    kwargs["job_timeout_s"] = float(raw)
                except ValueError as exc:
                    raise ValueError(
                        f"FINGRAV_JOB_TIMEOUT must be a number of seconds, got {raw!r}"
                    ) from exc
        raw = env.get("FINGRAV_MAX_RETRIES", "").strip()
        if raw:
            try:
                kwargs["max_retries"] = int(raw)
            except ValueError as exc:
                raise ValueError(
                    f"FINGRAV_MAX_RETRIES must be an integer, got {raw!r}"
                ) from exc
        raw = env.get("FINGRAV_RETRY_BACKOFF", "").strip()
        if raw:
            try:
                kwargs["backoff_base_s"] = float(raw)
            except ValueError as exc:
                raise ValueError(
                    f"FINGRAV_RETRY_BACKOFF must be a number of seconds, got {raw!r}"
                ) from exc
        return cls(**kwargs)


def classify_retryable(exc: BaseException) -> bool:
    """The retry taxonomy: transient (retry with backoff) vs fatal.

    Retryable: a broken pool (the worker died under the job -- its retry runs
    in a fresh worker), watchdog timeouts, ``OSError`` (cache/file I/O
    hiccups such as ``ENOSPC`` or lock contention inside the job), and the
    fault harness's explicitly-transient injections.  Everything else --
    ``KeyError`` from a bad kernel spec, ``ValueError`` from bad config,
    arbitrary bugs -- is a genuine job failure: retrying a deterministic job
    re-raises it, so it fails fast instead.
    """
    if isinstance(exc, faults.TransientInjectedFault):
        return True
    if isinstance(exc, faults.InjectedFault):
        return False
    return isinstance(exc, (BrokenExecutor, TimeoutError, OSError))


@dataclass(frozen=True)
class JobFailure:
    """Structured description of one job's terminal failure.

    Carries the exception type/message *and* the formatted traceback (so a
    failure that happened in a worker process three retries ago is still
    debuggable from the raised :class:`SweepJobError`), plus the retry
    classification and how many attempts the job consumed.
    """

    exc_type: str
    message: str
    traceback: str = ""
    retryable: bool = False
    attempts: int = 1

    @classmethod
    def from_exception(cls, exc: BaseException, attempts: int = 1) -> "JobFailure":
        formatted = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        return cls(
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback=formatted,
            retryable=classify_retryable(exc),
            attempts=attempts,
        )

    @classmethod
    def from_description(cls, text: str) -> "JobFailure":
        """Adopt a legacy ``"Type: message\\ntraceback"`` failure string."""
        head, _, trailer = str(text).partition("\n")
        exc_type, sep, message = head.partition(": ")
        if not sep:
            exc_type, message = "Error", head
        return cls(exc_type=exc_type, message=message, traceback=trailer)

    def with_attempts(self, attempts: int) -> "JobFailure":
        return replace(self, attempts=attempts)

    @property
    def summary_line(self) -> str:
        message = self.message.splitlines()[0] if self.message else ""
        return f"{self.exc_type}: {message}"

    def describe(self) -> str:
        kind = "retryable" if self.retryable else "fatal"
        header = f"{self.summary_line} [{kind}, after {self.attempts} attempt(s)]"
        return f"{header}\n{self.traceback}" if self.traceback else header

    def __str__(self) -> str:
        return self.describe()


def backoff_delay(
    job_id: str, attempt: int, base_s: float, cap_s: float
) -> float:
    """Exponential backoff with deterministic jitter.

    ``base * 2**attempt`` plus a jitter in ``[0, base)`` derived from a hash
    of ``(job_id, attempt)`` -- different jobs desynchronise their retries,
    yet the same sweep replays the same delays.  Capped at ``cap_s``.
    """
    if base_s <= 0:
        return 0.0
    digest = hashlib.sha256(f"{job_id}:{attempt}".encode()).digest()
    jitter = int.from_bytes(digest[:8], "big") / 2.0**64 * base_s
    return min(base_s * (2.0**attempt) + jitter, cap_s)


# --------------------------------------------------------------------------- #
# Columnar cache codec: large ProfileColumns spill to a sidecar .npz.
# --------------------------------------------------------------------------- #
class _ColumnSpillPickler(pickle.Pickler):
    """Pickles a cache entry, diverting large :class:`ProfileColumns`.

    Every ``ProfileColumns`` holding at least ``spill_points`` LOIs is
    replaced by a persistent id and collected on :attr:`spilled`; the caller
    writes those columns' arrays to the sidecar ``.npz``.  Shared column
    objects (one profile referenced from several places) spill once.
    """

    def __init__(self, handle, spill_points: int) -> None:
        super().__init__(handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._spill_points = spill_points
        self._indices: dict[int, int] = {}
        self.spilled: list[ProfileColumns] = []

    def persistent_id(self, obj: object) -> tuple[str, int] | None:
        if not isinstance(obj, ProfileColumns) or len(obj) < self._spill_points:
            return None
        index = self._indices.get(id(obj))  # statics: allow[identity-hash] -- in-process dedup only; what persists is the first-encounter spill index
        if index is None:
            index = len(self.spilled)
            self._indices[id(obj)] = index  # statics: allow[identity-hash] -- the pinned reference in self.spilled keeps the id stable for the dump
            self.spilled.append(obj)
        return (_SPILL_TAG, index)


class _ColumnSpillUnpickler(pickle.Unpickler):
    """Loads a cache entry, mapping spilled columns back from the sidecar.

    The sidecar is opened lazily (entries without spilled columns never touch
    it) with ``mmap_mode="r"``, so the replayed profile's arrays are memory
    maps: a cache hit faults in only the pages a consumer actually reads.
    """

    def __init__(self, handle, sidecar: Path) -> None:
        super().__init__(handle)
        self._sidecar = sidecar
        self._payloads: dict[int, dict[str, np.ndarray]] | None = None
        self._loaded: dict[int, ProfileColumns] = {}

    def persistent_load(self, pid: object) -> ProfileColumns:
        if not (isinstance(pid, tuple) and len(pid) == 2 and pid[0] == _SPILL_TAG):
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        index = int(pid[1])
        columns = self._loaded.get(index)
        if columns is None:
            if self._payloads is None:
                members = load_npz_payload(self._sidecar, mmap_mode="r")
                self._payloads = {}
                for name, array in members.items():
                    prefix, _, key = name.partition("/")
                    self._payloads.setdefault(int(prefix), {})[key] = array
            columns = ProfileColumns.from_payload(self._payloads[index])
            self._loaded[index] = columns
        return columns


def _write_entry(result: object, handle, spill_points: int) -> list[ProfileColumns]:
    """Pickle ``result`` into ``handle``; return the columns that spilled."""
    pickler = _ColumnSpillPickler(handle, spill_points)
    pickler.dump(result)
    return pickler.spilled


def _write_sidecar(spilled: Sequence[ProfileColumns], handle) -> None:
    """Write the spilled columns' arrays as ``{index}/{key}`` npz members."""
    members: dict[str, np.ndarray] = {}
    for index, columns in enumerate(spilled):
        for key, array in columns.to_payload().items():
            members[f"{index}/{key}"] = array
    np.savez(handle, **members)


def _execute_job_guarded(
    job: ProfileJob,
    attempt: int = 0,
    in_worker: bool = False,
    plan_payload: object | None = None,
) -> tuple[object, JobFailure | None]:
    """Run one job attempt, trapping its failure instead of poisoning the pool.

    Returns ``(result, None)`` on success and ``(None, failure)`` on failure;
    the :class:`JobFailure` carries the exception type, message, formatted
    traceback and retry classification, so the supervising dispatcher can
    decide whether to retry and the sweep can re-raise with full context.

    Fault injection: the dispatcher ships its resolved
    :mod:`~repro.testing.faults` plan via ``plan_payload``; called directly
    (or by older dispatch paths) the worker honours ``FINGRAV_FAULT_PLAN``
    itself.  Matching is per ``(job id, attempt)``, so a retried attempt is
    past its fault deterministically.
    """
    try:
        if plan_payload is not None:
            plan = faults.FaultPlan.from_payload(plan_payload)
        else:
            plan = faults.active_plan()
        if plan is not None:
            spec = plan.execute_fault(job.job_id, attempt)
            if spec is not None:
                faults.fire(spec, in_worker=in_worker)
        return execute_job(job), None
    except Exception as exc:
        return None, JobFailure.from_exception(exc, attempts=attempt + 1)


class SweepJobError(RuntimeError):
    """One or more sweep jobs failed (the rest completed and were cached).

    ``failures`` maps the failing job ids to :class:`JobFailure` records
    (exception type, message, formatted traceback, retry classification and
    attempt count -- ``str(failure)`` renders the full description);
    ``completed`` holds the results of every job that did finish (cache hits
    included), so callers can salvage partial sweeps.
    """

    def __init__(
        self,
        failures: Mapping[str, "JobFailure | str"],
        completed: Mapping[str, object],
    ) -> None:
        self.failures: dict[str, JobFailure] = {
            job_id: (
                failure
                if isinstance(failure, JobFailure)
                else JobFailure.from_description(failure)
            )
            for job_id, failure in failures.items()
        }
        self.completed = dict(completed)
        #: Experiments :func:`run_sweep` still assembled from the completed
        #: jobs (set by run_sweep before re-raising; empty for runner-level
        #: callers).
        self.assembled: dict[str, object] = {}
        names = ", ".join(sorted(self.failures))
        first = next(iter(self.failures.values())).summary_line
        super().__init__(
            f"{len(self.failures)} sweep job(s) failed ({names}); "
            f"{len(self.completed)} completed and were kept. First failure: {first}"
        )


# --------------------------------------------------------------------------- #
# The run manifest: a machine-checkable record of one sweep.
# --------------------------------------------------------------------------- #
#: Bump when the manifest layout changes.
#: Schema 2: per-job ``collection`` audit (adaptive stopping decision) and
#: the run-wide ``counts.runs_saved`` aggregate.
MANIFEST_SCHEMA = 2


def _collection_audit(outcome: object) -> dict | None:
    """The collection audit a result carries, if any (tolerant extractor).

    Full and slim results both stamp ``metadata["collection"]`` (stop
    reason, runs collected vs planned, final CI); bare profiles from
    interleaved jobs carry none.
    """
    metadata = getattr(outcome, "metadata", None)
    if isinstance(metadata, Mapping):
        collection = metadata.get("collection")
        if isinstance(collection, Mapping):
            return dict(collection)
    return None


@dataclass
class _JobLedger:
    """Per-job bookkeeping accumulated while a sweep runs."""

    key: str
    status: str = "pending"  # pending -> hit | recomputed | failed
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    requeues: int = 0
    quarantined: int = 0
    cache_stored: bool = False
    cache_store_failures: int = 0
    seconds: float = 0.0
    error: str | None = None
    events: list[str] = field(default_factory=list)
    #: The result's collection audit (stop reason, runs collected vs
    #: planned, final CI) -- None for bare-profile jobs and failures.
    collection: dict | None = None

    def to_payload(self) -> dict:
        return {
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "requeues": self.requeues,
            "quarantined": self.quarantined,
            "cache_stored": self.cache_stored,
            "cache_store_failures": self.cache_store_failures,
            "seconds": round(self.seconds, 6),
            "error": self.error,
            "events": list(self.events),
            "collection": self.collection,
        }


class SweepManifest:
    """Builds (and writes) the JSON run manifest of one :meth:`SweepRunner.run`.

    The manifest is the source -> status -> follow-ups refresh log of the
    sweep: per job id it records whether the result was a cache *hit* or was
    *recomputed* (or *failed*), how many attempts/retries/timeouts/worker
    crashes it took, whether its cache entry was quarantined, and how long it
    ran; run-wide it stamps the runner config, the fault plan in force (if
    any) and the engine/provider provenance.  Schema in ``docs/sweep.md``.
    """

    def __init__(
        self,
        path: Path | None,
        workers: int,
        config: SweepConfig,
        fault_plan: "faults.FaultPlan | None" = None,
    ) -> None:
        self.path = path
        self.workers = workers
        self.config = config
        self.fault_plan = fault_plan
        self.jobs: dict[str, _JobLedger] = {}
        self._started = time.perf_counter()

    def entry(self, job: ProfileJob) -> _JobLedger:
        ledger = self.jobs.get(job.job_id)
        if ledger is None:
            ledger = _JobLedger(key=job_key(job))
            self.jobs[job.job_id] = ledger
        return ledger

    def event(self, job_id: str, text: str) -> None:
        self.jobs[job_id].events.append(text)

    # ------------------------------------------------------------------ #
    def to_payload(self, interrupted: bool = False) -> dict:
        ledgers = self.jobs.values()
        counts = {
            "jobs": len(self.jobs),
            "hits": sum(1 for job in ledgers if job.status == "hit"),
            "recomputed": sum(1 for job in ledgers if job.status == "recomputed"),
            "failed": sum(1 for job in ledgers if job.status == "failed"),
            "retried": sum(job.retries for job in ledgers),
            "timed_out": sum(job.timeouts for job in ledgers),
            "worker_crashes": sum(job.worker_crashes for job in ledgers),
            "requeued": sum(job.requeues for job in ledgers),
            "quarantined": sum(job.quarantined for job in ledgers),
            "cache_store_failures": sum(job.cache_store_failures for job in ledgers),
            "runs_saved": sum(
                int(job.collection.get("runs_saved", 0))
                for job in ledgers
                if job.collection is not None
            ),
        }
        return {
            "schema": MANIFEST_SCHEMA,
            "created_unix": time.time(),  # statics: allow[wall-clock] -- manifest provenance stamp; never read back into results
            "interrupted": interrupted,
            "elapsed_s": round(time.perf_counter() - self._started, 6),
            "workers": self.workers,
            "config": {
                "job_timeout_s": self.config.job_timeout_s,
                "max_retries": self.config.max_retries,
                "backoff_base_s": self.config.backoff_base_s,
                "backoff_cap_s": self.config.backoff_cap_s,
                "max_pool_rebuilds": self.config.max_pool_rebuilds,
            },
            "engine": execution_provenance(),
            "fault_plan": self.fault_plan.to_payload() if self.fault_plan else None,
            "counts": counts,
            "jobs": {job_id: ledger.to_payload() for job_id, ledger in self.jobs.items()},
        }

    def finalize(self, interrupted: bool = False) -> dict:
        """Snapshot the manifest and (best-effort) write it to disk.

        Like the cache, the manifest is an observability artifact: a write
        failure (read-only cache dir, ``ENOSPC``) degrades to the in-memory
        snapshot instead of failing the sweep -- which is also why this is
        safe to call from the ``KeyboardInterrupt`` flush path.
        """
        payload = self.to_payload(interrupted=interrupted)
        if self.path is not None:
            staging = self.path.with_name(
                f"{self.path.name}.{os.getpid()}-{next(_STAGING_COUNTER)}.tmp"
            )
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                staging.write_text(json.dumps(payload, indent=2, default=str) + "\n")
                staging.replace(self.path)
            except OSError:
                try:
                    staging.unlink(missing_ok=True)
                except OSError:
                    pass
        return payload


# --------------------------------------------------------------------------- #
# The runner.
# --------------------------------------------------------------------------- #
@dataclass
class _Flight:
    """One dispatched job attempt: what is running, since when, until when."""

    job: ProfileJob
    attempt: int
    started: float
    deadline: float | None


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly stop a pool that may hold hung or dead workers.

    ``shutdown`` alone never returns while a worker is wedged, so the worker
    processes are SIGKILLed first; reaching into ``_processes`` is the only
    way the stdlib executor exposes them, and any failure here degrades to
    leaking a doomed pool rather than hanging the sweep.
    """
    # Snapshot then SIGKILL the workers *before* any shutdown call:
    # ``shutdown()`` drops the ``_processes``/manager-thread references even
    # with ``wait=False``, after which the hung workers can no longer be
    # reached and interpreter exit blocks joining them.
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.kill()
        except Exception:
            continue
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


class SweepRunner:
    """Executes profile jobs, optionally in parallel and through a disk cache.

    ``workers <= 1`` runs jobs inline (no subprocesses); ``workers > 1`` fans
    pending jobs out over a :class:`ProcessPoolExecutor`.  Because jobs are
    independent and internally seeded, results are identical for any worker
    count; a determinism test pins this.  When ``cache_dir`` is set, finished
    jobs are stored under their content key and replayed on later sweeps:
    each entry is a pickle whose large profile columns (``>= spill_points``
    LOIs) live in a sidecar ``<key>.npz`` and are mapped back lazily with
    ``mmap_mode="r"`` on load.  ``spill_points`` defaults to
    ``FINGRAV_SPILL_POINTS`` or :data:`_SPILL_POINTS_DEFAULT`.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        spill_points: int | None = None,
        config: SweepConfig | None = None,
        manifest_path: str | Path | None = None,
        fault_plan: "faults.FaultPlan | None" = None,
    ) -> None:
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir else None
        if spill_points is None:
            try:
                spill_points = int(
                    os.environ.get("FINGRAV_SPILL_POINTS", "") or _SPILL_POINTS_DEFAULT
                )
            except ValueError:
                spill_points = _SPILL_POINTS_DEFAULT
        self.spill_points = max(int(spill_points), 1)
        self.config = config if config is not None else SweepConfig.from_env()
        if manifest_path is not None:
            self.manifest_path: Path | None = Path(manifest_path)
        elif self.cache_dir is not None:
            self.manifest_path = self.cache_dir / "manifest.json"
        else:
            self.manifest_path = None
        #: Explicit fault plan for tests; None defers to FINGRAV_FAULT_PLAN.
        self.fault_plan = fault_plan
        self.cache_hits = 0
        #: Snapshot of the last run's manifest payload (set even when no
        #: manifest file is written because the cache is disabled).
        self.last_manifest: dict | None = None

    # ------------------------------------------------------------------ #
    def run(self, jobs: Sequence[ProfileJob]) -> dict[str, object]:
        """Execute jobs (deduplicated by id) and return {job_id: result}.

        Job failures are collected, not fatal per-job: every pending job
        still runs to a terminal outcome (bounded retries included),
        finished results are cached, and a :class:`SweepJobError` naming the
        failing job id(s) is raised at the end with the completed results
        attached.  The run manifest is flushed on every exit path --
        including ``KeyboardInterrupt`` -- so an aborted sweep still leaves
        an accurate record of what finished.
        """
        unique: dict[str, ProfileJob] = {}
        for job in jobs:
            existing = unique.get(job.job_id)
            if existing is not None:
                if existing != job:
                    raise ValueError(f"conflicting jobs share id {job.job_id!r}")
                continue
            unique[job.job_id] = job

        # Resolve (and validate) the fault plan before any work is dispatched:
        # a malformed plan must abort loudly, not run a silently-clean sweep.
        plan = self.fault_plan if self.fault_plan is not None else faults.active_plan()
        self._sweep_stale_staging()
        manifest = SweepManifest(
            self.manifest_path, workers=self.workers, config=self.config, fault_plan=plan
        )
        results: dict[str, object] = {}
        pending: list[ProfileJob] = []
        for job in unique.values():
            ledger = manifest.entry(job)
            cached = self._cache_load(job, manifest=manifest, plan=plan)
            if cached is not None:
                results[job.job_id] = cached
                self.cache_hits += 1
                ledger.status = "hit"
                ledger.collection = _collection_audit(cached)
            else:
                if self.cache_dir is not None:
                    manifest.event(job.job_id, "cache-miss")
                pending.append(job)

        failures: dict[str, JobFailure] = {}
        try:
            if pending:
                if self.workers == 1:
                    self._run_inline(pending, results, failures, manifest, plan)
                else:
                    self._run_supervised(pending, results, failures, manifest, plan)
        except BaseException:
            # KeyboardInterrupt (and any dispatcher bug) still flushes the
            # manifest so operators can see exactly what completed.
            self.last_manifest = manifest.finalize(interrupted=True)
            raise
        self.last_manifest = manifest.finalize()
        if failures:
            raise SweepJobError(failures, results)
        return results

    # ------------------------------------------------------------------ #
    # Inline execution (workers == 1): retries, no process isolation.
    # ------------------------------------------------------------------ #
    def _run_inline(
        self,
        pending: Sequence[ProfileJob],
        results: dict[str, object],
        failures: dict[str, JobFailure],
        manifest: SweepManifest,
        plan: "faults.FaultPlan | None",
    ) -> None:
        plan_payload = plan.to_payload() if plan is not None else None
        for job in pending:
            ledger = manifest.entry(job)
            attempt = 0
            while True:
                ledger.attempts += 1
                started = time.perf_counter()
                outcome, failure = _execute_job_guarded(
                    job, attempt, in_worker=False, plan_payload=plan_payload
                )
                ledger.seconds += time.perf_counter() - started
                if failure is None:
                    results[job.job_id] = outcome
                    self._cache_store(job, outcome, manifest=manifest)
                    ledger.status = "recomputed"
                    ledger.collection = _collection_audit(outcome)
                    break
                if failure.retryable and attempt < self.config.max_retries:
                    delay = self._backoff(job.job_id, attempt)
                    ledger.retries += 1
                    manifest.event(
                        job.job_id,
                        f"retry {attempt + 1}/{self.config.max_retries} after "
                        f"{failure.summary_line} (backoff {delay:.3f}s)",
                    )
                    time.sleep(delay)
                    attempt += 1
                    continue
                failures[job.job_id] = failure
                ledger.status = "failed"
                ledger.error = failure.summary_line
                break

    # ------------------------------------------------------------------ #
    # Supervised pool execution (workers > 1): submit/wait dispatch with a
    # per-job watchdog, bounded retries and bounded pool rebuilds.
    # ------------------------------------------------------------------ #
    def _run_supervised(
        self,
        pending: Sequence[ProfileJob],
        results: dict[str, object],
        failures: dict[str, JobFailure],
        manifest: SweepManifest,
        plan: "faults.FaultPlan | None",
    ) -> None:
        config = self.config
        plan_payload = plan.to_payload() if plan is not None else None
        size = min(self.workers, len(pending))
        ready: deque[tuple[ProfileJob, int]] = deque((job, 0) for job in pending)
        delayed: list[tuple[float, int, ProfileJob, int]] = []  # backoff heap
        tiebreak = itertools.count()
        rebuilds = 0
        pool = ProcessPoolExecutor(max_workers=size)
        in_flight: dict[Future, _Flight] = {}

        def settle_failure(job: ProfileJob, attempt: int, failure: JobFailure) -> None:
            """Schedule a retry with backoff, or record the terminal failure."""
            ledger = manifest.entry(job)
            if failure.retryable and attempt < config.max_retries:
                delay = self._backoff(job.job_id, attempt)
                ledger.retries += 1
                manifest.event(
                    job.job_id,
                    f"retry {attempt + 1}/{config.max_retries} after "
                    f"{failure.summary_line} (backoff {delay:.3f}s)",
                )
                heapq.heappush(
                    delayed,
                    (time.monotonic() + delay, next(tiebreak), job, attempt + 1),
                )
            else:
                failures[job.job_id] = failure
                ledger.status = "failed"
                ledger.error = failure.summary_line

        def settle_outcome(flight: "_Flight", outcome: object, failure: JobFailure | None) -> None:
            ledger = manifest.entry(flight.job)
            ledger.seconds += time.monotonic() - flight.started
            if failure is None:
                results[flight.job.job_id] = outcome
                self._cache_store(flight.job, outcome, manifest=manifest)
                ledger.status = "recomputed"
                ledger.collection = _collection_audit(outcome)
            else:
                settle_failure(flight.job, flight.attempt, failure)

        def exhaust_rebuild_budget(reason: str) -> None:
            """Terminal backstop: the pool broke more often than allowed."""
            casualties = (
                [(flight.job, flight.attempt) for flight in in_flight.values()]
                + list(ready)
                + [(job, attempt) for _, _, job, attempt in delayed]
            )
            in_flight.clear()
            ready.clear()
            delayed.clear()
            for job, attempt in casualties:
                ledger = manifest.entry(job)
                failure = JobFailure(
                    exc_type="PoolRebuildBudgetExceeded",
                    message=(
                        f"pool rebuild budget exhausted after "
                        f"{config.max_pool_rebuilds} rebuild(s): {reason}"
                    ),
                    retryable=False,
                    attempts=attempt + 1,
                )
                failures[job.job_id] = failure
                ledger.status = "failed"
                ledger.error = failure.summary_line

        try:
            while ready or delayed or in_flight:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, job, attempt = heapq.heappop(delayed)
                    ready.append((job, attempt))

                pool_broken = False
                while ready and len(in_flight) < size:
                    job, attempt = ready.popleft()
                    ledger = manifest.entry(job)
                    started = time.monotonic()
                    deadline = (
                        started + config.job_timeout_s
                        if config.job_timeout_s is not None
                        else None
                    )
                    try:
                        future = pool.submit(
                            _execute_job_guarded, job, attempt, True, plan_payload
                        )
                    except BrokenExecutor:
                        # The pool died between completions; put the job back
                        # (it never ran -- no attempt charged) and rebuild.
                        ready.appendleft((job, attempt))
                        pool_broken = True
                        break
                    ledger.attempts += 1
                    in_flight[future] = _Flight(job, attempt, started, deadline)

                if not pool_broken and not in_flight:
                    # Only backoff-delayed work remains: sleep until due.
                    if delayed:
                        time.sleep(max(delayed[0][0] - time.monotonic(), 0.0))
                    continue

                if not pool_broken:
                    deadlines = [
                        flight.deadline
                        for flight in in_flight.values()
                        if flight.deadline is not None
                    ]
                    if delayed:
                        deadlines.append(delayed[0][0])
                    timeout = (
                        max(min(deadlines) - time.monotonic(), 0.0)
                        if deadlines
                        else None
                    )
                    done, _ = wait(
                        list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        flight = in_flight.pop(future)
                        ledger = manifest.entry(flight.job)
                        try:
                            outcome, failure = future.result()
                        except BrokenExecutor as exc:
                            # The worker under this job (or a sibling) died;
                            # every in-flight future fails the same way.  We
                            # cannot tell the crasher from the bystanders, so
                            # each affected job is charged one retryable
                            # attempt -- one crashed worker costs one retry.
                            ledger.worker_crashes += 1
                            ledger.seconds += time.monotonic() - flight.started
                            manifest.event(
                                flight.job.job_id,
                                f"worker-crash on attempt {flight.attempt + 1} "
                                f"({type(exc).__name__})",
                            )
                            settle_failure(
                                flight.job,
                                flight.attempt,
                                JobFailure.from_exception(exc, flight.attempt + 1),
                            )
                            pool_broken = True
                            continue
                        except Exception as exc:  # CancelledError and friends
                            ledger.seconds += time.monotonic() - flight.started
                            settle_failure(
                                flight.job,
                                flight.attempt,
                                JobFailure.from_exception(exc, flight.attempt + 1),
                            )
                            continue
                        settle_outcome(flight, outcome, failure)

                if pool_broken:
                    rebuilds += 1
                    # Salvage any future that finished cleanly before the
                    # collapse; everything else is lost with the pool.
                    for future, flight in list(in_flight.items()):
                        if future.done():
                            try:
                                outcome, failure = future.result()
                            except Exception:
                                pass
                            else:
                                settle_outcome(flight, outcome, failure)
                                continue
                        ledger = manifest.entry(flight.job)
                        ledger.worker_crashes += 1
                        ledger.seconds += time.monotonic() - flight.started
                        manifest.event(
                            flight.job.job_id,
                            f"worker-crash on attempt {flight.attempt + 1} "
                            f"(pool collapsed)",
                        )
                        settle_failure(
                            flight.job,
                            flight.attempt,
                            JobFailure(
                                exc_type="BrokenProcessPool",
                                message="worker pool collapsed under this job",
                                retryable=True,
                                attempts=flight.attempt + 1,
                            ),
                        )
                    in_flight.clear()
                    _kill_pool(pool)
                    if rebuilds > config.max_pool_rebuilds:
                        exhaust_rebuild_budget("worker crash")
                        return
                    pool = ProcessPoolExecutor(max_workers=size)
                    continue

                # Watchdog: time out any in-flight job past its deadline.
                now = time.monotonic()
                hung = [
                    future
                    for future, flight in in_flight.items()
                    if flight.deadline is not None and flight.deadline <= now
                ]
                if hung:
                    rebuilds += 1
                    # A hung worker cannot be cancelled through the executor
                    # API; kill the pool and rebuild it.  The hung job is
                    # charged a (retryable) timeout; innocent in-flight jobs
                    # are requeued at the same attempt -- interruption is not
                    # their failure -- bounded by the rebuild budget.
                    _kill_pool(pool)
                    for future, flight in list(in_flight.items()):
                        ledger = manifest.entry(flight.job)
                        ledger.seconds += time.monotonic() - flight.started
                        if future in hung:
                            ledger.timeouts += 1
                            manifest.event(
                                flight.job.job_id,
                                f"timed-out after {config.job_timeout_s}s on "
                                f"attempt {flight.attempt + 1}",
                            )
                            settle_failure(
                                flight.job,
                                flight.attempt,
                                JobFailure(
                                    exc_type="JobTimeout",
                                    message=(
                                        f"job exceeded job_timeout_s="
                                        f"{config.job_timeout_s}s"
                                    ),
                                    retryable=True,
                                    attempts=flight.attempt + 1,
                                ),
                            )
                        else:
                            ledger.requeues += 1
                            manifest.event(
                                flight.job.job_id,
                                f"requeued (pool rebuilt around a hung sibling, "
                                f"attempt {flight.attempt + 1} uncharged)",
                            )
                            ready.append((flight.job, flight.attempt))
                    in_flight.clear()
                    if rebuilds > config.max_pool_rebuilds:
                        exhaust_rebuild_budget("hung job")
                        return
                    pool = ProcessPoolExecutor(max_workers=size)
        finally:
            _kill_pool(pool)

    # ------------------------------------------------------------------ #
    def _backoff(self, job_id: str, attempt: int) -> float:
        return backoff_delay(
            job_id, attempt, self.config.backoff_base_s, self.config.backoff_cap_s
        )

    # ------------------------------------------------------------------ #
    def _cache_path(self, job: ProfileJob, manifest: SweepManifest | None = None) -> Path | None:
        if self.cache_dir is None:
            return None
        key = manifest.entry(job).key if manifest is not None else job_key(job)
        return self.cache_dir / f"{key}.pkl"

    def _cache_load(
        self,
        job: ProfileJob,
        manifest: SweepManifest | None = None,
        plan: "faults.FaultPlan | None" = None,
    ) -> object | None:
        path = self._cache_path(job, manifest)
        if path is None:
            return None
        if plan is not None and path.exists():
            spec = plan.cache_fault(job.job_id)
            if spec is not None and faults.corrupt_entry(path):
                if manifest is not None:
                    manifest.event(job.job_id, "fault-injected: cache_corrupt")
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                return _ColumnSpillUnpickler(handle, path.with_suffix(".npz")).load()
        except Exception as exc:
            # Truncated/corrupt pickle or sidecar: quarantine the entry so
            # later sweeps see a clean miss instead of re-parsing garbage,
            # and degrade to a recompute -- never an abort.
            self._quarantine(job, path, exc, manifest)
            return None

    def _quarantine(
        self,
        job: ProfileJob,
        path: Path,
        exc: Exception,
        manifest: SweepManifest | None,
    ) -> None:
        quarantined: list[str] = []
        for victim in (path, path.with_suffix(".npz")):
            try:
                if victim.exists():
                    victim.replace(victim.with_name(victim.name + ".corrupt"))
                    quarantined.append(victim.name)
            except OSError:
                # Even the rename can fail (read-only dir, races); removal is
                # the next-best way to stop replaying the corruption.
                try:
                    victim.unlink(missing_ok=True)
                except OSError:
                    continue
        if manifest is not None:
            ledger = manifest.entry(job)
            ledger.quarantined += 1
            manifest.event(
                job.job_id,
                f"cache-quarantined {quarantined or [path.name]} "
                f"({type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''})",
            )

    def _cache_store(
        self, job: ProfileJob, result: object, manifest: SweepManifest | None = None
    ) -> None:
        path = self._cache_path(job, manifest)
        if path is None:
            return
        # The staging names are unique per writer (pid + in-process counter):
        # two sweeps sharing FINGRAV_PROFILE_CACHE previously staged to the
        # same `<key>.tmp` and could interleave writes, atomically renaming a
        # corrupt mix of both into place.  The sidecar shares the suffix and
        # is renamed into place *before* the pickle, so a reader that sees
        # the new pickle always finds a sidecar at least as new.
        sidecar = path.with_suffix(".npz")
        suffix = f".{os.getpid()}-{next(_STAGING_COUNTER)}.tmp"
        staging = path.with_name(path.name + suffix)
        sidecar_staging = sidecar.with_name(sidecar.name + suffix)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with staging.open("wb") as handle:
                spilled = _write_entry(result, handle, self.spill_points)
            if spilled:
                with sidecar_staging.open("wb") as handle:
                    _write_sidecar(spilled, handle)
                sidecar_staging.replace(sidecar)
            staging.replace(path)
            if manifest is not None:
                manifest.entry(job).cache_stored = True
        except Exception as exc:
            # The cache is an optimisation; a failed store (ENOSPC, lock
            # trouble, permissions) never fails a sweep -- but it is recorded
            # so the manifest shows why the entry will recompute next time.
            if manifest is not None:
                ledger = manifest.entry(job)
                ledger.cache_store_failures += 1
                manifest.event(
                    job.job_id, f"cache-store-failed ({type(exc).__name__}: {exc})"
                )
        finally:
            # A failed write (or a replace that raced a directory removal)
            # must not leave its staging files behind.
            for stray in (staging, sidecar_staging):
                try:
                    stray.unlink(missing_ok=True)
                except OSError:
                    pass

    def _sweep_stale_staging(self) -> None:
        """Remove staging strays orphaned by crashed/killed writers.

        Only files matching the staging pattern *and* untouched for
        :data:`_STALE_STAGING_S` are removed, so concurrent sweeps' live
        staging files are never disturbed.
        """
        if self.cache_dir is None or not self.cache_dir.is_dir():
            return
        cutoff = time.time() - _STALE_STAGING_S  # statics: allow[wall-clock] -- GC cutoff compared against file mtimes, which are wall-clock too
        for pattern in ("*.pkl.*.tmp", "*.npz.*.tmp", "*.json.*.tmp"):
            for stray in self.cache_dir.glob(pattern):
                try:
                    if stray.stat().st_mtime < cutoff:
                        stray.unlink(missing_ok=True)
                except OSError:
                    continue


def _parse_workers(value: object, source: str) -> int:
    """Validate a worker count, naming its source in the error."""
    try:
        workers = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{source} must be an integer >= 1, got {value!r}") from exc
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


def default_runner() -> SweepRunner:
    """Runner configured from FINGRAV_WORKERS / FINGRAV_PROFILE_CACHE (plus
    the fault-model knobs read by :meth:`SweepConfig.from_env`)."""
    workers = _parse_workers(os.environ.get("FINGRAV_WORKERS", "1") or 1, "FINGRAV_WORKERS")
    cache = os.environ.get("FINGRAV_PROFILE_CACHE") or None
    return SweepRunner(workers=workers, cache_dir=cache)


def run_jobs(
    jobs: Sequence[ProfileJob], runner: SweepRunner | None = None
) -> dict[str, object]:
    """Execute jobs with the given runner (or a fresh default one)."""
    return (runner or default_runner()).run(jobs)


# --------------------------------------------------------------------------- #
# The full-suite sweep (python -m repro.experiments.sweep).
# --------------------------------------------------------------------------- #
EXPERIMENT_NAMES: tuple[str, ...] = (
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "table1", "table2", "ablations",
)


def run_sweep(
    experiments: Sequence[str],
    scale: ExperimentScale | None = None,
    runner: SweepRunner | None = None,
) -> dict[str, object]:
    """Run the requested experiment drivers through one shared job pool.

    All drivers' jobs are collected first and executed in a single
    :meth:`SweepRunner.run` call, so the pool is saturated across experiment
    boundaries; each driver then assembles its result object from the shared
    result dictionary.  Returns {experiment name: result object}.

    A failing job does not discard the rest of the sweep: every experiment
    whose jobs all completed is still assembled, and the
    :class:`SweepJobError` re-raised at the end carries those assembled
    results on ``.assembled`` (plus the raw completed job results on
    ``.completed``), so callers -- including the CLI -- can salvage the
    finished work even with the on-disk cache disabled.
    """
    from . import ablations, fig5, fig6, fig7, fig8, fig9, fig10, table1, table2

    scale = scale or default_scale()
    runner = runner or default_runner()
    requested = list(dict.fromkeys(experiments))
    unknown = [name for name in requested if name not in EXPERIMENT_NAMES]
    if unknown:
        raise ValueError(f"unknown experiments: {unknown}; pick from {EXPERIMENT_NAMES}")

    needs = set(requested)
    if "table2" in needs:
        # Table II composes Figure 7 and Figure 9; make sure their jobs ride
        # along so the assembly below can reuse them.
        needs.update(("fig7", "fig9"))

    jobs: list[ProfileJob] = []
    if "fig5" in needs:
        jobs += fig5.fig5_jobs(scale=scale)
    if "fig6" in needs:
        jobs += fig6.fig6_jobs(scale=scale)
    if "fig7" in needs:
        jobs += fig7.fig7_jobs(scale=scale)
    if "fig8" in needs:
        jobs += fig8.fig8_jobs(scale=scale)
    if "fig9" in needs:
        jobs += fig9.fig9_jobs(scale=scale)
    if "fig10" in needs:
        jobs += fig10.fig10_jobs(scale=scale)
    if "table1" in needs:
        jobs += table1.table1_jobs(scale=scale)
    if "ablations" in needs:
        jobs += ablations.sampler_ablation_jobs(scale=scale)
        jobs += ablations.binning_margin_jobs(scale=scale)
        jobs += ablations.coarse_coverage_jobs()
        jobs += ablations.drift_sensitivity_jobs()

    job_error: SweepJobError | None = None
    try:
        results = runner.run(jobs)
    except SweepJobError as error:
        results = error.completed
        job_error = error

    def assemble(name: str, build) -> object | None:
        # With a partial job pool an experiment whose job is missing raises
        # KeyError during assembly; skip it (its failure is already recorded
        # on the SweepJobError being re-raised below).
        if job_error is None:
            return build()
        try:
            return build()
        except KeyError:
            return None

    assembled: dict[str, object] = {}
    if "fig5" in needs:
        assembled["fig5"] = assemble("fig5", lambda: fig5.fig5_from_results(results, scale=scale))
    if "fig6" in needs:
        assembled["fig6"] = assemble("fig6", lambda: fig6.fig6_from_results(results, scale=scale))
    if "fig7" in needs:
        assembled["fig7"] = assemble("fig7", lambda: fig7.fig7_from_results(results, scale=scale))
    if "fig8" in needs:
        assembled["fig8"] = assemble("fig8", lambda: fig8.fig8_from_results(results, scale=scale))
    if "fig9" in needs:
        assembled["fig9"] = assemble("fig9", lambda: fig9.fig9_from_results(results, scale=scale))
    if "fig10" in needs:
        assembled["fig10"] = assemble("fig10", lambda: fig10.fig10_from_results(results, scale=scale))
    if "table1" in needs:
        assembled["table1"] = assemble("table1", lambda: table1.table1_from_results(results, scale=scale))
    if "table2" in requested:
        if assembled.get("fig7") is not None and assembled.get("fig9") is not None:
            assembled["table2"] = assemble("table2", lambda: table2.run_table2(
                scale=scale, fig7=assembled["fig7"], fig9=assembled["fig9"]
            ))
        else:
            assembled["table2"] = None
    if "ablations" in needs:
        sampler = assemble(
            "ablations", lambda: ablations.sampler_ablation_from_results(results, scale=scale)
        )
        margins = assemble(
            "ablations", lambda: ablations.binning_margin_from_results(results, scale=scale)
        )
        coverage = assemble("ablations", lambda: results["ablations/coverage/CB-2K-GEMM"])
        drift = assemble("ablations", lambda: results["ablations/drift/CB-8K-GEMM"])
        if any(part is None for part in (sampler, margins, coverage, drift)):
            assembled["ablations"] = None
        else:
            assembled["ablations"] = {
                "sampler": sampler,
                "margins": margins,
                "coarse_coverage": coverage,
                "drift": drift,
            }
    final = {
        name: assembled[name]
        for name in requested
        if assembled.get(name) is not None
    }
    if job_error is not None:
        job_error.assembled = final
        raise job_error
    return final


def _summarize(name: str, result: object) -> object:
    """JSON-friendly summary of one experiment's result object."""
    if name == "ablations":
        sampler = result["sampler"]
        return {
            "sampler": sampler.to_row(),
            "margins": result["margins"].rows(),
            "coarse_coverage": result["coarse_coverage"].to_row(),
            "drift": result["drift"].rows(),
        }
    if hasattr(result, "summary"):
        return result.summary()
    if hasattr(result, "rows"):
        return result.rows()
    return repr(result)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweep",
        description="Run the paper's experiment suite through the parallel sweep engine.",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment driver")
    parser.add_argument(
        "--experiments", nargs="+", default=(), metavar="NAME",
        help=f"drivers to run (any of: {', '.join(EXPERIMENT_NAMES)})",
    )
    parser.add_argument(
        "--scale", default=None,
        help="run budgets: tiny, fast or paper (default: FINGRAV_SCALE or fast)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size (default: FINGRAV_WORKERS or 1)",
    )
    parser.add_argument(
        "--cache", default=None, metavar="DIR",
        help="content-keyed on-disk profile cache (default: FINGRAV_PROFILE_CACHE)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job watchdog timeout, workers > 1 only "
             "(default: FINGRAV_JOB_TIMEOUT or disabled; 0 disables)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="max retries per transiently-failing job (default: FINGRAV_MAX_RETRIES or 2)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="run-manifest location (default: <cache>/manifest.json when caching)",
    )
    parser.add_argument("--json", default=None, metavar="PATH", help="write summaries to a JSON file")
    parser.add_argument("--list", action="store_true", help="list experiment names and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENT_NAMES:
            print(name)
        return 0
    requested = list(EXPERIMENT_NAMES) if args.all else list(args.experiments)
    if not requested:
        parser.error("nothing to run: pass --all or --experiments")

    scale = scale_by_name(args.scale) if args.scale else default_scale()
    try:
        if args.workers is not None:
            workers = _parse_workers(args.workers, "--workers")
        else:
            workers = _parse_workers(
                os.environ.get("FINGRAV_WORKERS", "1") or 1, "FINGRAV_WORKERS"
            )
        config = SweepConfig.from_env()
        if args.job_timeout is not None:
            config = replace(
                config, job_timeout_s=args.job_timeout if args.job_timeout > 0 else None
            )
        if args.retries is not None:
            config = replace(config, max_retries=args.retries)
    except ValueError as error:
        parser.error(str(error))
    cache = args.cache if args.cache is not None else (
        os.environ.get("FINGRAV_PROFILE_CACHE") or None
    )
    try:
        runner = SweepRunner(
            workers=workers, cache_dir=cache, config=config, manifest_path=args.manifest
        )
    except ValueError as error:
        parser.error(str(error))

    print(f"[sweep] scale={scale.name} workers={runner.workers} "
          f"cache={runner.cache_dir or 'off'} "
          f"timeout={config.job_timeout_s or 'off'} retries={config.max_retries} "
          f"experiments={' '.join(requested)}")
    begin = time.perf_counter()
    job_error: SweepJobError | None = None
    try:
        results = run_sweep(requested, scale=scale, runner=runner)
    except faults.FaultPlanError as error:
        print(f"[sweep] ABORT: {error}")
        return 2
    except KeyboardInterrupt:
        # The runner already cancelled/killed its pool and flushed the
        # manifest before re-raising; exit with the conventional SIGINT code.
        print("\n[sweep] interrupted: pending jobs cancelled", flush=True)
        if runner.manifest_path is not None:
            print(f"[sweep] partial manifest flushed to {runner.manifest_path}")
        return 130
    except SweepJobError as error:
        # Salvage: report every experiment that still assembled, then exit
        # nonzero naming the failing job(s).
        results = error.assembled
        job_error = error
    elapsed = time.perf_counter() - begin

    summaries = {}
    for name, result in results.items():
        summary = _summarize(name, result)
        summaries[name] = summary
        print(f"\n=== {name} ===")
        print(json.dumps(summary, indent=2, default=str))
    manifest = runner.last_manifest or {}
    counts = manifest.get("counts", {})
    print(f"\n[sweep] done in {elapsed:.1f}s "
          f"({runner.cache_hits} cache hits, {runner.workers} workers, "
          f"{counts.get('retried', 0)} retries, {counts.get('timed_out', 0)} timeouts, "
          f"{counts.get('quarantined', 0)} quarantined)")
    if runner.manifest_path is not None:
        print(f"[sweep] manifest written to {runner.manifest_path}")
    if job_error is not None:
        print(f"\n[sweep] PARTIAL: {job_error}")
        for job_id, failure in sorted(job_error.failures.items()):
            print(f"[sweep]   {job_id}: {failure.summary_line}")

    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {
                "scale": scale.name,
                "workers": runner.workers,
                "seconds": elapsed,
                "cache_hits": runner.cache_hits,
                "manifest_counts": counts,
                "summaries": summaries,
                "failures": (
                    {job_id: str(failure) for job_id, failure in job_error.failures.items()}
                    if job_error else {}
                ),
            },
            indent=2,
            default=str,
        ) + "\n")
        print(f"[sweep] summaries written to {path}")
    return 0 if job_error is None else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    # Delegate to the canonical module instance so worker processes always
    # unpickle against repro.experiments.sweep, not a __main__ copy.
    from repro.experiments.sweep import main as _canonical_main

    raise SystemExit(_canonical_main())


__all__ = [
    "KernelSpec",
    "kernel_spec",
    "ProfileJob",
    "STUDIES",
    "configured_result_mode",
    "configured_adaptive",
    "execute_job",
    "job_key",
    "SweepConfig",
    "classify_retryable",
    "JobFailure",
    "backoff_delay",
    "SweepJobError",
    "SweepManifest",
    "MANIFEST_SCHEMA",
    "SweepRunner",
    "default_runner",
    "run_jobs",
    "run_sweep",
    "EXPERIMENT_NAMES",
    "main",
]
