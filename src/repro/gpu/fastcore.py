"""Compiled slice/boundary core: providers, self-check and engine selection.

The device has two engines:

``compiled``
    The hot loops (idle per-period loop, execution slice loop, firmware
    control boundary, closed-form thermal relaxation, whole instrumented
    runs) run as the kernel bodies of :mod:`repro.gpu._fastcore_kernels`.
    Three providers run those bodies, tried in this order -- ``numba``
    (``@njit(cache=True)``; installed via the ``fast`` extra), ``cc`` (the
    same bodies translated to C by :mod:`repro.gpu._fastcore_c`, compiled
    once with the system C compiler and bound through ctypes,
    :mod:`repro.gpu._fastcore_cc`) and ``python`` (the bodies as plain
    Python: slow, but available on every host).  The same provider runs the
    profiler's checkpoint-ingest bodies, :mod:`repro.core._kernels` (the
    golden-run window, the LOI matcher and the per-run durations), whatever
    the engine.  A one-time self-check replays fixed scenarios through the
    candidate provider and through the pure-Python bodies of both modules
    and requires bit-for-bit agreement before the provider is selected; a
    provider that fails to build or fails the check warns once and the next
    one is tried.  A provider that is simply absent
    (no Numba, no C compiler) is skipped silently.
``reference``
    The per-slice object path -- the executable specification.

Selection
---------
:func:`resolve_engine` implements the precedence *explicit argument* >
``REPRO_ENGINE`` environment variable > auto, and ``auto`` is
``compiled``.  The provider can be pinned with ``REPRO_FASTCORE_PROVIDER``
(``auto`` | ``numba`` | ``cc`` | ``python``); a pinned provider that cannot
be used makes :func:`kernels` raise instead of silently picking another.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from collections.abc import Iterator

import numpy as np

from ..core import _kernels as _CK
from . import _fastcore_kernels as _K

#: Engines accepted by BackendConfig.engine / SimulatedGPU(engine=...).
VALID_ENGINES = ("compiled", "reference")

#: Providers ``REPRO_FASTCORE_PROVIDER`` may pin, and the ones each tries.
_PROVIDER_CHAINS = {
    "auto": ("numba", "cc", "python"),
    "numba": ("numba",),
    "cc": ("cc",),
    "python": ("python",),
}


def _bind_arrays(run):
    """``bind_run`` for providers that take the arrays themselves.

    The bound call allocates the run's ``cpu_starts``/``cpu_ends`` as the two
    halves of one fresh array and returns ``(rc, times)``.
    """

    def bind_run(st, pp, rp, descs, seqs, caches, variates, seg, ev, lens, exec_rows, smp, out):
        total = exec_rows.shape[0]

        def call():
            times = np.empty(2 * total)
            rc = run(
                st, pp, rp, descs, seqs, caches, variates, seg, ev, lens,
                exec_rows, times[:total], times[total:], smp, out,
            )
            return rc, times

        return call

    return bind_run


class KernelBundle:
    """One provider's uniform kernel API.

    ``idle`` / ``execute`` / ``sequence`` / ``bind_run`` run the device
    bodies; ``window``, ``match`` and ``durations`` are ``k_window``,
    ``k_match`` and ``k_durations`` of :mod:`repro.core._kernels`.
    ``bind_run(st, pp, rp, descs, seqs, caches, variates, seg, ev, lens,
    exec_rows, smp, out)`` binds ``k_run`` to a run plan's arrays; the
    returned call takes no argument, writes every execution's host-observed
    start and end into a fresh array and returns ``(rc, times)`` (starts,
    then ends).
    """

    __slots__ = (
        "name", "idle", "execute", "sequence", "bind_run", "window", "match", "durations",
        "numba_version", "lib_path",
    )

    def __init__(
        self, name, idle, execute, sequence, bind_run, window, match, durations,
        numba_version=None, lib_path=None,
    ):
        self.name = name
        self.idle = idle
        self.execute = execute
        self.sequence = sequence
        self.bind_run = bind_run
        self.window = window
        self.match = match
        self.durations = durations
        self.numba_version = numba_version
        self.lib_path = lib_path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelBundle({self.name!r})"


# --------------------------------------------------------------------- #
# Provider loading.
# --------------------------------------------------------------------- #
def _numba_importable() -> bool:
    """Whether the Numba provider can be used (patched by fallback tests)."""
    return _K.HAVE_NUMBA


def _load_provider(name: str) -> tuple[KernelBundle | None, str | None]:
    if name == "numba":
        if not _numba_importable():
            return None, "numba: not importable"
        import numba

        return _module_bundle("numba", numba_version=numba.__version__), None
    if name == "python":
        # The body modules as imported: pure Python without Numba, jitted
        # when Numba is present.
        return _module_bundle("python"), None
    if name == "cc":
        from . import _fastcore_cc

        compiler = _fastcore_cc.find_compiler()
        if compiler is None:
            return None, "cc: no C compiler found"
        try:
            cc = _fastcore_cc.load(compiler)
        except Exception as exc:
            # A compiler that cannot build the core is a failure, not an
            # absence: falling back silently would hide a several-fold slowdown.
            _warn_once("build:cc", f"fastcore provider 'cc' failed to build ({exc})")
            return None, f"cc: {exc}"
        return (
            KernelBundle(
                "cc", cc.idle, cc.execute, cc.sequence, cc.bind_run, cc.window, cc.match,
                cc.durations, lib_path=cc.lib_path,
            ),
            None,
        )
    return None, f"unknown provider {name!r}"


def _module_bundle(name: str, numba_version: str | None = None) -> KernelBundle:
    """The body modules' entry points, as they are bound right now."""
    return KernelBundle(
        name, _K.k_idle, _K.k_execute, _K.k_sequence, _bind_arrays(_K.k_run),
        _CK.k_window, _CK.k_match, _CK.k_durations, numba_version=numba_version,
    )


# --------------------------------------------------------------------- #
# Self-check: candidate provider vs the pure-Python kernel bodies.
# --------------------------------------------------------------------- #
def _scenario_params() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fixed state/parameters/descriptors exercising every kernel branch."""
    pp = np.empty(_K.PARAM_LEN)
    pp[_K.P_PERIOD] = 250e-6
    pp[_K.P_IDLE_X] = 88.0
    pp[_K.P_IDLE_I] = 52.0
    pp[_K.P_IDLE_H] = 41.0
    pp[_K.P_IDLE_TOT] = 88.0 + 52.0 + 41.0
    pp[_K.P_NOM] = 2.1
    pp[_K.P_PEXP] = 2.4
    pp[_K.P_XIDLE] = 88.0
    pp[_K.P_XDYN] = 310.0
    pp[_K.P_IIDLE] = 52.0
    pp[_K.P_IDYN] = 128.0
    pp[_K.P_HIDLE] = 41.0
    pp[_K.P_HDYN] = 104.0
    pp[_K.P_SWING] = 0.06
    pp[_K.P_COUPLE] = 0.5
    pp[_K.P_HEAT_TAU] = 2.2e-3
    pp[_K.P_COOL_TAU] = 9.0e-3
    pp[_K.P_LIMIT] = 620.0
    pp[_K.P_EXC_THRESH] = 1.0
    pp[_K.P_EXC_WIN] = 800e-6
    pp[_K.P_T_HOLD] = 1.6e-3
    pp[_K.P_REC_STEP] = 0.010
    pp[_K.P_RAMP_STEP] = 0.5
    pp[_K.P_CAP_TGT] = 0.985
    pp[_K.P_CAP_HYST] = 0.03
    pp[_K.P_IDLE_PARK] = 2.0e-3
    pp[_K.P_F_IDLE] = 0.8
    pp[_K.P_F_BOOST] = 2.25
    pp[_K.P_F_SUST] = 1.9
    pp[_K.P_RETENTION] = 4e-3
    pp[_K.P_MINFACT] = 0.85

    st = np.zeros(_K.STATE_LEN)
    st[_K.S_NEXT] = pp[_K.P_PERIOD]
    st[_K.S_FREQ] = pp[_K.P_F_IDLE]

    def pack(base, sens, cold_mult, cold_execs, rows):
        desc = np.empty(5 + 5 * len(rows))
        desc[0] = base
        desc[1] = sens
        desc[2] = cold_mult
        desc[3] = float(cold_execs)
        desc[4] = float(len(rows))
        for i, row in enumerate(rows):
            desc[5 + 5 * i : 10 + 5 * i] = row
        return desc

    # Long power-hungry kernel: crosses many control boundaries, ramps,
    # overdraws and throttles (then recovers / caps on later executions).
    desc_long = pack(
        1.1e-3,
        0.9,
        1.15,
        2,
        [
            (0.1, 0.82, 0.95, 0.97, 1.0),
            (0.9, 1.0, 0.96, 0.94, 0.98),
            (1.0, 0.8, 1.0, 1.0, 1.0),
        ],
    )
    # Short kernel: the single-slice shortcut inside a fused sequence.
    desc_short = pack(
        42e-6,
        1.0,
        1.08,
        2,
        [
            (0.15, 0.7, 1.1, 1.2, 1.25),
            (1.0, 0.95, 0.97, 0.95, 0.96),
        ],
    )
    return st, pp, desc_long, desc_short


def _run_scenario(bundle: KernelBundle) -> dict[str, np.ndarray]:
    """Drive the entry points through a fixed multi-branch scenario."""
    idle, execute, sequence = bundle.idle, bundle.execute, bundle.sequence
    st, pp, desc_long, desc_short = _scenario_params()
    period = pp[_K.P_PERIOD]
    seg = np.zeros((512, 5))
    ev = np.zeros((64, 4))
    lens = np.zeros(2, dtype=np.int64)
    segs: list[np.ndarray] = []
    evs: list[np.ndarray] = []
    states: list[np.ndarray] = []

    def drain() -> None:
        segs.append(seg[: int(lens[0])].copy())
        evs.append(ev[: int(lens[1])].copy())
        states.append(st.copy())

    def check(rc) -> None:
        if rc != 0:
            raise RuntimeError(f"scenario kernel returned rc={rc}")

    out8_a = np.zeros(8)
    out8_b = np.zeros(8)
    check(idle(st, pp, 0.9 * period, 1, seg, ev, lens))
    drain()
    check(execute(st, pp, desc_long, 1.0, 1, 1, seg, ev, lens, out8_a))
    drain()
    check(idle(st, pp, 3.3 * period, 1, seg, ev, lens))
    drain()
    check(execute(st, pp, desc_long, 0.97, 0, 1, seg, ev, lens, out8_b))
    drain()
    check(idle(st, pp, 10.0 * period, 1, seg, ev, lens))
    drain()

    executions = 5
    cache = np.array([0.0, -1.0])
    variates = np.linspace(-1.2, 1.3, 4 * executions)
    exec_rows = np.zeros((executions, 8))
    cpu_starts = np.zeros(executions)
    cpu_ends = np.zeros(executions)
    check(
        sequence(
            st, pp, desc_short, cache, executions, variates, 1, 1.02,
            0.006, 2.5e-6, 0.5e-6, 0.6e-6, 1.0e-6, 1,
            seg, ev, lens, exec_rows, cpu_starts, cpu_ends,
        )
    )
    drain()

    # Whole runs: a throttling long kernel, then two short sequences sharing
    # one cache row; first under a window sampler, then a point sampler.
    rp = np.zeros(_K.R_LEN)
    rp[_K.R_PARK] = 8e-3
    rp[_K.R_PRE_PAD] = 1.5e-3
    rp[_K.R_READ_OUT] = 1.1e-6
    rp[_K.R_READ_BACK] = 0.9e-6
    rp[_K.R_PRE_DELAY] = 0.37e-3
    rp[_K.R_POST_PAD] = 1.3e-3
    rp[_K.R_LAT_MEAN] = 2.5e-6
    rp[_K.R_LAT_JIT] = 0.5e-6
    rp[_K.R_ERR_STD] = 0.6e-6
    rp[_K.R_GAP] = 1.0e-6
    rp[_K.R_EPOCH] = 12.5
    rp[_K.R_DRIFT] = 1.0 + 3e-6
    rp[_K.R_HZ] = 100e6
    rp[_K.R_NSEQ] = 3
    descs = np.concatenate([desc_long, desc_short])
    seqs = np.array(
        [
            [0, 2, 0, 1, 1.03, 0.01],
            [desc_long.shape[0], 4, 1, 1, 0.98, 0.006],
            [desc_long.shape[0], 3, 1, 1, 0.98, 0.006],
        ],
        dtype=float,
    )
    caches = np.array([[0.0, -1.0], [3.0, -1.0]])
    run_variates = np.linspace(-1.1, 1.4, 4 * 9)
    run_rows = np.zeros((9, 8))
    smp = np.zeros((128, 5))
    out = np.zeros(_K.O_LEN)
    call = bundle.bind_run(
        st, pp, rp, descs, seqs, caches, run_variates, seg, ev, lens, run_rows, smp, out
    )
    samples: list[np.ndarray] = []
    outs: list[np.ndarray] = []
    times: list[np.ndarray] = []
    for window, sample_period in ((1.0, 1e-3), (0.0, 100e-6)):
        rp[_K.R_WINDOW] = window
        rp[_K.R_SPERIOD] = sample_period
        rc, run_times = call()
        check(rc)
        drain()
        samples.append(smp[: int(out[_K.O_NSMP])].copy())
        outs.append(out.copy())
        times.append(run_times)
    return {
        "segments": np.vstack(segs),
        "events": np.vstack(evs),
        "states": np.vstack(states),
        "out8_a": out8_a,
        "out8_b": out8_b,
        "exec_rows": exec_rows,
        "cpu_starts": cpu_starts,
        "cpu_ends": cpu_ends,
        "cache": cache,
        "run_rows": run_rows,
        "run_times": np.vstack(times),
        "run_caches": caches,
        "samples": np.vstack(samples),
        "run_outs": np.vstack(outs),
    }


def _run_core_scenario(bundle: KernelBundle) -> dict[str, np.ndarray]:
    """Drive ``window``, ``match`` and ``durations`` through a fixed batch."""
    # Windows over tied durations, the batch merged into held ones.
    held = np.array([1.0, 1.02, 1.04, 1.31, 2.0]) * 1e-4
    held_index = np.array([4, 0, 7, 2, 9], dtype=np.int64)
    batch = np.array([1.31, 1.0, 1.04, 1.3, 1.05]) * 1e-4
    order = np.argsort(batch, kind="stable")
    windows = np.zeros((3, 2), dtype=np.int64)
    merged = np.zeros((3, 10))
    merged_index = np.zeros((3, 10), dtype=np.int64)
    for row, margin in enumerate((0.05, 1e-9, 0.3)):
        bundle.window(
            held, held_index, batch, order, 10, margin, merged[row], merged_index[row],
            windows[row],
        )
    # Four runs: back-to-back executions with a shared boundary, nested
    # executions (the scalar scan), no executions, and executions that
    # overlap the first run's span.
    starts = np.array([2.0, 2.0002, 2.0004, 3.0, 3.0001, 3.0003, 2.00015, 2.0003])
    ends = np.array([2.0002, 2.0004, 2.0006, 3.0004, 3.0002, 3.0005, 2.00035, 2.0007])
    exec_indices = np.array([0, 1, 2, 0, 1, 2, 5, 6], dtype=np.int64)
    exec_offsets = np.array([0, 3, 6, 6, 8], dtype=np.int64)
    reading_offsets = np.array([0, 5, 9, 11, 14], dtype=np.int64)
    times = np.array([
        1.9999, 2.0001, 2.0002, 2.0005, 2.0009, 3.00005, 3.00015, 3.00035, 3.0006,
        4.0, 4.001, 2.0001, 2.00032, 2.00068,
    ])
    run_indices = np.array([3, 4, 8, 9], dtype=np.int64)
    anchors = np.array([700, 800, 900, 1000], dtype=np.int64)
    scales = np.array([1e8, 1e8 * (1 + 3e-6), 1e8, 1e8])
    origins = np.array([1.5, 2.5, 3.5, 1.25])
    owner = np.repeat(np.arange(4), np.diff(reading_offsets))
    ticks = anchors[owner] + np.rint((times - origins[owner]) * scales[owner]).astype(np.int64)
    outs = {"windows": windows, "merged": merged, "merged_index": merged_index}
    # Unsynchronised: each run's sample grid from its logger start.
    grid = (np.array([1.99985, 2.9999, 3.9999, 1.9999]), np.full(4, 2.5e-4))
    for synchronize, (starts_at, steps) in ((1, (origins, scales)), (0, grid)):
        total = ticks.shape[0]
        ints = np.zeros(_CK.I_LEN * total, dtype=np.int64)
        floats = np.zeros(_CK.F_LEN * total)
        lois = bundle.match(
            ticks, np.concatenate((reading_offsets, exec_offsets)),
            np.concatenate((run_indices, anchors)), np.concatenate((starts_at, steps)), 4,
            synchronize, starts, ends, exec_indices, ints, floats,
        )
        outs[f"match_{synchronize}"] = np.concatenate(([lois], ints, floats.view(np.int64)))
    # Per-run durations of the last execution, of index 2 and of index 6.
    for which in (-1, 2, 6):
        ordinals = np.zeros(4, dtype=np.int64)
        durations = np.zeros(4)
        found = bundle.durations(
            exec_offsets, exec_indices, starts, ends, which, ordinals, durations
        )
        outs[f"durations_{which}"] = np.concatenate(([found], ordinals, durations.view(np.int64)))
    return outs


@contextlib.contextmanager
def pure_kernels() -> Iterator[KernelBundle]:
    """The pure-Python kernel bodies as a bundle, for the ``with`` block.

    When Numba is active the module-level kernels of both body modules are
    dispatchers; every one's original body is temporarily swapped back in
    (nested calls resolve through the module globals at call time, so the
    whole chain runs pure).
    """
    swapped = [
        (module, name, func)
        for module in (_K, _CK)
        for name, func in vars(module).items()
        if hasattr(func, "py_func")
    ]
    for module, name, func in swapped:
        setattr(module, name, func.py_func)
    try:
        yield _module_bundle("python")
    finally:
        for module, name, func in swapped:
            setattr(module, name, func)


def self_check(bundle: KernelBundle) -> str | None:
    """Bit-for-bit comparison of a provider against the Python kernel bodies.

    Returns ``None`` when every recorded slice, firmware event, state vector
    and execution row of the device scenario, and every window and matched
    batch of the ingest scenario, agrees exactly, else a short failure
    description.
    """
    for scenario in (_run_scenario, _run_core_scenario):
        try:
            got = scenario(bundle)
            with pure_kernels() as pure:
                want = scenario(pure)
        except Exception as exc:
            return f"self-check scenario failed: {exc!r}"
        for key, expected in want.items():
            actual = got[key]
            if expected.shape != actual.shape or not np.array_equal(expected, actual):
                return f"self-check mismatch in {key!r}"
    return None


# --------------------------------------------------------------------- #
# Resolution (cached once per process).
# --------------------------------------------------------------------- #
_RESOLVED = False
_BUNDLE: KernelBundle | None = None
_FAILURE: str | None = None
_WARNED: set[str] = set()


def _warn_once(key: str, message: str) -> None:
    if key in _WARNED:
        return
    _WARNED.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _reset_for_tests() -> None:
    """Drop the cached provider resolution (test helper)."""
    global _RESOLVED, _BUNDLE, _FAILURE
    _RESOLVED = False
    _BUNDLE = None
    _FAILURE = None
    _WARNED.clear()


def provider_request() -> str:
    return os.environ.get("REPRO_FASTCORE_PROVIDER", "").strip().lower() or "auto"


def kernels() -> KernelBundle:
    """The active compiled-kernel provider.

    Resolution runs once per process: the requested provider chain
    (``numba``, ``cc``, ``python`` under ``auto``) is loaded and
    self-checked in order; the first that passes wins.  A provider that
    failed to build or failed its self-check warns once.  Raises
    ``ValueError`` for an unknown ``REPRO_FASTCORE_PROVIDER`` and
    ``RuntimeError`` when no provider of the chain is usable (only possible
    when one is pinned).
    """
    global _RESOLVED, _BUNDLE, _FAILURE
    if not _RESOLVED:
        request = provider_request()
        candidates = _PROVIDER_CHAINS.get(request)
        if candidates is None:
            raise ValueError(
                f"unknown REPRO_FASTCORE_PROVIDER {request!r}: valid providers "
                f"are {', '.join(repr(name) for name in _PROVIDER_CHAINS)}"
            )
        errors: list[str] = []
        for position, name in enumerate(candidates, start=1):
            loaded, error = _load_provider(name)
            if loaded is None:
                errors.append(error or f"{name}: unavailable")
                continue
            error = self_check(loaded)
            if error is None:
                _BUNDLE = loaded
                break
            errors.append(f"{name}: {error}")
            _warn_once(
                f"self-check:{name}",
                f"fastcore provider {name!r} failed its self-check ({error}); "
                + (
                    "trying the next provider"
                    if position < len(candidates)
                    else "no provider left"
                ),
            )
        _FAILURE = None if _BUNDLE is not None else "; ".join(errors)
        _RESOLVED = True
    if _BUNDLE is None:
        raise RuntimeError(f"no usable compiled-kernel provider ({_FAILURE})")
    return _BUNDLE


def provider_name() -> str:
    return kernels().name


def numba_version() -> str | None:
    return kernels().numba_version


def resolve_engine(engine: str | None = None) -> str:
    """Resolve an engine request to one of :data:`VALID_ENGINES`.

    Precedence: explicit ``engine`` argument > ``REPRO_ENGINE`` environment
    variable > auto selection, which is always ``compiled``.
    """
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE", "").strip().lower() or "auto"
    if engine == "auto":
        return "compiled"
    if engine not in VALID_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}: valid engines are 'compiled' and "
            "'reference' (or 'auto'/None for auto-selection)"
        )
    return engine


__all__ = [
    "VALID_ENGINES",
    "KernelBundle",
    "kernels",
    "provider_name",
    "numba_version",
    "provider_request",
    "pure_kernels",
    "resolve_engine",
    "self_check",
]
