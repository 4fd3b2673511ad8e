"""Shared plumbing for the experiment drivers.

Every paper table/figure has one driver module in this package.  They all
build their backends and profilers through these helpers so that seeds, run
budgets and sampler choices are controlled in one place, and so the benchmarks
can switch between a *fast* scale (CI-friendly) and the *paper* scale
(the run counts of Table I) with a single argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..core.profiler import FinGraVProfiler, ProfilerConfig
from ..gpu.backend import BackendConfig, SimulatedDeviceBackend
from ..gpu.spec import GPUSpec, mi300x_spec


@dataclass(frozen=True)
class ExperimentScale:
    """Run budgets for the experiment drivers."""

    name: str
    gemm_runs: int
    gemv_runs: int
    collective_runs: int
    interleaved_runs: int
    methodology_runs: int
    reduced_runs: int

    def validate(self) -> None:
        for field_name in (
            "gemm_runs", "gemv_runs", "collective_runs",
            "interleaved_runs", "methodology_runs", "reduced_runs",
        ):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")


#: Minimal budgets for smoke jobs (CI sweep) and the integration tests.
TINY_SCALE = ExperimentScale(
    name="tiny",
    gemm_runs=40,
    gemv_runs=100,
    collective_runs=40,
    interleaved_runs=30,
    methodology_runs=60,
    reduced_runs=20,
)

#: Small budgets for unit/integration tests and quick local runs.
FAST_SCALE = ExperimentScale(
    name="fast",
    gemm_runs=50,
    gemv_runs=120,
    collective_runs=50,
    interleaved_runs=40,
    methodology_runs=70,
    reduced_runs=25,
)

#: The paper's run budgets (Table I) -- used by the benchmark harnesses.
PAPER_SCALE = ExperimentScale(
    name="paper",
    gemm_runs=200,
    gemv_runs=400,
    collective_runs=200,
    interleaved_runs=150,
    methodology_runs=200,
    reduced_runs=50,
)


def default_scale() -> ExperimentScale:
    """Scale selected via the ``FINGRAV_SCALE`` environment variable.

    ``FINGRAV_SCALE`` may name any known scale (``tiny`` / ``fast`` /
    ``paper``); anything else (including unset) selects the fast budgets.
    """
    try:
        return scale_by_name(os.environ.get("FINGRAV_SCALE", "fast"))
    except ValueError:
        return FAST_SCALE


def scale_by_name(name: str) -> ExperimentScale:
    """Look up a scale by name (``tiny`` / ``fast`` / ``paper``)."""
    scales = {scale.name: scale for scale in (TINY_SCALE, FAST_SCALE, PAPER_SCALE)}
    try:
        return scales[name.lower()]
    except KeyError as exc:
        raise ValueError(f"unknown scale {name!r}; pick one of {sorted(scales)}") from exc


def execution_provenance() -> dict[str, str | None]:
    """Engine/provider identity stamped into sweep manifests and benchmarks.

    Resolution can itself fail (e.g. a corrupted compiled provider mid-CI);
    provenance is diagnostic metadata, so that degrades to an ``"error"``
    stamp instead of failing the caller.
    """
    from ..gpu import fastcore

    try:
        return {
            "engine": fastcore.resolve_engine(),
            "provider": fastcore.provider_name(),
            "numba": fastcore.numba_version(),
        }
    except Exception as exc:  # pragma: no cover - defensive
        return {"engine": "error", "provider": None, "numba": None, "error": str(exc)}


#: Step-8 additional-run cap of sweep jobs and :func:`make_profiler`: it
#: bounds a low-LOI kernel's wall time at the experiments' small run budgets
#: (``ProfilerConfig`` keeps the standalone default of 600).
SWEEP_MAX_ADDITIONAL_RUNS = 200

_POWER_SAMPLE_PERIOD_S: float | None = None


def power_sample_period_s() -> float:
    """The standard backend's power-logger period (cached spec constant)."""
    global _POWER_SAMPLE_PERIOD_S
    if _POWER_SAMPLE_PERIOD_S is None:
        _POWER_SAMPLE_PERIOD_S = make_backend(seed=0).power_sample_period_s
    return _POWER_SAMPLE_PERIOD_S


def make_backend(
    seed: int = 0,
    sampler: str = "averaging",
    spec: GPUSpec | None = None,
) -> SimulatedDeviceBackend:
    """A simulated-MI300X backend with the standard configuration."""
    return SimulatedDeviceBackend(
        spec=spec or mi300x_spec(),
        seed=seed,
        config=BackendConfig(sampler=sampler),
    )


def make_profiler(
    backend: SimulatedDeviceBackend,
    seed: int = 2024,
    max_additional_runs: int = SWEEP_MAX_ADDITIONAL_RUNS,
    result_mode: str = "full",
) -> FinGraVProfiler:
    """A FinGraV profiler with the standard configuration.

    ``result_mode="slim"`` makes ``profile()`` return the slim result
    projection (bit-identical profiles, no raw runs).  Callers that need any
    other knob build a :class:`ProfilerConfig` directly; sweep jobs build
    theirs with :meth:`~repro.experiments.sweep.ProfileJob.configs`.
    """
    config = ProfilerConfig(
        seed=seed, max_additional_runs=max_additional_runs, result_mode=result_mode
    )
    return FinGraVProfiler(backend, config)


__all__ = [
    "ExperimentScale",
    "TINY_SCALE",
    "FAST_SCALE",
    "PAPER_SCALE",
    "default_scale",
    "scale_by_name",
    "execution_provenance",
    "power_sample_period_s",
    "make_backend",
    "make_profiler",
]
