"""Ablations of the design choices DESIGN.md calls out.

These go beyond the paper's figures and probe the knobs the methodology (and
the simulation substrate) depends on:

* **Sampler ablation** -- replace the 1 ms averaging logger with an idealised
  instantaneous sampler: the SSE/SSP split collapses, confirming that the
  split is a consequence of trailing-window averaging (paper Section V-C3
  notes that with an instantaneous sampler the interleaving caveat vanishes).
* **Coarse-sampler coverage** -- the challenge-C1 baseline: an amd-smi-like
  sampler with a tens-of-milliseconds period misses most sub-ms executions.
* **Binning-margin sweep** -- tighter margins keep fewer runs but yield
  tighter profiles (the Table I trade-off).
* **Clock-drift sensitivity** -- with a drifting GPU clock, a single anchor
  per run keeps LOI placement accurate only because runs are short; large
  drift degrades TOI accuracy (the Lang et al. discussion in Section VII).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace as dataclass_replace
from typing import Mapping

import numpy as np

from ..analysis.trends import profile_spread
from ..core.baselines import CoarseSamplerEstimator, CoverageReport
from ..core.binning import ExecutionTimeBinner
from ..core.profiler import FinGraVResult
from ..core.stitching import ProfileStitcher
from ..core.timesync import extract_lois_batch
from ..gpu.backend import BackendConfig, SimulatedDeviceBackend
from ..gpu.spec import ClockSpec, GPUSpec, mi300x_spec
from ..kernels.workloads import cb_gemm
from .common import ExperimentScale, default_scale
from .sweep import ProfileJob, SweepRunner, configured_adaptive, configured_result_mode, kernel_spec, run_jobs


# --------------------------------------------------------------------------- #
# Sampler ablation.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SamplerAblationResult:
    """SSE-vs-SSP error under the averaging logger vs an instantaneous sampler."""

    kernel_name: str
    averaging_error: float
    instantaneous_error: float

    def averaging_window_causes_split(self) -> bool:
        """The SSE/SSP split should mostly vanish without window averaging."""
        return self.instantaneous_error < self.averaging_error * 0.5

    def to_row(self) -> dict[str, object]:
        return {
            "kernel": self.kernel_name,
            "averaging_error_pct": round(self.averaging_error * 100, 1),
            "instantaneous_error_pct": round(self.instantaneous_error * 100, 1),
            "split_caused_by_averaging": self.averaging_window_causes_split(),
        }


def sampler_ablation_jobs(
    scale: ExperimentScale | None = None, seed: int = 31, runs: int | None = None
) -> list[ProfileJob]:
    """The averaging-vs-instantaneous sampler pair as independent jobs."""
    scale = scale or default_scale()
    runs = runs or scale.gemm_runs
    spec = kernel_spec("cb_gemm", 2048)
    # The ablation compares SSE-vs-SSP errors, answered by the summary
    # snapshot: ship slim with no profile sections at all.
    result_mode = configured_result_mode()
    return [
        ProfileJob(
            job_id="ablations/sampler/averaging",
            kernel=spec, runs=runs,
            backend_seed=seed, profiler_seed=seed + 100,
            sampler="averaging",
            result_mode=result_mode,
            profile_sections=(),
            adaptive=configured_adaptive(),
        ),
        ProfileJob(
            job_id="ablations/sampler/instantaneous",
            kernel=spec, runs=runs,
            backend_seed=seed + 1, profiler_seed=seed + 101,
            sampler="instantaneous",
            result_mode=result_mode,
            profile_sections=(),
            adaptive=configured_adaptive(),
        ),
    ]


def sampler_ablation_from_results(
    results: Mapping[str, object],
    scale: ExperimentScale | None = None,
    seed: int = 31,
) -> SamplerAblationResult:
    del scale, seed
    averaging: FinGraVResult = results["ablations/sampler/averaging"]
    instantaneous: FinGraVResult = results["ablations/sampler/instantaneous"]
    return SamplerAblationResult(
        kernel_name=averaging.kernel_name,
        averaging_error=_error_or_nan(averaging),
        instantaneous_error=_error_or_nan(instantaneous),
    )


def _error_or_nan(result: FinGraVResult) -> float:
    """SSE-vs-SSP error, NaN when the SSE profile came back empty.

    A NaN error makes ``averaging_window_causes_split`` False (every
    comparison with NaN is), so the takeaway is never claimed without data.
    """
    try:
        return result.sse_vs_ssp_error()
    except ValueError:
        return float("nan")


def run_sampler_ablation(
    scale: ExperimentScale | None = None,
    seed: int = 31,
    runs: int | None = None,
    runner: SweepRunner | None = None,
) -> SamplerAblationResult:
    jobs = sampler_ablation_jobs(scale=scale, seed=seed, runs=runs)
    return sampler_ablation_from_results(run_jobs(jobs, runner), scale=scale, seed=seed)


# --------------------------------------------------------------------------- #
# Coarse-sampler coverage (challenge C1).
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CoarseCoverageResult:
    """How much of a sub-ms kernel an amd-smi-like sampler actually sees."""

    kernel_name: str
    fine_coverage: CoverageReport
    coarse_coverage: CoverageReport

    def coarse_misses_kernels(self) -> bool:
        return self.coarse_coverage.execution_coverage < 0.5 * max(
            self.fine_coverage.execution_coverage, 1e-9
        ) or self.coarse_coverage.execution_coverage < 0.2

    def to_row(self) -> dict[str, object]:
        return {
            "kernel": self.kernel_name,
            "fine_execution_coverage": round(self.fine_coverage.execution_coverage, 3),
            "coarse_execution_coverage": round(self.coarse_coverage.execution_coverage, 3),
            "coarse_misses_kernels": self.coarse_misses_kernels(),
        }

    def summary(self) -> dict[str, object]:
        """Unrounded counts, like every sweep job result's ``summary()``."""
        return {
            "kernel": self.kernel_name,
            "fine_coverage": asdict(self.fine_coverage),
            "coarse_coverage": asdict(self.coarse_coverage),
        }


def run_coarse_coverage(
    scale: ExperimentScale | None = None,
    seed: int = 32,
    runs: int = 30,
    executions: int = 8,
    kernel: object | None = None,
    backend_seed: int | None = None,
    backend_config: BackendConfig | None = None,
) -> CoarseCoverageResult:
    """Coverage of ``kernel`` (default CB-2K-GEMM) under the fine and the coarse sampler.

    ``seed`` draws every run's pre-delay, fine runs first and then coarse
    runs, from one generator; the two backends are seeded ``backend_seed``
    and ``backend_seed + 1`` (default ``seed + 1``) and run
    ``backend_config`` with its sampler swapped for each of the two.
    """
    del scale  # run count is intentionally small; coverage is a per-run property
    kernel = kernel if kernel is not None else cb_gemm(2048)
    backend_seed = seed + 1 if backend_seed is None else backend_seed
    backend_config = backend_config or BackendConfig()
    estimator = CoarseSamplerEstimator()
    rng = np.random.default_rng(seed)

    def collect(sampler: str, backend_seed: int) -> CoverageReport:
        backend = SimulatedDeviceBackend(
            spec=mi300x_spec(),
            seed=backend_seed,
            config=dataclass_replace(backend_config, sampler=sampler),
        )
        period = backend.power_sample_period_s
        records = [
            backend.run(
                kernel,
                executions=executions,
                pre_delay_s=float(rng.uniform(0, 2 * period)),
                run_index=i,
            )
            for i in range(runs)
        ]
        return estimator.coverage(records)

    return CoarseCoverageResult(
        kernel_name=kernel.name,
        fine_coverage=collect("averaging", backend_seed),
        coarse_coverage=collect("coarse", backend_seed + 1),
    )


def coarse_coverage_jobs(seed: int = 32, runs: int = 30) -> list[ProfileJob]:
    """The coverage study as one cached job (its pre-delays share one RNG)."""
    return [
        ProfileJob(
            job_id="ablations/coverage/CB-2K-GEMM",
            kernel=kernel_spec("cb_gemm", 2048),
            runs=runs,
            backend_seed=seed + 1,
            profiler_seed=seed,
            apply_binning=False,
            differentiate=False,
            study="coarse_coverage",
        )
    ]


# --------------------------------------------------------------------------- #
# Binning-margin sweep.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BinningMarginPoint:
    margin: float
    golden_fraction: float
    profile_spread: float

    def to_row(self) -> dict[str, object]:
        return {
            "margin_pct": round(self.margin * 100, 1),
            "golden_fraction": round(self.golden_fraction, 3),
            "profile_spread": round(self.profile_spread, 4),
        }


@dataclass(frozen=True)
class BinningMarginSweep:
    kernel_name: str
    points: tuple[BinningMarginPoint, ...]

    def rows(self) -> list[dict[str, object]]:
        return [point.to_row() for point in self.points]

    def tighter_margin_keeps_fewer_runs(self) -> bool:
        fractions = [point.golden_fraction for point in self.points]
        return all(a <= b + 1e-9 for a, b in zip(fractions, fractions[1:]))


def binning_margin_jobs(
    scale: ExperimentScale | None = None, seed: int = 33, runs: int | None = None
) -> list[ProfileJob]:
    """The single CB-4K-GEMM profile job behind the margin sweep."""
    scale = scale or default_scale()
    return [
        ProfileJob(
            job_id="ablations/margins/CB-4K-GEMM",
            kernel=kernel_spec("cb_gemm", 4096),
            runs=runs or scale.methodology_runs,
            backend_seed=seed,
            profiler_seed=seed + 100,
            # The margin sweep re-bins and re-stitches the raw run records,
            # so this job must ship the full result (never slim).
            result_mode="full",
            adaptive=configured_adaptive(),
        )
    ]


def binning_margin_from_results(
    results: Mapping[str, object],
    scale: ExperimentScale | None = None,
    seed: int = 33,
    margins: tuple[float, ...] = (0.005, 0.01, 0.02, 0.05, 0.10),
) -> BinningMarginSweep:
    del scale, seed
    result: FinGraVResult = results["ablations/margins/CB-4K-GEMM"]
    kernel_name = result.kernel_name

    stitcher = ProfileStitcher(calibration=result.calibration)
    series = stitcher.collect(list(result.runs))
    durations = [run.ssp_execution.duration_s for run in result.runs]
    run_indices = [run.run_index for run in result.runs]

    points: list[BinningMarginPoint] = []
    for margin in sorted(margins):
        binning = ExecutionTimeBinner(margin).bin(durations)
        golden = [run_indices[i] for i in binning.selected_indices]
        profile = stitcher.ssp_profile(series, golden)
        spread = profile_spread(profile) if len(profile) >= 3 else 0.0
        points.append(
            BinningMarginPoint(
                margin=margin,
                golden_fraction=binning.selection_ratio,
                profile_spread=spread,
            )
        )
    return BinningMarginSweep(kernel_name=kernel_name, points=tuple(points))


def run_binning_margin_sweep(
    scale: ExperimentScale | None = None,
    seed: int = 33,
    runs: int | None = None,
    margins: tuple[float, ...] = (0.005, 0.01, 0.02, 0.05, 0.10),
    runner: SweepRunner | None = None,
) -> BinningMarginSweep:
    jobs = binning_margin_jobs(scale=scale, seed=seed, runs=runs)
    return binning_margin_from_results(
        run_jobs(jobs, runner), scale=scale, seed=seed, margins=margins
    )


# --------------------------------------------------------------------------- #
# Clock-drift sensitivity.
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DriftSensitivityPoint:
    drift_ppm: float
    mean_toi_error_s: float
    loi_count: int

    def to_row(self) -> dict[str, object]:
        return {
            "drift_ppm": self.drift_ppm,
            "mean_toi_error_us": round(self.mean_toi_error_s * 1e6, 2),
            "lois": self.loi_count,
        }


@dataclass(frozen=True)
class DriftSensitivityResult:
    kernel_name: str
    points: tuple[DriftSensitivityPoint, ...]

    def rows(self) -> list[dict[str, object]]:
        return [point.to_row() for point in self.points]

    def error_grows_with_drift(self) -> bool:
        errors = [point.mean_toi_error_s for point in self.points]
        return all(a <= b + 1e-9 for a, b in zip(errors, errors[1:]))

    def summary(self) -> dict[str, object]:
        """Unrounded points, like every sweep job result's ``summary()``."""
        return {"kernel": self.kernel_name, "points": [asdict(point) for point in self.points]}


def run_drift_sensitivity(
    scale: ExperimentScale | None = None,
    seed: int = 34,
    runs: int = 30,
    drifts_ppm: tuple[float, ...] = (0.0, 50.0, 500.0, 5000.0),
    kernel: object | None = None,
    backend_seed: int | None = None,
    backend_config: BackendConfig | None = None,
) -> DriftSensitivityResult:
    """Quantify LOI placement error as the GPU clock drifts vs the CPU clock.

    The placement error of each LOI is measured against the ground-truth
    sample time the simulator retains in its telemetry (never visible to the
    methodology on real hardware, but available here for validation).
    ``kernel`` defaults to CB-8K-GEMM.  ``seed`` draws every run's pre-delay,
    drift after drift in sorted order, from one generator; the backend of
    drift ``d`` is seeded ``backend_seed + int(d)`` (default ``seed``) and
    runs ``backend_config``.
    """
    del scale
    kernel = kernel if kernel is not None else cb_gemm(8192)
    backend_seed = seed if backend_seed is None else backend_seed
    backend_config = backend_config or BackendConfig()
    rng = np.random.default_rng(seed)
    points: list[DriftSensitivityPoint] = []
    for drift in sorted(drifts_ppm):
        base_spec = mi300x_spec()
        clock_spec = dataclass_replace(base_spec.clocks, drift_ppm=drift)
        spec = GPUSpec(
            name=base_spec.name,
            num_xcds=base_spec.num_xcds,
            num_iods=base_spec.num_iods,
            num_hbm_stacks=base_spec.num_hbm_stacks,
            xcd=base_spec.xcd,
            iod=base_spec.iod,
            hbm=base_spec.hbm,
            power=base_spec.power,
            dvfs=base_spec.dvfs,
            clocks=clock_spec,
            telemetry=base_spec.telemetry,
        )
        backend = SimulatedDeviceBackend(
            spec=spec, seed=backend_seed + int(drift), config=backend_config
        )
        calibration = backend.calibrate_read_delay(16)
        period = backend.power_sample_period_s
        records = [
            backend.run(
                kernel,
                executions=4,
                pre_delay_s=float(rng.uniform(0, 2 * period)),
                run_index=run_index,
            )
            for run_index in range(runs)
        ]
        batch = extract_lois_batch(records, calibration)
        ticks = np.concatenate([record.reading_columns().gpu_timestamp_ticks for record in records])
        loi_ticks = ticks[batch.reading_offsets[batch.run_ordinal] + batch.reading_position]
        true_times = backend.device.timestamp_counter.sim_time_of_ticks(loi_ticks)
        errors = np.abs(batch.window_end_s - true_times)
        mean_error = float(np.mean(errors)) if errors.size else 0.0
        points.append(
            DriftSensitivityPoint(
                drift_ppm=drift, mean_toi_error_s=mean_error, loi_count=batch.num_lois
            )
        )
    return DriftSensitivityResult(kernel_name=kernel.name, points=tuple(points))


def drift_sensitivity_jobs(seed: int = 34, runs: int = 30) -> list[ProfileJob]:
    """The drift study as one cached job (its pre-delays share one RNG)."""
    return [
        ProfileJob(
            job_id="ablations/drift/CB-8K-GEMM",
            kernel=kernel_spec("cb_gemm", 8192),
            runs=runs,
            backend_seed=seed,
            profiler_seed=seed,
            apply_binning=False,
            differentiate=False,
            study="drift_sensitivity",
        )
    ]


__all__ = [
    "SamplerAblationResult",
    "sampler_ablation_jobs",
    "sampler_ablation_from_results",
    "run_sampler_ablation",
    "CoarseCoverageResult",
    "run_coarse_coverage",
    "coarse_coverage_jobs",
    "BinningMarginPoint",
    "BinningMarginSweep",
    "binning_margin_jobs",
    "binning_margin_from_results",
    "run_binning_margin_sweep",
    "DriftSensitivityPoint",
    "DriftSensitivityResult",
    "run_drift_sensitivity",
    "drift_sensitivity_jobs",
]
