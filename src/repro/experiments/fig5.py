"""Figure 5: FinGraV methodology evaluation on CB-4K-GEMM.

The paper evaluates the methodology's ingredients on the compute-bound 4K GEMM:

* **CPU-GPU time sync** -- the synchronised profile captures the gradual power
  ramp from idle through warm-ups to SSP; the unsynchronised profile
  mis-places samples and misses the ramp.
* **Power-profile differentiation** -- SSE and SSP profiles differ by ~36 %.
* **Execution-time binning** -- keeping only the golden runs tightens the
  profile around its true shape.
* **#runs resiliency** -- a degree-4 polynomial fit over only ~50 runs still
  recovers the trend that ~200 runs show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..analysis.trends import fit_trend, profile_spread, trend_agreement
from ..core.profile import FineGrainProfile
from ..core.profiler import FinGraVResult
from ..core.stitching import ProfileStitcher
from .common import ExperimentScale, default_scale
from .sweep import ProfileJob, SweepRunner, configured_adaptive, kernel_spec, run_jobs


@dataclass(frozen=True)
class Fig5Result:
    """Everything the Figure-5 reproduction reports."""

    kernel_name: str
    synchronized: FinGraVResult
    unsynchronized_run_profile: FineGrainProfile
    unsync_misattribution_fraction: float
    unbinned_spread: float
    binned_spread: float
    reduced_runs: int
    reduced_trend_agreement: float
    sse_vs_ssp_error: float

    # ------------------------------------------------------------------ #
    # The paper's four claims.
    # ------------------------------------------------------------------ #
    def sync_captures_ramp(self) -> bool:
        """Synchronisation aligns power logs with the right executions.

        The paper's unsynchronised profile "fails to align power changes with
        appropriate executions in a run": the naive index-based placement
        shifts every run's samples by a different fraction of the sampling
        period.  Measured here as the fraction of power logs whose execution
        attribution differs between the synchronised and unsynchronised
        placements -- a large fraction means the unsynchronised profile cannot
        represent the warm-up-to-SSP ramp faithfully.
        """
        return self.unsync_misattribution_fraction > 0.25

    def binning_tightens_profile(self) -> bool:
        """Golden-run points scatter less around the trend than the full cloud."""
        return self.binned_spread < self.unbinned_spread

    def differentiation_matters(self) -> bool:
        """SSE and SSP profiles differ considerably (paper: up to ~36 %)."""
        return self.sse_vs_ssp_error > 0.10

    def resilient_to_fewer_runs(self) -> bool:
        """The reduced-run degree-4 trend closely follows the full-run trend."""
        return self.reduced_trend_agreement > 0.9

    def summary(self) -> dict[str, object]:
        return {
            "kernel": self.kernel_name,
            "runs": self.synchronized.num_runs,
            "golden_runs": self.synchronized.num_golden_runs,
            "sync_captures_ramp": self.sync_captures_ramp(),
            "unsync_misattribution_pct": round(self.unsync_misattribution_fraction * 100, 1),
            "unbinned_spread": round(self.unbinned_spread, 4),
            "binned_spread": round(self.binned_spread, 4),
            "binning_tightens_profile": self.binning_tightens_profile(),
            "sse_vs_ssp_error_pct": round(self.sse_vs_ssp_error * 100, 1),
            "reduced_runs": self.reduced_runs,
            "reduced_trend_agreement": round(self.reduced_trend_agreement, 3),
            "resilient_to_fewer_runs": self.resilient_to_fewer_runs(),
        }

    def rows(self) -> list[dict[str, object]]:
        return [self.summary()]


def fig5_jobs(
    scale: ExperimentScale | None = None,
    seed: int = 5,
    runs: int | None = None,
) -> list[ProfileJob]:
    """The single full-methodology CB-4K-GEMM profile job behind Figure 5."""
    scale = scale or default_scale()
    return [
        ProfileJob(
            job_id="fig5/CB-4K-GEMM",
            kernel=kernel_spec("cb_gemm", 4096),
            runs=runs or scale.methodology_runs,
            backend_seed=seed,
            profiler_seed=seed + 100,
            # Figure 5 re-stitches the raw run records through baseline
            # stitchers, so this job must ship the full result (never slim).
            result_mode="full",
            adaptive=configured_adaptive(),
        )
    ]


def fig5_from_results(
    results: Mapping[str, object],
    scale: ExperimentScale | None = None,
    seed: int = 5,
    reduced_runs: int | None = None,
) -> Fig5Result:
    """Assemble the Figure-5 result (re-stitching the job's recorded runs)."""
    scale = scale or default_scale()
    reduced_runs = reduced_runs or scale.reduced_runs
    synchronized: FinGraVResult = results["fig5/CB-4K-GEMM"]

    # Unsynchronised placement of the *same* runs (the red profile in Fig. 5).
    unsync_stitcher = ProfileStitcher(synchronize=False)
    unsync_series = unsync_stitcher.collect(list(synchronized.runs))
    unsynchronized_run_profile = unsync_stitcher.run_profile(
        unsync_series, list(synchronized.golden_run_indices)
    )

    # How often does the naive placement attribute a power log to a different
    # execution than the synchronised placement?
    sync_stitcher = ProfileStitcher(calibration=synchronized.calibration)
    sync_series = sync_stitcher.collect(list(synchronized.runs))
    mismatches = 0
    considered = 0
    for run_index, sync_lois in sync_series.lois_by_run.items():
        sync_map = {loi.reading.gpu_timestamp_ticks: loi.execution_index for loi in sync_lois}
        naive_map = {
            loi.reading.gpu_timestamp_ticks: loi.execution_index
            for loi in unsync_series.lois_by_run.get(run_index, ())
        }
        keys = set(sync_map) | set(naive_map)
        considered += len(keys)
        mismatches += sum(1 for key in keys if sync_map.get(key) != naive_map.get(key))
    misattribution = mismatches / considered if considered else 0.0

    # Binning effect: spread of the SSP profile with and without golden-run
    # selection, again on the same (already stitched) runs.
    unbinned_ssp = sync_stitcher.ssp_profile(
        sync_series, golden_runs=None, min_execution_index=synchronized.plan.ssp_index
    )
    binned_ssp = synchronized.ssp_profile
    unbinned_spread = profile_spread(unbinned_ssp)
    binned_spread = profile_spread(binned_ssp)

    # #runs resiliency: degree-4 trend over a reduced subset of runs.
    golden = list(synchronized.golden_run_indices)
    rng = np.random.default_rng(seed + 500)
    subset = sorted(
        rng.choice(golden, size=min(reduced_runs, len(golden)), replace=False).tolist()
    )
    reduced_profile = synchronized.run_profile.restricted_to_runs(subset)
    reference_trend = fit_trend(synchronized.run_profile, degree=4)
    reduced_trend = fit_trend(reduced_profile, degree=4)
    agreement = trend_agreement(reference_trend, reduced_trend)

    return Fig5Result(
        kernel_name=synchronized.kernel_name,
        synchronized=synchronized,
        unsynchronized_run_profile=unsynchronized_run_profile,
        unsync_misattribution_fraction=misattribution,
        unbinned_spread=unbinned_spread,
        binned_spread=binned_spread,
        reduced_runs=len(subset),
        reduced_trend_agreement=agreement,
        sse_vs_ssp_error=synchronized.sse_vs_ssp_error(),
    )


def run_fig5(
    scale: ExperimentScale | None = None,
    seed: int = 5,
    runs: int | None = None,
    reduced_runs: int | None = None,
    runner: SweepRunner | None = None,
) -> Fig5Result:
    """Reproduce Figure 5 (methodology evaluation on CB-4K-GEMM)."""
    jobs = fig5_jobs(scale=scale, seed=seed, runs=runs)
    return fig5_from_results(
        run_jobs(jobs, runner), scale=scale, seed=seed, reduced_runs=reduced_runs
    )


__all__ = ["Fig5Result", "fig5_jobs", "fig5_from_results", "run_fig5"]
