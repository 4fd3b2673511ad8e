"""Figure 6: CB-8K-GEMM total and XCD power over a run.

The paper's Figure 6 plots total and XCD power across warm-up, SSE and SSP
executions of the compute-bound 8K GEMM over 200 runs.  The expected shape is:
power rises sharply for the initial executions (boost into the power limit),
the power-management firmware throttles the clock so power drops to the SSE
level, and power then climbs slowly back to the SSP level (~20 % above SSE in
the paper) where it stabilises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.profiler import FinGraVResult
from .common import ExperimentScale, default_scale
from .sweep import ProfileJob, SweepRunner, configured_adaptive, configured_result_mode, kernel_spec, run_jobs


@dataclass(frozen=True)
class RunShapeSeries:
    """Binned whole-run power series for one component."""

    component: str
    times_s: tuple[float, ...]
    power_w: tuple[float, ...]

    def peak_w(self) -> float:
        return max(self.power_w)

    def rows(self) -> list[dict[str, float]]:
        return [
            {"time_ms": t * 1e3, f"{self.component}_w": p}
            for t, p in zip(self.times_s, self.power_w)
        ]


@dataclass(frozen=True)
class Fig6Result:
    """Everything the Figure-6 reproduction reports."""

    kernel_name: str
    result: FinGraVResult
    total_series: RunShapeSeries
    xcd_series: RunShapeSeries
    sse_power_w: float
    ssp_power_w: float
    sse_vs_ssp_error: float
    throttling_detected: bool
    ssp_executions: int

    def rise_then_fall_then_rise(self) -> bool:
        """The paper's qualitative shape for CB-8K-GEMM.

        Checked on the in-execution part of the run profile: an early peak
        exceeds a subsequent dip, and the tail recovers above that dip.
        """
        power = np.asarray(self.total_series.power_w)
        if len(power) < 5:
            return False
        # Restrict to bins where the kernel is clearly active (above idle-ish level).
        active = power > 0.5 * power.max()
        if not np.any(active):
            return False
        active_power = power[active]
        # Drop the trailing bins: the last averaging windows straddle the end of
        # the run and are diluted by the post-run idle padding.
        if len(active_power) > 6:
            active_power = active_power[:-2]
        peak_index = int(np.argmax(active_power[: max(len(active_power) // 2, 1)]))
        peak = float(active_power[peak_index])
        after_peak = active_power[peak_index + 1:]
        if len(after_peak) < 2:
            return False
        dip_index = int(np.argmin(after_peak))
        dip = float(after_peak[dip_index])
        tail = float(np.max(after_peak[dip_index:]))
        return peak > dip * 1.05 and tail > dip * 1.05

    def rows(self) -> list[dict[str, object]]:
        rows = []
        for total_row, xcd_row in zip(self.total_series.rows(), self.xcd_series.rows()):
            rows.append({**total_row, **xcd_row})
        return rows

    def summary(self) -> dict[str, object]:
        return {
            "kernel": self.kernel_name,
            "execution_time_us": round(self.result.execution_time_s * 1e6, 1),
            "throttling_detected": self.throttling_detected,
            "ssp_executions": self.ssp_executions,
            "sse_total_w": round(self.sse_power_w, 1),
            "ssp_total_w": round(self.ssp_power_w, 1),
            "sse_vs_ssp_error_pct": round(self.sse_vs_ssp_error * 100, 1),
            "rise_fall_rise_shape": self.rise_then_fall_then_rise(),
        }


def sse_summary(summary: Mapping[str, object]) -> tuple[float, float]:
    """``(SSE mean total W, SSE-vs-SSP error)`` from a result summary.

    Both are NaN when the session's SSE profile came back empty (a short
    kernel can end its budget without an SSE log of interest): the summary
    then carries neither key.
    """
    return (
        float(summary.get("sse_mean_total_w", math.nan)),
        float(summary.get("sse_vs_ssp_error", math.nan)),
    )


def _binned_series(result: FinGraVResult, component: str, bins: int) -> RunShapeSeries:
    times, power = result.run_profile.binned_mean(component, bins=bins)
    return RunShapeSeries(
        component=component,
        times_s=tuple(float(t) for t in times),
        power_w=tuple(float(p) for p in power),
    )


def fig6_jobs(
    scale: ExperimentScale | None = None,
    seed: int = 6,
    runs: int | None = None,
) -> list[ProfileJob]:
    """The single CB-8K-GEMM profile job behind Figure 6."""
    scale = scale or default_scale()
    return [
        ProfileJob(
            job_id="fig6/CB-8K-GEMM",
            kernel=kernel_spec("cb_gemm", 8192),
            runs=runs or scale.gemm_runs,
            backend_seed=seed,
            profiler_seed=seed + 100,
            # Assembly bins the whole-run profile and reads the SSE/SSP means
            # and error from the summary snapshot: ship slim, run-only.
            result_mode=configured_result_mode(),
            profile_sections=("run",),
            adaptive=configured_adaptive(),
        )
    ]


def fig6_from_results(
    results: Mapping[str, object],
    scale: ExperimentScale | None = None,
    seed: int = 6,
    bins: int = 28,
) -> Fig6Result:
    """Assemble the Figure-6 result from the executed sweep job."""
    del scale, seed
    result: FinGraVResult = results["fig6/CB-8K-GEMM"]
    # The SSE/SSP means and error come from the summary snapshot so a slim
    # run-only result (no SSP/SSE profiles shipped) assembles identically.
    summary = result.summary()
    sse_power_w, sse_vs_ssp_error = sse_summary(summary)
    return Fig6Result(
        kernel_name=result.kernel_name,
        result=result,
        total_series=_binned_series(result, "total", bins),
        xcd_series=_binned_series(result, "xcd", bins),
        sse_power_w=sse_power_w,
        ssp_power_w=float(summary["ssp_mean_total_w"]),
        sse_vs_ssp_error=sse_vs_ssp_error,
        throttling_detected=result.plan.throttling_detected,
        ssp_executions=result.plan.ssp_executions,
    )


def run_fig6(
    scale: ExperimentScale | None = None,
    seed: int = 6,
    bins: int = 28,
    runs: int | None = None,
    runner: SweepRunner | None = None,
) -> Fig6Result:
    """Reproduce Figure 6 (CB-8K-GEMM whole-run total and XCD power)."""
    jobs = fig6_jobs(scale=scale, seed=seed, runs=runs)
    return fig6_from_results(run_jobs(jobs, runner), scale=scale, seed=seed, bins=bins)


__all__ = ["RunShapeSeries", "Fig6Result", "fig6_jobs", "fig6_from_results", "run_fig6"]
