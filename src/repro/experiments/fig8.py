"""Figure 8: CB-2K-GEMM total and XCD power over a run.

The compute-light 2K GEMM is much shorter than the 1 ms averaging window, so
its measured power starts low (the window is mostly idle) and rises gradually
as repeated executions fill the window, stabilising only at the SSP execution.
The resulting SSE-vs-SSP spread is the paper's headline measurement-error
number (~80 %), far larger than for CB-8K-GEMM (~20 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core.profiler import FinGraVResult
from .common import ExperimentScale, default_scale
from .fig6 import RunShapeSeries, _binned_series, sse_summary
from .sweep import ProfileJob, SweepRunner, configured_adaptive, configured_result_mode, kernel_spec, run_jobs


@dataclass(frozen=True)
class Fig8Result:
    """Everything the Figure-8 reproduction reports."""

    kernel_name: str
    result: FinGraVResult
    total_series: RunShapeSeries
    xcd_series: RunShapeSeries
    sse_power_w: float
    ssp_power_w: float
    sse_vs_ssp_error: float
    ssp_executions: int

    def gradual_rise(self) -> bool:
        """The paper's qualitative shape for CB-2K-GEMM: a monotonic-ish climb.

        Checked as: the early in-run power is well below the late in-run
        power, and no early peak exceeds the final level (no throttle spike).
        """
        power = np.asarray(self.total_series.power_w)
        if len(power) < 5:
            return False
        quarter = max(len(power) // 4, 1)
        early = float(np.mean(power[:quarter]))
        late = float(np.max(power[-quarter:]))
        peak = float(np.max(power))
        return early < 0.8 * late and peak <= late * 1.05

    def rows(self) -> list[dict[str, object]]:
        rows = []
        for total_row, xcd_row in zip(self.total_series.rows(), self.xcd_series.rows()):
            rows.append({**total_row, **xcd_row})
        return rows

    def summary(self) -> dict[str, object]:
        return {
            "kernel": self.kernel_name,
            "execution_time_us": round(self.result.execution_time_s * 1e6, 1),
            "ssp_executions": self.ssp_executions,
            "sse_total_w": round(self.sse_power_w, 1),
            "ssp_total_w": round(self.ssp_power_w, 1),
            "sse_vs_ssp_error_pct": round(self.sse_vs_ssp_error * 100, 1),
            "gradual_rise_shape": self.gradual_rise(),
        }


def fig8_jobs(
    scale: ExperimentScale | None = None,
    seed: int = 8,
    runs: int | None = None,
) -> list[ProfileJob]:
    """The single CB-2K-GEMM profile job behind Figure 8."""
    scale = scale or default_scale()
    return [
        ProfileJob(
            job_id="fig8/CB-2K-GEMM",
            kernel=kernel_spec("cb_gemm", 2048),
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


def fig8_from_results(
    results: Mapping[str, object],
    scale: ExperimentScale | None = None,
    seed: int = 8,
    bins: int = 24,
) -> Fig8Result:
    """Assemble the Figure-8 result from the executed sweep job."""
    del scale, seed
    result: FinGraVResult = results["fig8/CB-2K-GEMM"]
    # The SSE/SSP means and error come from the summary snapshot so a slim
    # run-only result (no SSP/SSE profiles shipped) assembles identically.
    summary = result.summary()
    sse_power_w, sse_vs_ssp_error = sse_summary(summary)
    return Fig8Result(
        kernel_name=result.kernel_name,
        result=result,
        total_series=_binned_series(result, "total", bins),
        xcd_series=_binned_series(result, "xcd", bins),
        sse_power_w=sse_power_w,
        ssp_power_w=float(summary["ssp_mean_total_w"]),
        sse_vs_ssp_error=sse_vs_ssp_error,
        ssp_executions=result.plan.ssp_executions,
    )


def run_fig8(
    scale: ExperimentScale | None = None,
    seed: int = 8,
    bins: int = 24,
    runs: int | None = None,
    runner: SweepRunner | None = None,
) -> Fig8Result:
    """Reproduce Figure 8 (CB-2K-GEMM whole-run total and XCD power)."""
    jobs = fig8_jobs(scale=scale, seed=seed, runs=runs)
    return fig8_from_results(run_jobs(jobs, runner), scale=scale, seed=seed, bins=bins)


__all__ = ["Fig8Result", "fig8_jobs", "fig8_from_results", "run_fig8"]
