"""Figure 9: total power of interleaved GEMM/GEMV executions vs isolated SSP.

The paper interleaves kernels and compares the measured power of the kernel of
interest to its isolated SSP profile:

* ``CB->8K``      -- 60 CB-2K-GEMMs before CB-8K-GEMM: only a slight rise;
* ``MB->2K``      -- 40 MB-4K-GEMVs before CB-2K-GEMM: far lower than SSP;
* ``CB->2K``      -- CB-8K/4K-GEMMs before CB-2K-GEMM: higher than SSP;
* ``MB->8K gemv`` -- MB-4K/2K-GEMVs before MB-8K-GEMV: lower than SSP;
* ``CB->4K gemv`` -- CB-8K/4K-GEMMs before MB-4K-GEMV: higher than SSP.

The takeaway: kernels shorter than the averaging window inherit the power
level of whatever ran before them, while CB-8K-GEMM (longer than the window)
is essentially unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..analysis.interleaving import InterleavedMeasurement
from ..core.profile import FineGrainProfile
from ..core.profiler import FinGraVResult
from .common import ExperimentScale, default_scale
from .sweep import KernelSpec, ProfileJob, SweepRunner, configured_adaptive, configured_result_mode, kernel_spec, run_jobs


@dataclass(frozen=True)
class Fig9Result:
    """Everything the Figure-9 reproduction reports."""

    measurements: tuple[InterleavedMeasurement, ...]

    def measurement(self, label: str) -> InterleavedMeasurement:
        for measurement in self.measurements:
            if measurement.label == label:
                return measurement
        raise KeyError(f"no measurement labelled {label!r}")

    # ------------------------------------------------------------------ #
    # The paper's per-scenario expectations.
    # ------------------------------------------------------------------ #
    def expectations(self) -> dict[str, bool]:
        checks: dict[str, bool] = {}
        cb_to_8k = self.measurement("CB->8K")
        checks["CB->8K only slightly changed"] = 0.92 <= cb_to_8k.ratio <= 1.15
        checks["MB->2K far lower than SSP"] = self.measurement("MB->2K").ratio < 0.8
        checks["CB->2K higher than SSP"] = self.measurement("CB->2K").ratio > 1.05
        checks["MB->8K gemv lower than SSP"] = self.measurement("MB->8K gemv").ratio < 0.95
        checks["CB->4K gemv higher than SSP"] = self.measurement("CB->4K gemv").ratio > 1.05
        return checks

    def short_kernels_affected_long_not(self) -> bool:
        """Takeaway #5: short kernels inherit preceding power; CB-8K does not."""
        checks = self.expectations()
        return all(checks.values())

    def rows(self) -> list[dict[str, object]]:
        rows = []
        for measurement in self.measurements:
            rows.append(
                {
                    "scenario": measurement.label,
                    "kernel": measurement.kernel_name,
                    "preceded_by": " + ".join(measurement.preceding_description),
                    "isolated_ssp_w": round(measurement.isolated_ssp_w, 1),
                    "interleaved_w": round(measurement.interleaved_w, 1),
                    "ratio_to_ssp": round(measurement.ratio, 3),
                    "direction": measurement.direction(),
                    "lois": measurement.lois,
                }
            )
        return rows

    def summary(self) -> dict[str, object]:
        summary: dict[str, object] = dict(self.expectations())
        summary["all_expectations_hold"] = self.short_kernels_affected_long_not()
        return summary


#: The five Figure-9 scenarios as picklable job specs, mirroring
#: :func:`repro.kernels.workloads.interleaving_scenarios`.
_SCENARIOS: tuple[tuple[str, KernelSpec, tuple[tuple[KernelSpec, int], ...]], ...] = (
    ("CB->8K", kernel_spec("cb_gemm", 8192), ((kernel_spec("cb_gemm", 2048), 60),)),
    ("MB->2K", kernel_spec("cb_gemm", 2048), ((kernel_spec("mb_gemv", 4096), 40),)),
    (
        "CB->2K",
        kernel_spec("cb_gemm", 2048),
        ((kernel_spec("cb_gemm", 8192), 2), (kernel_spec("cb_gemm", 4096), 40)),
    ),
    (
        "MB->8K gemv",
        kernel_spec("mb_gemv", 8192),
        ((kernel_spec("mb_gemv", 4096), 20), (kernel_spec("mb_gemv", 2048), 20)),
    ),
    (
        "CB->4K gemv",
        kernel_spec("mb_gemv", 4096),
        ((kernel_spec("cb_gemm", 8192), 2), (kernel_spec("cb_gemm", 4096), 4)),
    ),
)


def _isolated_kernels() -> list[tuple[str, KernelSpec]]:
    """Distinct kernels of interest, in first-appearance order."""
    isolated: dict[str, KernelSpec] = {}
    for _, spec, _ in _SCENARIOS:
        isolated.setdefault(spec.build().name, spec)
    return list(isolated.items())


def fig9_jobs(
    scale: ExperimentScale | None = None,
    seed: int = 9,
    runs: int | None = None,
    isolated_runs: int | None = None,
) -> list[ProfileJob]:
    """Isolated-SSP jobs per kernel of interest plus one job per scenario."""
    scale = scale or default_scale()
    runs = runs or scale.interleaved_runs
    jobs: list[ProfileJob] = []
    # Assembly reads only the isolated SSP profiles: ship slim, SSP-only
    # results (the interleaved scenario jobs return a bare FineGrainProfile
    # regardless).
    result_mode = configured_result_mode()
    for offset, (name, spec) in enumerate(_isolated_kernels()):
        kernel_runs = isolated_runs
        if kernel_runs is None:
            kernel_runs = scale.gemv_runs if "GEMV" in name else scale.gemm_runs
        jobs.append(
            ProfileJob(
                job_id=f"fig9/isolated/{name}",
                kernel=spec,
                runs=kernel_runs,
                backend_seed=seed + offset,
                profiler_seed=seed + 100 + offset,
                result_mode=result_mode,
                profile_sections=("ssp",),
                adaptive=configured_adaptive(),
            )
        )
    for offset, (label, spec, preceding) in enumerate(_SCENARIOS):
        jobs.append(
            ProfileJob(
                job_id=f"fig9/interleaved/{label}",
                kernel=spec,
                runs=runs,
                backend_seed=seed + 10 + offset,
                profiler_seed=seed + 110 + offset,
                preceding=preceding,
                interleave_seed=seed + 200 + offset,
            )
        )
    return jobs


def fig9_from_results(
    results: Mapping[str, object],
    scale: ExperimentScale | None = None,
    seed: int = 9,
) -> Fig9Result:
    """Assemble the Figure-9 measurements from executed sweep jobs."""
    del scale, seed
    measurements: list[InterleavedMeasurement] = []
    for label, spec, preceding in _SCENARIOS:
        kernel_name = spec.build().name
        reference: FinGraVResult = results[f"fig9/isolated/{kernel_name}"]
        # An empty interleaved profile (no run captured a log of interest)
        # reports NaN power and zero LOIs; its expectation then fails.
        interleaved: FineGrainProfile = results[f"fig9/interleaved/{label}"]
        measurements.append(
            InterleavedMeasurement(
                label=label,
                kernel_name=kernel_name,
                isolated_ssp_w=reference.ssp_profile.mean_power_w("total"),
                interleaved_w=interleaved.mean_power_w("total"),
                preceding_description=tuple(
                    f"{p.build().name} x{count}" for p, count in preceding
                ),
                lois=len(interleaved),
                interleaved_profile=interleaved,
            )
        )
    return Fig9Result(measurements=tuple(measurements))


def run_fig9(
    scale: ExperimentScale | None = None,
    seed: int = 9,
    runs: int | None = None,
    isolated_runs: int | None = None,
    runner: SweepRunner | None = None,
) -> Fig9Result:
    """Reproduce Figure 9 (interleaved GEMM/GEMV power comparison)."""
    jobs = fig9_jobs(scale=scale, seed=seed, runs=runs, isolated_runs=isolated_runs)
    return fig9_from_results(run_jobs(jobs, runner), scale=scale, seed=seed)


__all__ = ["Fig9Result", "fig9_jobs", "fig9_from_results", "run_fig9"]
