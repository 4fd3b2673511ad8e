"""Interleaved-kernel power studies (paper Section V-C3, Figure 9).

The paper compares a kernel's power profile in isolation (its SSP profile)
against its measured power when other kernels execute immediately before it.
Because the power logger averages over a trailing window, the measured power
of a kernel shorter than that window is contaminated by whatever preceded it:
memory-bound GEMVs and compute-light GEMMs inherit the power level of their
predecessors, while a compute-heavy GEMM longer than the window is unaffected.

:class:`InterleavingStudy` reproduces that experiment: for each scenario it
runs many instrumented runs in which the preceding kernels execute first and a
*single* execution of the kernel of interest follows, extracts the logs of
interest for that execution, and compares their mean power to the isolated
SSP profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.backend import ProfilingBackend
from ..core.profile import FineGrainProfile, ProfileKind, profile_from_lois
from ..core.profiler import FinGraVProfiler
from ..core.records import COMPONENT_KEYS, RunRecord
from ..core.stitching import ProfileStitcher
from ..kernels.workloads import InterleavingScenario


@dataclass(frozen=True)
class InterleavedMeasurement:
    """Outcome of one interleaving scenario."""

    label: str
    kernel_name: str
    isolated_ssp_w: float
    interleaved_w: float
    preceding_description: tuple[str, ...]
    lois: int
    interleaved_profile: FineGrainProfile

    @property
    def ratio(self) -> float:
        """Interleaved measured power relative to the isolated SSP power."""
        if self.isolated_ssp_w <= 0:
            raise ValueError("isolated SSP power must be positive")
        return self.interleaved_w / self.isolated_ssp_w

    @property
    def affected(self) -> bool:
        """Whether interleaving changed the measured power appreciably (>5 %)."""
        return abs(self.ratio - 1.0) > 0.05

    def direction(self) -> str:
        """'higher', 'lower' or 'unchanged' relative to the isolated profile.

        'unmeasured' when no log of interest was captured (NaN power).
        """
        if math.isnan(self.ratio):
            return "unmeasured"
        if not self.affected:
            return "unchanged"
        return "higher" if self.ratio > 1.0 else "lower"


class InterleavingStudy:
    """Runs the Figure-9 interleaving experiment."""

    def __init__(
        self,
        backend: ProfilingBackend,
        profiler: FinGraVProfiler | None = None,
        runs: int = 60,
        components: Sequence[str] = COMPONENT_KEYS,
        seed: int = 77,
    ) -> None:
        if runs <= 0:
            raise ValueError("need at least one run")
        self._backend = backend
        self._profiler = profiler or FinGraVProfiler(backend)
        self._runs = runs
        self._components = tuple(components)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ #
    def isolated_ssp(self, kernel: object, runs: int | None = None) -> FineGrainProfile:
        """The kernel's SSP profile in isolation (the Figure-9 reference)."""
        result = self._profiler.profile(kernel, runs=runs)
        return result.ssp_profile

    def interleaved_profile(
        self,
        kernel: object,
        preceding: Sequence[tuple[object, int]],
        runs: int | None = None,
        min_lois: int = 5,
        max_runs: int | None = None,
    ) -> FineGrainProfile:
        """Measured profile of a single execution of ``kernel`` after ``preceding``.

        Because the kernel of interest executes only once per run, a short
        kernel yields a log of interest only in a small fraction of runs.  The
        first ``runs`` runs are stitched in one batch; runs are then added one
        at a time until at least ``min_lois`` LOIs are available (bounded by
        ``max_runs``), mirroring methodology step 8.  Each added run's LOIs
        are counted from the matching stage alone; the added runs are
        stitched once, after the loop.
        """
        runs = runs or self._runs
        max_runs = max_runs or max(runs * 10, 400)
        period = self._backend.power_sample_period_s
        preceding = tuple(preceding)

        def collect(run_index: int) -> RunRecord:
            pre_delay = float(self._rng.uniform(0.0, 2.0 * period))
            return self._backend.run(
                kernel,
                executions=1,
                pre_delay_s=pre_delay,
                run_index=run_index,
                preceding=preceding,
            )

        records = [collect(run_index) for run_index in range(runs)]
        stitcher = ProfileStitcher(components=self._components)
        series = stitcher.collect(records)
        lois = series.count_last_execution_lois()
        while lois < min_lois and len(records) < max_runs:
            records.append(collect(len(records)))
            lois += stitcher.match(records[-1:]).last_execution_count()
        stitcher.extend(series, records[runs:])
        durations = [record.last_execution.duration_s for record in records]
        return profile_from_lois(
            kernel_name=self._backend.kernel_name(kernel),
            kind=ProfileKind.CUSTOM,
            lois=series.lois_for_last_execution(),
            execution_time_s=float(np.mean(durations)),
            components=self._components,
            metadata={"interleaved": True, "runs": runs},
        )

    def measure_scenario(
        self,
        scenario: InterleavingScenario,
        isolated: Mapping[str, FineGrainProfile] | None = None,
        runs: int | None = None,
    ) -> InterleavedMeasurement:
        """Measure one Figure-9 scenario.

        ``isolated`` optionally supplies already-profiled SSP references keyed
        by kernel name, so the expensive isolated profiles can be shared
        between scenarios that target the same kernel.
        """
        kernel = scenario.kernel_of_interest
        kernel_name = self._backend.kernel_name(kernel)
        if isolated is not None and kernel_name in isolated:
            reference = isolated[kernel_name]
        else:
            reference = self.isolated_ssp(kernel)
        # An empty interleaved profile reports NaN power and zero LOIs.
        interleaved = self.interleaved_profile(kernel, scenario.preceding, runs=runs)
        return InterleavedMeasurement(
            label=scenario.label,
            kernel_name=kernel_name,
            isolated_ssp_w=reference.mean_power_w("total"),
            interleaved_w=interleaved.mean_power_w("total"),
            preceding_description=tuple(
                f"{self._backend.kernel_name(k)} x{count}" for k, count in scenario.preceding
            ),
            lois=len(interleaved),
            interleaved_profile=interleaved,
        )

    def run_scenarios(
        self,
        scenarios: Sequence[InterleavingScenario],
        isolated: Mapping[str, FineGrainProfile] | None = None,
        runs: int | None = None,
    ) -> list[InterleavedMeasurement]:
        """Measure a batch of scenarios, reusing isolated references where given."""
        return [self.measure_scenario(s, isolated=isolated, runs=runs) for s in scenarios]


__all__ = ["InterleavedMeasurement", "InterleavingStudy"]
