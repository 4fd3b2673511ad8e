"""Benchmark: scaling of ``FinGraVProfiler.profile()`` in the number of runs.

The paper's methodology profiles sub-millisecond kernels by collecting
hundreds of runs (Table I), so the profiler's run->LOI->profile pipeline must
scale linearly in runs.  This benchmark isolates that pipeline with a
*replay* backend -- records are simulated once, then served instantly -- so
``profile()`` wall time is dominated by the methodology (LOI extraction,
binning, stitching), not by the simulated GPU:

``test_profiler_scaling_near_linear`` profiles the same short kernel at
increasing run counts and asserts that per-run cost does not blow up.

Results are written to ``BENCH_profiler.json`` in the repository root.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.differentiation import build_plan
from repro.core.profiler import FinGraVProfiler, ProfilerConfig
from repro.core.records import DelayCalibration, RunRecord
from repro.gpu.backend import SimulatedDeviceBackend
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm

KERNEL_SIZE = 1024
POOL_SEED = 404
POOL_SIZE = 700
TOPUP_BUDGET = 600
BENCH_CONFIG = ProfilerConfig(
    seed=909, refine_ssp_with_power_search=False, max_additional_runs=TOPUP_BUDGET
)
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_profiler.json"


class RecordPool:
    """Pre-simulated runs plus replayed timing/calibration probes."""

    def __init__(self, kernel, size: int, seed: int = POOL_SEED) -> None:
        backend = SimulatedDeviceBackend(spec=mi300x_spec(), seed=seed)
        self.kernel = kernel
        self.timings = {
            executions: backend.time_kernel(kernel, executions)
            for executions in (BENCH_CONFIG.timing_executions, 8)
        }
        self.calibration = backend.calibrate_read_delay(BENCH_CONFIG.calibration_samples)
        self.execution_time_s = float(
            np.median(self.timings[BENCH_CONFIG.timing_executions][2:])
        )
        plan = build_plan(
            backend, kernel, self.execution_time_s, refine_with_power_search=False
        )
        window_fill = backend.power_sample_period_s / self.execution_time_s
        tail = int(np.ceil(window_fill * BENCH_CONFIG.ssp_tail_fraction))
        tail = min(
            max(tail, BENCH_CONFIG.min_ssp_tail_executions),
            BENCH_CONFIG.max_ssp_tail_executions,
        )
        self.executions_per_run = plan.ssp_executions + tail
        rng = np.random.default_rng(seed + 1)
        max_delay = (
            BENCH_CONFIG.max_random_delay_periods * backend.power_sample_period_s
        )
        self.records: list[RunRecord] = [
            backend.run(
                kernel,
                executions=self.executions_per_run,
                pre_delay_s=float(rng.uniform(0.0, max_delay)),
                run_index=i,
            )
            for i in range(size)
        ]
        self.power_sample_period_s = backend.power_sample_period_s
        self.counter_frequency_hz = backend.counter_frequency_hz
        self.kernel_name = backend.kernel_name(kernel)


class ReplayBackend:
    """A ProfilingBackend that serves pre-simulated records instantly.

    Every ``profile()`` call against a fresh ReplayBackend sees the same
    deterministic sequence of records and probe results, so every run count
    traverses the same inputs.
    """

    def __init__(self, pool: RecordPool) -> None:
        self._pool = pool
        self._cursor = 0

    @property
    def power_sample_period_s(self) -> float:
        return self._pool.power_sample_period_s

    @property
    def counter_frequency_hz(self) -> float:
        return self._pool.counter_frequency_hz

    def kernel_name(self, kernel) -> str:
        return self._pool.kernel_name

    def time_kernel(self, kernel, executions: int) -> list[float]:
        try:
            return list(self._pool.timings[executions])
        except KeyError as exc:
            raise ValueError(f"no replayed timing probe for {executions} executions") from exc

    def calibrate_read_delay(self, samples: int = 32) -> DelayCalibration:
        return self._pool.calibration

    def run(self, kernel, executions, pre_delay_s, run_index=0, preceding=()):
        if self._cursor >= len(self._pool.records):
            raise RuntimeError("replay pool exhausted; enlarge POOL_SIZE")
        record = self._pool.records[self._cursor]
        self._cursor += 1
        if record.run_index == run_index:
            return record
        return replace(record, run_index=run_index)


@pytest.fixture(scope="module")
def pool():
    return RecordPool(cb_gemm(KERNEL_SIZE), POOL_SIZE)


def profile_seconds(pool: RecordPool, runs: int,
                    max_additional_runs: int | None = None, repetitions: int = 3):
    """Best-of-N wall time of one full profile() call (plus the result)."""
    config = BENCH_CONFIG
    if max_additional_runs is not None:
        config = config.with_overrides(max_additional_runs=max_additional_runs)
    best = float("inf")
    result = None
    for _ in range(repetitions):
        profiler = FinGraVProfiler(ReplayBackend(pool), config)
        begin = time.perf_counter()
        result = profiler.profile(pool.kernel, runs=runs)
        best = min(best, time.perf_counter() - begin)
    return result, best


def _write_results(update: dict) -> None:
    payload = {}
    if RESULT_PATH.exists():
        try:
            payload = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(update)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.mark.bench
def test_profiler_scaling_near_linear(pool):
    """profile() wall time grows near-linearly in the number of runs."""
    counts = (60, 120, 240, 480)
    rows = []
    for runs in counts:
        _, seconds = profile_seconds(pool, runs=runs, max_additional_runs=0)
        rows.append({"runs": runs, "seconds": seconds,
                     "us_per_run": seconds / runs * 1e6})
    print("\n=== profile() scaling (replayed backend) ===")
    for row in rows:
        print(f"  {row['runs']:>4} runs: {row['seconds']*1e3:7.2f} ms "
              f"({row['us_per_run']:6.1f} us/run)")
    _write_results({"kernel": pool.kernel_name,
                    "execution_time_s": pool.execution_time_s,
                    "scaling": rows})
    # An 8x run increase may cost at most ~2.5x the per-run time (generous
    # slack over timer noise); O(n^2) behaviour would blow well past this.
    first, last = rows[0], rows[-1]
    ratio = last["seconds"] / first["seconds"]
    assert ratio < (last["runs"] / first["runs"]) * 2.5, (
        f"super-linear scaling: {ratio:.1f}x time for "
        f"{last['runs'] / first['runs']:.0f}x runs"
    )
