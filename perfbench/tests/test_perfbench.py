"""Tests of the benchmark's own helpers.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from measure import derive_seed, samples_needed, tail_percentile  # noqa: E402
from spans import (  # noqa: E402
    ROOT, TARGETS, Patcher, Tracer, layer_self_times, leftover_wrappers, resolve, self_times,
)


# --------------------------------------------------------------------------- #
# Self-time arithmetic.
# --------------------------------------------------------------------------- #
def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        (0, 0.0, 10.0, -1, 0),  # root
        (1, 1.0, 4.0, 0, 0),    # child
        (2, 2.0, 3.0, 1, 0),    # grandchild, inside the child
        (1, 5.0, 9.0, 0, 0),    # second child
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    totals = layer_self_times(spans, ["root", "a", "b"])
    assert totals == pytest.approx({"root": 3.0, "a": 6.0, "b": 1.0})
    assert sum(totals.values()) == pytest.approx(10.0)


def test_self_time_clips_and_merges_children():
    spans = [
        (0, 0.0, 10.0, -1, 0),
        (1, 2.0, 6.0, 0, 0),
        (1, 4.0, 8.0, 0, 0),    # overlaps the previous child
        (1, 9.0, 12.0, 0, 0),   # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


# --------------------------------------------------------------------------- #
# The tail rule.
# --------------------------------------------------------------------------- #
def test_tail_rule_needs_ten_samples_beyond():
    assert samples_needed(0.95) == 200
    with pytest.raises(ValueError, match="need at least 10"):
        tail_percentile(list(range(199)), 0.95)
    values = list(np.random.default_rng(3).normal(size=200))
    assert tail_percentile(values, 0.95) == pytest.approx(np.percentile(values, 95))
    assert tail_percentile(values, 0.5) == pytest.approx(np.median(values))


def test_tail_rule_rejects_out_of_range_percentiles():
    with pytest.raises(ValueError):
        tail_percentile(list(range(1000)), 1.0)


# --------------------------------------------------------------------------- #
# Seed derivation.
# --------------------------------------------------------------------------- #
def test_seeds_are_deterministic_per_call_and_distinct():
    first = [derive_seed(7, "backend", r, p) for r in range(50) for p in range(2)]
    again = [derive_seed(7, "backend", r, p) for r in range(50) for p in range(2)]
    assert first == again
    assert len(set(first)) == len(first)
    assert all(0 <= seed < 2**31 for seed in first)
    assert derive_seed(7, "backend", 0, 0) != derive_seed(7, "profiler", 0, 0)
    assert derive_seed(7, "backend", 0, 0) != derive_seed(8, "backend", 0, 0)


def test_profile_calls_use_derived_seeds():
    from workloads import ProfileWorkload

    workload = ProfileWorkload("profile-long", seed=11)
    result, _, _ = workload._call(round_index=3, position=0)
    assert result.config.seed == derive_seed(11, "profiler", 3, 0)
    again, _, _ = workload._call(round_index=3, position=0)
    assert np.array_equal(result.ssp_profile.times(), again.ssp_profile.times())


def test_sweep_jobs_are_offset_per_round(tmp_path):
    from repro.experiments.sweep import ProfileJob, kernel_spec
    from workloads import _seeded_runner_class

    job = ProfileJob(
        job_id="probe", kernel=kernel_spec("cb_gemm", 4096), runs=8,
        backend_seed=1, profiler_seed=2, max_additional_runs=0,
    )
    runner = _seeded_runner_class()(offset=derive_seed(5, "sweep", 0), cache_dir=tmp_path)
    runner.run([job])
    seeded = runner.jobs["probe"]
    assert seeded.backend_seed == 1 + derive_seed(5, "sweep", 0)
    assert seeded.profiler_seed == 2 + derive_seed(5, "sweep", 0)
    assert set(runner.results) == {"probe"}


# --------------------------------------------------------------------------- #
# Wrapper installation and removal.
# --------------------------------------------------------------------------- #
def _current(target):
    owner, name = resolve(target.module, target.qualname)
    return vars(owner)[name]


def test_tracer_restores_every_original():
    import repro.core
    import repro.core.differentiation
    import repro.core.session
    import repro.experiments.sweep  # noqa: F401 -- load every traced module

    originals = [_current(target) for target in TARGETS]
    build_plan = repro.core.differentiation.build_plan
    tracer = Tracer()
    tracer.install()
    try:
        assert len(leftover_wrappers()) == len(TARGETS)
        # A function bound by name at import time is replaced there too.
        assert repro.core.session.build_plan is not build_plan
        assert repro.core.build_plan is repro.core.session.build_plan
    finally:
        tracer.remove()
    assert [_current(target) for target in TARGETS] == originals
    assert leftover_wrappers() == []
    assert repro.core.session.build_plan is build_plan
    assert repro.core.build_plan is build_plan


def test_patcher_rejects_inherited_methods():
    with pytest.raises(AttributeError):
        Patcher().wrap("repro.gpu.telemetry", "CoarsePowerSampler.sample_columns", lambda f: f)


def test_traced_run_nests_spans_and_accounts_for_wall_time():
    from repro import SimulatedDeviceBackend
    from repro.kernels.workloads import cb_gemm

    kernel = cb_gemm(2048)
    plain = SimulatedDeviceBackend(seed=4).run(kernel, executions=3, pre_delay_s=1e-4)
    tracer = Tracer()
    with tracer, tracer.round(0):
        traced = SimulatedDeviceBackend(seed=4).run(kernel, executions=3, pre_delay_s=1e-4)
    assert np.array_equal(plain.readings.total_w, traced.readings.total_w)

    spans = tracer.closed_spans()
    layers = tracer.layers
    names = [layers[span[0]] for span in spans]
    assert names[0] == ROOT and names.count(ROOT) == 1
    glue = names.index("gpu.backend.glue")
    assert spans[glue][3] == 0
    nested = {layers[span[0]] for span in spans if span[3] == glue}
    assert {"gpu.device.idle", "gpu.device.record", "gpu.scheduler.launch",
            "gpu.telemetry.sample"} <= nested
    assert all(span[4] == 0 for span in spans)
    totals = layer_self_times(spans, layers)
    root_duration = spans[0][2] - spans[0][1]
    assert sum(totals.values()) == pytest.approx(root_duration, rel=1e-9)
    # park() calls idle(): one idle call, counted at the outermost span.
    idle = layers.index("gpu.device.idle")
    idle_spans = [span for span in spans if span[0] == idle]
    outermost = [span for span in idle_spans if spans[span[3]][0] != idle]
    assert len(outermost) < len(idle_spans)
    assert tracer.counts["gpu.device.idle_calls"] == len(outermost)
    assert tracer.counts["gpu.backend.runs"] == 1
    assert tracer.counts["gpu.scheduler.executions"] == 3
    assert tracer.counts["gpu.telemetry.readings"] == len(traced.readings)
