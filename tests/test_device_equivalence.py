"""Four-engine equivalence harness: compiled vs vectorized vs reference.

The contract is that every batched engine reproduces the retained per-slice
reference path: identical slice boundaries, RNG stream, executions and
firmware events.  Power values may differ from the *reference* by ~1 ulp
because idle-span warmth is relaxed once per span instead of once per slice
-- the tolerances below document that bound.  The compiled engine replays
the vectorized engine's iterated-float arithmetic exactly, so compiled vs
vectorized is pinned **bit for bit** with no tolerance at all.

Scenarios mirror the paper's workloads: pure idle, a short (single-slice)
kernel, a power-limited GEMM that throttles mid-execution, an interleaved
mix with a mid-recording timestamp read, and a long-idle park/unpark cycle
spanning hundreds of firmware control periods.

Every scenario is pinned across the full engine matrix: the compiled kernel
engine (Numba or the C mirror, whichever provider is active), the default
batched idle-span boundary engine, the retained per-period inline loop
(``_idle_batch_min_periods = inf``) and the per-slice reference.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.gpu import fastcore
from repro.gpu.backend import BackendConfig, SimulatedDeviceBackend
from repro.gpu.device import PowerSegment, SegmentArray, SimulatedGPU
from repro.gpu.dvfs import FirmwareState
from repro.gpu.scheduler import LaunchConfig
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm, mb_gemv

requires_compiled = pytest.mark.skipif(
    not fastcore.available(), reason="no compiled-kernel provider in this environment"
)

POWER_RTOL = 1e-9
POWER_ATOL = 1e-9

SPEC = mi300x_spec()
SHORT = cb_gemm(1024).activity_descriptor(SPEC)
BIG = cb_gemm(8192).activity_descriptor(SPEC)
GEMV = mb_gemv(4096).activity_descriptor(SPEC)


def device_pair(seed=123):
    return (
        SimulatedGPU(SPEC, seed=seed, vectorized=True),
        SimulatedGPU(SPEC, seed=seed, vectorized=False),
    )


def scenario_idle(device):
    device.park(12e-3)
    device.start_recording()
    device.idle(1.7e-3)
    device.idle(3e-6)
    device.idle(4.3e-3)


def scenario_short_kernel(device):
    device.park()
    device.start_recording()
    device.idle(1.5e-3)
    variation = device.draw_run_variation(SHORT)
    for _ in range(30):
        device.idle(1e-6)
        device.execute_kernel(SHORT, run_variation=variation)
    device.idle(1.3e-3)


def scenario_throttling_gemm(device):
    device.park()
    device.start_recording()
    device.idle(0.5e-3)
    for _ in range(6):
        device.execute_kernel(BIG)
    device.idle(1e-3)


def scenario_interleaved(device):
    device.park()
    device.start_recording()
    device.idle(1.5e-3)
    device.read_timestamp()
    for i in range(8):
        device.idle(2e-6)
        device.execute_kernel(GEMV if i % 2 else SHORT)
    device.idle(2.5e-3)
    device.execute_kernel(BIG)
    device.idle(0.7e-3)


def scenario_long_idle_park(device):
    """Hundreds of control periods idle: park mid-span, boost on arrival.

    The 80 ms span covers 320 control periods with the IDLE-park transition
    ~2 ms in; the following kernel exercises ``notify_kernel_arrival`` boost
    out of the parked state, and the second long span parks again.
    """
    device.park()
    device.start_recording()
    variation = device.draw_run_variation(SHORT)
    device.execute_kernel(SHORT, run_variation=variation)
    device.idle(80e-3)
    device.execute_kernel(SHORT, run_variation=variation)
    device.idle(45e-3)
    device.execute_kernel(SHORT, run_variation=variation)
    device.idle(2.2e-3)


SCENARIOS = {
    "idle": scenario_idle,
    "short_kernel": scenario_short_kernel,
    "throttling_gemm": scenario_throttling_gemm,
    "interleaved": scenario_interleaved,
    "long_idle_park": scenario_long_idle_park,
}


def segment_columns(segments):
    return (
        np.asarray([s.start_s for s in segments], dtype=float),
        np.asarray([s.end_s for s in segments], dtype=float),
        np.asarray(
            [[s.power.xcd_w, s.power.iod_w, s.power.hbm_w] for s in segments], dtype=float
        ),
    )


def assert_devices_equivalent(fast, reference, fast_segments, reference_segments):
    # Slice boundaries are bit-identical; powers agree to the documented
    # tolerance (closed-form idle-span warmth).
    assert isinstance(fast_segments, SegmentArray)
    ref_starts, ref_ends, ref_powers = segment_columns(reference_segments)
    assert len(fast_segments) == len(reference_segments)
    assert np.array_equal(fast_segments.starts_s, ref_starts)
    assert np.array_equal(fast_segments.ends_s, ref_ends)
    assert np.allclose(fast_segments.powers, ref_powers, rtol=POWER_RTOL, atol=POWER_ATOL)

    fast_executions = fast.executions()
    reference_executions = reference.executions()
    assert len(fast_executions) == len(reference_executions)
    for a, b in zip(fast_executions, reference_executions):
        assert a.kernel_name == b.kernel_name
        assert a.start_s == b.start_s
        assert a.end_s == b.end_s
        assert a.cold_caches == b.cold_caches
        assert a.mean_frequency_ghz == pytest.approx(b.mean_frequency_ghz, rel=1e-12)
        assert a.energy_j == pytest.approx(b.energy_j, rel=POWER_RTOL)
        assert a.mean_power.total_w == pytest.approx(b.mean_power.total_w, rel=POWER_RTOL)

    fast_events = fast.firmware_events()
    reference_events = reference.firmware_events()
    assert len(fast_events) == len(reference_events)
    for a, b in zip(fast_events, reference_events):
        assert a.time_s == b.time_s
        assert a.state is b.state
        assert a.frequency_ghz == b.frequency_ghz
        assert a.power_w == pytest.approx(b.power_w, rel=POWER_RTOL, abs=POWER_ATOL)
        assert np.isfinite(a.power_w)

    assert fast.now_s() == reference.now_s()
    assert fast.thermal.warmth == pytest.approx(reference.thermal.warmth, abs=1e-12)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_equivalence(name):
    scenario = SCENARIOS[name]
    fast, reference = device_pair()
    scenario(fast)
    scenario(reference)
    fast_segments = fast.stop_recording()
    reference_segments = reference.stop_recording()
    assert_devices_equivalent(fast, reference, fast_segments, reference_segments)


def assert_devices_bitwise_identical(compiled, vectorized, compiled_segments, vectorized_segments):
    """Compiled vs vectorized: no tolerance -- every float must match exactly."""
    assert np.array_equal(compiled_segments.starts_s, vectorized_segments.starts_s)
    assert np.array_equal(compiled_segments.ends_s, vectorized_segments.ends_s)
    assert np.array_equal(compiled_segments.powers, vectorized_segments.powers)
    assert compiled.executions() == vectorized.executions()
    compiled_events = compiled.firmware_events()
    vectorized_events = vectorized.firmware_events()
    assert len(compiled_events) == len(vectorized_events)
    for a, b in zip(compiled_events, vectorized_events):
        assert (a.time_s, a.state, a.frequency_ghz, a.power_w) == (
            b.time_s, b.state, b.frequency_ghz, b.power_w,
        )
    assert compiled.now_s() == vectorized.now_s()
    assert compiled.thermal.warmth == vectorized.thermal.warmth
    assert compiled._next_control_s == vectorized._next_control_s
    assert compiled.firmware.state is vectorized.firmware.state
    assert compiled.firmware.frequency_ghz == vectorized.firmware.frequency_ghz


@requires_compiled
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_equivalence_compiled(name):
    """The compiled engine is bit-identical to vectorized, tolerance-equal to
    the reference, on every scenario (including the long-idle park cycle)."""
    scenario = SCENARIOS[name]
    compiled = SimulatedGPU(SPEC, seed=123, engine="compiled")
    assert compiled.engine == "compiled"
    vectorized, reference = device_pair()
    for device in (compiled, vectorized, reference):
        scenario(device)
    compiled_segments = compiled.stop_recording()
    vectorized_segments = vectorized.stop_recording()
    reference_segments = reference.stop_recording()
    assert_devices_bitwise_identical(
        compiled, vectorized, compiled_segments, vectorized_segments
    )
    assert_devices_equivalent(compiled, reference, compiled_segments, reference_segments)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_equivalence_scalar_inline(name):
    """The retained per-period inline idle loop stays in lockstep too.

    ``_idle_batch_min_periods = inf`` disables the batched boundary engine,
    pinning the scalar path the batched engine replaced (and falls back to)
    against the per-slice reference.
    """
    scenario = SCENARIOS[name]
    fast, reference = device_pair()
    fast._idle_batch_min_periods = float("inf")
    scenario(fast)
    scenario(reference)
    fast_segments = fast.stop_recording()
    reference_segments = reference.stop_recording()
    assert_devices_equivalent(fast, reference, fast_segments, reference_segments)


def engine_matrix(seed=123):
    """Ordered engine matrix: [compiled,] batched, scalar-inline, reference.

    The compiled engine joins the matrix whenever a provider is available
    (the provider itself -- Numba or the C mirror -- is whatever fastcore
    auto-selected; both must pass the same pins).  ``reference`` is always
    last.
    """
    engines: dict[str, SimulatedGPU] = {}
    if fastcore.available():
        engines["compiled"] = SimulatedGPU(SPEC, seed=seed, engine="compiled")
    engines["batched"] = SimulatedGPU(SPEC, seed=seed, vectorized=True)
    scalar = SimulatedGPU(SPEC, seed=seed, vectorized=True)
    scalar._idle_batch_min_periods = float("inf")
    engines["scalar"] = scalar
    engines["reference"] = SimulatedGPU(SPEC, seed=seed, vectorized=False)
    return engines


def three_engines(seed=123):
    """Batched engine, pinned scalar-inline path, per-slice reference."""
    matrix = engine_matrix(seed)
    return matrix["batched"], matrix["scalar"], matrix["reference"]


class TestLongIdleParkUnpark:
    """The compiled engine, the batched idle-span engine, the inline path and
    the reference loop must agree bit for bit across a park/unpark/boost
    cycle spanning hundreds of control periods."""

    @pytest.fixture(scope="class")
    def driven(self):
        engines = engine_matrix()
        segments = {}
        for name, device in engines.items():
            scenario_long_idle_park(device)
            segments[name] = device.stop_recording()
        return engines, segments

    def test_park_and_boost_events_bitwise_identical(self, driven):
        engines, _ = driven
        reference_events = engines["reference"].firmware_events()
        # The cycle must actually exercise park -> boost -> park.
        states = [event.state for event in reference_events]
        assert states.count(FirmwareState.IDLE) >= 2
        assert FirmwareState.BOOST in states
        for name, device in engines.items():
            if name == "reference":
                continue
            events = device.firmware_events()
            assert len(events) == len(reference_events)
            for ours, refevent in zip(events, reference_events):
                assert ours.time_s == refevent.time_s
                assert ours.state is refevent.state
                assert ours.frequency_ghz == refevent.frequency_ghz
                assert ours.power_w == pytest.approx(
                    refevent.power_w, rel=POWER_RTOL, abs=POWER_ATOL
                )

    def test_segments_clock_and_warmth_pinned(self, driven):
        engines, segments = driven
        ref_segments = segments["reference"]
        assert len(segments["batched"]) > 500  # hundreds of control periods
        for name in engines:
            if name == "reference":
                continue
            assert_devices_equivalent(
                engines[name], engines["reference"], segments[name], ref_segments
            )
        # Batched vs scalar-inline: the idle grid must be the same floats.
        assert np.array_equal(segments["batched"].starts_s, segments["scalar"].starts_s)
        assert np.array_equal(segments["batched"].ends_s, segments["scalar"].ends_s)
        if "compiled" in engines:
            # Compiled vs batched: everything identical, powers included.
            assert_devices_bitwise_identical(
                engines["compiled"], engines["batched"],
                segments["compiled"], segments["batched"],
            )

    def test_firmware_bookkeeping_identical(self, driven):
        engines, _ = driven
        reference = engines["reference"]
        for name, device in engines.items():
            if name == "reference":
                continue
            assert device.firmware._idle_accum_s == reference.firmware._idle_accum_s
            assert device.firmware._overdraw_accum_s == reference.firmware._overdraw_accum_s
            assert device.firmware._last_power_w == pytest.approx(
                reference.firmware._last_power_w, rel=POWER_RTOL
            )


class TestExactBoundarySpans:
    """Audit pin for the 1e-12 boundary slack: a span ending exactly on (or
    within the slack of) a control boundary fires the firmware on the same
    boundary in the batched engine, the inline path and the reference loop,
    and the park transition lands on an identical boundary float."""

    @pytest.mark.parametrize("perturb_s", [0.0, 1e-12, -1e-12, 5e-13, -5e-13])
    def test_park_lands_on_same_boundary(self, perturb_s):
        engines = engine_matrix(seed=21)
        # The spans here are shorter than the batching crossover; force the
        # batched engine on so the chunk path itself faces the corner case
        # (the compiled engine has no threshold -- it always takes its
        # per-period kernel loop).
        engines["batched"]._idle_batch_min_periods = 1.0
        for device in engines.values():
            device.start_recording()
            device.execute_kernel(SHORT)
            # Idle exactly to a control boundary eleven periods out (plus a
            # sub-slack perturbation), then across the park threshold.
            period = device.spec.dvfs.control_period_s
            span = device._next_control_s + 10 * period - device.now_s() + perturb_s
            device.idle(span)
            device.idle(9 * period)
        reference = engines["reference"]
        reference_events = reference.firmware_events()
        park_times = [
            event.time_s for event in reference_events if event.state is FirmwareState.IDLE
        ]
        assert park_times, "scenario must park"
        for name, device in engines.items():
            if name == "reference":
                continue
            events = device.firmware_events()
            assert [
                (event.time_s, event.state, event.frequency_ghz) for event in events
            ] == [
                (event.time_s, event.state, event.frequency_ghz)
                for event in reference_events
            ]
            assert device.now_s() == reference.now_s()
            assert device._next_control_s == reference._next_control_s
        for device in engines.values():
            device.stop_recording()

    def test_span_ending_on_boundary_steps_firmware_once(self):
        # A span that ends bit-exactly on a boundary must consume that
        # boundary (next_control advances past it) in every engine, leaving
        # an empty control accumulator -- the audited invariant behind the
        # batched engine's chunk entry condition.
        engines = engine_matrix(seed=4)
        engines["batched"]._idle_batch_min_periods = 1.0
        for device in engines.values():
            device.execute_kernel(SHORT)
            span = device._next_control_s - device.now_s()
            device.idle(span)
            assert device.now_s() + 1e-12 >= device._next_control_s - \
                device.spec.dvfs.control_period_s
            assert device._next_control_s > device.now_s() + 1e-12
            assert device._control.time_s == 0.0
            assert device._control.energy_j == 0.0


@dataclass(frozen=True)
class RunCase:
    """A backend configuration and the runs driven through it."""

    config: dict = field(default_factory=dict)
    launch: LaunchConfig | None = None
    kernel: object = SHORT
    executions: int = 12
    pre_delays: tuple[float, ...] = (0.0, 0.7e-3, 1.9e-3)
    preceding: tuple = ()


#: Runs the compiled engine simulates in one whole-run kernel call.
WHOLE_RUN_CASES = {
    "averaging": RunCase(),
    "coarse": RunCase(config={"sampler": "coarse"}),
    "instantaneous": RunCase(config={"sampler": "instantaneous"}),
    "no_reading_noise": RunCase(config={"reading_noise": 0.0}),
    "zero_pre_delay": RunCase(pre_delays=(0.0, 0.0)),
    # The second preceding sequence is the kernel of interest itself: both
    # share its cache state inside the one call.
    "preceding": RunCase(preceding=((GEMV, 4), (SHORT, 2)), executions=8),
    "throttling": RunCase(kernel=BIG, executions=4, pre_delays=(0.3e-3,)),
    "long_pre_delay": RunCase(pre_delays=(1.2,), executions=3),
}

#: Runs whose launch sequences do not fuse: the stepwise path runs them.
FALLBACK_CASES = {
    "no_execution_jitter": RunCase(
        kernel=dataclasses.replace(
            SHORT, variation=dataclasses.replace(SHORT.variation, execution_cv=0.0)
        )
    ),
    "no_timestamp_error": RunCase(launch=LaunchConfig(event_timestamp_error_s=0.0)),
}


class TestBackendEquivalence:
    """Full instrumented runs must agree record-for-record across engines."""

    @pytest.fixture(scope="class")
    def record_matrix(self):
        def one(engine):
            backend = SimulatedDeviceBackend(
                spec=SPEC, seed=11, config=BackendConfig(engine=engine)
            )
            assert backend.device.engine == engine
            kernel = cb_gemm(1024)
            records = [
                backend.run(kernel, executions=30, pre_delay_s=i * 0.7e-3, run_index=i)
                for i in range(3)
            ]
            records.append(
                backend.run(
                    kernel,
                    executions=10,
                    pre_delay_s=0.3e-3,
                    run_index=3,
                    preceding=[(mb_gemv(4096), 4)],
                )
            )
            return records

        engines = ["vectorized", "reference"]
        if fastcore.available():
            engines.insert(0, "compiled")
        return {engine: one(engine) for engine in engines}

    @staticmethod
    def pairs(record_matrix):
        reference = record_matrix["reference"]
        for engine, records in record_matrix.items():
            if engine != "reference":
                yield from zip(records, reference)

    def test_execution_timings_identical(self, record_matrix):
        for fast, reference in self.pairs(record_matrix):
            assert len(fast.executions) == len(reference.executions)
            for a, b in zip(fast.executions, reference.executions):
                assert a == b
            for a, b in zip(fast.preceding_executions, reference.preceding_executions):
                assert a == b

    def test_readings_match(self, record_matrix):
        for fast, reference in self.pairs(record_matrix):
            assert len(fast.readings) == len(reference.readings)
            for a, b in zip(fast.readings, reference.readings):
                assert a.gpu_timestamp_ticks == b.gpu_timestamp_ticks
                assert a.window_s == b.window_s
                assert a.total_w == pytest.approx(b.total_w, rel=POWER_RTOL)
                for component in ("xcd", "iod", "hbm"):
                    assert a.components[component] == pytest.approx(
                        b.components[component], rel=POWER_RTOL
                    )

    def test_anchor_and_metadata_identical(self, record_matrix):
        for fast, reference in self.pairs(record_matrix):
            assert fast.anchor == reference.anchor
            assert fast.pre_delay_s == reference.pre_delay_s
            assert fast.metadata["logger_start_cpu_s"] == reference.metadata["logger_start_cpu_s"]
            assert fast.metadata["logger_stop_cpu_s"] == reference.metadata["logger_stop_cpu_s"]
            assert (
                fast.metadata["run_variation_outlier"]
                == reference.metadata["run_variation_outlier"]
            )

    def test_compiled_readings_bitwise_equal_vectorized(self, record_matrix):
        if "compiled" not in record_matrix:
            pytest.skip("no compiled-kernel provider in this environment")
        for compiled, vectorized in zip(
            record_matrix["compiled"], record_matrix["vectorized"]
        ):
            assert list(compiled.executions) == list(vectorized.executions)
            for a, b in zip(compiled.readings, vectorized.readings):
                assert a.gpu_timestamp_ticks == b.gpu_timestamp_ticks
                assert a.total_w == b.total_w
                assert a.components == b.components

    # -- The compiled engine's whole-run kernel (one call per run). -------- #
    @requires_compiled
    @pytest.mark.parametrize("name", sorted(WHOLE_RUN_CASES))
    def test_whole_run_bitwise_equal_vectorized(self, name, monkeypatch):
        calls = []
        original = SimulatedGPU._run_compiled

        def counted(device, *args, **kwargs):
            calls.append(device)
            return original(device, *args, **kwargs)

        monkeypatch.setattr(SimulatedGPU, "_run_compiled", counted)
        case = WHOLE_RUN_CASES[name]
        compiled = drive_runs("compiled", case)
        vectorized = drive_runs("vectorized", case)
        assert len(calls) == len(case.pre_delays)
        assert_runs_identical(compiled, vectorized)

    @requires_compiled
    def test_whole_run_grows_overflowed_buffers(self):
        backend, _, _ = drive_runs("compiled", WHOLE_RUN_CASES["long_pre_delay"])
        # The 1.2 s pre-delay records ~4800 slices and 1200 readings: both
        # the slice and the sample buffer overflowed and were regrown.
        assert backend.device._fc_seg.shape[0] > 4096
        assert backend.device._fc_smp.shape[0] > 1200

    @requires_compiled
    @pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
    def test_unfusable_runs_fall_back_to_stepwise(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an unfusable run reached the whole-run kernel")

        monkeypatch.setattr(SimulatedGPU, "_run_compiled", refuse)
        case = FALLBACK_CASES[name]
        assert_runs_identical(drive_runs("compiled", case), drive_runs("vectorized", case))


def device_state(backend):
    """Everything a run leaves behind on the device and backend."""
    device = backend.device
    firmware = device.firmware
    control = device._control
    return (
        device.now_s(),
        device.thermal.warmth,
        device._next_control_s,
        firmware.state,
        firmware.frequency_ghz,
        firmware._overdraw_accum_s,
        firmware._throttle_until_s,
        firmware._idle_accum_s,
        firmware._last_power_w,
        control.energy_j,
        control.time_s,
        control.active_time_s,
        [(e.time_s, e.state, e.frequency_ghz, e.power_w) for e in device.firmware_events()],
        device.executions(),
        {
            name: (state.consecutive_executions, state.last_end_s)
            for name, state in device._cache_states.items()
        },
        device.is_recording,
        device.rng.bit_generator.state,
        backend._noise_rng.bit_generator.state,
    )


def drive_runs(engine, case, seed=11):
    """``(backend, records, device state after each run)`` for one case."""
    backend = SimulatedDeviceBackend(
        spec=SPEC,
        seed=seed,
        config=BackendConfig(engine=engine, **case.config),
        launch_config=case.launch,
    )
    assert backend.device.engine == engine
    records, states = [], []
    for i, pre_delay in enumerate(case.pre_delays):
        records.append(
            backend.run(
                case.kernel,
                executions=case.executions,
                pre_delay_s=pre_delay,
                run_index=i,
                preceding=case.preceding,
            )
        )
        states.append(device_state(backend))
    return backend, records, states


def assert_runs_identical(ours, theirs):
    """Records and post-run device state equal bit for bit, run by run."""
    _, records, states = ours
    _, other_records, other_states = theirs
    assert len(records) == len(other_records)
    for a, b in zip(records, other_records):
        assert (a.run_index, a.kernel_name, a.pre_delay_s) == (
            b.run_index, b.kernel_name, b.pre_delay_s,
        )
        assert (a.logger_period_s, a.counter_frequency_hz) == (
            b.logger_period_s, b.counter_frequency_hz,
        )
        assert a.anchor == b.anchor
        assert a.metadata == b.metadata
        assert a.readings == b.readings
        assert np.array_equal(
            a.reading_columns().gpu_timestamp_ticks, b.reading_columns().gpu_timestamp_ticks
        )
        assert a.executions == b.executions
        assert a.preceding_executions == b.preceding_executions
    for state, other in zip(states, other_states):
        assert state == other


class TestDescriptorProfileCache:
    def test_cache_is_not_poisoned_across_specs(self):
        # Regression: the per-descriptor power-profile cache must be keyed by
        # the device's power model, or a descriptor first run on one spec
        # would replay that spec's utilisations on every later device.
        import dataclasses

        descriptor = cb_gemm(2048).activity_descriptor(SPEC)
        first = SimulatedGPU(SPEC, seed=1, vectorized=True)
        first.execute_kernel(descriptor)

        other_spec = dataclasses.replace(
            SPEC, power=dataclasses.replace(SPEC.power, xcd_stalled_floor=0.44,
                                            xcd_activity_floor=0.9)
        )
        fast = SimulatedGPU(other_spec, seed=2, vectorized=True)
        reference = SimulatedGPU(other_spec, seed=2, vectorized=False)
        fast_result = fast.execute_kernel(descriptor)
        reference_result = reference.execute_kernel(descriptor)
        assert fast_result.mean_power.total_w == pytest.approx(
            reference_result.mean_power.total_w, rel=POWER_RTOL
        )


class TestSegmentArray:
    def test_behaves_like_a_sequence_of_segments(self):
        fast, _ = device_pair()
        fast.start_recording()
        fast.idle(0.9e-3)
        fast.execute_kernel(SHORT)
        segments = fast.stop_recording()
        assert isinstance(segments, SegmentArray)
        assert len(segments) > 0
        first = segments[0]
        assert isinstance(first, PowerSegment)
        assert first.duration_s > 0
        assert [s.start_s for s in segments] == list(segments.starts_s)
        tail = segments[1:]
        assert isinstance(tail, SegmentArray)
        assert len(tail) == len(segments) - 1

    def test_equality_with_plain_segment_lists(self):
        fast, _ = device_pair()
        fast.start_recording()
        fast.idle(0.4e-3)
        segments = fast.stop_recording()
        assert segments == list(segments)
        assert segments == SegmentArray.from_segments(list(segments))
        assert not (segments == list(segments)[:-1])

    def test_empty_recording_equals_empty_list(self):
        fast, _ = device_pair()
        assert fast.stop_recording() == []

    def test_from_segments_round_trip(self):
        fast, _ = device_pair()
        fast.start_recording()
        fast.idle(0.6e-3)
        segments = fast.stop_recording()
        rebuilt = SegmentArray.from_segments([segments[i] for i in range(len(segments))])
        assert rebuilt == segments
