"""Device equivalence harness: the compiled engine against its specifications.

The compiled engine is pinned three ways:

* against the per-slice reference engine: identical slice boundaries, RNG
  stream, executions and firmware events; power values may differ by ~1 ulp
  because idle-span warmth is relaxed once per span instead of once per
  slice -- the tolerances below document that bound;
* against the pure-Python kernel bodies, **bit for bit**: whichever provider
  is active (Numba, the C mirror or the bodies themselves) must replay every
  scenario exactly as the plain Python kernels do;
* the whole-run kernel (one call per instrumented run) against the per-step
  compiled path of the same backend, **bit for bit**: records and every piece
  of post-run device state.

Scenarios mirror the paper's workloads: pure idle, a short (single-slice)
kernel, a power-limited GEMM that throttles mid-execution, an interleaved
mix with a mid-recording timestamp read, and a long-idle park/unpark cycle
spanning hundreds of firmware control periods.
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

POWER_RTOL = 1e-9
POWER_ATOL = 1e-9

SPEC = mi300x_spec()
SHORT = cb_gemm(1024).activity_descriptor(SPEC)
BIG = cb_gemm(8192).activity_descriptor(SPEC)
GEMV = mb_gemv(4096).activity_descriptor(SPEC)


def device_pair(seed=123):
    """The compiled engine (whichever provider fastcore selected) and the
    per-slice reference, in that order."""
    return (
        SimulatedGPU(SPEC, seed=seed, engine="compiled"),
        SimulatedGPU(SPEC, seed=seed, engine="reference"),
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


def assert_devices_bitwise_identical(ours, theirs, our_segments, their_segments):
    """No tolerance -- every float must match exactly."""
    assert np.array_equal(our_segments.starts_s, their_segments.starts_s)
    assert np.array_equal(our_segments.ends_s, their_segments.ends_s)
    assert np.array_equal(our_segments.powers, their_segments.powers)
    assert ours.executions() == theirs.executions()
    our_events = ours.firmware_events()
    their_events = theirs.firmware_events()
    assert len(our_events) == len(their_events)
    for a, b in zip(our_events, their_events):
        assert (a.time_s, a.state, a.frequency_ghz, a.power_w) == (
            b.time_s, b.state, b.frequency_ghz, b.power_w,
        )
    assert ours.now_s() == theirs.now_s()
    assert ours.thermal.warmth == theirs.thermal.warmth
    assert ours._next_control_s == theirs._next_control_s
    assert ours.firmware.state is theirs.firmware.state
    assert ours.firmware.frequency_ghz == theirs.firmware.frequency_ghz


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_equivalence_compiled(name):
    """The active provider replays the pure-Python kernel bodies bit for bit
    on every scenario (including the long-idle park cycle)."""
    scenario = SCENARIOS[name]
    compiled = SimulatedGPU(SPEC, seed=123, engine="compiled")
    scenario(compiled)
    compiled_segments = compiled.stop_recording()
    python = SimulatedGPU(SPEC, seed=123, engine="compiled")
    with fastcore.pure_kernels() as pure:
        python._fc = pure
        scenario(python)
        python_segments = python.stop_recording()
    assert_devices_bitwise_identical(
        compiled, python, compiled_segments, python_segments
    )


class TestFirmwareEventHistory:
    """The compiled engine queues each call's firmware events as raw rows and
    builds the event objects on read; a Python-side transition in between
    must still land after them, in the reference engine's order."""

    @staticmethod
    def drive(device):
        firmware = device.firmware
        device.park()
        device.start_recording()
        for _ in range(3):
            device.execute_kernel(BIG)
            now = device.now_s()
            # Park, re-boost on arrival, then throttle on a sustained overdraw.
            firmware.step(now, 2 * firmware.config.idle_park_s, 0.0, False)
            firmware.notify_kernel_arrival(now)
            firmware.step(now, 2 * firmware.config.excursion_window_s, 1e4, True)
        device.idle(1e-3)
        device.stop_recording()

    def test_events_in_reference_order(self):
        compiled, reference = device_pair(seed=31)
        self.drive(compiled)
        self.drive(reference)
        reference_events = reference.firmware_events()
        states = [event.state for event in reference_events]
        assert states.count(FirmwareState.THROTTLED) >= 3
        assert states.count(FirmwareState.IDLE) >= 3
        events = compiled.firmware_events()
        assert [(e.time_s, e.state, e.frequency_ghz) for e in events] == [
            (e.time_s, e.state, e.frequency_ghz) for e in reference_events
        ]
        for ours, refevent in zip(events, reference_events):
            assert ours.power_w == pytest.approx(
                refevent.power_w, rel=POWER_RTOL, abs=POWER_ATOL
            )
        assert compiled.firmware.throttle_count() == reference.firmware.throttle_count()
        assert compiled.firmware_events() == events  # reading twice builds nothing new

    def test_reset_drops_queued_rows(self):
        compiled, _ = device_pair(seed=31)
        compiled.execute_kernel(BIG)
        compiled.firmware.reset()
        assert compiled.firmware_events() == []


class TestLongIdleParkUnpark:
    """The compiled engine and the reference loop must agree across a
    park/unpark/boost cycle spanning hundreds of control periods: events and
    times bit for bit, powers to the documented tolerance."""

    @pytest.fixture(scope="class")
    def driven(self):
        compiled, reference = device_pair()
        scenario_long_idle_park(compiled)
        scenario_long_idle_park(reference)
        return compiled, reference, compiled.stop_recording(), reference.stop_recording()

    def test_park_and_boost_events_bitwise_identical(self, driven):
        compiled, reference, _, _ = driven
        reference_events = reference.firmware_events()
        # The cycle must actually exercise park -> boost -> park.
        states = [event.state for event in reference_events]
        assert states.count(FirmwareState.IDLE) >= 2
        assert FirmwareState.BOOST in states
        events = compiled.firmware_events()
        assert len(events) == len(reference_events)
        for ours, refevent in zip(events, reference_events):
            assert ours.time_s == refevent.time_s
            assert ours.state is refevent.state
            assert ours.frequency_ghz == refevent.frequency_ghz
            assert ours.power_w == pytest.approx(
                refevent.power_w, rel=POWER_RTOL, abs=POWER_ATOL
            )

    def test_segments_clock_and_warmth_pinned(self, driven):
        compiled, reference, compiled_segments, reference_segments = driven
        assert len(compiled_segments) > 500  # hundreds of control periods
        assert_devices_equivalent(compiled, reference, compiled_segments, reference_segments)

    def test_firmware_bookkeeping_identical(self, driven):
        compiled, reference, _, _ = driven
        assert compiled.firmware._idle_accum_s == reference.firmware._idle_accum_s
        assert compiled.firmware._overdraw_accum_s == reference.firmware._overdraw_accum_s
        assert compiled.firmware._last_power_w == pytest.approx(
            reference.firmware._last_power_w, rel=POWER_RTOL
        )


class TestExactBoundarySpans:
    """Audit pin for the 1e-12 boundary slack: a span ending exactly on (or
    within the slack of) a control boundary fires the firmware on the same
    boundary in the compiled engine and the reference loop, and the park
    transition lands on an identical boundary float."""

    @pytest.mark.parametrize("perturb_s", [0.0, 1e-12, -1e-12, 5e-13, -5e-13])
    def test_park_lands_on_same_boundary(self, perturb_s):
        compiled, reference = device_pair(seed=21)
        for device in (compiled, reference):
            device.start_recording()
            device.execute_kernel(SHORT)
            # Idle exactly to a control boundary eleven periods out (plus a
            # sub-slack perturbation), then across the park threshold.
            period = device.spec.dvfs.control_period_s
            span = device._next_control_s + 10 * period - device.now_s() + perturb_s
            device.idle(span)
            device.idle(9 * period)
        reference_events = reference.firmware_events()
        park_times = [
            event.time_s for event in reference_events if event.state is FirmwareState.IDLE
        ]
        assert park_times, "scenario must park"
        assert [
            (event.time_s, event.state, event.frequency_ghz)
            for event in compiled.firmware_events()
        ] == [
            (event.time_s, event.state, event.frequency_ghz) for event in reference_events
        ]
        assert compiled.now_s() == reference.now_s()
        assert compiled._next_control_s == reference._next_control_s
        compiled.stop_recording()
        reference.stop_recording()

    def test_span_ending_on_boundary_steps_firmware_once(self):
        # A span that ends bit-exactly on a boundary must consume that
        # boundary (next_control advances past it) in every engine, leaving
        # an empty control accumulator.
        for device in device_pair(seed=4):
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
    #: Kernels cycled through run by run after ``kernel``, on one backend.
    alternate: tuple = ()
    #: Forget the device's cache states before every run but the first.
    reset_caches: bool = False


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
    # Two plans on one backend, A B A; B's long pre-delay regrows the
    # device's buffers, so A's plan must rebind before its second run.
    "alternating_kernels": RunCase(
        alternate=(GEMV,), pre_delays=(0.0, 1.2, 0.5e-3), executions=5
    ),
    # A park shorter than the cache retention keeps caches warm from run to
    # run; resetting them between runs must make the next run cold again.
    "warm_caches": RunCase(config={"park_s": 1e-3}, pre_delays=(0.0, 0.2e-3, 0.0)),
    "reset_caches": RunCase(
        config={"park_s": 1e-3}, pre_delays=(0.0, 0.2e-3, 0.0), reset_caches=True
    ),
    # One plan, regrown twice: the slice and sample buffers overflow on the
    # second run and again on the fourth.
    "regrowth_within_plan": RunCase(pre_delays=(0.0, 1.2, 0.3e-3, 2.5), executions=3),
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
    def record_pair(self):
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

        return one("compiled"), one("reference")

    def test_execution_timings_identical(self, record_pair):
        for fast, reference in zip(*record_pair):
            assert len(fast.executions) == len(reference.executions)
            for a, b in zip(fast.executions, reference.executions):
                assert a == b
            for a, b in zip(fast.preceding_executions, reference.preceding_executions):
                assert a == b

    def test_readings_match(self, record_pair):
        for fast, reference in zip(*record_pair):
            assert_readings_close(fast, reference)

    def test_anchor_and_metadata_identical(self, record_pair):
        for fast, reference in zip(*record_pair):
            assert fast.anchor == reference.anchor
            assert fast.pre_delay_s == reference.pre_delay_s
            assert fast.metadata["logger_start_cpu_s"] == reference.metadata["logger_start_cpu_s"]
            assert fast.metadata["logger_stop_cpu_s"] == reference.metadata["logger_stop_cpu_s"]
            assert (
                fast.metadata["run_variation_outlier"]
                == reference.metadata["run_variation_outlier"]
            )

    # -- The compiled engine's whole-run kernel (one call per run). -------- #
    @pytest.mark.parametrize("name", sorted(WHOLE_RUN_CASES))
    def test_whole_run_bitwise_equal_stepwise(self, name, monkeypatch):
        calls = []
        original = SimulatedGPU._run_compiled

        def counted(device, *args, **kwargs):
            calls.append(device)
            return original(device, *args, **kwargs)

        monkeypatch.setattr(SimulatedGPU, "_run_compiled", counted)
        case = WHOLE_RUN_CASES[name]
        whole = drive_runs("compiled", case)
        assert len(calls) == len(case.pre_delays)
        monkeypatch.setattr(SimulatedDeviceBackend, "_fuses", lambda self, sequences: False)
        stepwise = drive_runs("compiled", case)
        assert len(calls) == len(case.pre_delays)
        assert_runs_identical(whole, stepwise)

    def test_cache_states_follow_the_reset(self):
        # The warm and reset cases differ only by the reset: their last runs
        # must differ in cold executions, or the reset case pins nothing.
        warm, _, _ = drive_runs("compiled", WHOLE_RUN_CASES["warm_caches"])
        reset, _, _ = drive_runs("compiled", WHOLE_RUN_CASES["reset_caches"])
        assert reset.device.executions()[0].cold_caches
        assert not warm.device.executions()[0].cold_caches

    def test_reused_handle_id_never_serves_a_stale_plan(self, monkeypatch):
        class Handle:
            __slots__ = ("descriptor",)

            def __init__(self, descriptor):
                self.descriptor = descriptor

            def activity_descriptor(self, spec):
                return self.descriptor

        # A bound of one plan: every new key evicts the cached plans, so a
        # dropped handle is pinned by nothing and its id can be reused.
        monkeypatch.setattr(SimulatedDeviceBackend, "_DESCRIPTOR_CACHE_LIMIT", 1)

        def drive():
            backend = SimulatedDeviceBackend(spec=SPEC, seed=5)
            first = Handle(SHORT)
            records = [backend.run(first, executions=6, pre_delay_s=0.0)]
            records.append(backend.run(Handle(BIG), executions=2, pre_delay_s=0.0))
            dropped = id(first)
            del first
            spares = []
            reused = Handle(GEMV)
            while id(reused) != dropped and len(spares) < 1000:
                spares.append(reused)
                reused = Handle(GEMV)
            records.append(backend.run(reused, executions=6, pre_delay_s=0.0, run_index=2))
            return id(reused) == dropped, (backend, records, [device_state(backend)])

        reused, whole = drive()
        if not reused:
            pytest.skip("the allocator did not reuse the dropped handle's id")
        assert whole[1][-1].kernel_name == GEMV.name
        monkeypatch.setattr(SimulatedDeviceBackend, "_fuses", lambda self, sequences: False)
        _, stepwise = drive()
        assert_runs_identical(whole, stepwise)

    def test_whole_run_grows_overflowed_buffers(self):
        backend, _, _ = drive_runs("compiled", WHOLE_RUN_CASES["long_pre_delay"])
        # The 1.2 s pre-delay records ~4800 slices and 1200 readings: both
        # the slice and the sample buffer overflowed and were regrown.
        assert backend.device._fc_seg.shape[0] > 4096
        assert backend.device._fc_smp.shape[0] > 1200
        # One plan overflowing on two of its runs regrows the slices twice.
        backend, _, _ = drive_runs("compiled", WHOLE_RUN_CASES["regrowth_within_plan"])
        assert backend.device._fc_seg.shape[0] == 4 * 4096

    @pytest.mark.parametrize("name", sorted(FALLBACK_CASES))
    def test_unfusable_runs_fall_back_to_stepwise(self, name, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an unfusable run reached the whole-run kernel")

        monkeypatch.setattr(SimulatedGPU, "_run_compiled", refuse)
        case = FALLBACK_CASES[name]
        assert_runs_match_reference(
            drive_runs("compiled", case), drive_runs("reference", case)
        )


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
    kernels = (case.kernel, *case.alternate)
    records, states = [], []
    for i, pre_delay in enumerate(case.pre_delays):
        if case.reset_caches and i:
            backend.device.reset_cache_state()
        records.append(
            backend.run(
                kernels[i % len(kernels)],
                executions=case.executions,
                pre_delay_s=pre_delay,
                run_index=i,
                preceding=case.preceding,
            )
        )
        states.append(device_state(backend))
    return backend, records, states


def assert_readings_close(record, reference):
    """Readings at identical ticks and windows, powers to ``POWER_RTOL``."""
    assert len(record.readings) == len(reference.readings)
    for a, b in zip(record.readings, reference.readings):
        assert a.gpu_timestamp_ticks == b.gpu_timestamp_ticks
        assert a.window_s == b.window_s
        assert a.total_w == pytest.approx(b.total_w, rel=POWER_RTOL)
        for component in ("xcd", "iod", "hbm"):
            assert a.components[component] == pytest.approx(
                b.components[component], rel=POWER_RTOL
            )


def assert_close(ours, theirs):
    """Equal, except that floats (also inside sequences and dataclasses)
    agree to ``POWER_RTOL``."""
    if isinstance(ours, float):
        assert ours == pytest.approx(theirs, rel=POWER_RTOL, abs=POWER_ATOL)
    elif dataclasses.is_dataclass(ours):
        assert type(ours) is type(theirs)
        assert_close(dataclasses.astuple(ours), dataclasses.astuple(theirs))
    elif isinstance(ours, (list, tuple)):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert_close(a, b)
    else:
        assert ours == theirs


def assert_runs_match_reference(ours, reference):
    """Compiled runs against the reference engine, run by run: timings,
    anchors and metadata bit for bit, powers and power-derived state to
    ``POWER_RTOL``."""
    _, records, states = ours
    _, reference_records, reference_states = reference
    assert len(records) == len(reference_records)
    for a, b in zip(records, reference_records):
        assert (a.run_index, a.kernel_name, a.pre_delay_s) == (
            b.run_index, b.kernel_name, b.pre_delay_s,
        )
        assert a.anchor == b.anchor
        assert a.metadata == b.metadata
        assert a.executions == b.executions
        assert a.preceding_executions == b.preceding_executions
        assert_readings_close(a, b)
    for state, other in zip(states, reference_states):
        assert_close(state, other)


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
        first = SimulatedGPU(SPEC, seed=1, engine="compiled")
        first.execute_kernel(descriptor)

        other_spec = dataclasses.replace(
            SPEC, power=dataclasses.replace(SPEC.power, xcd_stalled_floor=0.44,
                                            xcd_activity_floor=0.9)
        )
        fast = SimulatedGPU(other_spec, seed=2, engine="compiled")
        reference = SimulatedGPU(other_spec, seed=2, engine="reference")
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
