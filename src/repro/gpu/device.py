"""The simulated GPU device.

:class:`SimulatedGPU` is the stand-in for the MI300X used by the paper.  It
executes kernels described by :class:`~repro.gpu.activity.KernelActivityDescriptor`
objects against simulated time, while:

* stepping the DVFS / power-cap firmware every control period,
* stepping the thermal (warmth) model,
* tracking per-kernel cache warmth (cold first executions),
* applying run-to-run and execution-to-execution time variation, and
* recording an instantaneous power timeline that the telemetry layer averages
  into the 1 ms power-logger samples the FinGraV methodology consumes.

The device deliberately exposes *two* views of time: the CPU clock (what the
host observes, used for kernel start/end instrumentation) and the GPU
timestamp counter (what tags power-logger samples).  Only the simulator knows
the exact relationship between them -- the methodology has to reconstruct it,
exactly as on real hardware (paper challenge C2).

Two execution engines
---------------------
Time advance comes in two interchangeable engines selected by the
``engine`` constructor argument (``"compiled"`` | ``"reference"``, or
``"auto"``/``None`` for :func:`repro.gpu.fastcore.resolve_engine`'s choice,
which is ``compiled``):

* ``engine="compiled"`` -- the per-period/per-slice hot loops run as the
  kernel bodies of :mod:`repro.gpu._fastcore_kernels`, through whichever
  provider :mod:`repro.gpu.fastcore` selected (Numba ``@njit`` when the
  ``fast`` extra is installed, a ctypes-bound C mirror when a C compiler is
  present, else the bodies as plain Python).  A one-time self-check pins
  the provider bit-for-bit against the pure-Python kernel bodies before it
  is used.  Simulation state (clock, warmth, control accumulator, firmware)
  is packed into a flat float vector around each call and recorded slices /
  firmware events are drained from preallocated buffers afterwards, so a
  whole launch sequence collapses to one compiled call -- and a backend's
  whole instrumented run, sampler readings included, to one more
  (:meth:`_run_compiled`).  Recordings come back as a columnar
  :class:`SegmentArray` and the ground truth as a columnar execution log.
* ``engine="reference"`` -- the original per-slice reference path, retained
  as the executable specification.  It materialises one :class:`PowerSegment`
  per slice and steps the thermal model slice by slice.

Both engines evolve the firmware with exactly one control update per control
period, consume the same RNG stream and produce identical slice boundaries;
recorded powers agree to ~1 ulp (the compiled engine relaxes idle-span
warmth once per span, in closed form).  The equivalence suite in
``tests/test_device_equivalence.py`` pins segments, executions, firmware
events and final warmth across idle, short-kernel, throttling-GEMM,
interleaved and long-idle park/unpark scenarios.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import exp

import numpy as np

from . import _fastcore_kernels as _FK
from . import fastcore as _fastcore
from .activity import KernelActivityDescriptor
from .clocks import CPUClock, GPUTimestampCounter, SimulationClock, TimestampReadResult
from .dvfs import STATES_BY_CODE as _FC_STATES, FirmwareConfig, FirmwareEvent, PowerManagementFirmware
from .power_model import IOD_FREQUENCY_COUPLING, ComponentPower, OperatingPoint, PowerModel
from .spec import GPUSpec, mi300x_spec
from .thermal import ThermalModel, ThermalSpec
from .variation import ExecutionTimeVariationModel, RunVariation


_FC_CODES = {state: float(code) for code, state in enumerate(_FC_STATES)}


@dataclass(frozen=True)
class PowerSegment:
    """A span of simulated time with constant per-component power."""

    start_s: float
    end_s: float
    power: ComponentPower

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def energy_j(self) -> float:
        return self.power.total_w * self.duration_s


class SegmentArray(Sequence):
    """Columnar view of a recorded power timeline.

    Behaves like an immutable sequence of :class:`PowerSegment` (elements are
    materialised lazily on access) while exposing the underlying float arrays
    -- ``starts_s``, ``ends_s`` and ``powers`` (columns xcd/iod/hbm) -- so
    that :class:`repro.gpu.telemetry._SegmentTimeline` can ingest a recording
    without re-packing thousands of dataclasses.
    """

    __slots__ = ("starts_s", "ends_s", "powers")

    def __init__(self, starts_s, ends_s, powers) -> None:
        self.starts_s = np.asarray(starts_s, dtype=float)
        self.ends_s = np.asarray(ends_s, dtype=float)
        self.powers = np.asarray(powers, dtype=float).reshape(self.starts_s.shape[0], 3)
        if self.ends_s.shape != self.starts_s.shape:
            raise ValueError("starts and ends must have the same length")

    @classmethod
    def from_segments(cls, segments: Sequence[PowerSegment]) -> "SegmentArray":
        return cls(
            [s.start_s for s in segments],
            [s.end_s for s in segments],
            [[s.power.xcd_w, s.power.iod_w, s.power.hbm_w] for s in segments],
        )

    def __len__(self) -> int:
        return self.starts_s.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SegmentArray(self.starts_s[index], self.ends_s[index], self.powers[index])
        row = self.powers[index]
        return PowerSegment(
            start_s=float(self.starts_s[index]),
            end_s=float(self.ends_s[index]),
            power=ComponentPower(xcd_w=float(row[0]), iod_w=float(row[1]), hbm_w=float(row[2])),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, SegmentArray):
            return (
                np.array_equal(self.starts_s, other.starts_s)
                and np.array_equal(self.ends_s, other.ends_s)
                and np.array_equal(self.powers, other.powers)
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self):  # pragma: no cover - mutable arrays are not hashable
        raise TypeError("SegmentArray is not hashable")

    def __repr__(self) -> str:
        return f"SegmentArray(n={len(self)})"


class _SegmentBuffer:
    """Growable columnar store the compiled engine appends slices to.

    Single slices arrive as plain floats interleaved ``(start, end, xcd, iod,
    hbm)`` in one flat array, so recording a slice is a single ``extend`` --
    no :class:`PowerSegment` / dataclass churn on the hot path.  Kernel calls
    instead hand over whole ``(n, 5)`` row blocks (:meth:`append_block` is
    one list append; the block is spliced into the scalar stream at its
    recorded position).  Everything is packed into a :class:`SegmentArray`
    once, when the recording stops.
    """

    __slots__ = ("data", "blocks")

    def __init__(self) -> None:
        self.data = array("d")
        self.blocks: list[tuple[int, np.ndarray]] = []

    def append_block(self, rows: np.ndarray) -> None:
        """Bulk-append ``(start, end, xcd, iod, hbm)`` rows in one call.

        ``rows`` must be a float64 ``(n, 5)`` array the caller hands over
        (it is kept by reference, not copied, until the recording stops).
        """
        self.blocks.append((len(self.data), rows))

    def clear(self) -> None:
        # A fresh array keeps any SegmentArray built from the old buffer valid
        # (to_segment_array wraps the buffer zero-copy when block-free).
        self.data = array("d")
        self.blocks = []

    def to_segment_array(self) -> SegmentArray:
        flat = np.frombuffer(self.data, dtype=float).reshape(-1, 5)
        if self.blocks:
            pieces = []
            cursor = 0
            for offset, block in self.blocks:
                row_offset = offset // 5
                if row_offset > cursor:
                    pieces.append(flat[cursor:row_offset])
                    cursor = row_offset
                pieces.append(block)
            if cursor < flat.shape[0]:
                pieces.append(flat[cursor:])
            flat = np.concatenate(pieces)
        return SegmentArray(flat[:, 0], flat[:, 1], flat[:, 2:5])


@dataclass(frozen=True)
class KernelExecutionResult:
    """Ground-truth outcome of one kernel execution on the device."""

    kernel_name: str
    start_s: float
    end_s: float
    cold_caches: bool
    mean_frequency_ghz: float
    energy_j: float
    mean_power: ComponentPower

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class _ExecutionLog:
    """Columnar ground-truth execution history (the compiled engine's).

    The compiled execution path appends one flat row of floats per execution
    -- ``(start, end, cold, mean_frequency, energy, xcd_w, iod_w, hbm_w)`` --
    plus the kernel name, instead of constructing a
    :class:`KernelExecutionResult` (and its :class:`ComponentPower`) per
    execution; :meth:`SimulatedGPU.executions` materialises the result
    objects only when the history is actually read (tests / validation).
    """

    __slots__ = ("data", "names")

    _ROW = 8

    def __init__(self) -> None:
        self.data = array("d")
        self.names: list[str] = []

    def clear(self) -> None:
        del self.data[:]
        self.names.clear()

    def materialize(self) -> list[KernelExecutionResult]:
        data = self.data
        results: list[KernelExecutionResult] = []
        for i, name in enumerate(self.names):
            row = i * self._ROW
            mean_power = ComponentPower.__new__(ComponentPower)
            fields = mean_power.__dict__
            fields["xcd_w"] = data[row + 5]
            fields["iod_w"] = data[row + 6]
            fields["hbm_w"] = data[row + 7]
            result = KernelExecutionResult.__new__(KernelExecutionResult)
            fields = result.__dict__
            fields["kernel_name"] = name
            fields["start_s"] = data[row]
            fields["end_s"] = data[row + 1]
            fields["cold_caches"] = bool(data[row + 2])
            fields["mean_frequency_ghz"] = data[row + 3]
            fields["energy_j"] = data[row + 4]
            fields["mean_power"] = mean_power
            results.append(result)
        return results


@dataclass(slots=True)
class _CacheState:
    """Per-kernel cache warm-up bookkeeping."""

    consecutive_executions: int = 0
    last_end_s: float = -1.0


@dataclass(slots=True)
class _ControlAccumulator:
    """Energy/time accumulated since the last firmware control step."""

    energy_j: float = 0.0
    time_s: float = 0.0
    active_time_s: float = 0.0

    def add(self, power_w: float, dt_s: float, active: bool) -> None:
        self.energy_j += power_w * dt_s
        self.time_s += dt_s
        if active:
            self.active_time_s += dt_s

    def mean_power_w(self, idle_power_w: float) -> float:
        if self.time_s <= 0:
            return idle_power_w
        return self.energy_j / self.time_s

    def mostly_active(self) -> bool:
        return self.time_s > 0 and self.active_time_s >= 0.5 * self.time_s

    def reset(self) -> None:
        self.energy_j = 0.0
        self.time_s = 0.0
        self.active_time_s = 0.0


class _CompiledPlan:
    """What every whole run of one launch-sequence list shares.

    Built once by :meth:`SimulatedGPU._plan_run`: the ``run_core`` inputs
    that do not change from run to run -- the packed descriptor profiles,
    the static columns of ``seqs``, every fixed ``rp`` entry, the cache-slot
    and execution-log names -- and the provider call bound to them.  A run
    (:meth:`SimulatedGPU._run_compiled`) writes only the read delays, the
    pre-delay, one run factor per sequence and the variates.  ``call`` is
    rebound when the device's output buffers are regrown (``generation``).
    """

    __slots__ = (
        "rp", "descs", "seqs", "caches", "variates", "rows", "draws",
        "slot_names", "log_names", "call", "generation",
    )

    def __init__(
        self, rp, descs, seqs, caches, variates, rows, draws, slot_names, log_names
    ) -> None:
        self.rp = rp
        self.descs = descs
        self.seqs = seqs
        self.caches = caches
        self.variates = variates
        #: Ground-truth rows of every execution, in launch order.
        self.rows = rows
        #: Per sequence: its variation spec and its slice of ``variates``.
        self.draws = draws
        self.slot_names = slot_names
        self.log_names = log_names
        self.call = None
        self.generation = -1


class SimulatedGPU:
    """A single simulated MI300X-class GPU."""

    #: Idle time after which a kernel's working set is considered evicted
    #: from the on-chip caches (seconds).
    CACHE_RETENTION_S = 4e-3

    def __init__(
        self,
        spec: GPUSpec | None = None,
        seed: int = 0,
        thermal_spec: ThermalSpec | None = None,
        firmware_config: FirmwareConfig | None = None,
        engine: str | None = None,
    ) -> None:
        self._spec = spec or mi300x_spec()
        self._spec.validate()
        self._rng = np.random.default_rng(seed)
        self._sim_clock = SimulationClock()
        self._cpu_clock = CPUClock(self._sim_clock)
        self._timestamp_counter = GPUTimestampCounter(self._spec.clocks, self._sim_clock, self._rng)
        self._power_model = PowerModel(self._spec)
        self._firmware = PowerManagementFirmware(
            self._spec.dvfs, self._spec.power, firmware_config
        )
        self._thermal = ThermalModel(thermal_spec)
        self._variation = ExecutionTimeVariationModel(self._rng)
        self._engine = _fastcore.resolve_engine(engine)
        self._compiled = self._engine == "compiled"

        # Idle power is constant for the lifetime of the device; cache it so
        # the hot paths (and the firmware fallback) skip re-synthesising it.
        idle_power = self._power_model.idle_power()
        self._idle_power = idle_power
        self._idle_power_xih = (idle_power.xcd_w, idle_power.iod_w, idle_power.hbm_w)
        self._idle_total_w = idle_power.total_w
        self._cool_tau_s = self._thermal.spec.cool_tau_s

        self._recording = False
        self._segments: list[PowerSegment] = []
        self._buffer = _SegmentBuffer()
        # Bound extend of the buffer's flat storage, re-grabbed whenever the
        # storage is swapped -- the hot paths append through this.
        self._record_extend = self._buffer.data.extend
        self._cache_states: dict[str, _CacheState] = {}
        self._control = _ControlAccumulator()
        self._next_control_s = self._spec.dvfs.control_period_s
        self._executions: list[KernelExecutionResult] = []
        # Columnar ground-truth log the compiled engine appends to (the
        # reference engine keeps appending result objects to _executions).
        self._exec_log = _ExecutionLog()
        self._exec_log_extend = self._exec_log.data.extend
        if self._compiled:
            self._fc_setup()

        # Host-side timestamp reads must go through the device so the round
        # trip is visible to telemetry, thermal state and the firmware alike.
        self._timestamp_counter.attach_host_read_path(self.read_timestamp)

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> GPUSpec:
        return self._spec

    @property
    def power_model(self) -> PowerModel:
        return self._power_model

    @property
    def cpu_clock(self) -> CPUClock:
        return self._cpu_clock

    @property
    def timestamp_counter(self) -> GPUTimestampCounter:
        return self._timestamp_counter

    @property
    def firmware(self) -> PowerManagementFirmware:
        return self._firmware

    @property
    def thermal(self) -> ThermalModel:
        return self._thermal

    @property
    def variation_model(self) -> ExecutionTimeVariationModel:
        return self._variation

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    @property
    def engine(self) -> str:
        """The active time-advance engine (compiled/reference)."""
        return self._engine

    def now_s(self) -> float:
        """Current CPU/simulated time in seconds."""
        return self._sim_clock.now_s

    def firmware_events(self) -> list[FirmwareEvent]:
        return self._firmware.events

    def executions(self) -> list[KernelExecutionResult]:
        """Ground-truth execution history since recording started."""
        if self._compiled:
            return self._exec_log.materialize()
        return list(self._executions)

    # ------------------------------------------------------------------ #
    # Power-trace recording.
    # ------------------------------------------------------------------ #
    def start_recording(self) -> float:
        """Begin recording the instantaneous power timeline; returns start time."""
        self._recording = True
        self._segments = []
        self._buffer.clear()
        self._record_extend = self._buffer.data.extend
        self._executions = []
        self._exec_log.clear()
        return self._sim_clock.now_s

    def stop_recording(self) -> Sequence[PowerSegment]:
        """Stop recording and return the captured power segments.

        The compiled engine returns a columnar :class:`SegmentArray`; the
        reference engine returns a plain list of :class:`PowerSegment`.  Both
        compare equal element-wise and support the same sequence protocol.
        """
        self._recording = False
        if self._compiled:
            segments_array = self._buffer.to_segment_array()
            self._buffer = _SegmentBuffer()
            self._record_extend = self._buffer.data.extend
            return segments_array
        segments = self._segments
        self._segments = []
        return segments

    @property
    def is_recording(self) -> bool:
        return self._recording

    def _record(self, start_s: float, end_s: float, power: ComponentPower) -> None:
        if self._recording and end_s > start_s:
            self._segments.append(PowerSegment(start_s=start_s, end_s=end_s, power=power))

    # ------------------------------------------------------------------ #
    # Host-visible operations.
    # ------------------------------------------------------------------ #
    def read_timestamp(self) -> TimestampReadResult:
        """Read the GPU timestamp counter from the host (advances CPU time).

        The counter value captured corresponds to the moment the read reaches
        the GPU (about one way into the round trip); the elapsed round trip is
        spent at idle power so telemetry, thermal state and the firmware all
        see the elapsed time consistently.
        """
        one_way = self._timestamp_counter.sample_read_delay_s()
        return_way = self._timestamp_counter.sample_read_delay_s()
        capture_time_s = self._sim_clock.now_s + one_way
        ticks = self._timestamp_counter.ticks_at(capture_time_s)
        self.idle(one_way + return_way)
        return TimestampReadResult(
            gpu_ticks=ticks,
            cpu_time_after_s=self._sim_clock.now_s,
            round_trip_s=one_way + return_way,
        )

    def idle(self, duration_s: float) -> None:
        """Let the device sit idle for ``duration_s`` seconds."""
        if duration_s < 0:
            raise ValueError("idle duration cannot be negative")
        if self._compiled:
            self._idle_compiled(duration_s)
        else:
            self._idle_reference(duration_s)

    def park(self, duration_s: float = 12e-3) -> None:
        """Idle long enough for clocks to drop, caches to expire and the die to cool."""
        self.idle(duration_s)

    def execute_kernel(
        self,
        descriptor: KernelActivityDescriptor,
        run_variation: RunVariation | None = None,
    ) -> KernelExecutionResult:
        """Execute one kernel to completion and return its ground-truth timing.

        The execution is advanced in slices bounded by the firmware control
        period so that clock changes take effect mid-execution for kernels
        longer than the control period (the mechanism behind the power
        excursions and throttling of the largest GEMMs).
        """
        if self._compiled:
            return self._execute_compiled(descriptor, run_variation)
        return self._execute_reference(descriptor, run_variation)

    def draw_run_variation(self, descriptor: KernelActivityDescriptor) -> RunVariation:
        """Draw the per-run variation factors for ``descriptor``."""
        return self._variation.draw_run(descriptor.variation)

    # ------------------------------------------------------------------ #
    # Time-advance engines.
    # ------------------------------------------------------------------ #
    def _idle_reference(self, duration_s: float) -> None:
        """Per-slice reference idle path (the executable specification)."""
        remaining = duration_s
        idle_power = self._idle_power
        while remaining > 1e-12:
            now = self._sim_clock.now_s
            dt = min(remaining, max(self._next_control_s - now, 1e-9))
            self._record(now, now + dt, idle_power)
            self._control.add(idle_power.total_w, dt, active=False)
            self._thermal.step(dt, active=False)
            self._sim_clock.advance(dt)
            remaining -= dt
            self._maybe_step_firmware()

    def _execute_reference(
        self,
        descriptor: KernelActivityDescriptor,
        run_variation: RunVariation | None,
    ) -> KernelExecutionResult:
        """Per-slice reference execution path (the executable specification)."""
        cold = self._consume_cache_state(descriptor)
        jitter = self._variation.draw_execution_jitter(descriptor.variation)
        time_factor = jitter if run_variation is None else run_variation.execution_factor(jitter)

        start_s = self._sim_clock.now_s
        self._firmware.notify_kernel_arrival(start_s)
        work_remaining = 1.0
        energy_j = 0.0
        component_energy = np.zeros(3)
        freq_time_weighted = 0.0

        while work_remaining > 1e-9:
            now = self._sim_clock.now_s
            frequency = self._firmware.frequency_ghz
            duration_full = (
                descriptor.duration_at(
                    frequency, self._spec.dvfs.nominal_frequency_ghz, cold=cold
                )
                * time_factor
            )
            dt_to_control = max(self._next_control_s - now, 1e-9)
            dt = min(dt_to_control, work_remaining * duration_full)
            frac_done = 1.0 - work_remaining
            frac_mid = frac_done + 0.5 * dt / duration_full
            phase = descriptor.phase_at(frac_mid)
            point = OperatingPoint(
                frequency_ghz=frequency, warmth=self._thermal.warmth, cold_caches=cold
            )
            power = self._power_model.kernel_power(descriptor, point, phase)

            self._record(now, now + dt, power)
            self._control.add(power.total_w, dt, active=True)
            self._thermal.step(dt, active=True)
            self._sim_clock.advance(dt)
            energy_j += power.total_w * dt
            component_energy += np.array([power.xcd_w, power.iod_w, power.hbm_w]) * dt
            freq_time_weighted += frequency * dt
            work_remaining -= dt / duration_full
            self._maybe_step_firmware()

        end_s = self._sim_clock.now_s
        duration = end_s - start_s
        self._update_cache_state(descriptor, end_s)
        mean_power = ComponentPower(
            xcd_w=float(component_energy[0] / duration),
            iod_w=float(component_energy[1] / duration),
            hbm_w=float(component_energy[2] / duration),
        )
        result = KernelExecutionResult(
            kernel_name=descriptor.name,
            start_s=start_s,
            end_s=end_s,
            cold_caches=cold,
            mean_frequency_ghz=freq_time_weighted / duration,
            energy_j=energy_j,
            mean_power=mean_power,
        )
        if self._recording:
            self._executions.append(result)
        return result

    # ------------------------------------------------------------------ #
    # Compiled engine.
    # ------------------------------------------------------------------ #
    def _fc_setup(self) -> None:
        """Bind the compiled-kernel bundle and preallocate its buffers.

        The parameter vector packs everything the kernels read that is
        constant for the device's lifetime (spec frequencies and powers,
        firmware tunables, thermal taus, cache retention) in the ``P_*``
        layout of :mod:`repro.gpu._fastcore_kernels`.
        """
        self._fc = _fastcore.kernels()
        dvfs = self._spec.dvfs
        budget = self._spec.power
        cfg = self._firmware.config
        idle_x, idle_i, idle_h = self._idle_power_xih
        pp = np.empty(_FK.PARAM_LEN)
        pp[_FK.P_PERIOD] = dvfs.control_period_s
        pp[_FK.P_IDLE_X] = idle_x
        pp[_FK.P_IDLE_I] = idle_i
        pp[_FK.P_IDLE_H] = idle_h
        pp[_FK.P_IDLE_TOT] = self._idle_total_w
        pp[_FK.P_NOM] = dvfs.nominal_frequency_ghz
        pp[_FK.P_PEXP] = dvfs.power_exponent
        pp[_FK.P_XIDLE] = budget.xcd_idle_w
        pp[_FK.P_XDYN] = budget.xcd_dynamic_w
        pp[_FK.P_IIDLE] = budget.iod_idle_w
        pp[_FK.P_IDYN] = budget.iod_dynamic_w
        pp[_FK.P_HIDLE] = budget.hbm_idle_w
        pp[_FK.P_HDYN] = budget.hbm_dynamic_w
        pp[_FK.P_SWING] = PowerModel.WARMTH_DYNAMIC_SWING
        pp[_FK.P_COUPLE] = IOD_FREQUENCY_COUPLING
        pp[_FK.P_HEAT_TAU] = self._thermal.spec.heat_tau_s
        pp[_FK.P_COOL_TAU] = self._cool_tau_s
        pp[_FK.P_LIMIT] = budget.board_limit_w
        pp[_FK.P_EXC_THRESH] = cfg.excursion_threshold
        pp[_FK.P_EXC_WIN] = cfg.excursion_window_s
        pp[_FK.P_T_HOLD] = cfg.throttle_hold_s
        pp[_FK.P_REC_STEP] = cfg.recovery_step_ghz
        pp[_FK.P_RAMP_STEP] = cfg.ramp_step_ghz
        pp[_FK.P_CAP_TGT] = cfg.cap_target
        pp[_FK.P_CAP_HYST] = cfg.cap_release_hysteresis
        pp[_FK.P_IDLE_PARK] = cfg.idle_park_s
        pp[_FK.P_F_IDLE] = dvfs.idle_frequency_ghz
        pp[_FK.P_F_BOOST] = dvfs.boost_frequency_ghz
        pp[_FK.P_F_SUST] = dvfs.sustained_frequency_ghz
        pp[_FK.P_RETENTION] = self.CACHE_RETENTION_S
        pp[_FK.P_MINFACT] = ExecutionTimeVariationModel.MIN_FACTOR
        self._fc_params = pp
        self._fc_state = np.empty(_FK.STATE_LEN)
        self._fc_lens = np.zeros(2, dtype=np.int64)
        self._fc_seg = np.empty((4096, 5))
        self._fc_ev = np.empty((256, 4))
        self._fc_out8 = np.empty(8)
        self._fc_cache = np.empty(2)
        self._fc_smp = np.empty((256, 5))
        self._fc_out = np.empty(_FK.O_LEN)
        # Bumped whenever _fc_grow replaces a buffer: run plans bound to the
        # old buffers rebind before their next call.
        self._fc_generation = 0

    def _fc_pack(self) -> np.ndarray:
        """Mirror live simulation state into the kernel state vector."""
        st = self._fc_state
        firmware = self._firmware
        control = self._control
        st[_FK.S_NOW] = self._sim_clock._now_s
        st[_FK.S_WARMTH] = self._thermal._warmth
        st[_FK.S_CEN] = control.energy_j
        st[_FK.S_CTM] = control.time_s
        st[_FK.S_CAC] = control.active_time_s
        st[_FK.S_NEXT] = self._next_control_s
        st[_FK.S_FWST] = _FC_CODES[firmware._state]
        st[_FK.S_FREQ] = firmware._frequency_ghz
        st[_FK.S_OVER] = firmware._overdraw_accum_s
        st[_FK.S_THROT] = firmware._throttle_until_s
        st[_FK.S_IDLEAC] = firmware._idle_accum_s
        st[_FK.S_LASTP] = firmware._last_power_w
        return st

    def _fc_unpack(self) -> None:
        """Write the kernel state vector back into the live objects."""
        st = self._fc_state.tolist()
        firmware = self._firmware
        control = self._control
        self._sim_clock._now_s = st[_FK.S_NOW]
        self._thermal._warmth = st[_FK.S_WARMTH]
        control.energy_j = st[_FK.S_CEN]
        control.time_s = st[_FK.S_CTM]
        control.active_time_s = st[_FK.S_CAC]
        self._next_control_s = st[_FK.S_NEXT]
        firmware._state = _FC_STATES[int(st[_FK.S_FWST])]
        firmware._frequency_ghz = st[_FK.S_FREQ]
        firmware._overdraw_accum_s = st[_FK.S_OVER]
        firmware._throttle_until_s = st[_FK.S_THROT]
        firmware._idle_accum_s = st[_FK.S_IDLEAC]
        firmware._last_power_w = st[_FK.S_LASTP]

    def _fc_drain(self) -> None:
        """Flush recorded slices and firmware events out of the kernel buffers."""
        n_seg = int(self._fc_lens[0])
        if n_seg and self._recording:
            self._buffer.append_block(self._fc_seg[:n_seg].copy())
        self._fc_drain_events()

    def _fc_drain_events(self) -> None:
        """Append the kernel's firmware event rows to the firmware's history."""
        n_ev = int(self._fc_lens[1])
        if n_ev:
            self._firmware.append_event_rows(self._fc_ev[:n_ev].copy())

    def _fc_grow(self, rc: int) -> None:
        """Double the overflowed output buffer (rc 1: segments, rc 2: events,
        rc 3: samples).

        The kernels carry no RNG and the wrapper re-packs fresh state before
        every attempt, so a retried call is deterministic.
        """
        if rc == 1:
            self._fc_seg = np.empty((2 * self._fc_seg.shape[0], 5))
        elif rc == 2:
            self._fc_ev = np.empty((2 * self._fc_ev.shape[0], 4))
        elif rc == 3:
            self._fc_smp = np.empty((2 * self._fc_smp.shape[0], 5))
        else:  # pragma: no cover - unknown code would be a kernel bug
            raise RuntimeError(f"compiled kernel returned unknown rc={rc}")
        self._fc_generation += 1

    def _fc_descriptor(self, descriptor: KernelActivityDescriptor) -> np.ndarray:
        """The descriptor flattened into the kernel ``desc`` layout, cached on it.

        ``[base_duration, sensitivity, cold_mult, cold_executions, n_phases,
        then (cumulative_fraction, xcd_act, iod_util, hbm_warm, hbm_cold) per
        phase]``, with the phase scaling and the ``min(..., 1.0)`` clamps of
        :meth:`PowerModel.kernel_power` already applied -- everything that
        depends only on the (frozen) descriptor and this device's power
        model, computed once and stashed in the descriptor's ``__dict__``.
        ``object.__setattr__`` bypasses the frozen guard, which is safe
        because the cached value is a pure function of the descriptor's own
        fields and the recorded power model; the cache entry carries the
        power model it was derived from and is recomputed when the same
        descriptor runs on a device with a different one.  The cumulative
        fractions accumulate exactly as
        :meth:`KernelActivityDescriptor.phase_at` does, so the in-kernel
        lookup reproduces its boundaries bit for bit.
        """
        cached = descriptor.__dict__.get("_device_fc_profile")
        if cached is not None and cached[0] is self._power_model:
            return cached[1]
        power_model = self._power_model
        xcd_activity = power_model.xcd_activity(descriptor)
        iod_utilization = power_model.iod_utilization(descriptor)
        hbm_warm = power_model.hbm_utilization(descriptor, False)
        hbm_cold = power_model.hbm_utilization(descriptor, True)
        phases = descriptor.phases
        desc = np.empty(5 + 5 * len(phases))
        desc[0] = descriptor.base_duration_s
        desc[1] = descriptor.frequency_sensitivity
        desc[2] = descriptor.cold_duration_multiplier
        desc[3] = float(descriptor.cold_executions)
        desc[4] = float(len(phases))
        cursor = 0.0
        for i, phase in enumerate(phases):
            cursor += phase.duration_fraction
            desc[5 + 5 * i : 10 + 5 * i] = (
                cursor,
                min(xcd_activity * phase.xcd_scale, 1.0),
                min(iod_utilization * phase.iod_scale, 1.0),
                min(hbm_warm * phase.hbm_scale, 1.0),
                min(hbm_cold * phase.hbm_scale, 1.0),
            )
        object.__setattr__(descriptor, "_device_fc_profile", (power_model, desc))
        return desc

    def _idle_compiled(self, duration_s: float) -> None:
        """Compiled idle path: one kernel call per span, no batching threshold.

        The single-slice shortcut (span entirely before the next control
        boundary -- launch latencies, inter-execution gaps, timestamp round
        trips) stays in Python: it is a handful of float operations, cheaper
        than packing state across the call boundary.  Everything else -- the
        per-period loop, firmware control steps, park transitions and the
        closed-form span relaxation -- runs inside the kernel.
        """
        if duration_s <= 1e-12:
            return
        thermal = self._thermal
        clock = self._sim_clock
        now = clock._now_s
        end = now + duration_s
        if end + 1e-12 < self._next_control_s:
            # The idle kernel's single-slice branch, written out.
            control = self._control
            if self._recording:
                idle_x, idle_i, idle_h = self._idle_power_xih
                self._record_extend((now, end, idle_x, idle_i, idle_h))
            control.energy_j += self._idle_total_w * duration_s
            control.time_s += duration_s
            clock._now_s = end
            alpha = 1.0 - exp(-duration_s / self._cool_tau_s)
            warmth = thermal._warmth
            warmth += (0.0 - warmth) * alpha
            thermal._warmth = min(max(warmth, 0.0), 1.0)
            return
        fc_idle = self._fc.idle
        record = 1 if self._recording else 0
        while True:
            st = self._fc_pack()
            rc = fc_idle(
                st, self._fc_params, duration_s, record,
                self._fc_seg, self._fc_ev, self._fc_lens,
            )
            if rc == 0:
                break
            self._fc_grow(rc)
        self._fc_unpack()
        self._fc_drain()

    def _execute_compiled(
        self,
        descriptor: KernelActivityDescriptor,
        run_variation: RunVariation | None,
    ) -> KernelExecutionResult:
        """Compiled execution path: same RNG draws, slice loop in the kernel."""
        now = self._sim_clock._now_s

        # _consume_cache_state, inlined.
        state = self._cache_states.get(descriptor.name)
        if state is None or (now - state.last_end_s) > self.CACHE_RETENTION_S:
            state = _CacheState()
            self._cache_states[descriptor.name] = state
        cold = state.consecutive_executions < descriptor.cold_executions

        # ExecutionTimeVariationModel.draw_execution_jitter, inlined.
        execution_cv = descriptor.variation.execution_cv
        if execution_cv <= 0:
            jitter = 1.0
        else:
            jitter = float(self._rng.lognormal(mean=0.0, sigma=execution_cv))
            if jitter < ExecutionTimeVariationModel.MIN_FACTOR:
                jitter = ExecutionTimeVariationModel.MIN_FACTOR
        time_factor = jitter if run_variation is None else run_variation.run_factor * jitter

        desc = self._fc_descriptor(descriptor)
        fc_execute = self._fc.execute
        record = 1 if self._recording else 0
        out8 = self._fc_out8
        while True:
            st = self._fc_pack()
            rc = fc_execute(
                st, self._fc_params, desc, time_factor, 1 if cold else 0,
                record, self._fc_seg, self._fc_ev, self._fc_lens, out8,
            )
            if rc == 0:
                break
            self._fc_grow(rc)
        self._fc_unpack()
        self._fc_drain()

        start_s = float(out8[0])
        end_s = float(out8[1])
        # _update_cache_state, inlined on the state fetched above.
        state.consecutive_executions += 1
        state.last_end_s = end_s
        if record:
            self._exec_log_extend(
                (start_s, end_s, out8[2], out8[3], out8[4], out8[5], out8[6], out8[7])
            )
            self._exec_log.names.append(descriptor.name)
        mean_power = ComponentPower.__new__(ComponentPower)
        fields = mean_power.__dict__
        fields["xcd_w"] = float(out8[5])
        fields["iod_w"] = float(out8[6])
        fields["hbm_w"] = float(out8[7])
        result = KernelExecutionResult.__new__(KernelExecutionResult)
        fields = result.__dict__
        fields["kernel_name"] = descriptor.name
        fields["start_s"] = start_s
        fields["end_s"] = end_s
        fields["cold_caches"] = cold
        fields["mean_frequency_ghz"] = float(out8[3])
        fields["energy_j"] = float(out8[4])
        fields["mean_power"] = mean_power
        return result

    def _sequence_compiled(
        self,
        descriptor: KernelActivityDescriptor,
        executions: int,
        variates: np.ndarray,
        run_variation: RunVariation | None,
        execution_cv: float,
        latency_mean: float,
        latency_jitter: float,
        error_std: float,
        gap_s: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One fused kernel call for a whole back-to-back launch sequence.

        ``variates`` is the launcher's batched ``standard_normal(4 * n)``
        draw (latency, jitter, two timestamp errors per execution, consumed
        in that order inside the kernel -- the identical stream the
        per-execution launch path consumes).  Returns the host-observed
        ``(cpu_starts, cpu_ends)`` arrays; ground-truth rows land in the
        columnar execution log in bulk.
        """
        state = self._cache_states.get(descriptor.name)
        if state is None:
            state = _CacheState()
            self._cache_states[descriptor.name] = state
        desc = self._fc_descriptor(descriptor)
        if run_variation is None:
            has_rv = 0
            run_factor = 1.0
        else:
            has_rv = 1
            run_factor = run_variation.run_factor
        fc_sequence = self._fc.sequence
        record = 1 if self._recording else 0
        cache = self._fc_cache
        exec_rows = np.empty((executions, 8))
        cpu_starts = np.empty(executions)
        cpu_ends = np.empty(executions)
        while True:
            st = self._fc_pack()
            # The kernel applies the same retention expiry per execution the
            # scalar path applies on fetch, so seeding the raw state is exact.
            cache[0] = float(state.consecutive_executions)
            cache[1] = state.last_end_s
            rc = fc_sequence(
                st, self._fc_params, desc, cache, executions, variates,
                has_rv, run_factor, execution_cv,
                latency_mean, latency_jitter, error_std, gap_s,
                record, self._fc_seg, self._fc_ev, self._fc_lens,
                exec_rows, cpu_starts, cpu_ends,
            )
            if rc == 0:
                break
            self._fc_grow(rc)
        self._fc_unpack()
        self._fc_drain()
        state.consecutive_executions = int(cache[0])
        state.last_end_s = float(cache[1])
        if record:
            # Bulk-append the ground-truth rows: the kernel's row layout is
            # exactly the execution log's.
            self._exec_log.data.frombytes(exec_rows.tobytes())
            self._exec_log.names.extend([descriptor.name] * executions)
        return cpu_starts, cpu_ends

    def _plan_run(
        self,
        sequences: list[tuple[KernelActivityDescriptor, int]],
        park_s: float,
        pre_padding_s: float,
        post_padding_s: float,
        launch,
        sample_period_s: float,
        sample_phase_s: float,
        window: bool,
    ) -> _CompiledPlan:
        """The :class:`_CompiledPlan` of whole runs of ``sequences`` on this device.

        ``sequences`` lists ``(descriptor, executions)`` in launch order, the
        kernel of interest last; each must satisfy
        :meth:`KernelLauncher.fuses`.  ``launch`` is the launcher's
        :class:`~repro.gpu.scheduler.LaunchConfig`; ``window`` selects the
        window-averaging samplers over the instantaneous one.
        """
        profiles = [self._fc_descriptor(descriptor) for descriptor, _ in sequences]
        total = sum(executions for _, executions in sequences)
        seqs = np.empty((len(sequences), _FK.Q_LEN))
        variates = np.empty(4 * total)
        slot_names: list[str] = []
        draws = []
        log_names: list[str] = []
        offset = 0
        row = 0
        for q, (descriptor, executions) in enumerate(sequences):
            name = descriptor.name
            if name not in slot_names:
                slot_names.append(name)
            seqs[q] = (
                offset, executions, slot_names.index(name), 1.0,
                1.0, descriptor.variation.execution_cv,
            )
            draws.append((descriptor.variation, variates[4 * row : 4 * (row + executions)]))
            log_names.extend([name] * executions)
            offset += profiles[q].shape[0]
            row += executions
        rp = np.zeros(_FK.R_LEN)
        rp[_FK.R_PARK] = park_s
        rp[_FK.R_PRE_PAD] = pre_padding_s
        rp[_FK.R_POST_PAD] = post_padding_s
        rp[_FK.R_LAT_MEAN] = launch.launch_latency_s
        rp[_FK.R_LAT_JIT] = launch.launch_jitter_s
        rp[_FK.R_ERR_STD] = launch.event_timestamp_error_s
        rp[_FK.R_GAP] = launch.inter_execution_gap_s
        rp[_FK.R_EPOCH] = self._spec.clocks.epoch_offset_s
        rp[_FK.R_DRIFT] = self._timestamp_counter.drift_factor
        rp[_FK.R_HZ] = self._timestamp_counter.frequency_hz
        rp[_FK.R_WINDOW] = 1.0 if window else 0.0
        rp[_FK.R_SPERIOD] = sample_period_s
        rp[_FK.R_SPHASE] = sample_phase_s
        rp[_FK.R_NSEQ] = len(sequences)
        plan = _CompiledPlan(
            rp, np.concatenate(profiles), seqs, np.empty((len(slot_names), 2)),
            variates, np.empty((total, 8)), draws, slot_names, log_names,
        )
        self._bind_plan(plan)
        return plan

    def _bind_plan(self, plan: _CompiledPlan) -> None:
        """Bind ``run_core`` to the plan's arrays and the device's buffers."""
        plan.call = self._fc.bind_run(
            self._fc_state, self._fc_params, plan.rp, plan.descs, plan.seqs,
            plan.caches, plan.variates, self._fc_seg, self._fc_ev, self._fc_lens,
            plan.rows, self._fc_smp, self._fc_out,
        )
        plan.generation = self._fc_generation

    def _run_compiled(self, plan: _CompiledPlan, pre_delay_s: float) -> tuple:
        """One whole instrumented run of ``plan`` in one compiled call.

        Equivalent to ``park(park_s)``, ``start_recording()``,
        ``idle(pre_padding_s)``, ``read_timestamp()``, ``idle(pre_delay_s)``,
        one ``KernelLauncher.sequence_into`` per sequence of the plan,
        ``idle(post_padding_s)``, ``stop_recording()`` and the sampler's
        ``sample_columns`` -- the device ends in the same state.  The random
        draws happen here, before the call, in the order those calls make
        them: the anchor read's two delays, then per sequence its run
        variation and its ``standard_normal(4 * executions)``.  Cache states
        are fetched by name on every run (retention expiry and
        :meth:`reset_cache_state` replace them).

        Returns ``(logger_start_s, anchor_ticks, anchor_cpu_after_s,
        round_trip_s, logger_stop_s, run_variation, times, sample_ticks,
        sample_powers)`` with the kernel of interest's run variation, every
        execution's host-observed starts then ends in launch order (``times``,
        an array made for this run) and the sampler's powers (a view of a
        device buffer, valid until the next run).
        """
        one_way, return_way = self._timestamp_counter.sample_read_delay_pair_s()
        rp = plan.rp
        rp[_FK.R_READ_OUT] = one_way
        rp[_FK.R_READ_BACK] = return_way
        rp[_FK.R_PRE_DELAY] = pre_delay_s
        draw_run = self._variation.draw_run
        standard_normal = self._rng.standard_normal
        seqs = plan.seqs
        for q, (variation, variates) in enumerate(plan.draws):
            run_variation = draw_run(variation)
            standard_normal(out=variates)
            seqs[q, _FK.Q_RFACT] = run_variation.run_factor
        cache_states = self._cache_states
        states = []
        for name in plan.slot_names:
            state = cache_states.get(name)
            if state is None:
                state = cache_states[name] = _CacheState()
            states.append(state)

        if plan.generation != self._fc_generation:
            self._bind_plan(plan)
        caches = plan.caches
        while True:
            self._fc_pack()
            for slot, state in enumerate(states):
                caches[slot, 0] = state.consecutive_executions
                caches[slot, 1] = state.last_end_s
            rc, times = plan.call()
            if rc == 0:
                break
            self._fc_grow(rc)
            self._bind_plan(plan)
        self._fc_unpack()
        self._fc_drain_events()
        for state, (consecutive, last_end) in zip(states, caches.tolist()):
            state.consecutive_executions = int(consecutive)
            state.last_end_s = last_end

        # What start_recording() ... stop_recording() leave behind: no open
        # recording, an empty slice buffer and this run's ground truth.
        self._recording = False
        self._segments = []
        self._buffer.clear()
        self._record_extend = self._buffer.data.extend
        self._executions = []
        log = self._exec_log
        log.clear()
        log.data.frombytes(plan.rows.tobytes())
        log.names.extend(plan.log_names)

        out = self._fc_out.tolist()
        samples = self._fc_smp[: int(out[_FK.O_NSMP])]
        return (
            out[_FK.O_START],
            int(out[_FK.O_TICKS]),
            out[_FK.O_AFTER],
            one_way + return_way,
            out[_FK.O_STOP],
            run_variation,
            times,
            samples[:, 1].astype(np.int64),
            samples[:, 2:5],
        )

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #
    def _maybe_step_firmware(self) -> None:
        now = self._sim_clock.now_s
        if now + 1e-12 < self._next_control_s:
            return
        mean_power = self._control.mean_power_w(self._idle_total_w)
        kernel_resident = self._control.mostly_active()
        self._firmware.step(now, self._control.time_s, mean_power, kernel_resident)
        self._control.reset()
        period = self._spec.dvfs.control_period_s
        while self._next_control_s <= now + 1e-12:
            self._next_control_s += period

    def _consume_cache_state(self, descriptor: KernelActivityDescriptor) -> bool:
        """Return whether this execution sees cold caches, updating bookkeeping."""
        state = self._cache_states.get(descriptor.name)
        now = self._sim_clock.now_s
        if state is None or (now - state.last_end_s) > self.CACHE_RETENTION_S:
            state = _CacheState()
            self._cache_states[descriptor.name] = state
        return state.consecutive_executions < descriptor.cold_executions

    def _update_cache_state(self, descriptor: KernelActivityDescriptor, end_s: float) -> None:
        state = self._cache_states.setdefault(descriptor.name, _CacheState())
        state.consecutive_executions += 1
        state.last_end_s = end_s

    def reset_cache_state(self) -> None:
        """Forget all cache warm-up state (as after a long idle period)."""
        self._cache_states.clear()


__all__ = ["PowerSegment", "SegmentArray", "KernelExecutionResult", "SimulatedGPU"]
