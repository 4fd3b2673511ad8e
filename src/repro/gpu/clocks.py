"""CPU and GPU clock domains.

The paper's challenge C2 is that the on-GPU power logger tags samples with a
GPU timestamp-counter value while kernel scheduling (and therefore kernel
start/end times) is observed on the CPU.  This module models both domains:

* :class:`SimulationClock` -- the single source of truth for *simulated* time.
  Everything in the simulator ultimately advances this clock.
* :class:`CPUClock` -- the host's monotonic clock.  In this reproduction it is
  identical to simulated time (the host is the observer).
* :class:`GPUTimestampCounter` -- the free-running GPU counter: a different
  epoch, a different unit (ticks), and optionally a slow drift relative to the
  CPU clock.  Reading it from the CPU incurs a stochastic delay, exactly the
  quantity FinGraV calibrates (solution S2).

The FinGraV methodology never sees ``SimulationClock`` directly; it only sees
CPU times and GPU tick values, and must reconstruct the mapping -- the same
situation as on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spec import ClockSpec


class SimulationClock:
    """Monotonic simulated-time source (seconds).

    The clock can only move forward.  All simulator components share a single
    instance so that device activity, telemetry and the host observe a
    consistent ordering of events.
    """

    __slots__ = ("_now_s",)

    def __init__(self, start_s: float = 0.0) -> None:
        if start_s < 0:
            raise ValueError("simulation time cannot start negative")
        self._now_s = float(start_s)

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self._now_s

    def advance(self, delta_s: float) -> float:
        """Advance the clock by ``delta_s`` seconds and return the new time."""
        if delta_s < 0:
            raise ValueError(f"cannot advance time by a negative amount ({delta_s})")
        self._now_s += float(delta_s)
        return self._now_s

    def advance_to(self, target_s: float) -> float:
        """Advance the clock to an absolute time (no-op if already past it)."""
        if target_s > self._now_s:
            self._now_s = float(target_s)
        return self._now_s


class CPUClock:
    """The host's monotonic clock.

    For the purposes of the reproduction the CPU clock *is* simulated time;
    the interesting divergence (offset, unit, drift, read delay) lives on the
    GPU side.
    """

    def __init__(self, sim_clock: SimulationClock) -> None:
        self._sim = sim_clock

    def now_s(self) -> float:
        """Current CPU time in seconds."""
        return self._sim.now_s


@dataclass(frozen=True)
class TimestampReadResult:
    """Result of reading the GPU timestamp counter from the CPU.

    Attributes
    ----------
    gpu_ticks:
        The counter value that was captured on the GPU.
    cpu_time_after_s:
        CPU time at which the read returned (i.e. after the round trip).
    round_trip_s:
        Total CPU-side duration of the read.
    """

    gpu_ticks: int
    cpu_time_after_s: float
    round_trip_s: float


class GPUTimestampCounter:
    """Free-running GPU timestamp counter with its own epoch and drift.

    The mapping from simulated/CPU time ``t`` to counter ticks is::

        ticks = (t + epoch_offset) * (1 + drift) * counter_hz

    The profiler does not know ``epoch_offset`` or ``drift``; it must anchor
    the two domains by reading the counter from the CPU and calibrating the
    read delay, which is exactly what :mod:`repro.core.timesync` implements.
    """

    def __init__(self, spec: ClockSpec, sim_clock: SimulationClock, rng: np.random.Generator) -> None:
        self._spec = spec
        self._sim = sim_clock
        self._rng = rng
        self._host_read_path = None

    def attach_host_read_path(self, read_timestamp) -> None:
        """Route host-side reads of this counter through the owning device.

        A raw counter read advances only the shared :class:`SimulationClock`;
        when the counter belongs to a :class:`~repro.gpu.device.SimulatedGPU`,
        the elapsed round trip must *also* be recorded as idle power, stepped
        through the thermal model and credited to the firmware control
        accumulator -- otherwise a mid-recording read leaves a silent gap in
        the power timeline.  The device attaches its own ``read_timestamp``
        here so :meth:`read_from_cpu` always takes the consistent path.
        """
        self._host_read_path = read_timestamp

    @property
    def spec(self) -> ClockSpec:
        return self._spec

    @property
    def frequency_hz(self) -> float:
        return self._spec.timestamp_counter_hz

    @property
    def drift_factor(self) -> float:
        """GPU seconds per CPU second, ``1 + drift``."""
        return 1.0 + self._spec.drift_ppm * 1e-6

    # ------------------------------------------------------------------ #
    # Ground-truth conversions (used by the simulator, *not* the profiler).
    # ------------------------------------------------------------------ #
    def ticks_at(self, sim_time_s: float) -> int:
        """Counter value at an absolute simulated time (ground truth)."""
        gpu_seconds = (sim_time_s + self._spec.epoch_offset_s) * self.drift_factor
        return int(round(gpu_seconds * self._spec.timestamp_counter_hz))

    def ticks_at_many(self, sim_times_s: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`ticks_at` (same float64 ops, half-even rounding)."""
        times = np.asarray(sim_times_s, dtype=float)
        gpu_seconds = (times + self._spec.epoch_offset_s) * self.drift_factor
        return np.rint(gpu_seconds * self._spec.timestamp_counter_hz).astype(np.int64)

    def sim_time_of_ticks(self, ticks: int | np.ndarray) -> float | np.ndarray:
        """Inverse of :meth:`ticks_at` (ground truth, for testing).

        Element-wise over an array of counter values, with the same float64
        operations as the scalar form.
        """
        gpu_seconds = ticks / self._spec.timestamp_counter_hz
        return gpu_seconds / self.drift_factor - self._spec.epoch_offset_s

    # ------------------------------------------------------------------ #
    # Host-visible operation.
    # ------------------------------------------------------------------ #
    def sample_read_delay_s(self) -> float:
        """Draw one realisation of the CPU->GPU timestamp read delay."""
        delay = self._rng.normal(
            self._spec.timestamp_read_delay_s, self._spec.timestamp_read_jitter_s
        )
        return max(delay, 0.5e-6)

    def read_from_cpu(self) -> TimestampReadResult:
        """Read the counter from the CPU, advancing CPU time by the round trip.

        The counter value captured corresponds to the moment the read request
        reaches the GPU, i.e. roughly one half of the round trip after the CPU
        issued it -- the asymmetry that makes delay calibration necessary.

        When the counter is attached to a device (the normal case), the read
        is delegated to :meth:`SimulatedGPU.read_timestamp` so the round trip
        is spent at idle power -- visible to telemetry, the thermal model and
        the firmware control accumulator.  Only a standalone counter (no
        device) advances the bare simulation clock.
        """
        if self._host_read_path is not None:
            return self._host_read_path()
        one_way = self.sample_read_delay_s()
        return_way = self.sample_read_delay_s()
        capture_time = self._sim.now_s + one_way
        ticks = self.ticks_at(capture_time)
        self._sim.advance(one_way + return_way)
        return TimestampReadResult(
            gpu_ticks=ticks,
            cpu_time_after_s=self._sim.now_s,
            round_trip_s=one_way + return_way,
        )


__all__ = [
    "SimulationClock",
    "CPUClock",
    "GPUTimestampCounter",
    "TimestampReadResult",
]
