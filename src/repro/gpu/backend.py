"""Simulated-MI300X implementation of the FinGraV profiling backend.

:class:`SimulatedDeviceBackend` is the glue between the methodology
(:mod:`repro.core`, written against the :class:`~repro.core.backend.ProfilingBackend`
protocol) and the simulator (:mod:`repro.gpu`).  It accepts kernel handles of
two kinds -- an :class:`~repro.kernels.base.AIKernel` or a raw
:class:`~repro.gpu.activity.KernelActivityDescriptor` -- and performs the
CPU-side instrumentation the paper describes (Section IV-B step 2): starting
and stopping the power logger around the run, reading the GPU timestamp before
the executions, timing kernel start/end from the host, and injecting the
caller-requested random delay before the executions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ..core.records import (
    DelayCalibration,
    ExecutionArena,
    ExecutionTiming,
    ExecutionTimings,
    PowerReading,
    PowerReadings,
    RunRecord,
    TimestampAnchor,
)
from . import fastcore
from .activity import KernelActivityDescriptor
from .device import SimulatedGPU
from .power_model import ComponentPower
from .scheduler import KernelLauncher, LaunchConfig, ObservedExecution
from .spec import GPUSpec, mi300x_spec
from .telemetry import (
    AveragingPowerLogger,
    CoarsePowerSampler,
    InstantaneousPowerSampler,
    TelemetrySample,
)


@dataclass(frozen=True)
class BackendConfig:
    """Tunables of the simulated backend's run structure."""

    #: Which sampler feeds the power readings: the 1 ms averaging logger
    #: ("averaging"), the amd-smi-like coarse sampler ("coarse") or the
    #: idealised instantaneous sampler ("instantaneous").
    sampler: str = "averaging"
    #: Idle time at the start of every run before the timestamp anchor read,
    #: expressed in sampler periods (gives the logger a clean idle baseline).
    pre_padding_periods: float = 1.5
    #: Idle time appended after the last execution, in sampler periods.
    post_padding_periods: float = 1.3
    #: Idle time between runs, long enough for clocks to park, caches to
    #: expire and the die to cool (the paper starts each run from idle).
    park_s: float = 8e-3
    #: Relative (multiplicative) noise on reported power readings.
    reading_noise: float = 0.003
    #: Period of the instantaneous sampler when selected.
    instantaneous_period_s: float = 100e-6
    #: Time-advance engine for a backend-constructed device: ``"compiled"``,
    #: ``"reference"`` or ``"auto"``/``None`` (compiled; overridable via the
    #: ``REPRO_ENGINE`` environment variable -- see docs/engines.md).  An
    #: explicitly passed device keeps its engine.
    engine: str | None = None

    def validate(self) -> None:
        if self.sampler not in ("averaging", "coarse", "instantaneous"):
            raise ValueError(f"unknown sampler kind {self.sampler!r}")
        if self.pre_padding_periods < 0 or self.post_padding_periods < 0:
            raise ValueError("padding cannot be negative")
        if self.park_s < 0:
            raise ValueError("park time cannot be negative")
        if not 0 <= self.reading_noise < 0.2:
            raise ValueError("reading noise must be a small non-negative fraction")
        if self.instantaneous_period_s <= 0:
            raise ValueError("instantaneous sampler period must be positive")
        if self.engine is not None:
            fastcore.resolve_engine(self.engine)

    def resolved_engine(self) -> str:
        """The concrete engine a backend-constructed device will run."""
        return fastcore.resolve_engine(self.engine)


#: The backend constructor's object parameters and the types they take.
_PARAMETER_TYPES = (
    ("device", SimulatedGPU),
    ("spec", GPUSpec),
    ("config", BackendConfig),
    ("launch_config", LaunchConfig),
)


def _check_parameter_types(values: tuple) -> None:
    """Reject a constructor argument of the wrong type with a clear TypeError.

    The message names the parameter and, when the value is one of the
    backend's own argument types (typically a config passed positionally),
    the keyword it belongs to.
    """
    for (name, expected), value in zip(_PARAMETER_TYPES, values):
        if value is None or isinstance(value, expected):
            continue
        message = (
            f"SimulatedDeviceBackend parameter {name!r} expects a "
            f"{expected.__name__} or None, got {type(value).__name__}"
        )
        for keyword, kind in _PARAMETER_TYPES:
            if isinstance(value, kind):
                message += f"; pass it by keyword: SimulatedDeviceBackend({keyword}=...)"
                break
        raise TypeError(message)


def _count(value, name: str) -> int:
    """``value`` as a positive execution count; bools and floats are rejected."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        count = operator.index(value)
    except TypeError:
        raise TypeError(
            f"{name} must be an integer, got {type(value).__name__} {value!r}"
        ) from None
    if count <= 0:
        raise ValueError(f"{name} must be at least 1, got {count}")
    return count


#: Component names of every reading the simulated device reports.
_COMPONENTS = ("xcd", "iod", "hbm")


class _Handle:
    """A kernel handle the backend has seen, with its activity descriptor.

    Run plans are keyed on these entries (identity-hashed), so a plan can
    only serve the very handles it was built for.
    """

    __slots__ = ("kernel", "descriptor")

    def __init__(self, kernel, descriptor: KernelActivityDescriptor) -> None:
        self.kernel = kernel
        self.descriptor = descriptor


class _RunPlan:
    """What every run of one ``(kernel handle, executions, preceding)`` shares.

    ``compiled`` is the device's bound whole-run plan, or ``None`` when the
    run does not fuse (the reference engine, or a sequence that
    :meth:`KernelLauncher.fuses` rejects) and is driven step by step.  The
    timing index and name columns are shared, read-only, by every record of
    the plan.
    """

    __slots__ = (
        "sequences", "kernel_name", "total", "split", "indices", "names",
        "preceding_indices", "preceding_names", "compiled",
    )

    def __init__(self, sequences: list) -> None:
        self.sequences = sequences
        *before, (descriptor, executions) = sequences
        self.kernel_name = descriptor.name
        self.split = sum(count for _, count in before)
        self.total = self.split + executions
        # Every sequence is indexed from 0, as KernelLauncher.sequence_into
        # stages it on the stepwise path.
        self.indices, self.names = ExecutionTimings.block_columns(
            ((descriptor.name, 0, executions),)
        )
        self.indices.flags.writeable = False
        self.preceding_indices = self.preceding_names = None
        if before:
            self.preceding_indices, self.preceding_names = ExecutionTimings.block_columns(
                [(d.name, 0, count) for d, count in before]
            )
            self.preceding_indices.flags.writeable = False
        self.compiled = None


class SimulatedDeviceBackend:
    """A :class:`~repro.core.backend.ProfilingBackend` over the simulated GPU."""

    #: Distinct kernel handles (and, separately, run plans) cached before
    #: the cache is dropped.
    _DESCRIPTOR_CACHE_LIMIT = 128

    def __init__(
        self,
        device: SimulatedGPU | None = None,
        spec: GPUSpec | None = None,
        seed: int = 0,
        config: BackendConfig | None = None,
        launch_config: LaunchConfig | None = None,
    ) -> None:
        _check_parameter_types((device, spec, config, launch_config))
        self._config = config or BackendConfig()
        self._config.validate()
        self._device = device or SimulatedGPU(
            spec or mi300x_spec(), seed=seed, engine=self._config.resolved_engine()
        )
        self._handles: dict[int, _Handle] = {}
        self._plans: dict[tuple, _RunPlan] = {}
        self._arena = ExecutionArena()
        self._launcher = KernelLauncher(self._device, launch_config)
        self._noise_rng = np.random.default_rng(seed + 7919)
        idle_power = self._device.power_model.idle_power()
        counter = self._device.timestamp_counter
        telemetry = self._device.spec.telemetry
        if self._config.sampler == "averaging":
            self._sampler = AveragingPowerLogger(
                counter, telemetry.averaging_period_s, idle_power
            )
        elif self._config.sampler == "coarse":
            self._sampler = CoarsePowerSampler(
                counter, idle_power, period_s=telemetry.coarse_period_s
            )
        else:
            self._sampler = InstantaneousPowerSampler(
                counter, self._config.instantaneous_period_s, idle_power
            )
        # Window-averaging samplers report their period as each reading's
        # window; the instantaneous sampler reports none.
        self._window = not isinstance(self._sampler, InstantaneousPowerSampler)
        self._window_s = self._sampler.period_s if self._window else 0.0
        self._counter_hz = counter.frequency_hz

    # ------------------------------------------------------------------ #
    # Protocol properties.
    # ------------------------------------------------------------------ #
    @property
    def device(self) -> SimulatedGPU:
        return self._device

    @property
    def config(self) -> BackendConfig:
        return self._config

    @property
    def power_sample_period_s(self) -> float:
        return self._sampler.period_s

    @property
    def counter_frequency_hz(self) -> float:
        return self._device.timestamp_counter.frequency_hz

    # ------------------------------------------------------------------ #
    # Kernel handles.
    # ------------------------------------------------------------------ #
    def _handle(self, kernel: object) -> _Handle:
        # activity_descriptor() is a pure function of the kernel and the
        # device spec, but deriving it redoes the roofline/memory-traffic
        # math; cache it per kernel handle for the run loop.  The cached
        # strong reference keeps the id stable; the cache is bounded so a
        # long-lived backend profiling many kernels cannot grow (or pin
        # handles) without limit.
        cached = self._handles.get(id(kernel))  # statics: allow[identity-hash] -- in-process cache; the pinned strong ref keeps the id stable
        if cached is not None and cached.kernel is kernel:
            return cached
        if isinstance(kernel, KernelActivityDescriptor):
            descriptor = kernel
        elif callable(getattr(kernel, "activity_descriptor", None)):
            descriptor = kernel.activity_descriptor(self._device.spec)
        else:
            raise TypeError(
                "kernel handle must be a KernelActivityDescriptor or provide "
                f"an activity_descriptor() method, got {type(kernel)!r}"
            )
        if len(self._handles) >= self._DESCRIPTOR_CACHE_LIMIT:
            self._handles.clear()
        handle = self._handles[id(kernel)] = _Handle(kernel, descriptor)  # statics: allow[identity-hash] -- cache key never escapes the process
        return handle

    def _descriptor_of(self, kernel: object) -> KernelActivityDescriptor:
        return self._handle(kernel).descriptor

    def kernel_name(self, kernel: object) -> str:
        return self._descriptor_of(kernel).name

    # ------------------------------------------------------------------ #
    # Protocol operations.
    # ------------------------------------------------------------------ #
    def time_kernel(self, kernel: object, executions: int) -> list[float]:
        """Host-timed back-to-back executions from an idle device (step 1)."""
        if executions <= 0:
            raise ValueError("need at least one execution")
        descriptor = self._descriptor_of(kernel)
        self._device.park(self._config.park_s)
        observed = self._launcher.launch_sequence(
            descriptor, executions, run_variation=self._device.draw_run_variation(descriptor)
        )
        return [execution.cpu_duration_s for execution in observed]

    def calibrate_read_delay(self, samples: int = 32) -> DelayCalibration:
        """Benchmark the GPU timestamp read round trip (step 2)."""
        if samples <= 0:
            raise ValueError("need at least one calibration sample")
        round_trips = [self._device.read_timestamp().round_trip_s for _ in range(samples)]
        return DelayCalibration(
            mean_round_trip_s=float(np.mean(round_trips)),
            std_round_trip_s=float(np.std(round_trips)),
            samples=samples,
        )

    def run(
        self,
        kernel: object,
        executions: int,
        pre_delay_s: float,
        run_index: int = 0,
        preceding: tuple[tuple[object, int], ...] | list[tuple[object, int]] = (),
    ) -> RunRecord:
        """One instrumented run (steps 2 and 5 of the methodology).

        Every run of one ``(kernel, executions, preceding)`` shares a
        :class:`_RunPlan`, cached per handle identity.  On the compiled
        engine a run whose launch sequences all fuse
        (:meth:`KernelLauncher.fuses`) is one kernel call on the plan's bound
        arrays (:meth:`SimulatedGPU._run_compiled`); otherwise
        :meth:`_run_stepwise` drives the device call by call.  Both produce
        identical records.
        """
        executions = _count(executions, "executions")
        if not (math.isfinite(pre_delay_s) and pre_delay_s >= 0):
            raise ValueError(
                f"pre_delay_s must be finite and non-negative, got {pre_delay_s!r}"
            )
        if preceding:
            preceding = tuple(
                (self._handle(handle), _count(count, "preceding execution count"))
                for handle, count in preceding
            )
        key = (self._handle(kernel), executions, preceding)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plan(key)
        if plan.compiled is None:
            return self._record_stepwise(plan, pre_delay_s, run_index)
        return self._record_compiled(plan, pre_delay_s, run_index)

    def _record_compiled(self, plan: _RunPlan, pre_delay_s: float, run_index: int) -> RunRecord:
        """The record of one run of ``plan`` on the compiled engine.

        Record, anchor, readings and timings are filled field by field (the
        columns already have the views' dtypes and shapes): the values are
        those the constructors store, without their per-run checks.
        """
        (
            logger_start_s, ticks, cpu_after_s, round_trip_s, logger_stop_s,
            run_variation, times, sample_ticks, sample_powers,
        ) = self._device._run_compiled(plan.compiled, pre_delay_s)
        total = plan.total
        split = plan.split
        preceding_timing = ()
        if split:
            preceding_timing = ExecutionTimings._adopt(
                plan.preceding_indices, times[:split], times[total : total + split],
                plan.preceding_names,
            )
        anchor = TimestampAnchor.__new__(TimestampAnchor)
        fields = anchor.__dict__
        fields["gpu_ticks"] = ticks
        fields["cpu_time_after_s"] = cpu_after_s
        fields["round_trip_s"] = round_trip_s
        record = RunRecord.__new__(RunRecord)
        fields = record.__dict__
        fields["run_index"] = run_index
        fields["kernel_name"] = plan.kernel_name
        fields["readings"] = self._readings_fast(
            sample_ticks, None, sample_powers, self._window_s
        )
        fields["executions"] = ExecutionTimings._adopt(
            plan.indices, times[split:total], times[total + split :], plan.names
        )
        fields["anchor"] = anchor
        fields["logger_period_s"] = self._sampler.period_s
        fields["counter_frequency_hz"] = self._counter_hz
        fields["pre_delay_s"] = pre_delay_s
        fields["preceding_executions"] = preceding_timing
        fields["metadata"] = {
            "logger_start_cpu_s": logger_start_s,
            "logger_stop_cpu_s": logger_stop_s,
            "sampler": self._config.sampler,
            "run_variation_outlier": run_variation.is_outlier,
        }
        return record

    def _plan(self, key: tuple) -> _RunPlan:
        """Build and cache the plan of ``key``: ``(handle, executions, preceding)``."""
        handle, executions, preceding = key
        sequences = [(entry.descriptor, count) for entry, count in preceding]
        sequences.append((handle.descriptor, executions))
        plan = _RunPlan(sequences)
        if self._fuses(sequences):
            config = self._config
            period = self._sampler.period_s
            plan.compiled = self._device._plan_run(
                sequences,
                config.park_s,
                config.pre_padding_periods * period,
                config.post_padding_periods * period,
                self._launcher.config,
                period,
                self._sampler.phase_offset_s,
                self._window,
            )
        if len(self._plans) >= self._DESCRIPTOR_CACHE_LIMIT:
            self._plans.clear()
        self._plans[key] = plan
        return plan

    def _fuses(self, sequences) -> bool:
        """Whether a run of ``sequences`` is one whole-run kernel call."""
        return self._device.engine == "compiled" and all(
            self._launcher.fuses(descriptor) for descriptor, _ in sequences
        )

    def _record_stepwise(self, plan: _RunPlan, pre_delay_s: float, run_index: int) -> RunRecord:
        """The record of one run driven by :meth:`_run_stepwise`."""
        (
            anchor, logger_start_s, logger_stop_s, run_variation,
            readings, executions_timing, preceding_timing,
        ) = self._run_stepwise(plan.sequences, pre_delay_s)
        return RunRecord(
            run_index=run_index,
            kernel_name=plan.kernel_name,
            readings=readings,
            executions=executions_timing,
            anchor=anchor,
            logger_period_s=self._sampler.period_s,
            counter_frequency_hz=self.counter_frequency_hz,
            pre_delay_s=pre_delay_s,
            preceding_executions=preceding_timing,
            metadata={
                "logger_start_cpu_s": logger_start_s,
                "logger_stop_cpu_s": logger_stop_s,
                "sampler": self._config.sampler,
                "run_variation_outlier": run_variation.is_outlier,
            },
        )

    def _run_stepwise(self, sequences, pre_delay_s: float) -> tuple:
        """The run driven device call by device call.

        The reference engine always runs here, and so does the compiled
        engine for runs with a sequence that does not fuse.
        """
        device = self._device
        period = self._sampler.period_s
        *preceding, (descriptor, executions) = sequences

        device.park(self._config.park_s)
        logger_start_s = device.start_recording()
        device.idle(self._config.pre_padding_periods * period)

        anchor_read = device.read_timestamp()
        anchor = TimestampAnchor(
            gpu_ticks=anchor_read.gpu_ticks,
            cpu_time_after_s=anchor_read.cpu_time_after_s,
            round_trip_s=anchor_read.round_trip_s,
        )

        if pre_delay_s > 0:
            device.idle(pre_delay_s)

        if device.engine == "compiled":
            # Launch sequences stage their timings in the backend's execution
            # arena (no per-execution objects) and readings come straight
            # from columnar samples -- identical values to the branch below;
            # the record adopts both as lazy views.
            arena = self._arena
            arena.begin()
            for preceding_descriptor, preceding_count in preceding:
                variation = device.draw_run_variation(preceding_descriptor)
                self._launcher.sequence_into(
                    arena, preceding_descriptor, preceding_count, run_variation=variation
                )
            preceding_timing = arena.take()

            run_variation = device.draw_run_variation(descriptor)
            self._launcher.sequence_into(
                arena, descriptor, executions, run_variation=run_variation
            )
            executions_timing = arena.take()

            device.idle(self._config.post_padding_periods * period)
            segments = device.stop_recording()
            logger_stop_s = device.now_s()
            readings = self._readings_fast(
                *self._sampler.sample_columns(segments, logger_start_s, logger_stop_s)
            )
        else:
            preceding_observed: list[ObservedExecution] = []
            for preceding_descriptor, preceding_count in preceding:
                variation = device.draw_run_variation(preceding_descriptor)
                preceding_observed.extend(
                    self._launcher.launch_sequence(
                        preceding_descriptor, preceding_count, run_variation=variation
                    )
                )

            run_variation = device.draw_run_variation(descriptor)
            observed = self._launcher.launch_sequence(
                descriptor, executions, run_variation=run_variation
            )

            device.idle(self._config.post_padding_periods * period)
            segments = device.stop_recording()
            logger_stop_s = device.now_s()
            samples = self._sampler.samples(segments, logger_start_s, logger_stop_s)
            readings = tuple(self._reading_from(sample) for sample in samples)
            executions_timing = tuple(self._timing_from(obs) for obs in observed)
            preceding_timing = tuple(self._timing_from(obs) for obs in preceding_observed)
        return (
            anchor, logger_start_s, logger_stop_s, run_variation,
            readings, executions_timing, preceding_timing,
        )

    # ------------------------------------------------------------------ #
    # Conversions.
    # ------------------------------------------------------------------ #
    def _noise(self) -> float:
        if self._config.reading_noise <= 0:
            return 1.0
        return float(self._noise_rng.normal(1.0, self._config.reading_noise))

    def _readings_fast(self, ticks, times, powers, window_s) -> PowerReadings:
        """Build the readings of a run straight from columnar samples.

        Values are identical to :meth:`_reading_from` over
        :meth:`~repro.gpu.telemetry.AveragingPowerLogger.samples` -- the noise
        draws consume the same RNG stream (a batched ``normal`` draw is
        bit-identical to per-reading draws) and the same float arithmetic is
        applied element-wise -- but the whole run's readings are four array
        operations wrapped in a lazy :class:`PowerReadings` view: no
        ``TelemetrySample`` and no per-reading ``PowerReading`` objects.
        """
        del times  # window-end CPU times are reconstructed by the profiler
        n = ticks.shape[0]
        noise_std = self._config.reading_noise
        totals = powers[:, 0] + powers[:, 1] + powers[:, 2]
        if noise_std > 0 and n:
            noise = self._noise_rng.normal(1.0, noise_std, size=n)
            components = powers * noise[:, None]
            totals = totals * noise
        else:
            components = powers.copy()
        # Field fill: the sampler's columns already have the view's dtypes
        # and shapes (int64 ticks, float64 ``(n, 3)`` powers).
        readings = PowerReadings.__new__(PowerReadings)
        readings.gpu_timestamp_ticks = ticks
        readings.window_s = window_s
        readings.total_w = totals
        readings.component_names = _COMPONENTS
        readings.components_w = components
        readings._items = None
        return readings

    def _reading_from(self, sample: TelemetrySample) -> PowerReading:
        noise = self._noise()
        power: ComponentPower = sample.power
        return PowerReading(
            gpu_timestamp_ticks=sample.gpu_timestamp_ticks,
            window_s=sample.window_s,
            total_w=power.total_w * noise,
            components={
                "xcd": power.xcd_w * noise,
                "iod": power.iod_w * noise,
                "hbm": power.hbm_w * noise,
            },
        )

    @staticmethod
    def _timing_from(observed: ObservedExecution) -> ExecutionTiming:
        return ExecutionTiming(
            index=observed.execution_index,
            cpu_start_s=observed.cpu_start_s,
            cpu_end_s=observed.cpu_end_s,
            kernel_name=observed.kernel_name,
        )



__all__ = ["BackendConfig", "SimulatedDeviceBackend"]
