"""CPU-side kernel launch path.

Kernel scheduling is controlled by the CPU (paper challenge C4/C2): the host
enqueues a kernel, the launch takes a few microseconds to reach the GPU, and
the host observes kernel start/end through events whose timestamps carry a
small measurement error.  :class:`KernelLauncher` models this thin layer on
top of :class:`~repro.gpu.device.SimulatedGPU` and is what the profiling
backend (and therefore the FinGraV methodology) actually drives.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..core.records import ExecutionArena, ExecutionTiming
from .activity import KernelActivityDescriptor
from .device import KernelExecutionResult, SimulatedGPU
from .variation import RunVariation


@dataclass(frozen=True)
class LaunchConfig:
    """Host-side launch overheads and instrumentation error."""

    #: Mean latency between the host enqueueing a kernel and the GPU starting it.
    launch_latency_s: float = 2.5e-6
    #: Jitter (std-dev) of the launch latency.
    launch_jitter_s: float = 0.5e-6
    #: Std-dev of the error on host-observed kernel start/end timestamps.
    event_timestamp_error_s: float = 0.6e-6
    #: Host-side gap between back-to-back executions in the same run.
    inter_execution_gap_s: float = 1.0e-6

    def validate(self) -> None:
        for name in ("launch_latency_s", "launch_jitter_s", "event_timestamp_error_s",
                     "inter_execution_gap_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ObservedExecution:
    """What the host can see about one kernel execution.

    ``cpu_start_s`` / ``cpu_end_s`` carry instrumentation error, but the
    observed duration is never negative (the launcher clamps inverted
    timestamps the way real event APIs do); the ``ground_truth`` result is
    kept for validation in tests and is not used by the methodology.
    """

    kernel_name: str
    execution_index: int
    cpu_submit_s: float
    cpu_start_s: float
    cpu_end_s: float
    ground_truth: KernelExecutionResult

    @property
    def cpu_duration_s(self) -> float:
        return self.cpu_end_s - self.cpu_start_s


class KernelLauncher:
    """Launches kernels on a device the way a host runtime would."""

    def __init__(self, device: SimulatedGPU, config: LaunchConfig | None = None) -> None:
        self._device = device
        self._config = config or LaunchConfig()
        self._config.validate()
        self._rng = device.rng
        config = self._config
        self._fast_consts = (
            config.launch_latency_s,
            config.launch_jitter_s,
            config.event_timestamp_error_s,
            config.inter_execution_gap_s,
        )

    @property
    def device(self) -> SimulatedGPU:
        return self._device

    @property
    def config(self) -> LaunchConfig:
        return self._config

    def _timestamp_error(self) -> float:
        if self._config.event_timestamp_error_s <= 0:
            return 0.0
        return float(self._rng.normal(0.0, self._config.event_timestamp_error_s))

    def launch(
        self,
        descriptor: KernelActivityDescriptor,
        execution_index: int = 0,
        run_variation: RunVariation | None = None,
    ) -> ObservedExecution:
        """Submit one kernel execution and wait for it to complete.

        When the device runs its compiled engine the launcher takes a
        streamlined path that draws the same RNG stream and produces identical
        observations, but skips the frozen-dataclass constructor overhead; a
        device on the reference engine keeps the original launch path end to
        end.
        """
        device = self._device
        if device.engine == "compiled":
            return self._launch_fast(descriptor, execution_index, run_variation)
        submit_s = device.now_s()
        launch_latency = device.variation_model.draw_launch_delay(
            self._config.launch_latency_s, self._config.launch_jitter_s
        )
        device.idle(launch_latency)
        result = device.execute_kernel(descriptor, run_variation=run_variation)
        cpu_start_s = result.start_s + self._timestamp_error()
        cpu_end_s = result.end_s + self._timestamp_error()
        if cpu_end_s < cpu_start_s:
            # Independent timestamp errors on start and end can invert the
            # observed ordering of sub-microsecond kernels; real event APIs
            # never report end before start, so clamp the observed duration
            # at zero.
            cpu_end_s = cpu_start_s
        return ObservedExecution(
            kernel_name=descriptor.name,
            execution_index=execution_index,
            cpu_submit_s=submit_s,
            cpu_start_s=cpu_start_s,
            cpu_end_s=cpu_end_s,
            ground_truth=result,
        )

    def _launch_fast(
        self,
        descriptor: KernelActivityDescriptor,
        execution_index: int,
        run_variation: RunVariation | None,
    ) -> ObservedExecution:
        """Hot-path launch: same draws and values as :meth:`launch`, built lean.

        The launch-delay draw inlines
        :meth:`ExecutionTimeVariationModel.draw_launch_delay` and the
        timestamp errors inline :meth:`_timestamp_error` (identical RNG
        calls); the idle and execute steps go straight to the device's
        compiled engine.
        """
        device = self._device
        config = self._config
        rng = self._rng
        submit_s = device._sim_clock.now_s
        launch_latency = float(rng.normal(config.launch_latency_s, config.launch_jitter_s))
        if launch_latency < 0.2e-6:
            launch_latency = 0.2e-6
        device._idle_compiled(launch_latency)
        result = device._execute_compiled(descriptor, run_variation)
        error_std = config.event_timestamp_error_s
        if error_std > 0:
            # One batched draw is bit-identical to two sequential draws.
            errors = rng.normal(0.0, error_std, size=2)
            cpu_start_s = result.start_s + float(errors[0])
            cpu_end_s = result.end_s + float(errors[1])
            if cpu_end_s < cpu_start_s:
                cpu_end_s = cpu_start_s
        else:
            cpu_start_s = result.start_s
            cpu_end_s = result.end_s
        observed = ObservedExecution.__new__(ObservedExecution)
        fields = observed.__dict__
        fields["kernel_name"] = descriptor.name
        fields["execution_index"] = execution_index
        fields["cpu_submit_s"] = submit_s
        fields["cpu_start_s"] = cpu_start_s
        fields["cpu_end_s"] = cpu_end_s
        fields["ground_truth"] = result
        return observed

    def launch_sequence(
        self,
        descriptor: KernelActivityDescriptor,
        executions: int,
        run_variation: RunVariation | None = None,
        start_index: int = 0,
    ) -> list[ObservedExecution]:
        """Launch ``executions`` back-to-back executions of the same kernel."""
        if executions <= 0:
            raise ValueError("need at least one execution")
        observed: list[ObservedExecution] = []
        append = observed.append
        if self._device.engine == "compiled":
            gap_s = self._config.inter_execution_gap_s
            idle_fast = self._device._idle_compiled
            launch_fast = self._launch_fast
            for i in range(executions):
                if i > 0 and gap_s > 0:
                    idle_fast(gap_s)
                append(launch_fast(descriptor, start_index + i, run_variation))
            return observed
        for i in range(executions):
            if i > 0 and self._config.inter_execution_gap_s > 0:
                self._device.idle(self._config.inter_execution_gap_s)
            append(
                self.launch(descriptor, execution_index=start_index + i, run_variation=run_variation)
            )
        return observed

    def fuses(self, descriptor: KernelActivityDescriptor) -> bool:
        """Whether :meth:`sequence_into` draws ``descriptor``'s sequences in one batch.

        The batched draw -- four standard normals per execution -- is the
        compiled engine's launch path (and what its whole-run kernel
        consumes).  Without execution jitter or timestamp error the launch
        loop draws a different pattern, so those configurations, and the
        reference engine, run the loop instead.
        """
        return (
            self._device.engine == "compiled"
            and descriptor.variation.execution_cv > 0
            and self._config.event_timestamp_error_s > 0
        )

    def sequence_into(
        self,
        arena: ExecutionArena,
        descriptor: KernelActivityDescriptor,
        executions: int,
        run_variation: RunVariation | None = None,
        start_index: int = 0,
    ) -> None:
        """Stage a back-to-back sequence's host-observed timings into ``arena``.

        The instrumented-run hot path: identical simulated behaviour and
        values as :meth:`launch_sequence` followed by an
        :class:`ExecutionTiming` conversion.  When the sequence
        :meth:`fuses`, two shortcuts apply --

        * all RNG variates of the sequence (launch latency, execution jitter
          and the two event-timestamp errors per execution, consumed in
          exactly that order) come from one batched ``standard_normal`` draw,
          which is bit-identical to the per-execution scalar draws, and one
          compiled call simulates the whole sequence;
        * no timing objects are built at all: the sequence's start/end
          columns go straight into the arena's buffers, and the run record
          adopts the arena snapshot as a lazy :class:`ExecutionTimings` view.
        """
        if executions <= 0:
            raise ValueError("need at least one execution")
        latency_mean, latency_jitter, error_std, gap_s = self._fast_consts
        execution_cv = descriptor.variation.execution_cv
        append_start, append_end = arena.stage(descriptor.name, start_index, executions)
        if not self.fuses(descriptor):
            # Configurations whose reference path consumes a different draw
            # pattern fall back to the launch loop (identical by definition).
            for observed in self.launch_sequence(
                descriptor, executions, run_variation=run_variation, start_index=start_index
            ):
                append_start(observed.cpu_start_s)
                append_end(observed.cpu_end_s)
            return
        variates = self._rng.standard_normal(4 * executions)
        cpu_starts, cpu_ends = self._device._sequence_compiled(
            descriptor, executions, variates, run_variation,
            execution_cv, latency_mean, latency_jitter, error_std, gap_s,
        )
        arena.stage_filled(cpu_starts, cpu_ends)

    def sequence_timings(
        self,
        descriptor: KernelActivityDescriptor,
        executions: int,
        run_variation: RunVariation | None = None,
        start_index: int = 0,
    ) -> list[ExecutionTiming]:
        """Host-observed timings of a back-to-back sequence, as objects.

        Compatibility wrapper over :meth:`sequence_into`: stages the sequence
        in a throwaway arena and materialises the timings (same simulated
        behaviour, RNG stream and values).
        """
        arena = ExecutionArena()
        self.sequence_into(
            arena, descriptor, executions,
            run_variation=run_variation, start_index=start_index,
        )
        return list(arena.take())

    @staticmethod
    def _timing_of(observed: ObservedExecution) -> ExecutionTiming:
        return ExecutionTiming(
            index=observed.execution_index,
            cpu_start_s=observed.cpu_start_s,
            cpu_end_s=observed.cpu_end_s,
            kernel_name=observed.kernel_name,
        )


__all__ = ["LaunchConfig", "ObservedExecution", "KernelLauncher"]
