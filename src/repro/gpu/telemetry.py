"""Power telemetry of the simulated GPU.

Three samplers are modelled, mirroring the tooling landscape the paper
describes:

* :class:`AveragingPowerLogger` -- the on-GPU 1 ms logger the paper harnesses
  (solution S1).  Every sample is the average of instantaneous power over the
  trailing averaging window and is tagged with a GPU timestamp-counter value.
  The averaging semantics are what create the SSE/SSP power-profile split and
  the sensitivity of short kernels to whatever ran just before them.
* :class:`CoarsePowerSampler` -- an amd-smi-like external sampler with a
  period of tens of milliseconds (challenge C1 baseline).
* :class:`InstantaneousPowerSampler` -- an idealised point sampler used for
  ablations (paper Section V-C3 notes that with an instantaneous sampler the
  interleaving caveat disappears).

All samplers are *post-processing* views over the instantaneous power timeline
recorded by the device -- either a :class:`~repro.gpu.device.PowerSegment`
list (reference engine) or a columnar
:class:`~repro.gpu.device.SegmentArray` (compiled engine, ingested without
re-packing dataclasses) -- which keeps the simulation simple while preserving
the observable behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clocks import GPUTimestampCounter
from .device import PowerSegment, SegmentArray
from .power_model import ComponentPower


@dataclass(frozen=True)
class TelemetrySample:
    """One sample emitted by a power sampler.

    ``gpu_timestamp_ticks`` is what a real logger exposes; ``window_end_s`` is
    the ground-truth simulated time of the sample and is retained only for
    validation in tests -- the FinGraV methodology never reads it.
    """

    gpu_timestamp_ticks: int
    window_end_s: float
    window_s: float
    power: ComponentPower

    @property
    def total_w(self) -> float:
        return self.power.total_w


def _average_power_over(
    segments: Sequence[PowerSegment],
    window_start_s: float,
    window_end_s: float,
    fill_power: ComponentPower,
) -> ComponentPower:
    """Time-weighted average power over a window, filling gaps with ``fill_power``."""
    window = window_end_s - window_start_s
    if window <= 0:
        raise ValueError("averaging window must have positive length")
    xcd = iod = hbm = 0.0
    covered = 0.0
    for segment in segments:
        overlap_start = max(segment.start_s, window_start_s)
        overlap_end = min(segment.end_s, window_end_s)
        overlap = overlap_end - overlap_start
        if overlap <= 0:
            continue
        xcd += segment.power.xcd_w * overlap
        iod += segment.power.iod_w * overlap
        hbm += segment.power.hbm_w * overlap
        covered += overlap
    uncovered = max(window - covered, 0.0)
    if uncovered > 0:
        xcd += fill_power.xcd_w * uncovered
        iod += fill_power.iod_w * uncovered
        hbm += fill_power.hbm_w * uncovered
    return ComponentPower(xcd_w=xcd / window, iod_w=iod / window, hbm_w=hbm / window)


def _instantaneous_power_at(
    segments: Sequence[PowerSegment], time_s: float, fill_power: ComponentPower
) -> ComponentPower:
    """Instantaneous power at ``time_s`` (the segment covering it, else idle)."""
    for segment in segments:
        if segment.start_s <= time_s < segment.end_s:
            return segment.power
    return fill_power


class _SegmentTimeline:
    """Vectorized view over a recording's power segments.

    Builds a piecewise-constant (xcd, iod, hbm) power timeline -- segment
    power inside segments, ``fill_power`` in the gaps and outside the recorded
    span -- together with a cumulative-energy table at every segment boundary.
    Window averages then reduce to two cumulative-energy lookups per window
    instead of a scan over all segments, turning the per-sample O(segments)
    averaging into O(log segments).

    Requires chronologically sorted, non-overlapping segments (what the device
    records); ``usable`` is False otherwise and callers fall back to the
    scalar helpers, which also handle overlap.

    Long idle spans reach this layer as one gapless boundary grid: the
    device's batched idle-span engine bulk-appends a whole grid of
    control-period slices per span, so a recording dominated by parks and
    padding is ingested here as a single contiguous :class:`SegmentArray`
    taking the gapless fast path below -- no per-slice Python on either side.
    """

    def __init__(self, segments: Sequence[PowerSegment], fill_power: ComponentPower) -> None:
        self._fill = np.array(
            [fill_power.xcd_w, fill_power.iod_w, fill_power.hbm_w], dtype=float
        )
        n = len(segments)
        self._gapless = False
        if n == 0:
            self.usable = True
            self._bounds = np.zeros(1, dtype=float)
            self._powers = np.empty((0, 3), dtype=float)
            self._cumulative = np.zeros((1, 3), dtype=float)
            return
        if isinstance(segments, SegmentArray):
            # Columnar recordings from the compiled engine are ingested
            # directly -- no per-segment dataclass unpacking.
            starts = segments.starts_s
            ends = segments.ends_s
            segment_powers = segments.powers
        else:
            starts = np.asarray([s.start_s for s in segments], dtype=float)
            ends = np.asarray([s.end_s for s in segments], dtype=float)
            segment_powers = np.asarray(
                [[s.power.xcd_w, s.power.iod_w, s.power.hbm_w] for s in segments],
                dtype=float,
            )
        self.usable = bool(
            (ends >= starts).all() and (starts[1:] >= ends[:-1]).all()
        )
        if not self.usable:
            return
        if n > 1 and (starts[1:] == ends[:-1]).all():
            # Gapless recording (the device emits contiguous slices): every
            # interval is a segment, so the zero-width gap intervals of the
            # general layout can be dropped.  Cumulative energies are
            # identical -- the dropped gaps contribute exactly 0.0.
            bounds = np.empty(n + 1, dtype=float)
            bounds[:n] = starts
            bounds[n] = ends[n - 1]
            powers = segment_powers
            self._gapless = True
        else:
            # Boundaries interleave starts and ends; interval 2i is segment i,
            # odd intervals are the gaps in between (filled with idle power).
            bounds = np.empty(2 * n, dtype=float)
            bounds[0::2] = starts
            bounds[1::2] = ends
            powers = np.empty((2 * n - 1, 3), dtype=float)
            powers[0::2] = segment_powers
            powers[1::2] = self._fill
        m = powers.shape[0]
        cumulative = np.zeros((m + 1, 3), dtype=float)
        np.cumsum(powers * np.diff(bounds)[:, None], axis=0, out=cumulative[1:])
        self._bounds = bounds
        self._powers = powers
        self._cumulative = cumulative

    def energy_between(self, starts_s: np.ndarray, ends_s: np.ndarray) -> np.ndarray:
        """Per-component energy over each ``[start, end]`` window (shape (m, 3))."""
        return self._energy_at(ends_s) - self._energy_at(starts_s)

    def _energy_at(self, times_s: np.ndarray) -> np.ndarray:
        """Cumulative per-component energy from the first boundary to ``t``.

        Negative for times before the first boundary (idle fill extends to
        infinity on both sides), which cancels in :meth:`energy_between`.
        ``times_s`` must be ascending (the samplers' grids are), which lets
        the out-of-range fixups test only the first/last interval index.
        """
        times = np.asarray(times_s, dtype=float)
        bounds = self._bounds
        last = bounds.shape[0] - 1
        interval = bounds.searchsorted(times, side="right") - 1
        clipped = np.minimum(np.maximum(interval, 0), last - 1 if last > 1 else 0)
        if self._powers.shape[0]:
            energy = (
                self._cumulative[clipped]
                + self._powers[clipped] * (times - bounds[clipped])[:, None]
            )
        else:
            energy = np.zeros((times.shape[0], 3), dtype=float)
        if times.shape[0]:
            if interval[0] < 0:
                before = interval < 0
                energy[before] = (times[before] - bounds[0])[:, None] * self._fill
            if interval[-1] >= last:
                after = interval >= last
                energy[after] = (
                    self._cumulative[last]
                    + (times[after] - bounds[last])[:, None] * self._fill
                )
        return energy

    def power_at(self, times_s: np.ndarray) -> np.ndarray:
        """Instantaneous per-component power at each time (shape (m, 3)).

        Matches :func:`_instantaneous_power_at`: half-open ``[start, end)``
        segment spans, idle fill elsewhere.
        """
        times = np.asarray(times_s, dtype=float)
        interval = np.searchsorted(self._bounds, times, side="right") - 1
        inside = (interval >= 0) & (interval < self._powers.shape[0])
        if not self._gapless:
            # In the interleaved layout only even intervals are segments.
            inside &= interval % 2 == 0
        power = np.broadcast_to(self._fill, (times.shape[0], 3)).copy()
        if self._powers.shape[0]:
            power[inside] = self._powers[interval[inside]]
        return power


class AveragingPowerLogger:
    """The on-GPU trailing-window averaging power logger (paper S1).

    The logger free-runs: sample boundaries sit on a fixed absolute grid of
    the simulated timeline (``phase_offset_s`` sets the grid phase), so the
    position of a kernel execution relative to sample boundaries depends on
    when the host happened to launch it -- which is precisely why FinGraV adds
    random delays before kernel executions to cover different times of
    interest (methodology step 5).
    """

    def __init__(
        self,
        counter: GPUTimestampCounter,
        period_s: float,
        idle_power: ComponentPower,
        phase_offset_s: float = 0.0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("logger period must be positive")
        self._counter = counter
        self._period_s = period_s
        self._idle_power = idle_power
        self._phase_offset_s = phase_offset_s % period_s

    @property
    def period_s(self) -> float:
        return self._period_s

    @property
    def phase_offset_s(self) -> float:
        return self._phase_offset_s

    def sample_times_between(self, start_s: float, end_s: float) -> list[float]:
        """Absolute times of the sample boundaries within ``(start_s, end_s]``.

        A boundary coinciding exactly with the logger start is excluded: its
        averaging window would lie entirely before the logger was running.
        """
        return [float(t) for t in self._sample_times_array(start_s, end_s)]

    def _sample_times_array(self, start_s: float, end_s: float) -> np.ndarray:
        if end_s < start_s:
            raise ValueError("end time must not precede start time")
        first_index = math.ceil((start_s - self._phase_offset_s) / self._period_s)
        # One extra candidate on each side absorbs floor/ceil float rounding;
        # the filters reproduce the boundary conditions of the scalar loop.
        last_index = math.floor((end_s + 1e-12 - self._phase_offset_s) / self._period_s) + 1
        indices = np.arange(first_index, max(last_index, first_index) + 1)
        times = self._phase_offset_s + indices * self._period_s
        return times[(times > start_s + 1e-12) & (times <= end_s + 1e-12)]

    def sample_columns(
        self,
        segments: Sequence[PowerSegment],
        logger_start_s: float,
        logger_stop_s: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Columnar samples: ``(gpu_ticks, window_end_s, powers, window_s)``.

        ``powers`` has one xcd/iod/hbm row per sample.  This is the raw form
        the backend consumes directly; :meth:`samples` wraps the
        same columns into :class:`TelemetrySample` objects.

        Segment-to-sample averaging runs on the cumulative-energy timeline:
        every window average is the difference of two cumulative-energy
        lookups, evaluated for all samples in one vectorized pass.
        """
        times = self._sample_times_array(logger_start_s, logger_stop_s)
        if times.shape[0] == 0:
            return times.astype(np.int64), times, np.empty((0, 3)), self._period_s
        timeline = _SegmentTimeline(segments, self._idle_power)
        if timeline.usable:
            energies = timeline.energy_between(times - self._period_s, times)
            powers = energies / self._period_s
        else:
            # Overlapping segments: fall back to the per-window scalar average.
            averages = [
                _average_power_over(segments, t - self._period_s, t, self._idle_power)
                for t in times
            ]
            powers = np.asarray(
                [[p.xcd_w, p.iod_w, p.hbm_w] for p in averages], dtype=float
            )
        ticks = self._counter.ticks_at_many(times)
        return ticks, times, powers, self._period_s

    def samples(
        self,
        segments: Sequence[PowerSegment],
        logger_start_s: float,
        logger_stop_s: float,
    ) -> list[TelemetrySample]:
        """Compute the samples the logger would have reported for a recording."""
        ticks, times, powers, window_s = self.sample_columns(
            segments, logger_start_s, logger_stop_s
        )
        return [
            TelemetrySample(
                gpu_timestamp_ticks=int(ticks[i]),
                window_end_s=float(times[i]),
                window_s=window_s,
                power=ComponentPower(
                    xcd_w=float(powers[i, 0]),
                    iod_w=float(powers[i, 1]),
                    hbm_w=float(powers[i, 2]),
                ),
            )
            for i in range(times.shape[0])
        ]


class CoarsePowerSampler(AveragingPowerLogger):
    """An external, amd-smi-like sampler with a period of tens of milliseconds.

    Functionally identical to the averaging logger but with a much longer
    period; used as the challenge-C1 baseline showing that coarse sampling can
    miss sub-millisecond kernels entirely.
    """

    DEFAULT_PERIOD_S = 20e-3

    def __init__(
        self,
        counter: GPUTimestampCounter,
        idle_power: ComponentPower,
        period_s: float = DEFAULT_PERIOD_S,
        phase_offset_s: float = 0.0,
    ) -> None:
        super().__init__(counter, period_s, idle_power, phase_offset_s)


class InstantaneousPowerSampler:
    """An idealised point sampler (no averaging), used for ablations."""

    def __init__(
        self,
        counter: GPUTimestampCounter,
        period_s: float,
        idle_power: ComponentPower,
        phase_offset_s: float = 0.0,
    ) -> None:
        if period_s <= 0:
            raise ValueError("sampler period must be positive")
        self._counter = counter
        self._period_s = period_s
        self._idle_power = idle_power
        self._phase_offset_s = phase_offset_s % period_s

    @property
    def period_s(self) -> float:
        return self._period_s

    @property
    def phase_offset_s(self) -> float:
        return self._phase_offset_s

    def sample_columns(
        self,
        segments: Sequence[PowerSegment],
        start_s: float,
        stop_s: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Columnar samples ``(gpu_ticks, sample_time_s, powers, window_s=0.0)``."""
        first_index = math.ceil((start_s - self._phase_offset_s) / self._period_s)
        last_index = math.floor((stop_s + 1e-12 - self._phase_offset_s) / self._period_s) + 1
        indices = np.arange(first_index, max(last_index, first_index) + 1)
        times = self._phase_offset_s + indices * self._period_s
        times = times[times <= stop_s + 1e-12]
        if times.shape[0] == 0:
            return times.astype(np.int64), times, np.empty((0, 3)), 0.0
        timeline = _SegmentTimeline(segments, self._idle_power)
        if timeline.usable:
            powers = timeline.power_at(times)
        else:
            points = [_instantaneous_power_at(segments, t, self._idle_power) for t in times]
            powers = np.asarray([[p.xcd_w, p.iod_w, p.hbm_w] for p in points], dtype=float)
        ticks = self._counter.ticks_at_many(times)
        return ticks, times, powers, 0.0

    def samples(
        self,
        segments: Sequence[PowerSegment],
        start_s: float,
        stop_s: float,
    ) -> list[TelemetrySample]:
        ticks, times, powers, window_s = self.sample_columns(segments, start_s, stop_s)
        return [
            TelemetrySample(
                gpu_timestamp_ticks=int(ticks[i]),
                window_end_s=float(times[i]),
                window_s=window_s,
                power=ComponentPower(
                    xcd_w=float(powers[i, 0]),
                    iod_w=float(powers[i, 1]),
                    hbm_w=float(powers[i, 2]),
                ),
            )
            for i in range(times.shape[0])
        ]


__all__ = [
    "TelemetrySample",
    "AveragingPowerLogger",
    "CoarsePowerSampler",
    "InstantaneousPowerSampler",
]
