"""Data records exchanged between a profiling backend and the FinGraV core.

The FinGraV methodology (paper Section IV) is deliberately tool-agnostic: it
consumes power-logger samples tagged with GPU timestamps, host-observed kernel
start/end times, and a single CPU/GPU timestamp anchor per run.  These records
define that contract.  The simulated MI300X backend
(:mod:`repro.gpu.backend`) produces them; on real hardware a ROCm/amd-smi
backend would produce the same shapes.

Nothing in this module knows about the simulator -- the methodology never sees
ground-truth GPU times.
"""

from __future__ import annotations

import enum
import math
from array import array
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

#: Canonical component names used throughout the reproduction.  ``total`` is
#: always present; the breakdown keys mirror the MI300X chiplet organisation.
COMPONENT_KEYS: tuple[str, ...] = ("total", "xcd", "iod", "hbm")


@dataclass(frozen=True)
class PowerReading:
    """One sample reported by a power logger.

    ``gpu_timestamp_ticks`` is the GPU timestamp-counter value associated with
    the *end* of the averaging window; ``window_s`` is the averaging window
    length (0 for an instantaneous sampler).  ``components`` maps component
    names (e.g. ``xcd``/``iod``/``hbm``) to average watts over the window.
    """

    gpu_timestamp_ticks: int
    window_s: float
    total_w: float
    components: Mapping[str, float] = field(default_factory=dict)

    def component(self, name: str) -> float:
        """Power of one component; ``total`` returns the board power."""
        if name == "total":
            return self.total_w
        try:
            return float(self.components[name])
        except KeyError as exc:
            raise KeyError(f"reading has no component {name!r}") from exc

    def has_component(self, name: str) -> bool:
        return name == "total" or name in self.components


class ExecutionRole(str, enum.Enum):
    """Role of an execution within a run (paper solution S4)."""

    WARMUP = "warmup"
    SSE = "sse"
    INTERMEDIATE = "intermediate"
    SSP = "ssp"


@dataclass(frozen=True)
class ExecutionTiming:
    """Host-observed timing of one kernel execution within a run."""

    index: int
    cpu_start_s: float
    cpu_end_s: float
    kernel_name: str = ""

    def __post_init__(self) -> None:
        if self.cpu_end_s < self.cpu_start_s:
            raise ValueError("execution cannot end before it starts")
        if self.index < 0:
            raise ValueError("execution index must be non-negative")

    @property
    def duration_s(self) -> float:
        return self.cpu_end_s - self.cpu_start_s

    def contains(self, cpu_time_s: float) -> bool:
        return self.cpu_start_s <= cpu_time_s <= self.cpu_end_s


@dataclass(frozen=True)
class TimestampAnchor:
    """One CPU/GPU timestamp pair captured at the start of a run (solution S2).

    ``cpu_time_after_s`` is the host time when the read returned;
    ``round_trip_s`` is the host-measured duration of the read.  The capture
    on the GPU happened roughly one way-delay before the return.
    """

    gpu_ticks: int
    cpu_time_after_s: float
    round_trip_s: float


@dataclass(frozen=True)
class DelayCalibration:
    """Statistics of the GPU-timestamp read delay (methodology step 2)."""

    mean_round_trip_s: float
    std_round_trip_s: float
    samples: int

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError("calibration needs at least one sample")
        if self.mean_round_trip_s < 0 or self.std_round_trip_s < 0:
            raise ValueError("delay statistics must be non-negative")

    @property
    def one_way_delay_s(self) -> float:
        """Estimate of the one-way (CPU to GPU) read delay."""
        return self.mean_round_trip_s / 2.0


class _LazyRecordView(SequenceABC):
    """Shared scaffolding of the columnar, tuple-compatible record views.

    Subclasses store their columns in the slots named by ``_STATE_FIELDS``
    (which also defines the pickled state, in order) and implement
    ``_build(i)`` to materialise the record object at one position.  The base
    provides the tuple-compatible Sequence protocol with per-position
    memoisation: each position materialises at most once, so repeated
    indexing (and iteration) hands back the *same* object -- consumers may
    rely on identity, exactly as with a stored tuple.  The memo itself is
    never pickled.
    """

    __slots__ = ()

    _STATE_FIELDS: tuple[str, ...] = ()

    def _build(self, i: int):
        raise NotImplementedError

    def _item(self, i: int):
        items = self._items
        if items is None:
            items = self._items = [None] * len(self)
        obj = items[i]
        if obj is None:
            obj = items[i] = self._build(i)
        return obj

    def _materialize(self) -> tuple:
        return tuple(self._item(i) for i in range(len(self)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._materialize()[index]
        i = index.__index__()
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._item(i)

    def __iter__(self):
        return iter(self._materialize())

    def _eq_sequence(self, other) -> bool:
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]  # mutable arrays back the views

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self._STATE_FIELDS)

    def __setstate__(self, state) -> None:
        for name, value in zip(self._STATE_FIELDS, state):
            setattr(self, name, value)
        self._items = None


class ExecutionTimings(_LazyRecordView):
    """Columnar, tuple-compatible view over host-observed execution timings.

    The compiled engine stages each launch sequence's start/end times in an
    :class:`ExecutionArena` instead of constructing one frozen
    :class:`ExecutionTiming` per execution; run records then adopt the arena's
    columns through this view.  It behaves exactly like the tuple of
    :class:`ExecutionTiming` objects the reference path stores -- same length,
    elements, iteration order and equality -- but the objects are materialised
    lazily, while columnar consumers read ``indices`` / ``starts_s`` /
    ``ends_s`` directly and never touch objects.
    """

    __slots__ = ("indices", "starts_s", "ends_s", "kernel_names", "_items")

    _STATE_FIELDS = ("indices", "starts_s", "ends_s", "kernel_names")

    def __init__(self, indices, starts_s, ends_s, kernel_names) -> None:
        self.indices = np.asarray(indices, dtype=np.int64)
        self.starts_s = np.asarray(starts_s, dtype=float)
        self.ends_s = np.asarray(ends_s, dtype=float)
        self.kernel_names = tuple(kernel_names)
        if not (
            self.indices.shape == self.starts_s.shape == self.ends_s.shape
            and len(self.kernel_names) == self.indices.shape[0]
        ):
            raise ValueError("execution-timing columns must share one length")
        self._items: list[ExecutionTiming | None] | None = None

    @classmethod
    def from_blocks(cls, blocks, starts_s, ends_s) -> "ExecutionTimings":
        """Timings of back-to-back launch sequences.

        ``blocks`` holds one ``(kernel_name, start_index, count)`` per
        sequence, in launch order; ``starts_s`` / ``ends_s`` hold every
        execution's host-observed times in the same order (adopted as-is).
        """
        indices, names = cls.block_columns(blocks)
        return cls(indices=indices, starts_s=starts_s, ends_s=ends_s, kernel_names=names)

    @staticmethod
    def block_columns(blocks) -> tuple[np.ndarray, tuple[str, ...]]:
        """The index and kernel-name columns of :meth:`from_blocks`."""
        names: list[str] = []
        index_parts: list[np.ndarray] = []
        for kernel_name, start_index, count in blocks:
            names.extend([kernel_name] * count)
            index_parts.append(np.arange(start_index, start_index + count, dtype=np.int64))
        indices = index_parts[0] if len(index_parts) == 1 else np.concatenate(index_parts)
        return indices, tuple(names)

    @classmethod
    def _adopt(cls, indices, starts_s, ends_s, kernel_names) -> "ExecutionTimings":
        """A view over columns that already have the view's dtypes, one
        length and a tuple of names -- stored without the checks."""
        view = cls.__new__(cls)
        view.indices = indices
        view.starts_s = starts_s
        view.ends_s = ends_s
        view.kernel_names = kernel_names
        view._items = None
        return view

    def __len__(self) -> int:
        return self.indices.shape[0]

    def _build(self, i: int) -> ExecutionTiming:
        # Same field values the reference path's constructor would produce;
        # __dict__ fill skips the (already satisfied) validation.
        timing = ExecutionTiming.__new__(ExecutionTiming)
        fields = timing.__dict__
        fields["index"] = int(self.indices[i])
        fields["cpu_start_s"] = float(self.starts_s[i])
        fields["cpu_end_s"] = float(self.ends_s[i])
        fields["kernel_name"] = self.kernel_names[i]
        return timing

    def __eq__(self, other) -> bool:
        if isinstance(other, ExecutionTimings):
            return (
                np.array_equal(self.indices, other.indices)
                and np.array_equal(self.starts_s, other.starts_s)
                and np.array_equal(self.ends_s, other.ends_s)
                and self.kernel_names == other.kernel_names
            )
        if isinstance(other, (tuple, list)):
            return self._eq_sequence(other)
        return NotImplemented

    def durations_s(self) -> np.ndarray:
        """Per-execution durations as one array (``ends_s - starts_s``)."""
        return self.ends_s - self.starts_s

    def __repr__(self) -> str:
        return f"ExecutionTimings(n={len(self)})"


class PowerReadings(_LazyRecordView):
    """Columnar, tuple-compatible view over a run's power readings.

    Built by the compiled engine straight from the sampler's columnar
    output: timestamp ticks, one shared averaging-window length, total watts
    and an ``(n, k)`` per-component power matrix.  Indexing or iterating
    materialises :class:`PowerReading` objects with the identical field values
    the reference path constructs, so the view is interchangeable with the
    reference tuple; columnar consumers (:class:`ReadingColumns`, the LOI
    extractors) adopt the arrays directly.
    """

    __slots__ = (
        "gpu_timestamp_ticks", "window_s", "total_w",
        "component_names", "components_w", "_items",
    )

    _STATE_FIELDS = (
        "gpu_timestamp_ticks", "window_s", "total_w",
        "component_names", "components_w",
    )

    def __init__(self, gpu_timestamp_ticks, window_s, total_w, component_names, components_w) -> None:
        self.gpu_timestamp_ticks = np.asarray(gpu_timestamp_ticks, dtype=np.int64)
        self.window_s = float(window_s)
        self.total_w = np.asarray(total_w, dtype=float)
        self.component_names = tuple(component_names)
        self.components_w = np.asarray(components_w, dtype=float).reshape(
            self.gpu_timestamp_ticks.shape[0], len(self.component_names)
        )
        if self.total_w.shape != self.gpu_timestamp_ticks.shape:
            raise ValueError("power-reading columns must share one length")
        self._items: list[PowerReading | None] | None = None

    def __len__(self) -> int:
        return self.gpu_timestamp_ticks.shape[0]

    def _build(self, i: int) -> PowerReading:
        reading = PowerReading.__new__(PowerReading)
        fields = reading.__dict__
        fields["gpu_timestamp_ticks"] = int(self.gpu_timestamp_ticks[i])
        fields["window_s"] = self.window_s
        fields["total_w"] = float(self.total_w[i])
        row = self.components_w[i]
        fields["components"] = {
            name: float(row[j]) for j, name in enumerate(self.component_names)
        }
        return reading

    def __eq__(self, other) -> bool:
        if isinstance(other, PowerReadings):
            return (
                self.window_s == other.window_s
                and self.component_names == other.component_names
                and np.array_equal(self.gpu_timestamp_ticks, other.gpu_timestamp_ticks)
                and np.array_equal(self.total_w, other.total_w)
                and np.array_equal(self.components_w, other.components_w)
            )
        if isinstance(other, (tuple, list)):
            return self._eq_sequence(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"PowerReadings(n={len(self)}, window_s={self.window_s})"


class ExecutionArena:
    """Reusable columnar staging area for one record field's execution timings.

    The compiled launch path stages each execution's ``(start, end)``
    floats in the arena's flat buffers -- one block descriptor per launch
    sequence carries the kernel name and the contiguous index range -- and
    :meth:`take` snapshots the staged block(s) as an
    :class:`ExecutionTimings` view, resetting the arena for the next field.
    One arena lives on the backend and is recycled across runs; a fused
    sequence costs two buffer copies, any other two appends per execution.
    """

    __slots__ = ("_starts", "_ends", "_blocks")

    def __init__(self) -> None:
        self._starts = array("d")
        self._ends = array("d")
        self._blocks: list[tuple[str, int, int]] = []

    def begin(self) -> None:
        """Drop any staged executions (e.g. leftovers of an aborted run)."""
        del self._starts[:]
        del self._ends[:]
        self._blocks.clear()

    def stage(self, kernel_name: str, start_index: int, count: int):
        """Open a block of ``count`` executions indexed from ``start_index``.

        Returns the two bound append callables ``(append_start, append_end)``
        the launch loop feeds; exactly ``count`` pairs must be appended.
        """
        self._blocks.append((kernel_name, start_index, count))
        return self._starts.append, self._ends.append

    def stage_filled(self, starts, ends) -> None:
        """Bulk-fill the most recently staged block from float64 arrays.

        The compiled launch path computes a whole sequence's observed
        timings in one kernel call; this appends them in two buffer copies
        instead of ``2 * count`` scalar appends.  Exactly the open block's
        ``count`` values must be supplied (checked by :meth:`take`).
        """
        self._starts.frombytes(np.ascontiguousarray(starts, dtype=float).tobytes())
        self._ends.frombytes(np.ascontiguousarray(ends, dtype=float).tobytes())

    def take(self) -> "ExecutionTimings | tuple":
        """Snapshot staged executions as a view; ``()`` when nothing staged."""
        if not self._blocks:
            return ()
        staged = sum(count for _, _, count in self._blocks)
        if staged != len(self._starts) or staged != len(self._ends):
            raise ValueError(
                f"arena staged {staged} executions but holds "
                f"{len(self._starts)} starts / {len(self._ends)} ends"
            )
        view = ExecutionTimings.from_blocks(
            self._blocks,
            np.array(self._starts, dtype=float),
            np.array(self._ends, dtype=float),
        )
        self.begin()
        return view


class ReadingColumns:
    """Structure-of-arrays view over a run's power readings.

    The vectorized LOI extractor and profile builders consume these columns
    instead of iterating :class:`PowerReading` objects.  Only the timestamp
    ticks are materialised eagerly (they are what the extraction hot path
    needs); the power/window columns are built on first access.  ``powers_w``
    always carries ``total`` plus every component key shared by *all*
    readings; ``uniform_components`` is False when readings disagree on their
    component sets, in which case :meth:`component` adds per-reading
    presence masks for the keys only some readings carry.
    """

    def __init__(self, readings: Sequence[PowerReading]) -> None:
        self._readings = tuple(readings)
        self.gpu_timestamp_ticks = np.fromiter(
            (r.gpu_timestamp_ticks for r in self._readings),
            dtype=np.int64,
            count=len(self._readings),
        )
        self._window_s: np.ndarray | None = None
        self._powers_w: dict[str, np.ndarray] | None = None
        self._uniform: bool | None = None

    @property
    def num_readings(self) -> int:
        return len(self._readings)

    @property
    def window_s(self) -> np.ndarray:
        if self._window_s is None:
            readings = self._readings
            if isinstance(readings, PowerReadings):
                self._window_s = np.full(len(readings), readings.window_s, dtype=float)
            else:
                self._window_s = np.fromiter(
                    (r.window_s for r in readings), dtype=float, count=len(readings)
                )
        return self._window_s

    @property
    def uniform_components(self) -> bool:
        if self._uniform is None:
            self._build_powers()
        return bool(self._uniform)

    @property
    def powers_w(self) -> Mapping[str, np.ndarray]:
        if self._powers_w is None:
            self._build_powers()
        return self._powers_w

    def _build_powers(self) -> None:
        readings = self._readings
        if isinstance(readings, PowerReadings):
            powers = {"total": readings.total_w}
            names = readings.component_names
            for name in sorted(names):
                powers[name] = readings.components_w[:, names.index(name)]
            self._powers_w = powers
            self._uniform = True
            return
        if not readings:
            self._powers_w = {"total": np.empty(0, dtype=float)}
            self._uniform = True
            return
        first_keys = frozenset(readings[0].components)
        common_keys = set(first_keys)
        uniform = True
        for reading in readings:
            keys = reading.components.keys()
            if keys != first_keys:
                uniform = False
                common_keys.intersection_update(keys)
        powers: dict[str, np.ndarray] = {
            "total": np.asarray([r.total_w for r in readings], dtype=float)
        }
        for key in sorted(common_keys):
            powers[key] = np.asarray([r.components[key] for r in readings], dtype=float)
        self._powers_w = powers
        self._uniform = uniform

    def component_names(self) -> tuple[str, ...]:
        """``total`` plus every component key at least one reading carries."""
        if self.uniform_components:
            return tuple(self.powers_w)
        keys = {key for reading in self._readings for key in reading.components}
        return ("total", *sorted(keys - {"total"}))

    def component(self, name: str) -> tuple[np.ndarray, np.ndarray | None] | None:
        """``(values, presence-mask)`` of one component over the readings.

        The rules of :func:`component_column`: the mask is ``None`` when every
        reading carries the component, and the whole return is ``None`` when
        none does.
        """
        powers = self.powers_w
        if name in powers:
            return powers[name], None
        if self._uniform:
            return None
        return component_column(self._readings, name)

    @staticmethod
    def from_readings(readings: Sequence[PowerReading]) -> "ReadingColumns":
        if isinstance(readings, PowerReadings):
            return ReadingColumns._adopt(readings)
        return ReadingColumns(readings)

    @classmethod
    def _adopt(cls, view: PowerReadings) -> "ReadingColumns":
        """Adopt a :class:`PowerReadings` view's arrays directly (zero copy, O(1)).

        Produces the identical columns :meth:`__init__` + :meth:`_build_powers`
        would derive by iterating materialised readings: the same ticks, a
        constant window column, ``total`` first then the component keys in
        sorted order, and ``uniform_components=True`` (every reading of a view
        shares one component set by construction).  The window and power
        columns are built on first access, from the view's arrays.
        """
        columns = cls.__new__(cls)
        columns._readings = view
        columns.gpu_timestamp_ticks = view.gpu_timestamp_ticks
        columns._window_s = None
        columns._powers_w = None
        columns._uniform = True
        return columns


def component_column(
    readings: Sequence[PowerReading], component: str
) -> tuple[np.ndarray, np.ndarray | None] | None:
    """Columnise one component across power readings.

    Returns ``(values, presence-mask)`` -- the mask is ``None`` when the
    component is present in every reading -- or ``None`` when it is present in
    none.  Missing positions hold ``NaN``.  The single source of the NaN-fill /
    presence-mask rules shared by profile construction and the stitched LOI
    ledger.
    """
    n = len(readings)
    if component == "total":
        return (
            np.fromiter((reading.total_w for reading in readings), dtype=float, count=n),
            None,
        )
    raw = [reading.components.get(component) for reading in readings]
    if all(value is not None for value in raw):
        return np.asarray(raw, dtype=float), None
    if any(value is not None for value in raw):
        return (
            np.asarray(
                [value if value is not None else np.nan for value in raw], dtype=float
            ),
            np.asarray([value is not None for value in raw], dtype=bool),
        )
    return None


@dataclass(frozen=True)
class RunRecord:
    """Everything collected during one profiling run.

    A *run* (paper Section IV-B) is: idle padding, GPU-timestamp anchor read,
    a random delay, optional preceding (interleaved) kernels, then the
    back-to-back executions of the kernel of interest, all while the power
    logger records.

    ``readings`` / ``executions`` / ``preceding_executions`` hold either plain
    tuples of the record objects (the reference backend path) or the
    tuple-compatible columnar views :class:`PowerReadings` /
    :class:`ExecutionTimings` (the compiled arena path).  Both compare equal
    element-wise; :meth:`reading_columns` adopts a view's arrays directly.
    """

    run_index: int
    kernel_name: str
    readings: tuple[PowerReading, ...]
    executions: tuple[ExecutionTiming, ...]
    anchor: TimestampAnchor
    logger_period_s: float
    counter_frequency_hz: float
    pre_delay_s: float
    preceding_executions: tuple[ExecutionTiming, ...] = ()
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.logger_period_s < 0:
            raise ValueError("logger period cannot be negative")
        if self.counter_frequency_hz <= 0:
            raise ValueError("counter frequency must be positive")

    # ------------------------------------------------------------------ #
    @property
    def num_executions(self) -> int:
        return len(self.executions)

    @property
    def first_execution(self) -> ExecutionTiming:
        if not self.executions:
            raise ValueError("run has no executions")
        return self.executions[0]

    @property
    def last_execution(self) -> ExecutionTiming:
        if not self.executions:
            raise ValueError("run has no executions")
        return self.executions[-1]

    @property
    def ssp_execution(self) -> ExecutionTiming:
        """The execution used for the SSP profile (the last one of the run)."""
        return self.last_execution

    def execution(self, index: int) -> ExecutionTiming:
        executions = self.executions
        if isinstance(executions, ExecutionTimings):
            return executions[self._timing_position(index)]
        for execution in executions:
            if execution.index == index:
                return execution
        raise KeyError(f"run {self.run_index} has no execution with index {index}")

    def execution_duration(self, which: int | str) -> float:
        """Host-observed duration of execution ``which`` (``"last"`` or an index).

        Columnar timings are read straight from their start/end arrays (the
        same float subtraction :attr:`ExecutionTiming.duration_s` performs),
        without materialising timing objects.  Raises like
        :attr:`last_execution` / :meth:`execution`.
        """
        executions = self.executions
        if not isinstance(executions, ExecutionTimings):
            timing = self.last_execution if which == "last" else self.execution(int(which))
            return timing.duration_s
        if which == "last":
            if not executions:
                raise ValueError("run has no executions")
            position = -1
        else:
            position = self._timing_position(int(which))
        return float(executions.ends_s[position] - executions.starts_s[position])

    def _timing_position(self, index: int) -> int:
        """Position of execution ``index`` in the columnar timings."""
        matches = np.nonzero(self.executions.indices == index)[0]
        if not matches.size:
            raise KeyError(f"run {self.run_index} has no execution with index {index}")
        return int(matches[0])

    def execution_durations(self) -> list[float]:
        executions = self.executions
        if isinstance(executions, ExecutionTimings):
            return executions.durations_s().tolist()
        return [execution.duration_s for execution in executions]

    def reading_columns(self) -> ReadingColumns:
        """Columnar (NumPy) view over the readings, built once and cached."""
        cached = self.__dict__.get("_reading_columns")
        if cached is None:
            cached = ReadingColumns.from_readings(self.readings)
            object.__setattr__(self, "_reading_columns", cached)
        return cached

    def __getstate__(self) -> dict:
        # The cached reading columns are cheap to rebuild but expensive to
        # serialise (and can pin materialised objects); keep them out of
        # pickles so IPC/cache payloads carry only the record data.
        state = dict(self.__dict__)
        state.pop("_reading_columns", None)
        return state

    def role_of(self, index: int, warmup_executions: int, sse_index: int) -> ExecutionRole:
        """Classify an execution index into warmup / SSE / intermediate / SSP."""
        last_index = self.executions[-1].index if self.executions else 0
        if index < warmup_executions:
            return ExecutionRole.WARMUP
        if index == sse_index:
            return ExecutionRole.SSE
        if index == last_index:
            return ExecutionRole.SSP
        return ExecutionRole.INTERMEDIATE


@dataclass(frozen=True)
class LogOfInterest:
    """A power reading attributed to a specific execution (paper LOI/TOI).

    ``toi_s`` is the *time of interest*: how far into the matched execution
    the averaging window ended.  ``toi_fraction`` normalises it by the
    execution's duration.
    """

    run_index: int
    execution_index: int
    reading: PowerReading
    window_end_cpu_s: float
    toi_s: float
    toi_fraction: float

    def __post_init__(self) -> None:
        if self.toi_s < 0:
            raise ValueError("time of interest cannot be negative")
        if not math.isfinite(self.toi_fraction):
            raise ValueError("toi_fraction must be finite")

    def power(self, component: str = "total") -> float:
        return self.reading.component(component)


def mean_duration(executions: Sequence[ExecutionTiming]) -> float:
    """Arithmetic mean of execution durations (0.0 for an empty sequence)."""
    if not executions:
        return 0.0
    return sum(execution.duration_s for execution in executions) / len(executions)


__all__ = [
    "COMPONENT_KEYS",
    "PowerReading",
    "PowerReadings",
    "ExecutionTimings",
    "ExecutionArena",
    "ReadingColumns",
    "component_column",
    "ExecutionRole",
    "ExecutionTiming",
    "TimestampAnchor",
    "DelayCalibration",
    "RunRecord",
    "LogOfInterest",
    "mean_duration",
]
