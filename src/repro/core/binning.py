"""Kernel execution-time binning and golden-run selection (paper S3).

Sub-millisecond kernels show run-to-run execution-time variation (challenge
C3), which makes it unsafe to correlate power measurements across runs
directly.  FinGraV bins runs by the execution time of their SSP execution and
keeps only the *golden runs*: the runs falling in the most populated bin,
where all execution times lie within the binning margin of each other
(methodology step 6).  Outlier runs are excluded from the common-case profile
(the paper discusses profiling outliers separately in Section VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True, eq=False)
class BinningResult:
    """Outcome of binning a set of per-run execution times.

    The selection is kept as arrays: ``selected`` holds the golden
    positions in ascending order and ``values`` every execution time in
    the order supplied.  The tuple views ``selected_indices``,
    ``outlier_indices`` and ``values_s`` are built on first access.  Two
    results are equal when their margins, bounds, selections and values
    are; like the arrays behind it, a result is not hashable.
    """

    margin: float
    selected: np.ndarray
    bin_low_s: float
    bin_high_s: float
    values: np.ndarray

    @cached_property
    def selected_indices(self) -> tuple[int, ...]:
        return tuple(self.selected.tolist())

    @cached_property
    def outlier_indices(self) -> tuple[int, ...]:
        outlier = np.ones(self.values.shape[0], dtype=bool)
        outlier[self.selected] = False
        return tuple(np.flatnonzero(outlier).tolist())

    @cached_property
    def values_s(self) -> tuple[float, ...]:
        return tuple(self.values.tolist())

    @property
    def num_selected(self) -> int:
        return int(self.selected.shape[0])

    @property
    def is_empty(self) -> bool:
        """True when no run fell into the bin (``bin_around`` with no hits)."""
        return not self.selected.shape[0]

    @property
    def num_outliers(self) -> int:
        return int(self.values.shape[0] - self.selected.shape[0])

    @property
    def selection_ratio(self) -> float:
        total = int(self.values.shape[0])
        return self.num_selected / total if total else 0.0

    @property
    def bin_center_s(self) -> float:
        return 0.5 * (self.bin_low_s + self.bin_high_s)

    def selected_values(self) -> list[float]:
        return self.values[self.selected].tolist()

    def spread(self) -> float:
        """Relative spread (max/min - 1) of the selected execution times."""
        values = self.selected_values()
        if not values:
            return 0.0
        low, high = min(values), max(values)
        return high / low - 1.0 if low > 0 else 0.0

    def _key(self) -> tuple:
        # An empty bin's NaN bounds compare equal.
        bounds = [bound if bound == bound else "nan" for bound in (self.bin_low_s, self.bin_high_s)]
        return (self.margin, *bounds, self.selected_indices, self.values_s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinningResult):
            return NotImplemented
        return self._key() == other._key()

    __hash__ = None  # type: ignore[assignment]  # arrays back the selection

    def __getstate__(self) -> dict:
        # The tuple views are rebuilt on request, never pickled.
        return {name: self.__dict__[name] for name in self.__dataclass_fields__}


def _durations(values_s: Iterable[float], base: int = 0) -> np.ndarray:
    """``values_s`` as a float array of finite, positive execution times.

    Raises ``ValueError`` naming the first offending position (counted from
    ``base``).
    """
    if hasattr(values_s, "__len__"):
        values = np.array(values_s, dtype=float)
    else:
        values = np.fromiter(values_s, dtype=float)
    # NaN fails both comparisons.
    if values.shape[0] and not (values.min() > 0.0 and values.max() < np.inf):
        _check_finite(values, base)
        bad = int(np.flatnonzero(values <= 0)[0])
        raise ValueError(
            f"execution times must be positive: position {base + bad} is {float(values[bad])!r}"
        )
    return values


def _check_finite(values: np.ndarray, base: int = 0) -> None:
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(
            f"execution times must be finite: position {base + bad} is {float(values[bad])!r}"
        )


class ExecutionTimeBinner:
    """Selects the most-populated execution-time bin within a relative margin.

    :meth:`bin` is the stateless specification (one pure-Python sliding
    window over a fresh sort).  :meth:`extend` is its incremental counterpart
    for the profiler's top-up loop: the binner keeps the sorted value array
    across calls, and the compiled ``k_window`` kernel body
    (:mod:`repro.core._kernels`) merges each new batch into it and runs the
    same sliding window over it.  Both produce
    equal :class:`BinningResult`\\ s.
    """

    def __init__(self, margin: float) -> None:
        if margin <= 0:
            raise ValueError("binning margin must be positive")
        self._margin = margin
        # Incremental state (used only by extend()).
        self._values: np.ndarray = np.empty(0, dtype=float)
        self._sorted: np.ndarray = np.empty(0, dtype=float)
        self._sorted_index: np.ndarray = np.empty(0, dtype=np.int64)
        self._window = np.empty(2, dtype=np.int64)

    @property
    def margin(self) -> float:
        return self._margin

    @property
    def num_values(self) -> int:
        """How many execution times the incremental state currently holds."""
        return int(self._values.shape[0])

    def bin(self, values_s: Sequence[float]) -> BinningResult:
        """Bin execution times and return the golden selection.

        The bin is found with a sliding window over the sorted values: the
        largest contiguous group whose extremes differ by at most ``margin``
        (relative to the group's minimum) wins.  Ties prefer the group with
        the smaller internal spread, which favours the tighter cluster.
        Execution times must be finite and positive.
        """
        values = _durations(values_s)
        if not values.shape[0]:
            raise ValueError("cannot bin an empty set of execution times")

        order = np.argsort(values)
        sorted_values = values[order]
        n = len(sorted_values)

        best_start, best_end = 0, 1
        best_count = 1
        best_spread = 0.0
        start = 0
        for end in range(1, n + 1):
            # Shrink the window until it satisfies the margin.
            while sorted_values[end - 1] > sorted_values[start] * (1.0 + self._margin):
                start += 1
            count = end - start
            spread = sorted_values[end - 1] / sorted_values[start] - 1.0
            if count > best_count or (count == best_count and spread < best_spread):
                best_count = count
                best_spread = spread
                best_start, best_end = start, end

        selected_sorted_positions = range(best_start, best_end)
        selected = sorted(int(order[pos]) for pos in selected_sorted_positions)
        return BinningResult(
            margin=self._margin,
            selected=np.array(selected, dtype=np.int64),
            bin_low_s=float(sorted_values[best_start]),
            bin_high_s=float(sorted_values[best_end - 1]),
            values=values,
        )

    def extend(self, new_values_s: Iterable[float]) -> BinningResult:
        """Add a batch of execution times and re-select the golden bin.

        Equivalent to calling :meth:`bin` on all values seen so far (the
        equivalence is pinned by tests), but without re-sorting the
        accumulated durations: the ``k_window`` kernel of the active provider
        merges the stably sorted batch into the maintained sorted array (new
        values ahead of equal held ones) and runs the sliding window over
        it.  Indices in the returned result refer to the
        order the values were supplied across all :meth:`extend` calls, and
        so do the positions a non-finite or non-positive value is reported
        at (the batch is then rejected whole).
        """
        # Imported here: repro.gpu imports repro.core.
        from ..gpu.fastcore import kernels

        base = self.num_values
        new = _durations(new_values_s, base)
        total = base + new.shape[0]
        if not total:
            raise ValueError("cannot bin an empty set of execution times")
        merged = np.empty(total)
        merged_index = np.empty(total, dtype=np.int64)
        window = self._window
        kernels().window(
            self._sorted, self._sorted_index, new, np.argsort(new, kind="stable"), base,
            self._margin, merged, merged_index, window,
        )
        self._sorted, self._sorted_index = merged, merged_index
        if new.shape[0]:
            self._values = np.concatenate((self._values, new))
            self._values.flags.writeable = False
        start, end = int(window[0]), int(window[1])
        return BinningResult(
            margin=self._margin,
            selected=np.sort(merged_index[start:end]),
            bin_low_s=float(merged[start]),
            bin_high_s=float(merged[end - 1]),
            values=self._values,
        )

    def bin_around(self, values_s: Sequence[float], target_s: float) -> BinningResult:
        """Select runs whose execution time lies within the margin of ``target_s``.

        This is the variant the paper suggests for profiling *outlier*
        executions (Section VI): instead of the most populated bin, focus on a
        specific execution time.  When no value falls within the margin the
        result is an explicit empty bin (``is_empty`` true, NaN bounds) rather
        than a fake zero-width bin at ``target_s``.  Execution times must be
        finite.
        """
        if target_s <= 0:
            raise ValueError("target execution time must be positive")
        values = np.array(values_s, dtype=float)
        if not values.shape[0]:
            raise ValueError("cannot bin an empty set of execution times")
        _check_finite(values)
        low = target_s / (1.0 + self._margin)
        high = target_s * (1.0 + self._margin)
        selected = np.flatnonzero((low <= values) & (values <= high))
        chosen = values[selected]
        return BinningResult(
            margin=self._margin,
            selected=selected,
            bin_low_s=float(chosen.min()) if chosen.shape[0] else float("nan"),
            bin_high_s=float(chosen.max()) if chosen.shape[0] else float("nan"),
            values=values,
        )


def histogram_of_durations(
    values_s: Sequence[float], bins: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of execution times (counts, bin edges); convenience for reports."""
    values = np.asarray(values_s, dtype=float)
    if not values.shape[0]:
        raise ValueError("cannot histogram an empty set of execution times")
    counts, edges = np.histogram(values, bins=bins)
    return counts, edges


__all__ = ["BinningResult", "ExecutionTimeBinner", "histogram_of_durations"]
