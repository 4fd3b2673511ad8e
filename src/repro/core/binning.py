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
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BinningResult:
    """Outcome of binning a set of per-run execution times."""

    margin: float
    selected_indices: tuple[int, ...]
    outlier_indices: tuple[int, ...]
    bin_low_s: float
    bin_high_s: float
    values_s: tuple[float, ...]

    @property
    def num_selected(self) -> int:
        return len(self.selected_indices)

    @property
    def is_empty(self) -> bool:
        """True when no run fell into the bin (``bin_around`` with no hits)."""
        return not self.selected_indices

    @property
    def num_outliers(self) -> int:
        return len(self.outlier_indices)

    @property
    def selection_ratio(self) -> float:
        total = len(self.values_s)
        return self.num_selected / total if total else 0.0

    @property
    def bin_center_s(self) -> float:
        return 0.5 * (self.bin_low_s + self.bin_high_s)

    def selected_values(self) -> list[float]:
        return [self.values_s[i] for i in self.selected_indices]

    def spread(self) -> float:
        """Relative spread (max/min - 1) of the selected execution times."""
        values = self.selected_values()
        if not values:
            return 0.0
        low, high = min(values), max(values)
        return high / low - 1.0 if low > 0 else 0.0


class ExecutionTimeBinner:
    """Selects the most-populated execution-time bin within a relative margin.

    :meth:`bin` is the stateless reference implementation (one pure-Python
    sliding window over a fresh sort).  :meth:`extend` is its incremental
    counterpart for the profiler's top-up loop: the binner keeps the sorted
    value array across calls, merges each new batch into it (one stable sort
    of the two sorted runs) and re-selects the golden window with vectorized
    array operations instead of re-scanning every duration in Python.  Both
    produce bit-identical :class:`BinningResult`\\ s.
    """

    def __init__(self, margin: float) -> None:
        if margin <= 0:
            raise ValueError("binning margin must be positive")
        self._margin = margin
        # Incremental state (used only by extend()).
        self._values: list[float] = []
        self._sorted: np.ndarray = np.empty(0, dtype=float)
        self._sorted_index: np.ndarray = np.empty(0, dtype=np.int64)

    @property
    def margin(self) -> float:
        return self._margin

    @property
    def num_values(self) -> int:
        """How many execution times the incremental state currently holds."""
        return len(self._values)

    def bin(self, values_s: Sequence[float]) -> BinningResult:
        """Bin execution times and return the golden selection.

        The bin is found with a sliding window over the sorted values: the
        largest contiguous group whose extremes differ by at most ``margin``
        (relative to the group's minimum) wins.  Ties prefer the group with
        the smaller internal spread, which favours the tighter cluster.
        """
        if not values_s:
            raise ValueError("cannot bin an empty set of execution times")
        for value in values_s:
            if value <= 0:
                raise ValueError("execution times must be positive")

        order = np.argsort(values_s)
        sorted_values = np.asarray(values_s, dtype=float)[order]
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
        selected = tuple(sorted(int(order[pos]) for pos in selected_sorted_positions))
        selected_set = set(selected)
        outliers = tuple(i for i in range(n) if i not in selected_set)
        return BinningResult(
            margin=self._margin,
            selected_indices=selected,
            outlier_indices=outliers,
            bin_low_s=float(sorted_values[best_start]),
            bin_high_s=float(sorted_values[best_end - 1]),
            values_s=tuple(float(v) for v in values_s),
        )

    def extend(self, new_values_s: Sequence[float]) -> BinningResult:
        """Add a batch of execution times and re-select the golden bin.

        Equivalent to calling :meth:`bin` on all values seen so far (the
        equivalence is pinned by tests), but without re-sorting or re-scanning
        the accumulated durations: the new batch is merged into the maintained
        sorted array, and the sliding-window selection runs as array
        operations.  Indices in the returned result refer to the order the
        values were supplied across all :meth:`extend` calls.
        """
        new = np.asarray(list(new_values_s), dtype=float)
        if new.size and bool(np.any(new <= 0)):
            raise ValueError("execution times must be positive")
        base = len(self._values)
        self._values.extend(new.tolist())
        if not self._values:
            raise ValueError("cannot bin an empty set of execution times")
        if new.size:
            order = np.argsort(new, kind="stable")
            # A stable sort of (sorted batch, sorted history) merges the two
            # sorted runs in one pass, new values ahead of equal held ones.
            values = np.concatenate((new[order], self._sorted))
            merged = np.argsort(values, kind="stable")
            self._sorted = values[merged]
            self._sorted_index = np.concatenate((base + order, self._sorted_index))[merged]
        return self._select_window()

    def _select_window(self) -> BinningResult:
        """Vectorized golden-window selection over the maintained sorted array.

        Replicates the scalar two-pointer scan of :meth:`bin` exactly: for the
        window ending at each sorted position, the minimal start satisfying
        the margin is found by binary search and then corrected with the
        *same multiplication predicate* the scalar code uses (the division in
        the search key may round differently at bin boundaries); the winner is
        the first window, in end order, with maximal count and minimal spread.
        """
        sorted_values = self._sorted
        n = sorted_values.size
        limit = 1.0 + self._margin
        start = np.searchsorted(sorted_values, sorted_values / limit, side="left")
        while True:
            invalid = sorted_values > sorted_values[start] * limit
            if not bool(invalid.any()):
                break
            start = start + invalid
        while True:
            previous = np.maximum(start - 1, 0)
            can_grow = (start > 0) & (sorted_values <= sorted_values[previous] * limit)
            if not bool(can_grow.any()):
                break
            start = start - can_grow
        counts = np.arange(1, n + 1) - start
        spreads = sorted_values / sorted_values[start] - 1.0
        best_count = int(counts.max())
        candidate_spreads = np.where(counts == best_count, spreads, np.inf)
        best_end = int(np.argmin(candidate_spreads))  # first occurrence = scan order
        best_start = int(start[best_end])
        selected = np.sort(self._sorted_index[best_start:best_end + 1])
        outlier = np.ones(n, dtype=bool)
        outlier[selected] = False
        return BinningResult(
            margin=self._margin,
            selected_indices=tuple(selected.tolist()),
            outlier_indices=tuple(np.flatnonzero(outlier).tolist()),
            bin_low_s=float(sorted_values[best_start]),
            bin_high_s=float(sorted_values[best_end]),
            values_s=tuple(self._values),
        )

    def bin_around(self, values_s: Sequence[float], target_s: float) -> BinningResult:
        """Select runs whose execution time lies within the margin of ``target_s``.

        This is the variant the paper suggests for profiling *outlier*
        executions (Section VI): instead of the most populated bin, focus on a
        specific execution time.  When no value falls within the margin the
        result is an explicit empty bin (``is_empty`` true, NaN bounds) rather
        than a fake zero-width bin at ``target_s``.
        """
        if target_s <= 0:
            raise ValueError("target execution time must be positive")
        if not values_s:
            raise ValueError("cannot bin an empty set of execution times")
        low = target_s / (1.0 + self._margin)
        high = target_s * (1.0 + self._margin)
        selected = tuple(i for i, v in enumerate(values_s) if low <= v <= high)
        selected_set = set(selected)
        outliers = tuple(i for i in range(len(values_s)) if i not in selected_set)
        chosen = [values_s[i] for i in selected]
        return BinningResult(
            margin=self._margin,
            selected_indices=selected,
            outlier_indices=outliers,
            bin_low_s=min(chosen) if chosen else float("nan"),
            bin_high_s=max(chosen) if chosen else float("nan"),
            values_s=tuple(float(v) for v in values_s),
        )


def histogram_of_durations(
    values_s: Sequence[float], bins: int = 20
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of execution times (counts, bin edges); convenience for reports."""
    if not values_s:
        raise ValueError("cannot histogram an empty set of execution times")
    counts, edges = np.histogram(np.asarray(values_s, dtype=float), bins=bins)
    return counts, edges


__all__ = ["BinningResult", "ExecutionTimeBinner", "histogram_of_durations"]
