"""Equivalence tests: ExecutionTimeBinner.extend vs the pinned bin() reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.binning import BinningResult, ExecutionTimeBinner


def assert_same_selection(incremental: BinningResult, reference: BinningResult) -> None:
    assert incremental.selected_indices == reference.selected_indices
    assert incremental.outlier_indices == reference.outlier_indices
    assert incremental.bin_low_s == reference.bin_low_s
    assert incremental.bin_high_s == reference.bin_high_s
    assert incremental.values_s == reference.values_s
    assert incremental.margin == reference.margin


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("margin", [0.005, 0.02, 0.05, 0.25])
def test_randomized_topup_schedules_match_bin(seed, margin):
    """Random batch sizes, clustered values: every extend == bin-from-scratch."""
    rng = np.random.default_rng(seed)
    incremental = ExecutionTimeBinner(margin)
    reference = ExecutionTimeBinner(margin)
    values: list[float] = []
    remaining = 400
    while remaining > 0:
        batch_size = int(rng.integers(1, 40))
        batch_size = min(batch_size, remaining)
        remaining -= batch_size
        # A mixture of tight clusters and stragglers, with exact duplicates.
        cluster = float(rng.choice([100e-6, 101e-6, 130e-6, 200e-6]))
        batch = cluster * (1.0 + rng.normal(0, 0.01, size=batch_size))
        batch = np.abs(batch) + 1e-9
        if batch_size > 2:
            batch[1] = batch[0]  # force duplicates across the sort
        values.extend(float(v) for v in batch)
        assert_same_selection(incremental.extend(batch), reference.bin(values))
    assert incremental.num_values == len(values)


def test_single_batch_matches_bin():
    values = [100e-6, 104e-6, 99e-6, 250e-6, 101e-6]
    binner = ExecutionTimeBinner(0.05)
    assert_same_selection(binner.extend(values), ExecutionTimeBinner(0.05).bin(values))


def test_empty_followup_batch_reselects_current_state():
    binner = ExecutionTimeBinner(0.05)
    first = binner.extend([100e-6, 101e-6, 150e-6])
    again = binner.extend([])
    assert_same_selection(again, first)


def test_duplicate_heavy_input_matches_bin():
    values = [100e-6] * 20 + [105e-6] * 20 + [100e-6 * 1.05] * 5
    binner = ExecutionTimeBinner(0.05)
    assert_same_selection(binner.extend(values), ExecutionTimeBinner(0.05).bin(values))


def test_validation_matches_reference():
    binner = ExecutionTimeBinner(0.05)
    with pytest.raises(ValueError):
        binner.extend([])  # nothing accumulated yet
    with pytest.raises(ValueError):
        binner.extend([1e-6, -1e-6])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_rejected_by_both_paths(bad):
    # bin() used to keep a NaN in the golden bin while extend() dropped it.
    values = [1e-4, bad, 1.01e-4]
    with pytest.raises(ValueError, match="position 1"):
        ExecutionTimeBinner(0.05).bin(values)
    with pytest.raises(ValueError, match="position 1"):
        ExecutionTimeBinner(0.05).extend(values)


def test_array_batches_match_bin():
    rng = np.random.default_rng(3)
    values = 1e-4 * (1.0 + rng.normal(0, 0.01, size=60))
    binner = ExecutionTimeBinner(0.02)
    for start in range(0, 60, 12):
        result = binner.extend(values[start:start + 12])
        assert_same_selection(result, ExecutionTimeBinner(0.02).bin(values[:start + 12]))
        assert result == ExecutionTimeBinner(0.02).bin(values[:start + 12].tolist())


def test_tie_breaks_prefer_tighter_then_earlier_window():
    # Two windows of equal count; the tighter one must win in both paths.
    values = [100e-6, 100e-6, 200e-6, 209e-6]
    margin = 0.05
    incremental = ExecutionTimeBinner(margin).extend(values)
    reference = ExecutionTimeBinner(margin).bin(values)
    assert_same_selection(incremental, reference)
    assert incremental.selected_indices == (0, 1)
