"""Kernel bodies of the profiler's checkpoint ingest, in njit-able Python.

The second body module of the compiled-kernel provider chain
(:mod:`repro.gpu.fastcore`), next to :mod:`repro.gpu._fastcore_kernels`: the
same providers run it (``numba``, ``cc`` -- the bodies translated to C by
:mod:`repro.gpu._fastcore_c` into the same library -- and ``python``), the
same self-check pins every provider against these bodies, and the same
translator subset and name-keyed parameter types apply.  Every module-level
function here is translated.

``k_window``
    :meth:`ExecutionTimeBinner.extend
    <repro.core.binning.ExecutionTimeBinner.extend>`'s checkpoint: merge a
    batch into the binner's maintained sorted durations, then find the
    golden-run window of :meth:`ExecutionTimeBinner.bin` over them (its
    scalar two-pointer scan is the specification).
``k_match``
    Step 7 for a batch of runs: every reading's window end in CPU time (the
    float operations of ``ClockSynchronizer.cpu_time_of``, or the
    unsynchronised sample grid), the execution it falls in (the first of
    its own run's executions containing it, as ``match_execution`` finds
    it) and the logs of interest gathered into rows.
``k_durations``
    The per-run duration columns the LOI ledger appends per batch: each
    run's first execution with a given index (or its last execution), as
    ``RunRecord.execution_duration`` finds it.

Data layout of ``k_match`` (``R`` readings, ``n`` runs, in run order):

``ticks`` -- int64[R] every reading's GPU timestamp.
``offsets`` -- int64[2 * (n + 1)] each run's readings in ``ticks``, then
  each run's executions in ``starts``/``ends``/``exec_indices``.
``run_ints`` -- int64[2 * n] every run's run index, then its anchor ticks
  (synchronised; 0 unsynchronised).
``run_floats`` -- float64[2 * n] every run's origin, then its scale: the
  anchor capture CPU time and the counter frequency (synchronised), or the
  logger start and the logger period (unsynchronised).
``ints`` -- int64[I_LEN * R] output blocks of R (see ``I_*``): per LOI its
  run ordinal, run index, execution index, the run's last execution index,
  execution position and reading position, then its reading row; per
  reading its matched execution position within its run (``-1`` for idle).
``floats`` -- float64[F_LEN * R] output blocks of R (see ``F_*``): per LOI
  its window end and time of interest, then per reading its window-end
  time.

``k_match`` returns the number of LOIs; ``k_window`` writes the window's
start and end (exclusive) into ``window`` and returns 0; ``k_durations``
returns the number of runs it found the execution in.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised only when Numba is installed
    from numba import njit as _njit
except ImportError:  # pragma: no cover - the in-repo CI container path

    def _njit(*args, **kwargs):
        def decorate(func):
            return func

        return decorate


# Blocks of k_match's integer output: first the LOI columns, in the order
# of the LOI ledger's integer columns, then the reading rows and positions.
I_ORDINAL = 0
I_RUN = 1
I_EXECUTION = 2
I_LAST = 3
I_EXEC_POS = 4
I_READING = 5
I_LOI_LEN = 6
I_ROW = 6
I_POSITION = 7
I_LEN = 8

# Blocks of its float output: the LOI columns, then the reading times.
F_WINDOW_END = 0
F_TOI = 1
F_LOI_LEN = 2
F_TIME = 2
F_LEN = 3


@_njit(cache=True)
def k_window(held, held_index, batch, order, base, margin, merged, merged_index, window):
    """Merge a batch into the sorted durations, then find the golden window.

    ``held`` (ascending, positions ``held_index``) and the ``batch`` taken
    in its stable sort ``order`` merge into ``merged``/``merged_index``, a
    batch value ahead of equal held ones (positions ``base + order``).
    Then, per window end, the start advances until the window's extremes
    are within ``margin`` (relative to its minimum); the largest count
    wins, ties go to the smaller spread, then to the earlier window.
    """
    held_count = held.shape[0]
    batch_count = order.shape[0]
    i = 0
    j = 0
    for k in range(held_count + batch_count):
        if j < batch_count and (i >= held_count or batch[order[j]] <= held[i]):
            merged[k] = batch[order[j]]
            merged_index[k] = base + order[j]
            j += 1
        else:
            merged[k] = held[i]
            merged_index[k] = held_index[i]
            i += 1
    limit = 1.0 + margin
    best_start = 0
    best_end = 1
    best_count = 1
    best_spread = 0.0
    start = 0
    for end in range(1, held_count + batch_count + 1):
        while merged[end - 1] > merged[start] * limit:
            start += 1
        count = end - start
        spread = merged[end - 1] / merged[start] - 1.0
        if count > best_count or (count == best_count and spread < best_spread):
            best_count = count
            best_spread = spread
            best_start = start
            best_end = end
    window[0] = best_start
    window[1] = best_end
    return 0


@_njit(cache=True)
def k_match(
    ticks, offsets, run_ints, run_floats, run_count, synchronize, starts, ends, exec_indices,
    ints, floats,
):
    """Map, match and gather every reading of a batch; returns the LOI count.

    A run whose execution starts and ends are both non-decreasing is matched
    by binary search: the executions ending at or after a time are a suffix,
    and its first execution contains the time exactly when it starts at or
    before it.  Any other run (nested or out-of-order executions) is matched
    by the scalar first-match scan.
    """
    total = ticks.shape[0]
    lois = 0
    for run in range(run_count):
        e_lo = offsets[run_count + 1 + run]
        e_hi = offsets[run_count + 2 + run]
        ordered = 1
        for e in range(e_lo + 1, e_hi):
            if starts[e] < starts[e - 1] or ends[e] < ends[e - 1]:
                ordered = 0
                break
        last = -1
        if e_hi > e_lo:
            last = exec_indices[e_hi - 1]
        r_lo = offsets[run]
        origin = run_floats[run]
        scale = run_floats[run_count + run]
        for j in range(r_lo, offsets[run + 1]):
            if synchronize:
                t = origin + (ticks[j] - run_ints[run_count + run]) / scale
            else:
                t = origin + (j - r_lo + 1) * scale
            found = -1
            if ordered:
                lo = e_lo
                hi = e_hi
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if ends[mid] < t:
                        lo = mid + 1
                    else:
                        hi = mid
                if lo < e_hi and starts[lo] <= t:
                    found = lo
            else:
                for e in range(e_lo, e_hi):
                    if starts[e] <= t and t <= ends[e]:
                        found = e
                        break
            floats[F_TIME * total + j] = t
            if found < 0:
                ints[I_POSITION * total + j] = -1
            else:
                ints[I_POSITION * total + j] = found - e_lo
                ints[I_ROW * total + lois] = j
                ints[I_ORDINAL * total + lois] = run
                ints[I_RUN * total + lois] = run_ints[run]
                ints[I_EXECUTION * total + lois] = exec_indices[found]
                ints[I_EXEC_POS * total + lois] = found - e_lo
                ints[I_LAST * total + lois] = last
                ints[I_READING * total + lois] = j - r_lo
                floats[F_WINDOW_END * total + lois] = t
                floats[F_TOI * total + lois] = t - starts[found]
                lois += 1
    return lois


@_njit(cache=True)
def k_durations(exec_offsets, exec_indices, starts, ends, which, ordinals, durations):
    """Per run, the duration of its first execution with index ``which``.

    A negative ``which`` takes each run's last execution.  Writes the runs
    that have one (their ordinals, in order) and returns how many there are.
    """
    found = 0
    for run in range(exec_offsets.shape[0] - 1):
        row = -1
        if which < 0:
            if exec_offsets[run + 1] > exec_offsets[run]:
                row = exec_offsets[run + 1] - 1
        else:
            for e in range(exec_offsets[run], exec_offsets[run + 1]):
                if exec_indices[e] == which:
                    row = e
                    break
        if row >= 0:
            ordinals[found] = run
            durations[found] = ends[row] - starts[row]
            found += 1
    return found


__all__ = ["k_window", "k_match", "k_durations", "I_LEN", "F_LEN"]
