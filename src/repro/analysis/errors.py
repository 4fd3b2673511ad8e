"""Power / energy measurement-error quantification (paper guidance #1).

The headline cost of skipping FinGraV's power-profile differentiation is a
power -- and therefore energy -- measurement error of up to 80 % for kernels
much shorter than the logger's averaging window.  This module aggregates those
errors across kernels and relates them to the ratio between kernel execution
time and the averaging window, which is the paper's explanation for why the
error shrinks as kernels grow (takeaway #1).

Beyond the post-hoc figures, the module also provides the *live* form of the
same analysis: :class:`StreamingCIEstimator` (a mergeable mean/variance
accumulator) and :func:`evaluate_profile_convergence`, which bins a profile
section's samples over the time-of-interest axis and decides whether its
confidence intervals have shrunk below a tolerance.  The adaptive profiler
session (:mod:`repro.core.session`) uses that verdict as its stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # imported for annotations only; breaks the runtime cycle
    from ..core.profiler import FinGraVResult


@dataclass(frozen=True)
class ErrorRecord:
    """SSE-vs-SSP measurement error of one kernel."""

    kernel_name: str
    execution_time_s: float
    averaging_window_s: float
    sse_power_w: float
    ssp_power_w: float

    @property
    def power_error(self) -> float:
        """Relative power error of reporting SSE instead of SSP."""
        if self.ssp_power_w <= 0:
            raise ValueError("SSP power must be positive")
        return abs(self.ssp_power_w - self.sse_power_w) / self.ssp_power_w

    @property
    def energy_error(self) -> float:
        """Relative energy error (same execution time, so equal to the power error)."""
        return self.power_error

    @property
    def window_fill_ratio(self) -> float:
        """Kernel execution time relative to the averaging window."""
        if self.averaging_window_s <= 0:
            return float("inf")
        return self.execution_time_s / self.averaging_window_s


@dataclass(frozen=True)
class ErrorSummary:
    """Measurement errors across a set of kernels."""

    records: tuple[ErrorRecord, ...]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("need at least one error record")

    def max_error(self) -> float:
        return max(record.power_error for record in self.records)

    def record_for(self, kernel_name: str) -> ErrorRecord:
        for record in self.records:
            if record.kernel_name == kernel_name:
                return record
        raise KeyError(f"no error record for {kernel_name!r}")

    def error_shrinks_with_execution_time(self) -> bool:
        """Paper takeaway #1: longer kernels (relative to the window) err less.

        Checked as: the kernel with the largest window-fill ratio has a smaller
        error than the kernel with the smallest window-fill ratio.
        """
        ordered = sorted(self.records, key=lambda record: record.window_fill_ratio)
        return ordered[-1].power_error < ordered[0].power_error

    def to_rows(self) -> list[dict[str, object]]:
        rows = []
        for record in sorted(self.records, key=lambda r: r.window_fill_ratio):
            rows.append(
                {
                    "kernel": record.kernel_name,
                    "execution_time_us": round(record.execution_time_s * 1e6, 1),
                    "window_fill": round(record.window_fill_ratio, 3),
                    "sse_w": round(record.sse_power_w, 1),
                    "ssp_w": round(record.ssp_power_w, 1),
                    "error_pct": round(record.power_error * 100.0, 1),
                }
            )
        return rows


def error_record_from_result(result: FinGraVResult, averaging_window_s: float) -> ErrorRecord:
    """Build an error record from a FinGraV profiling result."""
    if result.sse_profile.is_empty or result.ssp_profile.is_empty:
        raise ValueError(f"result for {result.kernel_name} lacks SSE or SSP points")
    return ErrorRecord(
        kernel_name=result.kernel_name,
        execution_time_s=result.execution_time_s,
        averaging_window_s=averaging_window_s,
        sse_power_w=result.sse_profile.mean_power_w("total"),
        ssp_power_w=result.ssp_profile.mean_power_w("total"),
    )


def summarize_errors(
    results: Sequence[FinGraVResult], averaging_window_s: float
) -> ErrorSummary:
    """Aggregate SSE-vs-SSP errors over several profiling results."""
    records = tuple(
        error_record_from_result(result, averaging_window_s)
        for result in results
        if not result.sse_profile.is_empty and not result.ssp_profile.is_empty
    )
    return ErrorSummary(records=records)


#: Two-sided 95 % normal quantile used for every confidence interval here.
CI_Z_SCORE: float = 1.96

#: Number of time-of-interest bins the convergence rule evaluates per section.
CONVERGENCE_BINS: int = 4


class StreamingCIEstimator:
    """Streaming mean/variance accumulator with confidence-interval views.

    Batches are merged with Chan's parallel update, so feeding one array or
    the same values split across many :meth:`update` calls yields identical
    state (a single-batch update reduces to the direct two-pass computation).
    The adaptive session recomputes its estimators from the full columnar
    arrays at every checkpoint -- golden-run selection can *remove* runs
    between checkpoints, which no purely additive stream can express -- but
    the estimator itself stays mergeable for callers that do stream.
    """

    __slots__ = ("_count", "_mean", "_m2")

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_values(cls, values: np.ndarray) -> "StreamingCIEstimator":
        estimator = cls()
        estimator.update(values)
        return estimator

    def update(self, values: np.ndarray) -> None:
        """Merge a batch of samples (Chan's parallel mean/M2 update)."""
        values = np.asarray(values, dtype=float)
        batch = int(values.size)
        if batch == 0:
            return
        batch_mean = float(values.mean())
        batch_m2 = float(((values - batch_mean) ** 2).sum())
        if self._count == 0:
            self._count, self._mean, self._m2 = batch, batch_mean, batch_m2
            return
        total = self._count + batch
        delta = batch_mean - self._mean
        self._mean += delta * batch / total
        self._m2 += batch_m2 + delta * delta * self._count * batch / total
        self._count = total

    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def variance(self) -> float:
        """Sample (Bessel-corrected) variance; 0 below two samples."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std_error(self) -> float:
        if self._count < 2:
            return float("inf")
        return float(np.sqrt(self.variance / self._count))

    @property
    def half_width(self) -> float:
        """Half-width of the two-sided 95 % CI on the mean."""
        if self._count < 2:
            return float("inf")
        return CI_Z_SCORE * self.std_error

    def relative_half_width(self, reference: float | None = None) -> float:
        """CI half-width relative to ``reference`` (default: the mean)."""
        scale = abs(self._mean if reference is None else reference)
        if scale <= 0.0:
            return float("inf")
        return self.half_width / scale


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    """Per-section convergence verdict of one adaptive checkpoint.

    All fields are JSON-friendly scalars/tuples so the diagnostics can ride
    result summaries and the sweep manifest unchanged.
    """

    section: str
    converged: bool
    sample_count: int
    mean: float
    #: Overall 95 % CI half-width relative to the section mean.
    relative_half_width: float
    #: Samples per TOI bin (populated bins only carry the convergence gate).
    bin_counts: tuple[int, ...]
    #: Per-bin CI half-widths relative to the *section* mean (inf when a
    #: populated bin has fewer than two samples).
    bin_relative_half_widths: tuple[float, ...]
    rtol: float

    @property
    def worst_relative_half_width(self) -> float:
        populated = [
            width for width, count in zip(self.bin_relative_half_widths, self.bin_counts)
            if count > 0
        ]
        return max(populated, default=float("inf"))

    def to_dict(self) -> dict[str, object]:
        worst = self.worst_relative_half_width
        return {
            "section": self.section,
            "converged": self.converged,
            "samples": self.sample_count,
            "mean": self.mean,
            "relative_half_width": _json_float(self.relative_half_width),
            "worst_bin_relative_half_width": _json_float(worst),
            "bin_counts": list(self.bin_counts),
            "rtol": self.rtol,
        }


def _json_float(value: float) -> float | None:
    """Map non-finite widths (no CI yet) to None for JSON payloads."""
    return float(value) if np.isfinite(value) else None


def evaluate_profile_convergence(
    section: str,
    values: np.ndarray,
    times: np.ndarray,
    span_s: float,
    rtol: float,
    bins: int = CONVERGENCE_BINS,
    min_samples: int = 2,
) -> ConvergenceDiagnostics:
    """Decide whether one profile section's estimate has converged.

    ``values`` are the section's total-power samples and ``times`` their
    times of interest; both come straight from the stitched series' columnar
    views.  The samples are split into ``bins`` equal TOI bins over
    ``[0, span_s]``; the section converges when it holds at least
    ``min_samples`` samples and the overall 95 % CI *and* the CI of every
    populated bin are within ``rtol`` of the section mean, with every
    populated bin holding at least two samples.  Sample-starved sections
    (e.g. SSE, which draws a single execution per run) should pass
    ``bins=1`` so only the overall CI gates, with ``min_samples`` carrying
    the methodology's own LOI floor.  An empty section never converges
    (its half-widths are infinite).
    """
    if rtol <= 0.0:
        raise ValueError("convergence rtol must be positive")
    if bins <= 0:
        raise ValueError("need at least one convergence bin")
    if min_samples < 2:
        raise ValueError("need at least two samples for a confidence interval")
    values = np.asarray(values, dtype=float)
    times = np.asarray(times, dtype=float)
    overall = StreamingCIEstimator.from_values(values)
    span = max(float(span_s), 1e-12)
    bin_index = np.floor(times / span * bins).astype(np.int64)
    np.minimum(np.maximum(bin_index, 0, out=bin_index), bins - 1, out=bin_index)
    bin_counts: list[int] = []
    bin_widths: list[float] = []
    reference = overall.mean
    for index in range(bins):
        # A single bin holds every sample: its estimator is the overall one.
        members = values if bins == 1 else values[bin_index == index]
        bin_counts.append(int(members.size))
        if members.size == 0:
            bin_widths.append(float("inf"))
            continue
        estimator = overall if bins == 1 else StreamingCIEstimator.from_values(members)
        bin_widths.append(estimator.relative_half_width(reference))
    overall_width = overall.relative_half_width()
    populated = [
        width for width, count in zip(bin_widths, bin_counts) if count > 0
    ]
    converged = bool(
        overall.count >= min_samples
        and populated
        and overall_width <= rtol
        and all(width <= rtol for width in populated)
    )
    return ConvergenceDiagnostics(
        section=section,
        converged=converged,
        sample_count=overall.count,
        mean=overall.mean,
        relative_half_width=overall_width,
        bin_counts=tuple(bin_counts),
        bin_relative_half_widths=tuple(bin_widths),
        rtol=rtol,
    )


__all__ = [
    "ErrorRecord",
    "ErrorSummary",
    "error_record_from_result",
    "summarize_errors",
    "CI_Z_SCORE",
    "CONVERGENCE_BINS",
    "StreamingCIEstimator",
    "ConvergenceDiagnostics",
    "evaluate_profile_convergence",
]
