"""Unit/integration tests for the analysis layer (comparative, errors, trends,
proportionality, insights, interleaving)."""

import numpy as np
import pytest

from repro.analysis.comparative import (
    ComponentComparison,
    KernelComponentSummary,
    summary_from_result,
)
from repro.analysis.errors import ErrorRecord, ErrorSummary, summarize_errors
from repro.analysis.insights import (
    takeaway_1_profile_differentiation,
    takeaway_2_power_scales_with_work,
    takeaway_3_xcd_dominates_compute,
    takeaway_4_power_proportionality,
    takeaway_5_interleaving,
)
from repro.analysis.interleaving import InterleavedMeasurement, InterleavingStudy
from repro.analysis.proportionality import (
    ProportionalityAssessment,
    ProportionalityRecord,
    assess_proportionality,
)
from repro.analysis.trends import fit_trend, linear_trend, profile_spread, trend_agreement
from repro.core.profile import FineGrainProfile, ProfileKind, ProfilePoint, profile_from_lois
from repro.core.stitching import ProfileStitcher
from repro.gpu.backend import SimulatedDeviceBackend
from repro.kernels.workloads import InterleavingScenario, cb_gemm, cb_gemms, mb_gemv


def summary(name, total, xcd, iod, hbm, exec_time=100e-6, error=None):
    return KernelComponentSummary(
        kernel_name=name,
        execution_time_s=exec_time,
        power_w={"total": total, "xcd": xcd, "iod": iod, "hbm": hbm},
        sse_vs_ssp_error=error,
    )


PAPER_LIKE_SUMMARIES = (
    summary("CB-8K-GEMM", 580, 500, 47, 31, exec_time=1.2e-3, error=0.2),
    summary("CB-4K-GEMM", 560, 490, 45, 29, exec_time=180e-6, error=0.3),
    summary("CB-2K-GEMM", 500, 440, 40, 29, exec_time=35e-6, error=0.7),
    summary("MB-8K-GEMV", 300, 200, 75, 27, exec_time=19e-6, error=0.5),
    summary("MB-4K-GEMV", 270, 195, 48, 27, exec_time=10e-6, error=0.5),
    summary("MB-2K-GEMV", 260, 190, 42, 27, exec_time=8e-6, error=0.5),
)


class TestComponentComparison:
    @pytest.fixture()
    def comparison(self):
        return ComponentComparison(summaries=PAPER_LIKE_SUMMARIES)

    def test_series_and_ranking(self, comparison):
        totals = comparison.series("total")
        assert totals["CB-8K-GEMM"] == 580
        assert comparison.ranking("total")[0] == "CB-8K-GEMM"
        assert comparison.ranking("iod")[0] == "MB-8K-GEMV"

    def test_normalized_series(self, comparison):
        normalized = comparison.normalized_series("total")
        assert normalized["CB-8K-GEMM"] == pytest.approx(1.0)
        assert all(0 < v <= 1.0 for v in normalized.values())

    def test_dominant_component(self, comparison):
        assert comparison.dominant_component("CB-8K-GEMM") == "xcd"

    def test_relative_to(self, comparison):
        ref = comparison.summary_for("CB-8K-GEMM")
        rel = comparison.summary_for("MB-8K-GEMV").relative_to(ref)
        assert rel["total"] == pytest.approx(300 / 580)

    def test_missing_kernel_raises(self, comparison):
        with pytest.raises(KeyError):
            comparison.summary_for("nope")

    def test_to_rows(self, comparison):
        rows = comparison.to_rows()
        assert len(rows) == 6
        assert rows[0]["kernel"] == "CB-8K-GEMM"

    def test_summary_from_result(self, cb2k_result):
        s = summary_from_result(cb2k_result)
        assert s.kernel_name == "CB-2K-GEMM"
        assert s.component("total") > s.component("iod")
        assert s.sse_vs_ssp_error is not None


class TestErrorSummary:
    def test_error_shrinks_with_execution_time(self):
        records = (
            ErrorRecord("short", 30e-6, 1e-3, sse_power_w=150, ssp_power_w=500),
            ErrorRecord("long", 1.2e-3, 1e-3, sse_power_w=480, ssp_power_w=580),
        )
        errors = ErrorSummary(records)
        assert errors.max_error() == pytest.approx(0.7)
        assert errors.error_shrinks_with_execution_time()
        assert errors.record_for("short").window_fill_ratio == pytest.approx(0.03)

    def test_summarize_from_results(self, cb2k_result, cb8k_result):
        errors = summarize_errors([cb2k_result, cb8k_result], 1e-3)
        assert errors.error_shrinks_with_execution_time()
        rows = errors.to_rows()
        assert len(rows) == 2


class TestTrends:
    def _profile(self, times, powers):
        points = tuple(
            ProfilePoint(time_s=t, powers_w={"total": p}) for t, p in zip(times, powers)
        )
        return FineGrainProfile("k", ProfileKind.RUN, points, 1e-4)

    def test_fit_and_agreement(self):
        times = np.linspace(0, 1e-3, 200)
        powers = 100 + 3e5 * times
        full = self._profile(times, powers)
        subset = self._profile(times[::4], powers[::4])
        reference = fit_trend(full, degree=4)
        candidate = fit_trend(subset, degree=4)
        assert trend_agreement(reference, candidate) > 0.98

    def test_linear_trend_slope_sign(self):
        times = np.linspace(0, 1e-3, 50)
        rising = self._profile(times, 100 + 2e5 * times)
        trend = linear_trend(rising)
        assert trend.fitted_w[-1] > trend.fitted_w[0]

    def test_profile_spread_smaller_for_clean_data(self):
        rng = np.random.default_rng(0)
        times = np.linspace(0, 1e-3, 200)
        base = 100 + 3e5 * times
        clean = self._profile(times, base + rng.normal(0, 2, size=times.size))
        noisy = self._profile(times, base + rng.normal(0, 40, size=times.size))
        assert profile_spread(clean) < profile_spread(noisy)


class TestProportionality:
    def test_assessment_from_kernels(self, spec):
        kernels = cb_gemms()
        assessment = assess_proportionality(kernels, PAPER_LIKE_SUMMARIES[:3], spec)
        gap = assessment.xcd_proportionality_gap("CB-2K-GEMM", "CB-8K-GEMM")
        assert gap > 1.2  # compute-light kernel burns disproportionate XCD power
        assert len(assessment.to_rows()) == 3

    def test_iod_tracks_llc(self):
        records = tuple(
            ProportionalityRecord(f"k{i}", 0.5, 400.0, 40.0 + 10 * i, 0.1 * i, 500.0)
            for i in range(4)
        )
        assessment = ProportionalityAssessment(records)
        assert assessment.iod_tracks_llc_bandwidth() > 0.99

    def test_missing_kernel_raises(self):
        assessment = ProportionalityAssessment(
            (ProportionalityRecord("a", 0.5, 100, 10, 0.1, 200),)
        )
        with pytest.raises(KeyError):
            assessment.record_for("b")


def make_measurement(label, kernel, ratio):
    profile = FineGrainProfile(
        kernel, ProfileKind.CUSTOM,
        (ProfilePoint(time_s=0.0, powers_w={"total": 100.0 * ratio}),), 1e-4,
    )
    return InterleavedMeasurement(
        label=label, kernel_name=kernel, isolated_ssp_w=100.0,
        interleaved_w=100.0 * ratio, preceding_description=("x",), lois=5,
        interleaved_profile=profile,
    )


class TestInsights:
    def test_takeaway_1(self):
        errors = ErrorSummary((
            ErrorRecord("short", 30e-6, 1e-3, 150, 500),
            ErrorRecord("long", 1.2e-3, 1e-3, 480, 580),
        ))
        takeaway = takeaway_1_profile_differentiation(errors)
        assert takeaway.holds
        assert "80%" in takeaway.guidance

    def test_takeaways_2_3_4(self, spec):
        comparison = ComponentComparison(summaries=PAPER_LIKE_SUMMARIES)
        cb = ["CB-8K-GEMM", "CB-4K-GEMM", "CB-2K-GEMM"]
        mb = ["MB-8K-GEMV", "MB-4K-GEMV", "MB-2K-GEMV"]
        assert takeaway_2_power_scales_with_work(comparison, cb, mb).holds
        assert takeaway_3_xcd_dominates_compute(comparison, cb).holds
        assessment = assess_proportionality(cb_gemms(), PAPER_LIKE_SUMMARIES[:3], spec)
        assert takeaway_4_power_proportionality(assessment, "CB-2K-GEMM", "CB-8K-GEMM").holds

    def test_takeaway_5(self):
        measurements = [
            make_measurement("CB->8K", "CB-8K-GEMM", 1.03),
            make_measurement("MB->2K", "CB-2K-GEMM", 0.4),
            make_measurement("CB->2K", "CB-2K-GEMM", 1.2),
        ]
        takeaway = takeaway_5_interleaving(measurements, unaffected_kernel="CB-8K-GEMM")
        assert takeaway.holds

    def test_takeaway_5_fails_when_long_kernel_affected(self):
        measurements = [
            make_measurement("CB->8K", "CB-8K-GEMM", 1.4),
            make_measurement("MB->2K", "CB-2K-GEMM", 0.4),
        ]
        assert not takeaway_5_interleaving(measurements, "CB-8K-GEMM").holds


class TestInterleavedMeasurement:
    def test_ratio_and_direction(self):
        lower = make_measurement("MB->2K", "CB-2K-GEMM", 0.4)
        assert lower.ratio == pytest.approx(0.4)
        assert lower.affected and lower.direction() == "lower"
        unchanged = make_measurement("CB->8K", "CB-8K-GEMM", 1.02)
        assert not unchanged.affected and unchanged.direction() == "unchanged"

    def test_study_on_simulated_backend(self, backend, small_profiler):
        study = InterleavingStudy(backend, profiler=small_profiler, runs=25, seed=3)
        profile = study.interleaved_profile(
            cb_gemm(2048), preceding=[(mb_gemv(4096), 20)], min_lois=3
        )
        assert len(profile) >= 3
        # Measured power should sit near the preceding GEMV level, i.e. far
        # below the CB-2K boost-level power.
        assert profile.mean_power_w("total") < 420

    def test_empty_interleaved_profile_reports_nan(self, backend, small_profiler, monkeypatch):
        study = InterleavingStudy(backend, profiler=small_profiler, runs=5, seed=3)
        empty = profile_from_lois("CB-2K-GEMM", ProfileKind.CUSTOM, [], 1e-4)
        monkeypatch.setattr(study, "interleaved_profile", lambda *args, **kwargs: empty)
        isolated = {"CB-2K-GEMM": make_measurement("x", "CB-2K-GEMM", 1.0).interleaved_profile}
        scenario = InterleavingScenario("MB->2K", cb_gemm(2048), ((mb_gemv(4096), 20),))
        measurement = study.measure_scenario(scenario, isolated=isolated)
        assert np.isnan(measurement.interleaved_w) and measurement.lois == 0
        assert np.isnan(measurement.ratio) and not measurement.affected
        assert measurement.direction() == "unmeasured"


def per_run_interleaved_profile(backend, rng, kernel, preceding, runs, min_lois, max_runs):
    """The interleaved collection loop that stitched one run per ``extend``."""
    period = backend.power_sample_period_s
    stitcher = ProfileStitcher()
    series, durations, run_index = None, [], 0
    while run_index < runs or (
        series.count_last_execution_lois() < min_lois and run_index < max_runs
    ):
        pre_delay = float(rng.uniform(0.0, 2.0 * period))
        record = backend.run(
            kernel, executions=1, pre_delay_s=pre_delay, run_index=run_index,
            preceding=tuple(preceding),
        )
        durations.append(record.last_execution.duration_s)
        if series is None:
            series = stitcher.collect([record])
        else:
            stitcher.extend(series, [record])
        run_index += 1
    return profile_from_lois(
        backend.kernel_name(kernel), ProfileKind.CUSTOM, series.lois_for_last_execution(),
        float(np.mean(durations)), metadata={"interleaved": True, "runs": runs},
    ), run_index


class TestInterleavedBatching:
    """One batched stitch of the first runs, then a per-run top-up, changes
    neither the RNG order nor the profile."""

    @pytest.mark.parametrize("runs, min_lois", [(12, 3), (40, 2), (6, 6)])
    def test_matches_per_run_stitching(self, runs, min_lois):
        kernel, preceding = mb_gemv(4096), [(cb_gemm(8192), 2), (cb_gemm(4096), 4)]
        study = InterleavingStudy(SimulatedDeviceBackend(seed=17), runs=runs, seed=23)
        batched = study.interleaved_profile(kernel, preceding, min_lois=min_lois, max_runs=200)
        reference_backend = SimulatedDeviceBackend(seed=17)
        reference_rng = np.random.default_rng(23)
        reference, collected = per_run_interleaved_profile(
            reference_backend, reference_rng, kernel, preceding, runs, min_lois, 200
        )
        assert len(batched) == len(reference) and batched.execution_time_s == reference.execution_time_s
        assert np.array_equal(batched.times(), reference.times())
        assert batched.components == reference.components
        for component in batched.components:
            assert np.array_equal(batched.series(component), reference.series(component))
        assert batched.run_indices() == reference.run_indices()
        assert batched.metadata == reference.metadata
        # Same number of draws from the study's stream and the same runs.
        assert study._rng.uniform() == reference_rng.uniform()
        assert collected >= runs
