"""Equivalence tests: columnar profiles vs the retained object-based path.

The columnar rebuild's contract is that nothing about the numbers changes:
statistics, smoothing, restriction, subsampling and export rows must be
bit-identical whether a profile is built from LOI columns
(``profile_from_lois``), from frozen points (``profile_from_lois_reference``),
or sliced by the stitcher out of its LOI ledger.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.binning import ExecutionTimeBinner
from repro.core.profile import (
    FineGrainProfile,
    ProfileKind,
    ProfilePoint,
    profile_from_lois,
    profile_from_lois_reference,
)
from repro.core.profiler import FinGraVProfiler, ProfilerConfig
from repro.core.records import LogOfInterest, PowerReading
from repro.core.stitching import ProfileStitcher
from repro.gpu.backend import SimulatedDeviceBackend
from repro.gpu.spec import mi300x_spec
from repro.kernels.workloads import cb_gemm
from stitching_spec import assert_profiles_identical, reference_run_profile


def synthetic_lois(n: int = 400, seed: int = 3, components=True) -> list[LogOfInterest]:
    rng = np.random.default_rng(seed)
    lois = []
    for i in range(n):
        comps = {"xcd": float(500 + rng.standard_normal()),
                 "iod": 120.0, "hbm": 80.0} if components else {}
        lois.append(
            LogOfInterest(
                run_index=int(i % 37),
                execution_index=int(30 + (i % 3)),
                reading=PowerReading(
                    gpu_timestamp_ticks=i,
                    window_s=1e-3,
                    total_w=float(700 + rng.standard_normal() * 10),
                    components=comps,
                ),
                window_end_cpu_s=1.0 + i * 1e-3,
                toi_s=float(rng.uniform(0, 1e-4)),
                toi_fraction=0.5,
            )
        )
    return lois


class TestColumnarVsObjectConstruction:
    @pytest.fixture(scope="class")
    def pair(self):
        lois = synthetic_lois()
        columnar = profile_from_lois("k", ProfileKind.SSP, lois, 1e-4)
        objects = profile_from_lois_reference("k", ProfileKind.SSP, lois, 1e-4)
        return columnar, objects

    def test_arrays_and_rows_bit_identical(self, pair):
        assert_profiles_identical(*pair)

    def test_statistics_bit_identical(self, pair):
        columnar, objects = pair
        for component in columnar.components:
            assert columnar.mean_power_w(component) == objects.mean_power_w(component)
            assert columnar.median_power_w(component) == objects.median_power_w(component)
            assert columnar.max_power_w(component) == objects.max_power_w(component)
            assert columnar.min_power_w(component) == objects.min_power_w(component)
            assert columnar.power_std_w(component) == objects.power_std_w(component)
            assert columnar.energy_j(component) == objects.energy_j(component)

    def test_smoothing_bit_identical(self, pair):
        columnar, objects = pair
        for degree in (1, 4):
            grid_c, fit_c = columnar.smoothed(degree=degree)
            grid_o, fit_o = objects.smoothed(degree=degree)
            assert np.array_equal(grid_c, grid_o)
            assert np.array_equal(fit_c, fit_o)
        centers_c, means_c = columnar.binned_mean(bins=16)
        centers_o, means_o = objects.binned_mean(bins=16)
        assert np.array_equal(centers_c, centers_o)
        assert np.array_equal(means_c, means_o)

    def test_restriction_and_subsampling_bit_identical(self, pair):
        columnar, objects = pair
        assert_profiles_identical(
            columnar.restricted_to_runs([1, 5, 9]), objects.restricted_to_runs([1, 5, 9])
        )
        assert_profiles_identical(columnar.subsampled(37, seed=5), objects.subsampled(37, seed=5))

    def test_lazy_points_match_object_path(self, pair):
        columnar, objects = pair
        assert columnar.points == objects.points

    def test_empty_profiles_agree(self):
        import math
        import warnings

        columnar = profile_from_lois("k", ProfileKind.SSP, [], 1e-4)
        objects = profile_from_lois_reference("k", ProfileKind.SSP, [], 1e-4)
        assert columnar.is_empty and objects.is_empty
        assert columnar.components == objects.components == ()
        assert np.array_equal(columnar.series("total"), objects.series("total"))
        # The documented empty-profile contract: clean NaN, no warnings,
        # identical on the columnar and object paths.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(columnar.mean_power_w())
            assert math.isnan(objects.mean_power_w())


class TestStitcherEquivalence:
    """Ledger-sliced profiles vs object construction over the ledger's own LOIs."""

    @pytest.fixture(scope="class")
    def session(self):
        backend = SimulatedDeviceBackend(spec=mi300x_spec(), seed=41)
        profiler = FinGraVProfiler(
            backend, ProfilerConfig(seed=411, max_additional_runs=80)
        )
        session = profiler.session(cb_gemm(2048), runs=12).run_to_completion()
        return session, session.result()

    @pytest.mark.parametrize("attribute", ["ssp_profile", "sse_profile", "run_profile"])
    def test_profiles_bit_identical(self, session, attribute):
        session, result = session
        series, golden = session.series, set(result.golden_run_indices)
        if attribute == "run_profile":
            expected = reference_run_profile(
                list(result.runs), golden_runs=golden, calibration=result.calibration
            )
        else:
            if attribute == "ssp_profile":
                kind, which = ProfileKind.SSP, result.plan.ssp_index
                lois = series.lois_from_execution(which)
            else:
                kind, which = ProfileKind.SSE, result.plan.sse_index
                lois = series.lois_for_execution(which)
            expected = profile_from_lois_reference(
                result.kernel_name, kind,
                [loi for loi in lois if loi.run_index in golden],
                ProfileStitcher._execution_time(series, golden, which),
            )
        assert_profiles_identical(getattr(result, attribute), expected)

    def test_same_runs_and_golden_selection(self, session):
        session, result = session
        assert result.num_runs == len(session.series.runs) == session.runs_collected
        golden = set(result.golden_run_indices)
        assert result.ssp_loi_count == sum(
            1 for loi in session.series.lois_from_execution(result.plan.ssp_index)
            if loi.run_index in golden
        )


class TestComponentsUnionFix:
    def test_component_missing_from_first_point_still_reported(self):
        points = (
            ProfilePoint(time_s=1e-6, powers_w={"total": 100.0}),
            ProfilePoint(time_s=2e-6, powers_w={"total": 110.0, "xcd": 70.0}),
            ProfilePoint(time_s=3e-6, powers_w={"total": 120.0, "xcd": 75.0}),
        )
        profile = FineGrainProfile("k", ProfileKind.SSP, points, 1e-4)
        assert profile.components == ("total", "xcd")
        # Stats over the points that carry the component.
        assert profile.mean_power_w("xcd") == pytest.approx(72.5)
        summary = profile.component_summary()
        assert set(summary) == {"total", "xcd"}
        # The aligned series carries NaN holes plus an explicit mask.
        series = profile.series("xcd")
        assert np.isnan(series[0]) and series[1] == 70.0
        mask = profile.component_mask("xcd")
        assert mask is not None and mask.tolist() == [False, True, True]
        # Export rows only mention the component where present.
        rows = profile.to_rows()
        assert "xcd_w" not in rows[0] and rows[1]["xcd_w"] == 70.0

    def test_fully_present_component_has_no_mask(self):
        profile = profile_from_lois("k", ProfileKind.SSP, synthetic_lois(32), 1e-4)
        assert profile.component_mask("xcd") is None

    def test_unknown_component_still_raises(self):
        profile = profile_from_lois("k", ProfileKind.SSP, synthetic_lois(8), 1e-4)
        with pytest.raises(KeyError):
            profile.series("nope")


class TestBinnedMean:
    def test_matches_python_reference_loop(self):
        profile = profile_from_lois("k", ProfileKind.SSP, synthetic_lois(500, seed=9), 1e-4)
        bins = 24
        times, powers = profile.times(), profile.series("total")
        edges = np.linspace(float(times.min()), float(times.max()) + 1e-12, bins + 1)
        which = np.clip(np.digitize(times, edges) - 1, 0, bins - 1)
        expected_centers, expected_means = [], []
        for b in range(bins):
            mask = which == b
            if np.any(mask):
                expected_centers.append(0.5 * (edges[b] + edges[b + 1]))
                expected_means.append(float(np.mean(powers[mask])))
        centers, means = profile.binned_mean(bins=bins)
        assert np.allclose(centers, expected_centers)
        assert np.allclose(means, expected_means)


class TestBinAroundEmptyBin:
    def test_no_hits_reports_explicit_empty_bin(self):
        binner = ExecutionTimeBinner(0.01)
        result = binner.bin_around([10e-6, 11e-6, 12e-6], target_s=50e-6)
        assert result.is_empty
        assert result.num_selected == 0
        assert np.isnan(result.bin_low_s) and np.isnan(result.bin_high_s)

    def test_hits_report_real_bounds(self):
        binner = ExecutionTimeBinner(0.05)
        result = binner.bin_around([10e-6, 10.2e-6, 20e-6], target_s=10e-6)
        assert not result.is_empty
        assert result.selected_indices == (0, 1)
        assert result.bin_low_s == 10e-6 and result.bin_high_s == 10.2e-6
