"""Integration tests over the experiment drivers (reduced run budgets).

Each paper figure/table driver is exercised once at a small scale and its
qualitative claims (who wins, which direction, where the crossovers are) are
asserted.  The benchmark harnesses run the same drivers at the paper's scale.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    FAST_SCALE,
    ExperimentScale,
    default_scale,
    execute_job,
    fig9,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_fig10,
    run_sampler_ablation,
    run_table1,
    run_table2,
)

#: Very small budgets so the whole module stays test-suite friendly.
TINY = ExperimentScale(
    name="tiny",
    gemm_runs=40,
    gemv_runs=100,
    collective_runs=40,
    interleaved_runs=30,
    methodology_runs=60,
    reduced_runs=20,
)


@pytest.fixture(scope="module")
def fig7_result():
    return run_fig7(scale=TINY, seed=107)


@pytest.fixture(scope="module")
def fig9_result():
    return run_fig9(scale=TINY, seed=109)


class TestScales:
    def test_default_scale_is_fast(self, monkeypatch):
        monkeypatch.delenv("FINGRAV_SCALE", raising=False)
        assert default_scale().name == "fast"
        monkeypatch.setenv("FINGRAV_SCALE", "paper")
        assert default_scale().name == "paper"

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentScale("bad", 0, 1, 1, 1, 1, 1).validate()


class TestFig5:
    def test_methodology_claims(self):
        result = run_fig5(scale=TINY, seed=105)
        summary = result.summary()
        assert summary["sync_captures_ramp"]
        assert summary["binning_tightens_profile"]
        assert result.differentiation_matters()
        assert result.resilient_to_fewer_runs()


class TestFig6:
    def test_cb8k_shape_and_spread(self):
        result = run_fig6(scale=TINY, seed=106)
        assert result.throttling_detected
        assert result.ssp_executions > 4
        assert result.rise_then_fall_then_rise()
        assert 0.05 < result.sse_vs_ssp_error < 0.35
        assert len(result.rows()) > 10


class TestFig7:
    def test_component_claims(self, fig7_result):
        claims = fig7_result.all_claims()
        assert claims["cb_above_mb_total"]
        assert claims["cb_above_mb_xcd"]
        assert claims["mb8k_stresses_iod"]
        assert claims["cb8k_highest_hbm"]
        assert claims["xcd_similar_across_cb"]
        assert claims["gemv_total_drops_with_size"]

    def test_error_ordering_matches_paper(self, fig7_result):
        errors = fig7_result.errors
        cb2k = errors.record_for("CB-2K-GEMM").power_error
        cb8k = errors.record_for("CB-8K-GEMM").power_error
        assert cb2k > cb8k
        assert errors.max_error() > 0.4

    def test_proportionality_gap(self, fig7_result):
        gap = fig7_result.proportionality.xcd_proportionality_gap("CB-2K-GEMM", "CB-8K-GEMM")
        assert gap > 1.2


class TestFig8:
    def test_cb2k_gradual_rise_and_large_error(self):
        result = run_fig8(scale=TINY, seed=108)
        assert result.gradual_rise()
        assert result.sse_vs_ssp_error > 0.4
        assert result.ssp_executions >= 25


class TestFig9:
    def test_interleaving_expectations(self, fig9_result):
        assert fig9_result.short_kernels_affected_long_not()
        rows = fig9_result.rows()
        assert len(rows) == 5

    def test_directions_match_paper(self, fig9_result):
        assert fig9_result.measurement("MB->2K").direction() == "lower"
        assert fig9_result.measurement("CB->2K").direction() == "higher"
        assert fig9_result.measurement("CB->4K gemv").direction() == "higher"


class TestFig9EmptyScenario:
    """At sweep offset candidate 35 the 'CB->4K gemv' scenario captures no LOI."""

    OFFSET = int.from_bytes(
        hashlib.sha256(repr((2024, "sweep-pool", 35)).encode()).digest()[:4], "big"
    ) >> 1

    def test_reports_nan_and_failed_expectation(self):
        results = {}
        for job in fig9.fig9_jobs(scale=FAST_SCALE):
            job = replace(
                job,
                backend_seed=job.backend_seed + self.OFFSET,
                profiler_seed=job.profiler_seed + self.OFFSET,
            )
            results[job.job_id] = execute_job(job)
        assert results["fig9/interleaved/CB->4K gemv"].is_empty

        result = fig9.fig9_from_results(results)
        measurement = result.measurement("CB->4K gemv")
        assert np.isnan(measurement.interleaved_w) and measurement.lois == 0
        assert measurement.direction() == "unmeasured"
        expectations = result.expectations()
        assert expectations["CB->4K gemv higher than SSP"] is False
        assert result.summary()["all_expectations_hold"] is False
        row = next(row for row in result.rows() if row["scenario"] == "CB->4K gemv")
        assert row["lois"] == 0 and np.isnan(row["interleaved_w"])


class TestFig10:
    def test_collective_claims(self):
        result = run_fig10(scale=TINY, seed=110)
        claims = result.all_claims()
        assert claims["gemm_has_highest_xcd"]
        assert claims["bb_total_between_lb_and_gemm"]
        assert claims["bb_has_higher_iod_and_hbm"]
        assert claims["bb_iod_exceeds_gemm_iod"]
        assert len(result.latency_bound_names) == 4
        assert len(result.bandwidth_bound_names) == 4


class TestTable1:
    def test_guidance_regeneration(self):
        result = run_table1(scale=TINY, seed=101, runs=40)
        rows = result.rows()
        assert len(rows) == 4
        assert result.recommendations_are_sufficient()
        assert result.shorter_kernels_need_more_runs()
        assert len(result.paper_rows()) == 4


class TestTable2:
    def test_all_takeaways_hold(self, fig7_result, fig9_result):
        result = run_table2(scale=TINY, fig7=fig7_result, fig9=fig9_result)
        assert len(result.takeaways) == 5
        assert result.all_hold(), [t.to_row() for t in result.takeaways if not t.holds]


class TestAblations:
    def test_sampler_ablation_collapses_split(self):
        result = run_sampler_ablation(scale=TINY, runs=40)
        assert result.averaging_window_causes_split()
