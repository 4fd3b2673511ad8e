"""Tests for the slim result mode (profiles + summary, no raw runs)."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.profiler import (
    FinGraVProfiler,
    FinGraVResult,
    ProfilerConfig,
    SlimFinGraVResult,
    normalize_profile_sections,
)
from repro.experiments.common import make_backend, make_profiler
from repro.experiments.sweep import ProfileJob, configured_result_mode, execute_job, job_key, kernel_spec
from repro.kernels.workloads import cb_gemm


SMALL_JOB = ProfileJob(
    job_id="slim-test/CB-2K-GEMM",
    kernel=kernel_spec("cb_gemm", 2048),
    runs=10,
    backend_seed=71,
    profiler_seed=171,
    max_additional_runs=40,
)


@pytest.fixture(scope="module")
def full_and_slim() -> tuple[FinGraVResult, SlimFinGraVResult]:
    full = execute_job(dataclasses.replace(SMALL_JOB, result_mode="full"))
    slim = execute_job(dataclasses.replace(SMALL_JOB, result_mode="slim"))
    return full, slim


class TestSlimEquivalence:
    def test_types_and_flags(self, full_and_slim):
        full, slim = full_and_slim
        assert isinstance(full, FinGraVResult) and not full.is_slim
        assert isinstance(slim, SlimFinGraVResult) and slim.is_slim
        assert slim.slim() is slim

    def test_profiles_bit_identical(self, full_and_slim):
        full, slim = full_and_slim
        for attribute in ("ssp_profile", "sse_profile", "run_profile"):
            pf, ps = getattr(full, attribute), getattr(slim, attribute)
            assert len(pf) == len(ps)
            assert np.array_equal(pf.times(), ps.times())
            assert pf.components == ps.components
            for component in pf.components:
                assert np.array_equal(pf.series(component), ps.series(component))

    def test_summary_and_metadata_identical(self, full_and_slim):
        full, slim = full_and_slim
        full_summary = full.summary()
        slim_summary = slim.summary()
        assert full_summary == slim_summary
        assert full.num_runs == slim.num_runs
        assert full.num_golden_runs == slim.num_golden_runs
        assert full.golden_run_indices == slim.golden_run_indices
        assert full.executions_per_run == slim.executions_per_run
        assert full.ssp_loi_count == slim.ssp_loi_count
        if not full.sse_profile.is_empty and not full.ssp_profile.is_empty:
            assert full.sse_vs_ssp_error() == slim.sse_vs_ssp_error()
        else:
            with pytest.raises(ValueError):
                slim.sse_vs_ssp_error()

    def test_slim_projection_of_full_matches_profiler_slim(self, full_and_slim):
        full, slim = full_and_slim
        projected = full.slim()
        assert projected.summary() == slim.summary()
        assert projected.golden_run_indices == slim.golden_run_indices
        assert np.array_equal(
            projected.ssp_profile.times(), slim.ssp_profile.times()
        )

    def test_slim_payload_smaller(self, full_and_slim):
        full, slim = full_and_slim
        full_bytes = len(pickle.dumps(full, protocol=pickle.HIGHEST_PROTOCOL))
        slim_bytes = len(pickle.dumps(slim, protocol=pickle.HIGHEST_PROTOCOL))
        assert slim_bytes < full_bytes
        clone = pickle.loads(pickle.dumps(slim, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone.summary() == slim.summary()

    def test_raw_run_access_raises(self, full_and_slim):
        _, slim = full_and_slim
        with pytest.raises(AttributeError, match="no raw runs"):
            _ = slim.runs
        with pytest.raises(AttributeError, match="no binning"):
            _ = slim.binning


class TestDriverOutputsUnchanged:
    def test_table1_measurement_identical(self, full_and_slim):
        from repro.core.guidance import paper_guidance_table
        from repro.experiments.table1 import _measure_row

        full, slim = full_and_slim
        entry = paper_guidance_table().lookup(full.execution_time_s)
        assert _measure_row(entry, full).to_row() == _measure_row(entry, slim).to_row()

    def test_fig8_style_assembly_identical(self, full_and_slim):
        full, slim = full_and_slim
        for result_pair in zip(
            full.run_profile.binned_mean("total", bins=10),
            slim.run_profile.binned_mean("total", bins=10),
        ):
            assert np.array_equal(*result_pair)
        assert full.ssp_profile.mean_power_w("total") == slim.ssp_profile.mean_power_w("total")


class TestResultModePlumbing:
    def test_unknown_result_mode_rejected(self):
        backend = make_backend(seed=1)
        with pytest.raises(ValueError, match="result_mode"):
            FinGraVProfiler(backend, ProfilerConfig(result_mode="compact"))

    def test_make_profiler_passes_mode_through(self):
        backend = make_backend(seed=1)
        profiler = make_profiler(backend, result_mode="slim")
        assert profiler.config.result_mode == "slim"

    def test_result_mode_changes_cache_key(self):
        assert job_key(SMALL_JOB) != job_key(
            dataclasses.replace(SMALL_JOB, result_mode="slim")
        )

    def test_configured_result_mode_env_override(self, monkeypatch):
        monkeypatch.delenv("FINGRAV_RESULT_MODE", raising=False)
        assert configured_result_mode() == "slim"
        assert configured_result_mode("full") == "full"
        monkeypatch.setenv("FINGRAV_RESULT_MODE", "full")
        assert configured_result_mode() == "full"
        monkeypatch.setenv("FINGRAV_RESULT_MODE", "SLIM")
        assert configured_result_mode("full") == "slim"
        monkeypatch.setenv("FINGRAV_RESULT_MODE", "bogus")
        assert configured_result_mode() == "slim"

    def test_profiler_slim_mode_end_to_end(self):
        backend = make_backend(seed=5)
        profiler = make_profiler(backend, seed=105, max_additional_runs=20, result_mode="slim")
        result = profiler.profile(cb_gemm(2048), runs=6)
        assert isinstance(result, SlimFinGraVResult)
        assert not result.ssp_profile.is_empty


class TestProfileSections:
    def section_result(self, sections) -> SlimFinGraVResult:
        return execute_job(
            dataclasses.replace(
                SMALL_JOB, result_mode="slim", profile_sections=sections
            )
        )

    def test_unknown_section_rejected_early(self):
        backend = make_backend(seed=1)
        with pytest.raises(ValueError, match="unknown profile sections"):
            FinGraVProfiler(
                backend, ProfilerConfig(profile_sections=("ssp", "golden"))
            )
        with pytest.raises(ValueError, match="unknown profile sections"):
            normalize_profile_sections(["bogus"])

    def test_sections_deduplicated_and_canonically_ordered(self):
        assert normalize_profile_sections(None) == ("ssp", "sse", "run")
        assert normalize_profile_sections(("run", "ssp", "run")) == ("ssp", "run")
        assert normalize_profile_sections(()) == ()

    def test_declared_sections_retained_others_raise(self, full_and_slim):
        full, _ = full_and_slim
        result = self.section_result(("ssp", "sse"))
        assert result.sections == ("ssp", "sse")
        assert np.array_equal(result.ssp_profile.times(), full.ssp_profile.times())
        assert np.array_equal(result.sse_profile.times(), full.sse_profile.times())
        with pytest.raises(AttributeError, match="profile_sections"):
            _ = result.run_profile

    def test_empty_sections_keep_summary_and_error(self, full_and_slim):
        full, _ = full_and_slim
        result = self.section_result(())
        assert result.sections == ()
        assert result.profiles == {}
        assert result.summary() == full.summary()
        assert result.ssp_loi_count == full.ssp_loi_count
        if "sse_vs_ssp_error" in full.summary():
            # The error is answered from the snapshot -- same value as live.
            assert result.sse_vs_ssp_error() == full.sse_vs_ssp_error()
        else:
            with pytest.raises(ValueError):
                result.sse_vs_ssp_error()
        # Non-total components have no snapshot: ValueError, not
        # AttributeError (summary_from_result and friends tolerate exactly
        # ValueError).
        with pytest.raises(ValueError, match="snapshot"):
            result.sse_vs_ssp_error("xcd")
        with pytest.raises(AttributeError, match="profile_sections"):
            _ = result.ssp_profile

    def test_run_only_sections_skip_ssp_sse_payload(self, full_and_slim):
        full, _ = full_and_slim
        result = self.section_result(("run",))
        assert result.sections == ("run",)
        assert np.array_equal(result.run_profile.times(), full.run_profile.times())
        # Summary (built from ssp/sse before they were dropped) is intact.
        assert result.summary() == full.summary()

    def test_run_exclusion_skips_run_stitching(self, monkeypatch):
        # When no declared section needs "run", the profiler never builds it.
        from repro.core import stitching as stitching_module

        calls: list[tuple[str, ...]] = []
        real = stitching_module.ProfileStitcher.section_profiles

        def recording(self, series, sections, **kwargs):
            calls.append(tuple(sections))
            return real(self, series, sections, **kwargs)

        monkeypatch.setattr(
            stitching_module.ProfileStitcher, "section_profiles", recording
        )
        self.section_result(("ssp",))
        assert calls == [("ssp", "sse")]  # sse rides along for the summary
        calls.clear()
        execute_job(dataclasses.replace(SMALL_JOB, result_mode="full"))
        assert calls == [("ssp", "sse", "run")]

    def test_sections_ignored_in_full_mode(self):
        # FINGRAV_RESULT_MODE=full must be able to override a slim driver
        # default while its section declaration is still set on the config.
        result = execute_job(
            dataclasses.replace(
                SMALL_JOB, result_mode="full", profile_sections=("ssp",)
            )
        )
        assert isinstance(result, FinGraVResult)
        assert result.run_profile is not None
        assert not result.run_profile.is_empty
        assert not result.ssp_profile.is_empty

    def test_slim_narrowing_and_invalid_widening(self, full_and_slim):
        full, slim = full_and_slim
        narrowed = slim.slim(("ssp",))
        assert narrowed.sections == ("ssp",)
        assert narrowed.summary() == slim.summary()
        only_run = self.section_result(("run",))
        with pytest.raises(ValueError, match="already .*dropped|dropped"):
            only_run.slim(("ssp",))
        with pytest.raises(ValueError, match="never built"):
            # A full result whose run profile was never stitched cannot
            # retain it -- but full results from profile() always have it;
            # simulate via replace.
            dataclasses.replace(full, run_profile=None).slim(("run",))

    def test_sections_change_cache_key(self):
        slim_job = dataclasses.replace(SMALL_JOB, result_mode="slim")
        assert job_key(slim_job) != job_key(
            dataclasses.replace(slim_job, profile_sections=("ssp", "sse"))
        )

    def test_driver_jobs_declare_expected_sections(self):
        from repro.experiments import ablations, fig6, fig7, fig8, fig9, fig10, table1

        assert all(j.profile_sections == ("ssp", "sse") for j in fig7.fig7_jobs())
        assert all(j.profile_sections == () for j in table1.table1_jobs())
        assert all(j.profile_sections == ("run",) for j in fig6.fig6_jobs())
        assert all(j.profile_sections == ("run",) for j in fig8.fig8_jobs())
        assert all(j.profile_sections == ("ssp",) for j in fig10.fig10_jobs())
        assert all(
            j.profile_sections == () for j in ablations.sampler_ablation_jobs()
        )
        fig9_jobs = fig9.fig9_jobs()
        isolated = [j for j in fig9_jobs if j.job_id.startswith("fig9/isolated/")]
        assert isolated and all(j.profile_sections == ("ssp",) for j in isolated)


class TestEmptySSEAssembly:
    """Sweep assembly reports NaN, not an exception, for an empty SSE profile.

    A short kernel can spend its whole budget without an SSE log of
    interest; the slim run-only result then carries no SSE keys in its
    summary snapshot and no profile to compute the error from.
    """

    @pytest.fixture(scope="class")
    def slim(self) -> SlimFinGraVResult:
        """A slim result whose SSE profile is not empty (CB-8K-GEMM)."""
        result = execute_job(
            ProfileJob(
                job_id="slim-test/CB-8K-GEMM",
                kernel=kernel_spec("cb_gemm", 8192),
                runs=12,
                backend_seed=71,
                profiler_seed=171,
                max_additional_runs=20,
                result_mode="slim",
            )
        )
        assert "sse_mean_total_w" in result.summary()
        return result

    @staticmethod
    def without_sse(slim: SlimFinGraVResult) -> SlimFinGraVResult:
        summary = {k: v for k, v in slim.summary_data.items() if not k.startswith("sse_")}
        return dataclasses.replace(
            slim,
            sections=("run",),
            profiles={"run": slim.run_profile},
            summary_data=summary,
        )

    @pytest.mark.parametrize("figure", ["fig6", "fig8"])
    def test_whole_run_figures_report_nan(self, slim, figure):
        import importlib

        module = importlib.import_module(f"repro.experiments.{figure}")
        assemble = getattr(module, f"{figure}_from_results")
        job_id = getattr(module, f"{figure}_jobs")()[0].job_id
        summary = slim.summary()

        result = assemble({job_id: self.without_sse(slim)})
        assert np.isnan(result.sse_power_w) and np.isnan(result.sse_vs_ssp_error)
        assert result.ssp_power_w == summary["ssp_mean_total_w"]
        row = result.summary()
        assert np.isnan(row["sse_total_w"]) and np.isnan(row["sse_vs_ssp_error_pct"])

        # With the SSE keys present nothing changes.
        intact = assemble({job_id: slim})
        assert intact.sse_power_w == summary["sse_mean_total_w"]
        assert intact.sse_vs_ssp_error == summary["sse_vs_ssp_error"]

    def test_sampler_ablation_reports_nan_and_no_takeaway(self, slim):
        from repro.experiments.ablations import sampler_ablation_from_results

        empty = self.without_sse(slim)
        with pytest.raises(ValueError):
            empty.sse_vs_ssp_error()
        for averaging, instantaneous in ((empty, slim), (slim, empty)):
            ablation = sampler_ablation_from_results({
                "ablations/sampler/averaging": averaging,
                "ablations/sampler/instantaneous": instantaneous,
            })
            errors = (ablation.averaging_error, ablation.instantaneous_error)
            assert sum(np.isnan(error) for error in errors) == 1
            assert slim.sse_vs_ssp_error() in errors
            assert ablation.to_row()["split_caused_by_averaging"] is False
