"""Tests for the parallel experiment sweep engine."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.sweep as sweep_module
from repro.experiments.sweep import (
    KernelSpec,
    ProfileJob,
    SweepJobError,
    SweepRunner,
    default_runner,
    execute_job,
    job_key,
    kernel_spec,
    main,
    run_sweep,
)


def small_jobs() -> list[ProfileJob]:
    """Two genuinely small profile jobs (shared by the determinism tests)."""
    return [
        ProfileJob(
            job_id="test/CB-2K-GEMM",
            kernel=kernel_spec("cb_gemm", 2048),
            runs=10,
            backend_seed=51,
            profiler_seed=151,
            max_additional_runs=40,
        ),
        ProfileJob(
            job_id="test/CB-4K-GEMM",
            kernel=kernel_spec("cb_gemm", 4096),
            runs=10,
            backend_seed=52,
            profiler_seed=152,
            max_additional_runs=40,
        ),
    ]


def assert_result_maps_identical(left, right) -> None:
    assert set(left) == set(right)
    for job_id in left:
        a, b = left[job_id], right[job_id]
        for attribute in ("ssp_profile", "sse_profile", "run_profile"):
            pa, pb = getattr(a, attribute), getattr(b, attribute)
            assert len(pa) == len(pb)
            assert np.array_equal(pa.times(), pb.times())
            assert pa.components == pb.components
            for component in pa.components:
                assert np.array_equal(pa.series(component), pb.series(component))
        assert a.num_runs == b.num_runs
        assert a.golden_run_indices == b.golden_run_indices


class TestKernelSpec:
    def test_builds_registered_kernels(self):
        assert kernel_spec("cb_gemm", 2048).build().name == "CB-2K-GEMM"
        assert kernel_spec("mb_gemv", 8192).build().name == "MB-8K-GEMV"
        assert (
            kernel_spec("square_gemm", 6144, name="CB-6K-GEMM").build().name
            == "CB-6K-GEMM"
        )
        assert kernel_spec("collective", "AG-64KB").build().name == "AG-64KB"

    def test_unknown_builder_rejected(self):
        with pytest.raises(KeyError):
            KernelSpec(key="warp_drive").build()


class TestJobKey:
    def test_content_keyed_not_id_keyed(self):
        job = small_jobs()[0]
        renamed = ProfileJob(**{**job.__dict__, "job_id": "other/name"})
        assert job_key(job) == job_key(renamed)

    def test_any_config_field_changes_the_key(self):
        job = small_jobs()[0]
        changes = (
            ("kernel", kernel_spec("cb_gemm", 4096)), ("runs", 11),
            ("backend_seed", 99), ("profiler_seed", 99),
            ("sampler", "instantaneous"), ("synchronize", False),
            ("apply_binning", False), ("differentiate", False),
            ("max_additional_runs", 41),
            ("preceding", ((kernel_spec("cb_gemm", 4096), 2),)),
            ("interleave_seed", 7), ("min_lois", 6), ("max_runs", 50),
            ("result_mode", "slim"), ("profile_sections", ("ssp",)),
            ("adaptive", True),
        )
        for field, value in changes:
            changed = ProfileJob(**{**job.__dict__, field: value})
            assert job_key(job) != job_key(changed), field
        # A study job may not bin or differentiate, so it varies a raw job.
        raw = dataclasses.replace(job, apply_binning=False, differentiate=False)
        assert job_key(raw) != job_key(dataclasses.replace(raw, study="coarse_coverage"))
        covered = {field for field, _ in changes} | {"job_id", "study"}
        assert covered == {f.name for f in dataclasses.fields(ProfileJob)}

    def test_every_config_field_changes_the_key(self, monkeypatch):
        """Any field of either built config -- a future one too -- is keyed."""

        def perturb(value):
            if value is None:
                return 1
            if isinstance(value, bool):
                return not value
            if isinstance(value, float):
                return math.nextafter(value, math.inf)
            if isinstance(value, int):
                return value + 1
            if isinstance(value, str):
                return value + "-perturbed"
            return value[:-1]

        job = small_jobs()[0]
        profiler_config, backend_config = job.configs()
        baseline = job_key(job)
        for index, config in enumerate((profiler_config, backend_config)):
            for f in dataclasses.fields(config):
                configs = [profiler_config, backend_config]
                configs[index] = dataclasses.replace(
                    config, **{f.name: perturb(getattr(config, f.name))}
                )
                monkeypatch.setattr(ProfileJob, "configs", lambda self, c=tuple(configs): c)
                assert job_key(job) != baseline, f"{type(config).__name__}.{f.name}"

    def test_reference_engine_keys_differently(self, monkeypatch):
        job = small_jobs()[0]
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        compiled = job_key(job)
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert job.configs()[1].engine == "reference"
        assert job_key(job) != compiled

    def test_reference_rerun_recomputes_a_compiled_cache(self, tmp_path, monkeypatch):
        jobs = small_jobs()
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        SweepRunner(workers=1, cache_dir=tmp_path).run(jobs)
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        rerun = SweepRunner(workers=1, cache_dir=tmp_path)
        rerun.run(jobs)
        assert rerun.cache_hits == 0
        assert rerun.last_manifest["counts"]["recomputed"] == len(jobs)


class TestKeyedConfigs:
    def test_execute_job_runs_the_configs_it_is_keyed_by(self, monkeypatch):
        """The profiler and every backend a job builds take ``job.configs()``."""
        from repro.core.profiler import FinGraVProfiler
        from repro.experiments.ablations import drift_sensitivity_jobs
        from repro.gpu.backend import SimulatedDeviceBackend

        built: dict[str, list] = {"profiler": [], "backend": []}
        real_profiler_init = FinGraVProfiler.__init__
        real_backend_init = SimulatedDeviceBackend.__init__

        def profiler_init(profiler, *args, **kwargs):
            real_profiler_init(profiler, *args, **kwargs)
            built["profiler"].append(profiler.config)

        def backend_init(backend, *args, config=None, **kwargs):
            real_backend_init(backend, *args, config=config, **kwargs)
            built["backend"].append(config)

        monkeypatch.setattr(FinGraVProfiler, "__init__", profiler_init)
        monkeypatch.setattr(SimulatedDeviceBackend, "__init__", backend_init)
        plain = small_jobs()[0]
        interleaved = ProfileJob(
            job_id="test/interleaved",
            kernel=kernel_spec("cb_gemm", 2048),
            runs=8,
            backend_seed=61,
            profiler_seed=161,
            result_mode="slim",
            adaptive=True,
            preceding=((kernel_spec("cb_gemm", 4096), 4),),
            interleave_seed=261,
            max_runs=120,
        )
        study = drift_sensitivity_jobs(runs=2)[0]
        for job, profilers, backends in ((plain, 1, 1), (interleaved, 1, 1), (study, 0, 4)):
            built["profiler"].clear()
            built["backend"].clear()
            profiler_config, backend_config = job.configs()
            execute_job(job)
            assert built["profiler"] == [profiler_config] * profilers, job.job_id
            assert built["backend"] == [backend_config] * backends, job.job_id
        # The interleaving study profiles in full, fixed-count mode.
        assert interleaved.configs()[0].result_mode == "full"
        assert interleaved.configs()[0].adaptive is False


class TestSweepRunner:
    @pytest.fixture(scope="class")
    def serial_results(self):
        return SweepRunner(workers=1).run(small_jobs())

    def test_serial_matches_direct_execution(self, serial_results):
        direct = {job.job_id: execute_job(job) for job in small_jobs()}
        assert_result_maps_identical(serial_results, direct)

    def test_parallel_matches_serial(self, serial_results):
        parallel = SweepRunner(workers=2).run(small_jobs())
        assert_result_maps_identical(serial_results, parallel)

    def test_duplicate_identical_jobs_deduplicated(self, serial_results):
        jobs = small_jobs() + small_jobs()
        results = SweepRunner(workers=1).run(jobs)
        assert set(results) == {job.job_id for job in small_jobs()}

    def test_conflicting_job_ids_rejected(self):
        first, second = small_jobs()
        clashing = ProfileJob(**{**second.__dict__, "job_id": first.job_id})
        with pytest.raises(ValueError):
            SweepRunner(workers=1).run([first, clashing])

    def test_cache_replays_results(self, tmp_path, serial_results):
        cache_dir = tmp_path / "profile-cache"
        warm = SweepRunner(workers=1, cache_dir=cache_dir)
        first = warm.run(small_jobs())
        assert warm.cache_hits == 0
        assert sorted(cache_dir.glob("*.pkl"))
        replay = SweepRunner(workers=1, cache_dir=cache_dir)
        second = replay.run(small_jobs())
        assert replay.cache_hits == len(small_jobs())
        assert_result_maps_identical(first, second)
        assert_result_maps_identical(second, serial_results)

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache_dir = tmp_path / "profile-cache"
        runner = SweepRunner(workers=1, cache_dir=cache_dir)
        runner.run(small_jobs()[:1])
        for entry in cache_dir.glob("*.pkl"):
            entry.write_bytes(b"not a pickle")
        retry = SweepRunner(workers=1, cache_dir=cache_dir)
        results = retry.run(small_jobs()[:1])
        assert retry.cache_hits == 0
        assert set(results) == {small_jobs()[0].job_id}

    def test_manually_truncated_entry_quarantined(self, tmp_path):
        cache_dir = tmp_path / "cache"
        SweepRunner(workers=1, cache_dir=cache_dir).run(small_jobs()[:1])
        (entry,) = cache_dir.glob("*.pkl")
        entry.write_bytes(entry.read_bytes()[:10])  # truncated write
        retry = SweepRunner(workers=1, cache_dir=cache_dir)
        results = retry.run(small_jobs()[:1])
        assert retry.cache_hits == 0
        assert set(results) == {small_jobs()[0].job_id}
        assert entry.with_name(entry.name + ".corrupt").exists()
        counts = retry.last_manifest["counts"]
        assert counts["quarantined"] == 1 and counts["recomputed"] == 1
        # The recompute re-stored a healthy entry at the same path.
        replay = SweepRunner(workers=1, cache_dir=cache_dir)
        replay.run(small_jobs()[:1])
        assert replay.cache_hits == 1

    def test_entry_with_a_persistent_id_quarantined(self, tmp_path, serial_results):
        # Cache entries are plain pickles.  An entry whose large profile
        # columns were spilled to a sidecar (an older cache layout) holds a
        # pickle persistent id, which a plain load cannot resolve.
        class Spilled:
            pass

        class SpillingPickler(pickle.Pickler):
            def persistent_id(self, obj):
                return ("fingrav-columns", 0) if isinstance(obj, Spilled) else None

        job = small_jobs()[0]
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        entry = runner._cache_path(job)
        buffer = io.BytesIO()
        SpillingPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump({"columns": Spilled()})
        entry.write_bytes(buffer.getvalue())
        results = runner.run([job])
        assert runner.cache_hits == 0
        counts = runner.last_manifest["counts"]
        assert counts["quarantined"] == 1 and counts["recomputed"] == 1
        assert entry.with_name(entry.name + ".corrupt").exists()
        assert_result_maps_identical(results, {job.job_id: serial_results[job.job_id]})
        replay = SweepRunner(workers=1, cache_dir=tmp_path)
        replay.run([job])
        assert replay.cache_hits == 1

    def test_entries_are_plain_pickles(self, tmp_path, serial_results):
        job = small_jobs()[0]
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        runner.run([job])
        stored = runner._cache_path(job).read_bytes()
        assert stored == pickle.dumps(serial_results[job.job_id], protocol=pickle.HIGHEST_PROTOCOL)
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            [runner._cache_path(job).name, "manifest.json"]
        )


def adaptive_jobs() -> list[ProfileJob]:
    """Jobs with convergence-driven early stopping enabled."""
    return [
        ProfileJob(
            job_id="test/CB-8K-GEMM-adaptive",
            kernel=kernel_spec("cb_gemm", 8192),
            runs=40,
            backend_seed=12,
            profiler_seed=212,
            max_additional_runs=300,
            adaptive=True,
        ),
        ProfileJob(
            job_id="test/CB-2K-GEMM-adaptive",
            kernel=kernel_spec("cb_gemm", 2048),
            runs=10,
            backend_seed=51,
            profiler_seed=151,
            max_additional_runs=40,
            adaptive=True,
        ),
    ]


class TestAdaptiveSweepDeterminism:
    """The adaptive stopping rule must not break sweep reproducibility."""

    @pytest.fixture(scope="class")
    def serial_adaptive(self):
        return SweepRunner(workers=1).run(adaptive_jobs())

    def test_adaptive_flag_changes_the_cache_key(self):
        job = adaptive_jobs()[0]
        fixed = ProfileJob(**{**job.__dict__, "adaptive": False})
        assert job_key(job) != job_key(fixed)

    def test_parallel_matches_serial(self, serial_adaptive):
        parallel = SweepRunner(workers=2).run(adaptive_jobs())
        assert_result_maps_identical(serial_adaptive, parallel)
        for job_id in serial_adaptive:
            assert (
                sweep_module._collection_audit(serial_adaptive[job_id])
                == sweep_module._collection_audit(parallel[job_id])
            )

    def test_stopping_decisions_recorded(self, serial_adaptive):
        audits = {
            job_id: sweep_module._collection_audit(result)
            for job_id, result in serial_adaptive.items()
        }
        assert all(audit is not None for audit in audits.values())
        assert all(audit["adaptive"] for audit in audits.values())
        # The long kernel converges well inside its planned 40 runs.
        converged = audits["test/CB-8K-GEMM-adaptive"]
        assert converged["stop_reason"] == "converged"
        assert converged["runs_saved"] > 0

    def test_adaptive_results_differ_from_fixed(self, serial_adaptive):
        # Early stopping genuinely changes collection for the converging job.
        fixed_job = ProfileJob(
            **{**adaptive_jobs()[0].__dict__, "adaptive": False}
        )
        fixed = execute_job(fixed_job)
        adaptive = serial_adaptive[fixed_job.job_id]
        assert adaptive.num_runs < fixed.num_runs


def _exit_once_cached(cache_dir: str) -> object:
    """Kernel builder that kills its worker once another job's entry is cached."""
    deadline = time.monotonic() + 60.0
    while not list(Path(cache_dir).glob("*.pkl")) and time.monotonic() < deadline:
        time.sleep(0.01)
    os._exit(77)


def failing_job(job_id: str = "test/failing") -> ProfileJob:
    """A job whose kernel build raises inside execute_job (any process)."""
    return ProfileJob(
        job_id=job_id,
        kernel=KernelSpec(key="no-such-kernel"),
        runs=4,
        backend_seed=1,
        profiler_seed=2,
    )


class TestPartialFailureRecovery:
    def test_surviving_jobs_returned_and_failure_named(self, tmp_path):
        cache_dir = tmp_path / "cache"
        runner = SweepRunner(workers=1, cache_dir=cache_dir)
        good = small_jobs()[0]
        with pytest.raises(SweepJobError) as excinfo:
            runner.run([good, failing_job()])
        error = excinfo.value
        assert "test/failing" in str(error)
        assert set(error.failures) == {"test/failing"}
        failure = error.failures["test/failing"]
        assert failure.exc_type == "KeyError"
        assert "Traceback" in failure.traceback  # debuggable across processes
        assert "KeyError" in str(failure)
        # The good job finished, was returned, and was cached for replay.
        assert set(error.completed) == {good.job_id}
        replay = SweepRunner(workers=1, cache_dir=cache_dir)
        results = replay.run([good])
        assert replay.cache_hits == 1
        assert_result_maps_identical(results, {good.job_id: error.completed[good.job_id]})

    def test_parallel_pool_survives_one_failure(self):
        jobs = small_jobs() + [failing_job()]
        with pytest.raises(SweepJobError) as excinfo:
            SweepRunner(workers=2).run(jobs)
        assert set(excinfo.value.completed) == {job.job_id for job in small_jobs()}
        failure = excinfo.value.failures["test/failing"]
        assert failure.exc_type == "KeyError"
        assert "Traceback" in failure.traceback  # formatted in the worker

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crashing kernel builder reaches the workers only by fork",
    )
    def test_worker_crash_fails_unfinished_jobs_and_keeps_finished_ones(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setitem(sweep_module.KERNEL_BUILDERS, "crash", _exit_once_cached)
        good = small_jobs()[0]
        crashing = ProfileJob(
            job_id="test/crash",
            kernel=kernel_spec("crash", str(cache_dir)),
            runs=4,
            backend_seed=1,
            profiler_seed=2,
        )
        runner = SweepRunner(workers=2, cache_dir=cache_dir)
        with pytest.raises(SweepJobError) as excinfo:
            runner.run([good, crashing])
        error = excinfo.value
        assert set(error.failures) == {"test/crash"}
        assert error.failures["test/crash"].exc_type == "BrokenProcessPool"
        assert set(error.completed) == {good.job_id}
        counts = runner.last_manifest["counts"]
        assert counts["failed"] == 1 and counts["recomputed"] == 1
        replay = SweepRunner(workers=1, cache_dir=cache_dir)
        results = replay.run([good])
        assert replay.cache_hits == 1
        assert_result_maps_identical(results, {good.job_id: error.completed[good.job_id]})

    def test_multiple_failures_all_reported(self):
        with pytest.raises(SweepJobError) as excinfo:
            SweepRunner(workers=1).run([failing_job("test/f1"), failing_job("test/f2")])
        assert set(excinfo.value.failures) == {"test/f1", "test/f2"}

    def test_run_sweep_salvages_assembled_experiments(self, monkeypatch):
        """Experiments whose jobs all completed are assembled onto the error."""
        from repro.experiments import fig6, fig8

        good = ProfileJob(
            job_id="fig6/CB-8K-GEMM",
            kernel=kernel_spec("cb_gemm", 4096),
            runs=10,
            backend_seed=81,
            profiler_seed=181,
            max_additional_runs=40,
        )
        monkeypatch.setattr(fig6, "fig6_jobs", lambda scale=None, **kw: [good])
        monkeypatch.setattr(
            fig8, "fig8_jobs",
            lambda scale=None, **kw: [failing_job("fig8/CB-2K-GEMM")],
        )
        with pytest.raises(SweepJobError) as excinfo:
            run_sweep(["fig6", "fig8"], runner=SweepRunner(workers=1))
        error = excinfo.value
        assert set(error.failures) == {"fig8/CB-2K-GEMM"}
        assert set(error.assembled) == {"fig6"}  # fig6 survived and assembled
        assert error.assembled["fig6"].summary()["kernel"] == "CB-4K-GEMM"


class TestCacheStagingHardening:
    def test_staging_names_unique_per_write(self, tmp_path, monkeypatch):
        """Two writers (even same-process) never share a staging path."""
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        job = small_jobs()[0]
        staged: list[str] = []
        real_replace = Path.replace

        def recording_replace(path, target):
            staged.append(path.name)
            return real_replace(path, target)

        monkeypatch.setattr(Path, "replace", recording_replace)
        runner._cache_store(job, "payload-1")
        runner._cache_store(job, "payload-2")
        assert len(staged) == 2 and staged[0] != staged[1]
        assert all(f".{os.getpid()}-" in name for name in staged)
        # Both writes landed atomically on the same final entry.
        assert runner._cache_load(job) == "payload-2"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_concurrent_writers_leave_valid_entry_and_no_strays(self, tmp_path):
        job = small_jobs()[0]
        runners = [SweepRunner(workers=1, cache_dir=tmp_path) for _ in range(2)]

        def hammer(runner, payload):
            for _ in range(50):
                runner._cache_store(job, payload)

        threads = [
            threading.Thread(target=hammer, args=(runner, f"payload-{i}"))
            for i, runner in enumerate(runners)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Whatever won, the entry must unpickle cleanly (no interleaved
        # staging writes) and no staging files may remain.
        assert runners[0]._cache_load(job) in {"payload-0", "payload-1"}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_stale_staging_strays_cleaned(self, tmp_path):
        job = small_jobs()[0]
        stale = tmp_path / f"{job_key(job)}.pkl.1234-0.tmp"
        fresh = tmp_path / f"{job_key(job)}.pkl.5678-0.tmp"
        stale.write_bytes(b"dead writer")
        fresh.write_bytes(b"live writer")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        runner.run([small_jobs()[0]])
        assert not stale.exists()  # orphan removed
        assert fresh.exists()  # live staging untouched


class TestInterleavedJobs:
    def test_interleaved_job_returns_profile(self):
        job = ProfileJob(
            job_id="test/interleaved",
            kernel=kernel_spec("cb_gemm", 2048),
            runs=8,
            backend_seed=61,
            profiler_seed=161,
            preceding=((kernel_spec("cb_gemm", 4096), 4),),
            interleave_seed=261,
            max_runs=120,
        )
        profile = execute_job(job)
        assert not profile.is_empty
        assert profile.kernel_name == "CB-2K-GEMM"
        # Deterministic re-execution.
        again = execute_job(job)
        assert np.array_equal(profile.times(), again.times())
        assert np.array_equal(profile.series(), again.series())


class TestRunSweep:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(["fig99"])


def study_jobs() -> list[ProfileJob]:
    from repro.experiments import ablations

    return ablations.coarse_coverage_jobs() + ablations.drift_sensitivity_jobs()


class TestStudyJobs:
    """The coverage and drift studies run as cached jobs."""

    def test_default_jobs_reproduce_direct_calls(self):
        from repro.experiments.ablations import run_coarse_coverage, run_drift_sensitivity

        coverage, drift = (execute_job(job) for job in study_jobs())
        direct_coverage = run_coarse_coverage()
        direct_drift = run_drift_sensitivity()
        assert coverage == direct_coverage
        assert coverage.to_row() == direct_coverage.to_row()
        assert drift == direct_drift
        assert drift.rows() == direct_drift.rows()

    @pytest.mark.parametrize("offset", [1, 977, 123457])
    def test_offset_seeds_replay_from_cache(self, tmp_path, offset):
        jobs = [
            dataclasses.replace(
                job,
                backend_seed=job.backend_seed + offset,
                profiler_seed=job.profiler_seed + offset,
            )
            for job in study_jobs()
        ]
        cold = SweepRunner(workers=1, cache_dir=tmp_path).run(jobs)
        warm_runner = SweepRunner(workers=1, cache_dir=tmp_path)
        warm = warm_runner.run(jobs)
        assert warm_runner.cache_hits == len(jobs)
        assert warm == cold
        assert all(result.summary() for result in warm.values())

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"study": "no-such-study"}, "unknown study"),
            ({"apply_binning": True}, "apply_binning"),
            ({"differentiate": True}, "differentiate"),
            ({"adaptive": True}, "adaptive"),
            ({"interleave_seed": 7}, "interleave_seed"),
            ({"preceding": ((kernel_spec("cb_gemm", 4096), 2),)}, "preceding"),
            # The ProfileJob defaults claim binning and differentiation.
            ({"apply_binning": True, "differentiate": True}, "apply_binning, differentiate"),
        ],
    )
    def test_misuse_rejected(self, overrides, match):
        job = study_jobs()[0]
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(job, **overrides)


class TestWarmReplay:
    def test_warm_replay_simulates_nothing_and_keys_each_job_once(
        self, tmp_path, monkeypatch
    ):
        """A fully cached sweep replays every experiment without the device."""
        from repro.experiments.common import TINY_SCALE
        from repro.gpu.backend import SimulatedDeviceBackend

        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        cold = run_sweep(sweep_module.EXPERIMENT_NAMES, scale=TINY_SCALE, runner=runner)
        jobs = runner.last_manifest["counts"]["jobs"]

        calls = {"run": 0, "job_key": 0}
        real_run, real_key = SimulatedDeviceBackend.run, sweep_module.job_key

        def counting_run(backend, *args, **kwargs):
            calls["run"] += 1
            return real_run(backend, *args, **kwargs)

        def counting_key(job):
            calls["job_key"] += 1
            return real_key(job)

        monkeypatch.setattr(SimulatedDeviceBackend, "run", counting_run)
        monkeypatch.setattr(sweep_module, "job_key", counting_key)
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        warm = run_sweep(sweep_module.EXPERIMENT_NAMES, scale=TINY_SCALE, runner=runner)
        assert calls["run"] == 0
        assert calls["job_key"] == jobs
        assert runner.last_manifest["counts"]["recomputed"] == 0
        assert runner.cache_hits == jobs
        summaries = [
            {name: sweep_module._summarize(name, result) for name, result in side.items()}
            for side in (cold, warm)
        ]
        assert summaries[0] == summaries[1]


class TestFig9ScenarioTable:
    def test_job_specs_match_workloads_scenarios(self):
        """fig9's picklable scenario table must mirror the canonical one."""
        from repro.experiments.fig9 import _SCENARIOS
        from repro.kernels.workloads import interleaving_scenarios

        canonical = interleaving_scenarios()
        assert len(_SCENARIOS) == len(canonical)
        for (label, spec, preceding), scenario in zip(_SCENARIOS, canonical):
            assert label == scenario.label
            assert spec.build().name == scenario.kernel_of_interest.name
            assert [(p.build().name, count) for p, count in preceding] == [
                (kernel.name, count) for kernel, count in scenario.preceding
            ]


class TestCommandLine:
    def test_module_entry_point_runs_without_warnings(self):
        # The package re-exports resolve lazily, so running the sweep module
        # with -m does not find it already imported (runpy's RuntimeWarning).
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        completed = subprocess.run(
            [sys.executable, "-W", "error", "-m", "repro.experiments.sweep", "--help"],
            env=env, capture_output=True, text=True,
        )
        assert completed.returncode == 0, completed.stderr
        assert "usage" in completed.stdout

    def test_package_import_loads_no_experiment_module(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        script = (
            "import sys, repro.experiments as e; "
            "assert 'repro.experiments.sweep' not in sys.modules; "
            "assert e.run_sweep is sys.modules['repro.experiments.sweep'].run_sweep"
        )
        subprocess.run([sys.executable, "-c", script], env=env, check=True)


class TestManifest:
    def test_written_next_to_cache_with_provenance(self, tmp_path):
        cache_dir = tmp_path / "cache"
        runner = SweepRunner(workers=1, cache_dir=cache_dir)
        runner.run(small_jobs())
        manifest_path = cache_dir / "manifest.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == 3
        assert manifest["workers"] == 1
        assert "engine" in manifest and "provider" in manifest["engine"]
        assert manifest["counts"]["recomputed"] == 2
        for job in small_jobs():
            entry = manifest["jobs"][job.job_id]
            assert entry["status"] == "recomputed"
            assert entry["cache_stored"]
            assert entry["seconds"] > 0
        # Replay flips every job to a hit.
        replay = SweepRunner(workers=1, cache_dir=cache_dir)
        replay.run(small_jobs())
        manifest = json.loads(manifest_path.read_text())
        assert manifest["counts"]["hits"] == 2

    def test_last_manifest_populated_without_cache(self):
        runner = SweepRunner(workers=1)
        runner.run(small_jobs()[:1])
        assert runner.manifest_path is None
        manifest = runner.last_manifest
        assert manifest["counts"]["recomputed"] == 1
        assert not manifest["interrupted"]

    def test_failed_jobs_recorded(self):
        runner = SweepRunner(workers=1)
        with pytest.raises(SweepJobError):
            runner.run(small_jobs()[:1] + [failing_job()])
        manifest = runner.last_manifest
        assert manifest["counts"]["failed"] == 1
        entry = manifest["jobs"]["test/failing"]
        assert entry["status"] == "failed"
        assert "KeyError" in entry["error"]

    def test_interrupt_flushes_partial_manifest(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        runner = SweepRunner(workers=1, cache_dir=cache_dir)

        calls = {"n": 0}
        real = sweep_module.execute_job

        def interrupting(job):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real(job)

        monkeypatch.setattr(sweep_module, "execute_job", interrupting)
        with pytest.raises(KeyboardInterrupt):
            runner.run(small_jobs())
        manifest = json.loads((cache_dir / "manifest.json").read_text())
        assert manifest["interrupted"]
        statuses = {job_id: entry["status"] for job_id, entry in manifest["jobs"].items()}
        assert statuses["test/CB-2K-GEMM"] == "recomputed"  # finished before ^C
        assert statuses["test/CB-4K-GEMM"] == "pending"


class TestWorkersValidation:
    def test_runner_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            SweepRunner(workers=0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            SweepRunner(workers=-2)

    def test_default_runner_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv("FINGRAV_WORKERS", "0")
        with pytest.raises(ValueError, match="FINGRAV_WORKERS"):
            default_runner()
        monkeypatch.setenv("FINGRAV_WORKERS", "two")
        with pytest.raises(ValueError, match="FINGRAV_WORKERS"):
            default_runner()

    def test_cli_rejects_bad_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--experiments", "table1", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
