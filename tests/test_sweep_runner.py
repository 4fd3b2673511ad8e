"""Unit tests for the sweep runner's kept machinery.

These pin the pieces of :mod:`repro.experiments.sweep` around job execution
-- failure records, the guarded executor, cache quarantine and staging, the
run manifest, pool dispatch, worker-count parsing and the CLI exit paths --
with a cheap stand-in for :func:`execute_job` wherever the profiler itself
is not under test.  ``tests/test_sweep.py`` covers the same runner end to
end on real profile jobs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import threading
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import repro.experiments as experiments_package
import repro.experiments.sweep as sweep_module
from repro.experiments.sweep import (
    MANIFEST_SCHEMA,
    EXPERIMENT_NAMES,
    JobFailure,
    KernelSpec,
    ProfileJob,
    SweepConfig,
    SweepJobError,
    SweepRunner,
    configured_adaptive,
    default_runner,
    kernel_spec,
    main,
)


@dataclass(frozen=True)
class Outcome:
    """A small picklable stand-in for a job result."""

    value: int
    metadata: dict = field(default_factory=dict)


def unit_job(index: int) -> ProfileJob:
    return ProfileJob(
        job_id=f"unit/{index}",
        kernel=kernel_spec("cb_gemm", 2048),
        runs=4,
        backend_seed=index,
        profiler_seed=100 + index,
    )


def cheap_execute(job: ProfileJob) -> Outcome:
    """Deterministic in the job alone, like the real execute_job."""
    return Outcome(value=job.backend_seed)


@pytest.fixture
def cheap_jobs(monkeypatch):
    monkeypatch.setattr(sweep_module, "execute_job", cheap_execute)


def _raise_key_error() -> None:
    raise KeyError("no such kernel")


class TestJobFailure:
    def test_from_exception_keeps_type_message_and_traceback(self):
        try:
            _raise_key_error()
        except KeyError as exc:
            failure = JobFailure.from_exception(exc)
        assert failure.exc_type == "KeyError"
        assert failure.message == "'no such kernel'"
        assert failure.traceback.startswith("Traceback")
        assert "_raise_key_error" in failure.traceback

    def test_summary_line_is_the_first_message_line(self):
        failure = JobFailure("ValueError", "first line\nsecond line")
        assert failure.summary_line == "ValueError: first line"

    def test_str_without_traceback_is_the_summary_line(self):
        assert str(JobFailure("ValueError", "bad knob")) == "ValueError: bad knob"

    def test_str_with_traceback_appends_it(self):
        failure = JobFailure("ValueError", "bad knob", "Traceback (most recent call last):\n")
        assert str(failure) == "ValueError: bad knob\nTraceback (most recent call last):\n"

    def test_round_trips_through_pickle(self):
        try:
            _raise_key_error()
        except KeyError as exc:
            failure = JobFailure.from_exception(exc)
        assert pickle.loads(pickle.dumps(failure)) == failure

    def test_pool_failures_carry_the_worker_traceback(self):
        failing = [
            ProfileJob(
                job_id=f"unit/failing-{i}",
                kernel=KernelSpec(key="no-such-kernel"),
                runs=4,
                backend_seed=i,
                profiler_seed=i,
            )
            for i in range(2)
        ]
        with pytest.raises(SweepJobError) as excinfo:
            SweepRunner(workers=2).run(failing)
        assert set(excinfo.value.failures) == {job.job_id for job in failing}
        for failure in excinfo.value.failures.values():
            assert failure.exc_type == "KeyError"
            assert "in build" in failure.traceback
            assert "unknown kernel builder 'no-such-kernel'" in failure.traceback


class TestGuardedExecution:
    def test_success_returns_the_result_and_its_run_time(self, cheap_jobs):
        result, failure, seconds = sweep_module._execute_job_guarded(unit_job(3))
        assert result == Outcome(value=3)
        assert failure is None
        assert seconds >= 0.0

    def test_failure_is_returned_not_raised(self, monkeypatch):
        def broken(job):
            raise RuntimeError("device lost")

        monkeypatch.setattr(sweep_module, "execute_job", broken)
        result, failure, _ = sweep_module._execute_job_guarded(unit_job(1))
        assert result is None
        assert failure.summary_line == "RuntimeError: device lost"
        assert "in broken" in failure.traceback

    def test_looks_up_execute_job_at_call_time(self, monkeypatch):
        guarded = sweep_module._execute_job_guarded
        monkeypatch.setattr(sweep_module, "execute_job", lambda job: "patched")
        assert guarded(unit_job(1))[0] == "patched"

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupted(job):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_module, "execute_job", interrupted)
        with pytest.raises(KeyboardInterrupt):
            sweep_module._execute_job_guarded(unit_job(1))


class TestSweepJobError:
    def test_message_names_failures_and_counts_completed(self):
        error = SweepJobError(
            {"b/job": JobFailure("KeyError", "'x'"), "a/job": JobFailure("ValueError", "y")},
            {"c/job": Outcome(1)},
        )
        text = str(error)
        assert text.startswith("2 sweep job(s) failed (a/job, b/job); 1 completed")
        assert "First failure: KeyError: 'x'" in text

    def test_assembled_starts_empty(self):
        error = SweepJobError({"a/job": JobFailure("KeyError", "'x'")}, {})
        assert error.assembled == {}
        assert error.completed == {}

    def test_holds_copies_of_its_inputs(self):
        failures = {"a/job": JobFailure("KeyError", "'x'")}
        completed = {"c/job": Outcome(1)}
        error = SweepJobError(failures, completed)
        failures.clear()
        completed.clear()
        assert set(error.failures) == {"a/job"}
        assert set(error.completed) == {"c/job"}


#: Damaged cache entries a load must survive: (name, bytes).
CORRUPT_ENTRIES = {
    "empty": b"",
    "garbage": b"not a pickle",
    "truncated": pickle.dumps(Outcome(value=0), protocol=pickle.HIGHEST_PROTOCOL)[:10],
    "missing-class": b"cno_such_module_for_sweep_tests\nThing\n.",
}


class TestCacheQuarantine:
    @pytest.mark.parametrize("kind", sorted(CORRUPT_ENTRIES))
    def test_damaged_entry_quarantined_and_recomputed(self, tmp_path, cheap_jobs, kind):
        job = unit_job(7)
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        entry = runner._cache_path(job)
        entry.write_bytes(CORRUPT_ENTRIES[kind])
        results = runner.run([job])
        assert results == {job.job_id: Outcome(value=7)}
        assert runner.cache_hits == 0
        counts = runner.last_manifest["counts"]
        assert counts["quarantined"] == 1 and counts["recomputed"] == 1
        events = runner.last_manifest["jobs"][job.job_id]["events"]
        assert any(event.startswith(f"cache-quarantined {entry.name} (") for event in events)
        assert entry.with_name(entry.name + ".corrupt").read_bytes() == CORRUPT_ENTRIES[kind]
        assert pickle.loads(entry.read_bytes()) == Outcome(value=7)

    def test_unlinks_the_entry_when_the_rename_fails(self, tmp_path, cheap_jobs, monkeypatch):
        job = unit_job(7)
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        entry = runner._cache_path(job)
        entry.write_bytes(b"not a pickle")
        real_replace = Path.replace

        def no_corrupt_rename(path, target):
            if str(target).endswith(".corrupt"):
                raise OSError("read-only directory")
            return real_replace(path, target)

        monkeypatch.setattr(Path, "replace", no_corrupt_rename)
        runner.run([job])
        assert runner.last_manifest["counts"]["quarantined"] == 1
        assert list(tmp_path.glob("*.corrupt")) == []
        assert pickle.loads(entry.read_bytes()) == Outcome(value=7)

    def test_load_without_a_manifest_still_quarantines(self, tmp_path):
        job = unit_job(7)
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        entry = runner._cache_path(job)
        entry.write_bytes(b"not a pickle")
        assert runner._cache_load(job) is None
        assert not entry.exists()
        assert entry.with_name(entry.name + ".corrupt").exists()


class TestCacheStore:
    def test_unpicklable_result_is_recorded_not_fatal(self, tmp_path, monkeypatch):
        lock = threading.Lock()
        monkeypatch.setattr(sweep_module, "execute_job", lambda job: lock)
        job = unit_job(1)
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        assert runner.run([job]) == {job.job_id: lock}
        ledger = runner.last_manifest["jobs"][job.job_id]
        assert ledger["status"] == "recomputed"
        assert not ledger["cache_stored"]
        assert ledger["cache_store_failures"] == 1
        assert any(event.startswith("cache-store-failed (TypeError") for event in ledger["events"])
        assert runner.last_manifest["counts"]["cache_store_failures"] == 1
        assert list(tmp_path.glob("*.pkl")) == []
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_rename_leaves_no_staging_file(self, tmp_path, cheap_jobs, monkeypatch):
        real_replace = Path.replace

        def no_entry_rename(path, target):
            if str(target).endswith(".pkl"):
                raise OSError("no space left on device")
            return real_replace(path, target)

        monkeypatch.setattr(Path, "replace", no_entry_rename)
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        runner.run([unit_job(1)])
        assert runner.last_manifest["counts"]["cache_store_failures"] == 1
        assert list(tmp_path.glob("*.pkl")) == []
        assert list(tmp_path.glob("*.tmp")) == []

    def test_missing_cache_directories_are_created(self, tmp_path, cheap_jobs):
        cache_dir = tmp_path / "a" / "b" / "cache"
        runner = SweepRunner(workers=1, cache_dir=cache_dir)
        runner.run([unit_job(1)])
        assert pickle.loads(runner._cache_path(unit_job(1)).read_bytes()) == Outcome(value=1)
        assert (cache_dir / "manifest.json").exists()


class TestStaleStaging:
    def test_stale_manifest_staging_removed(self, tmp_path):
        stray = tmp_path / "manifest.json.1234-0.tmp"
        stray.write_text("{")
        old = time.time() - 2 * sweep_module._STALE_STAGING_S
        os.utime(stray, (old, old))
        SweepRunner(workers=1, cache_dir=tmp_path).run([])
        assert not stray.exists()

    def test_old_files_outside_the_staging_pattern_kept(self, tmp_path):
        kept = [tmp_path / "notes.tmp", tmp_path / "abc.pkl.corrupt", tmp_path / "abc.pkl"]
        old = time.time() - 2 * sweep_module._STALE_STAGING_S
        for path in kept:
            path.write_bytes(b"x")
            os.utime(path, (old, old))
        SweepRunner(workers=1, cache_dir=tmp_path).run([])
        assert all(path.exists() for path in kept)


class TestManifestPayload:
    def test_schema_3_layout(self, cheap_jobs):
        runner = SweepRunner(workers=1)
        runner.run([unit_job(1)])
        manifest = runner.last_manifest
        assert MANIFEST_SCHEMA == 3 and manifest["schema"] == 3
        assert set(manifest) == {
            "schema", "created_unix", "interrupted", "elapsed_s",
            "workers", "engine", "counts", "jobs",
        }
        assert set(manifest["counts"]) == {
            "jobs", "hits", "recomputed", "failed",
            "quarantined", "cache_store_failures", "runs_saved",
        }
        assert set(manifest["jobs"]["unit/1"]) == {
            "key", "status", "quarantined", "cache_stored", "cache_store_failures",
            "seconds", "error", "events", "collection",
        }
        assert manifest["jobs"]["unit/1"]["key"] == sweep_module.job_key(unit_job(1))

    def test_explicit_path_without_a_cache(self, tmp_path, cheap_jobs):
        path = tmp_path / "out" / "run.json"
        runner = SweepRunner(workers=1, manifest_path=path)
        runner.run([unit_job(1)])
        assert json.loads(path.read_text())["counts"]["recomputed"] == 1

    def test_explicit_path_overrides_the_cache_default(self, tmp_path, cheap_jobs):
        cache_dir = tmp_path / "cache"
        path = tmp_path / "run.json"
        runner = SweepRunner(workers=1, cache_dir=cache_dir, manifest_path=path)
        runner.run([unit_job(1)])
        assert path.exists()
        assert not (cache_dir / "manifest.json").exists()

    def test_write_failure_degrades_to_the_snapshot(self, tmp_path, cheap_jobs):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be")
        runner = SweepRunner(workers=1, manifest_path=blocker / "manifest.json")
        assert runner.run([unit_job(1)]) == {"unit/1": Outcome(value=1)}
        assert runner.last_manifest["counts"]["recomputed"] == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["blocker"]

    def test_cache_miss_event_only_with_a_cache(self, tmp_path, cheap_jobs):
        cached = SweepRunner(workers=1, cache_dir=tmp_path)
        cached.run([unit_job(1)])
        assert cached.last_manifest["jobs"]["unit/1"]["events"] == ["cache-miss"]
        uncached = SweepRunner(workers=1)
        uncached.run([unit_job(1)])
        assert uncached.last_manifest["jobs"]["unit/1"]["events"] == []

    def test_runs_saved_summed_over_collection_audits(self, tmp_path, monkeypatch):
        def audited(job):
            if job.backend_seed == 3:
                return Outcome(value=3)
            collection = {"stop_reason": "converged", "runs_saved": job.backend_seed}
            return Outcome(value=job.backend_seed, metadata={"collection": collection})

        monkeypatch.setattr(sweep_module, "execute_job", audited)
        jobs = [unit_job(1), unit_job(2), unit_job(3)]
        runner = SweepRunner(workers=1, cache_dir=tmp_path)
        runner.run(jobs)
        manifest = runner.last_manifest
        assert manifest["counts"]["runs_saved"] == 3
        assert manifest["jobs"]["unit/2"]["collection"]["runs_saved"] == 2
        assert manifest["jobs"]["unit/3"]["collection"] is None
        # A replay reads the audit back off the cached results.
        replay = SweepRunner(workers=1, cache_dir=tmp_path)
        replay.run(jobs)
        assert replay.last_manifest["counts"]["hits"] == 3
        assert replay.last_manifest["counts"]["runs_saved"] == 3

    def test_workers_stamped(self, cheap_jobs, monkeypatch):
        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", executor_factory({}))
        runner = SweepRunner(workers=3)
        runner.run([unit_job(1)])
        assert runner.last_manifest["workers"] == 3


class TestCollectionAudit:
    @pytest.mark.parametrize(
        ("outcome", "expected"),
        [
            (Outcome(1, {"collection": {"runs_saved": 2}}), {"runs_saved": 2}),
            (Outcome(1, {"other": 1}), None),
            (Outcome(1, {"collection": "converged"}), None),
            (object(), None),
        ],
        ids=["audited", "no-collection", "collection-not-a-mapping", "no-metadata"],
    )
    def test_extracts_only_a_mapping_audit(self, outcome, expected):
        assert sweep_module._collection_audit(outcome) == expected

    def test_returns_a_copy(self):
        collection = {"runs_saved": 2}
        audit = sweep_module._collection_audit(Outcome(1, {"collection": collection}))
        audit["runs_saved"] = 99
        assert collection == {"runs_saved": 2}


def executor_factory(record: dict, broken_after: int | None = None, interrupt: bool = False):
    """A ProcessPoolExecutor stand-in that runs each submission in-process.

    ``broken_after`` makes every submission after that many raise
    ``BrokenProcessPool``, as a pool whose worker died does;
    ``interrupt`` makes every future raise ``KeyboardInterrupt``.
    """

    class InlineExecutor:
        def __init__(self, max_workers: int) -> None:
            record["max_workers"] = max_workers
            record["submitted"] = 0

        def submit(self, fn, *args):
            if broken_after is not None and record["submitted"] >= broken_after:
                raise BrokenProcessPool("a process in the pool was terminated abruptly")
            record["submitted"] += 1
            future: Future = Future()
            if interrupt:
                future.set_exception(KeyboardInterrupt())
            else:
                future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures: bool = False) -> None:
            record["shutdown"] = {"cancel_futures": cancel_futures}

    return InlineExecutor


class TestPoolDispatch:
    def test_pool_sized_to_the_pending_jobs(self, cheap_jobs, monkeypatch):
        record: dict = {}
        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", executor_factory(record))
        results = SweepRunner(workers=8).run([unit_job(1), unit_job(2)])
        assert results == {"unit/1": Outcome(value=1), "unit/2": Outcome(value=2)}
        assert record["max_workers"] == 2
        assert record["shutdown"] == {"cancel_futures": True}

    def test_submit_to_a_broken_pool_fails_the_remaining_jobs(
        self, tmp_path, cheap_jobs, monkeypatch
    ):
        record: dict = {}
        monkeypatch.setattr(
            sweep_module, "ProcessPoolExecutor", executor_factory(record, broken_after=1)
        )
        runner = SweepRunner(workers=2, cache_dir=tmp_path)
        with pytest.raises(SweepJobError) as excinfo:
            runner.run([unit_job(1), unit_job(2), unit_job(3)])
        error = excinfo.value
        assert set(error.completed) == {"unit/1"}
        assert set(error.failures) == {"unit/2", "unit/3"}
        assert all(f.exc_type == "BrokenProcessPool" for f in error.failures.values())
        counts = runner.last_manifest["counts"]
        assert counts["recomputed"] == 1 and counts["failed"] == 2
        assert runner._cache_load(unit_job(1)) == Outcome(value=1)

    def test_interrupt_shuts_the_pool_down_and_flushes_the_manifest(
        self, tmp_path, cheap_jobs, monkeypatch
    ):
        record: dict = {}
        monkeypatch.setattr(
            sweep_module, "ProcessPoolExecutor", executor_factory(record, interrupt=True)
        )
        runner = SweepRunner(workers=2, cache_dir=tmp_path)
        with pytest.raises(KeyboardInterrupt):
            runner.run([unit_job(1), unit_job(2)])
        assert record["shutdown"] == {"cancel_futures": True}
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["interrupted"]
        assert {entry["status"] for entry in manifest["jobs"].values()} == {"pending"}

    def test_warm_cache_starts_no_pool(self, tmp_path, cheap_jobs, monkeypatch):
        jobs = [unit_job(1), unit_job(2)]
        SweepRunner(workers=1, cache_dir=tmp_path).run(jobs)

        def no_pool(max_workers):
            raise AssertionError("a warm replay must not start a pool")

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", no_pool)
        replay = SweepRunner(workers=4, cache_dir=tmp_path)
        assert replay.run(jobs) == {"unit/1": Outcome(value=1), "unit/2": Outcome(value=2)}
        assert replay.cache_hits == 2


class TestWorkerCounts:
    @pytest.mark.parametrize(("value", "expected"), [("3", 3), (2, 2), (" 4 ", 4)])
    def test_parses_positive_counts(self, value, expected):
        assert sweep_module._parse_workers(value, "--workers") == expected

    @pytest.mark.parametrize("value", ["0", "-1", "two", None, "1.5"])
    def test_rejects_and_names_the_source(self, value):
        with pytest.raises(ValueError, match="^FINGRAV_WORKERS must be"):
            sweep_module._parse_workers(value, "FINGRAV_WORKERS")

    def test_default_runner_reads_the_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FINGRAV_WORKERS", "2")
        monkeypatch.setenv("FINGRAV_PROFILE_CACHE", str(tmp_path))
        runner = default_runner()
        assert runner.workers == 2
        assert runner.cache_dir == tmp_path
        assert runner.manifest_path == tmp_path / "manifest.json"

    def test_default_runner_empty_env_is_serial_and_uncached(self, monkeypatch):
        monkeypatch.setenv("FINGRAV_WORKERS", "")
        monkeypatch.setenv("FINGRAV_PROFILE_CACHE", "")
        runner = default_runner()
        assert runner.workers == 1
        assert runner.cache_dir is None and runner.manifest_path is None


class TestConfiguredAdaptive:
    @pytest.mark.parametrize(
        ("value", "default", "expected"),
        [
            ("1", False, True),
            (" YES ", False, True),
            ("off", True, False),
            ("0", True, False),
            ("maybe", True, True),
            (None, False, False),
        ],
    )
    def test_env_override(self, monkeypatch, value, default, expected):
        if value is None:
            monkeypatch.delenv("FINGRAV_ADAPTIVE", raising=False)
        else:
            monkeypatch.setenv("FINGRAV_ADAPTIVE", value)
        assert configured_adaptive(default) is expected


class TestSweepConfigPlaceholder:
    def test_accepted_and_ignored(self, tmp_path, cheap_jobs):
        assert dataclasses.fields(SweepConfig()) == ()
        runner = SweepRunner(workers=1, cache_dir=tmp_path, config=SweepConfig())
        assert runner.run([unit_job(1)]) == {"unit/1": Outcome(value=1)}

    def test_not_exported_from_the_experiments_package(self):
        assert "SweepConfig" not in experiments_package._EXPORTS
        with pytest.raises(AttributeError):
            experiments_package.SweepConfig  # noqa: B018


class TestCommandLineExits:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["--list"]) == 0
        assert capsys.readouterr().out.split() == list(EXPERIMENT_NAMES)

    def test_nothing_to_run_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_bad_workers_env_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("FINGRAV_WORKERS", "0")
        with pytest.raises(SystemExit) as excinfo:
            main(["--experiments", "table1"])
        assert excinfo.value.code == 2
        assert "FINGRAV_WORKERS must be >= 1" in capsys.readouterr().err

    def test_partial_sweep_exits_1_and_writes_the_failures(self, tmp_path, monkeypatch, capsys):
        failure = JobFailure("KeyError", "'no-such-kernel'", "Traceback (most recent call last):\n")

        def failing_sweep(requested, scale=None, runner=None):
            raise SweepJobError({"table1/CB-2K-GEMM": failure}, {})

        monkeypatch.setattr(sweep_module, "run_sweep", failing_sweep)
        out = tmp_path / "summary.json"
        assert main(["--experiments", "table1", "--json", str(out)]) == 1
        assert "[sweep]   table1/CB-2K-GEMM: KeyError: 'no-such-kernel'" in capsys.readouterr().out
        written = json.loads(out.read_text())
        assert written["summaries"] == {}
        assert written["failures"] == {"table1/CB-2K-GEMM": str(failure)}

    def test_interrupt_exits_130(self, tmp_path, monkeypatch, capsys):
        def interrupted_sweep(requested, scale=None, runner=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(sweep_module, "run_sweep", interrupted_sweep)
        assert main(["--experiments", "table1", "--cache", str(tmp_path)]) == 130
        out = capsys.readouterr().out
        assert "interrupted: pending jobs cancelled" in out
        assert f"partial manifest flushed to {tmp_path / 'manifest.json'}" in out
