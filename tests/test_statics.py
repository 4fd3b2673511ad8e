"""The static-analysis suite: every rule trips, pragmas round-trip, and the
seeded mutations from the acceptance criteria are each caught.

Fixture tests run single checker families over tiny synthetic trees; the
mutation self-tests copy the real ``src/repro`` tree, perturb one thing
(an unseeded RNG in ``gpu/device.py``) and assert the corresponding checker
notices.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.experiments.sweep import ProfileJob, _CACHE_SCHEMA, _canonical, job_key, kernel_spec
from repro.statics import Project, run_all
from repro.statics.base import apply_pragmas
from repro.statics.cli import main
from repro.statics.contracts import check_contracts
from repro.statics.determinism import check_determinism

REPO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def make_project(root: Path, files: dict[str, str]) -> Project:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return Project(root)


def copy_repo(tmp_path: Path) -> Project:
    root = tmp_path / "repro"
    shutil.copytree(
        REPO_SRC, root, ignore=shutil.ignore_patterns("__pycache__")
    )
    return Project(root)


def rewrite(project: Project, rel: str, old: str, new: str, count: int = 1) -> None:
    path = project.root / rel
    text = path.read_text()
    assert old in text, f"mutation anchor {old!r} not found in {rel}"
    path.write_text(text.replace(old, new, count))


def rules_of(findings) -> set[str]:
    return {finding.rule for finding in findings}


def determinism_active(project: Project):
    return apply_pragmas(project, check_determinism(project))[0]


# --------------------------------------------------------------------- #
# Determinism lint fixtures.
# --------------------------------------------------------------------- #
class TestDeterminismRules:
    def test_wall_clock_and_rng_and_hash_and_sets(self, tmp_path):
        project = make_project(tmp_path, {"gpu/device.py": (
            "import time\n"
            "import random\n"
            "import numpy as np\n"
            "stamp = time.time()\n"
            "rng = np.random.default_rng()\n"
            "np.random.seed(7)\n"
            "draw = random.random()\n"
            "token = hash('x')\n"
            "marker = id(object())\n"
            "for item in {1, 2}:\n"
            "    print(item)\n"
            "ordered = list(set('ab'))\n"
        )})
        findings = determinism_active(project)
        by_line = {finding.line: finding.rule for finding in findings}
        assert by_line[4] == "wall-clock"
        assert by_line[5] == "unseeded-rng"
        assert by_line[6] == "unseeded-rng"
        assert by_line[7] == "unseeded-rng"
        assert by_line[8] == "identity-hash"
        assert by_line[9] == "identity-hash"
        assert by_line[10] == "set-order"
        assert by_line[12] == "set-order"
        assert len(findings) == 8

    def test_clean_constructs_not_flagged(self, tmp_path):
        project = make_project(tmp_path, {"core/clean.py": (
            "import time\n"
            "import numpy as np\n"
            "elapsed = time.perf_counter()\n"
            "tick = time.monotonic()\n"
            "rng = np.random.default_rng(42)\n"
            "stable = sorted(set('ab'))\n"
            "member = 'a' in {'a', 'b'}\n"
        )})
        assert determinism_active(project) == []

    def test_alias_resolution(self, tmp_path):
        project = make_project(tmp_path, {"gpu/aliased.py": (
            "from time import time as _now\n"
            "from numpy.random import default_rng\n"
            "stamp = _now()\n"
            "rng = default_rng()\n"
        )})
        assert rules_of(determinism_active(project)) == {
            "wall-clock", "unseeded-rng",
        }

    def test_non_critical_modules_not_scanned(self, tmp_path):
        project = make_project(tmp_path, {"analysis/free.py": (
            "import time\nstamp = time.time()\n"
        )})
        assert determinism_active(project) == []

    def test_parse_error_surfaces(self, tmp_path):
        project = make_project(tmp_path, {"gpu/broken.py": "def oops(:\n"})
        assert rules_of(determinism_active(project)) == {"parse-error"}


# --------------------------------------------------------------------- #
# Pragma round-trips.
# --------------------------------------------------------------------- #
class TestPragmas:
    def test_pragma_suppresses_with_reason(self, tmp_path):
        project = make_project(tmp_path, {"gpu/device.py": (
            "import time\n"
            "stamp = time.time()  # statics: allow[wall-clock] -- log stamp\n"
        )})
        active, suppressed = apply_pragmas(project, check_determinism(project))
        assert active == []
        assert len(suppressed) == 1
        assert suppressed[0].suppressed
        assert suppressed[0].reason == "log stamp"

    def test_pragma_requires_reason(self, tmp_path):
        project = make_project(tmp_path, {"gpu/device.py": (
            "import time\n"
            "stamp = time.time()  # statics: allow[wall-clock]\n"
        )})
        active, suppressed = apply_pragmas(project, check_determinism(project))
        assert suppressed == []
        assert rules_of(active) == {"wall-clock", "bad-pragma"}

    def test_pragma_unknown_rule_rejected(self, tmp_path):
        project = make_project(tmp_path, {"gpu/device.py": (
            "x = 1  # statics: allow[no-such-rule] -- whatever\n"
        )})
        active, _ = apply_pragmas(project, check_determinism(project))
        assert rules_of(active) == {"bad-pragma"}

    def test_pragma_wrong_rule_does_not_suppress(self, tmp_path):
        project = make_project(tmp_path, {"gpu/device.py": (
            "import time\n"
            "stamp = time.time()  # statics: allow[set-order] -- wrong rule\n"
        )})
        active, _ = apply_pragmas(project, check_determinism(project))
        assert rules_of(active) == {"wall-clock", "unused-pragma"}

    def test_unused_pragma_flagged(self, tmp_path):
        project = make_project(tmp_path, {"gpu/device.py": (
            "x = 1  # statics: allow[wall-clock] -- nothing here\n"
        )})
        active, _ = apply_pragmas(project, check_determinism(project))
        assert rules_of(active) == {"unused-pragma"}

    def test_pragma_text_inside_strings_ignored(self, tmp_path):
        project = make_project(tmp_path, {"gpu/device.py": (
            '"""Doc: write `# statics: allow[rule] -- reason` on the line."""\n'
            "MESSAGE = 'use # statics: allow[wall-clock] -- reason'\n"
        )})
        active, suppressed = apply_pragmas(project, check_determinism(project))
        assert active == []
        assert suppressed == []


# --------------------------------------------------------------------- #
# The hardened job_key.
# --------------------------------------------------------------------- #
class TestJobKeyHardening:
    def make_job(self, **overrides) -> ProfileJob:
        base = dict(
            job_id="j-0", kernel=kernel_spec("cb_gemm", 2048), runs=3,
            backend_seed=11, profiler_seed=12,
        )
        base.update(overrides)
        return ProfileJob(**base)

    def test_key_matches_published_algorithm(self):
        job = self.make_job()
        profiler_config, backend_config = job.configs()
        job_fields = {
            name: value for name, value in vars(job).items() if name != "job_id"
        }
        payload = {"job": job_fields, "profiler": profiler_config, "backend": backend_config}
        expected = hashlib.sha256(
            f"{_CACHE_SCHEMA}:{_canonical(payload, 'key')}".encode()
        ).hexdigest()
        assert job_key(job) == expected

    def test_canonical_spelling_pinned(self):
        assert _canonical(
            (None, True, 1, 1.0, -0.0, "1", b"1", {"b": 2, "a": ()},
             kernel_spec("cb_gemm", 2048)),
            "value",
        ) == (
            "(None,True,1,float(0x1.0000000000000p+0),float(-0x0.0p+0),'1',b'1',"
            "{'a':(),'b':2},KernelSpec(key='cb_gemm',args=(2048),kwargs=()))"
        )

    def test_key_digest_pinned(self, monkeypatch):
        # Byte-identity guard: this exact digest is what schema-8 warm caches
        # hold for this job on the compiled engine.  It may only change with
        # a _CACHE_SCHEMA bump.
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert job_key(self.make_job()) == (
            "09804d44140e5970df44c563144193eeaeba68e5a5099e5414e53286862c519d"
        )

    def test_key_ignores_job_id(self):
        assert job_key(self.make_job(job_id="a")) == job_key(
            self.make_job(job_id="b")
        )

    def test_float_payloads_keyed_exactly(self):
        def key(*args):
            return job_key(self.make_job(kernel=kernel_spec("cb_gemm", *args)))

        assert len({key(1), key(1.0), key(True)}) == 3
        assert key(0.0) != key(-0.0)

    def test_set_payload_rejected(self):
        job = self.make_job(kernel=kernel_spec("cb_gemm", frozenset({1})))
        with pytest.raises(TypeError, match=r"key\.job\.kernel\.args\[0\] is a frozenset"):
            job_key(job)

    def test_tuple_and_str_payloads_accepted(self):
        job = self.make_job(
            kernel=kernel_spec("square_gemm", 6144, name="CB-6K-GEMM"),
            preceding=((kernel_spec("cb_gemm", 2048), 60),),
            profile_sections=("ssp",),
        )
        assert len(job_key(job)) == 64


# --------------------------------------------------------------------- #
# Cross-process contracts.
# --------------------------------------------------------------------- #
class TestContracts:
    def test_lambda_submission_caught(self, tmp_path):
        project = make_project(tmp_path, {"experiments/bad.py": (
            "def run(pool):\n"
            "    return pool.submit(lambda: 1)\n"
        )})
        assert rules_of(check_contracts(project)) == {"pickle-contract"}

    def test_local_def_submission_caught(self, tmp_path):
        project = make_project(tmp_path, {"experiments/bad.py": (
            "def run(executor, jobs):\n"
            "    def worker(job):\n"
            "        return job\n"
            "    return list(executor.map(worker, jobs))\n"
        )})
        assert rules_of(check_contracts(project)) == {"pickle-contract"}

    def test_lambda_in_payload_dataclass_field_caught(self, tmp_path):
        project = make_project(tmp_path, {"experiments/bad.py": (
            "from repro.experiments.sweep import KernelSpec\n"
            "spec = KernelSpec(key=lambda: 'cb_gemm')\n"
        )})
        assert rules_of(check_contracts(project)) == {"pickle-contract"}

    def test_module_level_callable_clean(self, tmp_path):
        project = make_project(tmp_path, {"experiments/good.py": (
            "def worker(job):\n"
            "    return job\n"
            "def run(pool, jobs):\n"
            "    return [pool.submit(worker, job) for job in jobs]\n"
        )})
        assert check_contracts(project) == []

    def test_real_repo_clean(self):
        assert check_contracts(Project(REPO_SRC)) == []


# --------------------------------------------------------------------- #
# CLI.
# --------------------------------------------------------------------- #
class TestCli:
    def test_repo_is_clean(self, capsys):
        assert main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format_and_exit_codes(self, tmp_path, capsys):
        project = copy_repo(tmp_path)
        assert main(["--root", str(project.root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["findings"] == []
        assert len(payload["suppressed"]) == 6

        rewrite(
            project, "gpu/device.py",
            "from __future__ import annotations",
            "from __future__ import annotations\n"
            "import numpy as _np_statics_probe\n"
            "_BAD_RNG = _np_statics_probe.random.default_rng()",
        )
        assert main(["--root", str(project.root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(
            finding["rule"] == "unseeded-rng"
            and finding["file"] == "gpu/device.py"
            for finding in payload["findings"]
        )

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split(":")[0] for line in out.splitlines()}
        for rule in ("wall-clock", "pickle-contract"):
            assert rule in listed
        assert not listed & {
            "cache-key", "stale-exemption", "key-structure", "kernel-parity", "c-parity",
        }

    def test_run_all_on_repo_clean(self):
        active, suppressed = run_all()
        assert active == []
        assert len(suppressed) == 6
