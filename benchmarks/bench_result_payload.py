"""Benchmark: section-aware result payloads.

``test_sectioned_payload_vs_pr4_baseline`` executes every fast-scale
Figure-7 and Table-I job exactly as the drivers declare them (fig7 retains
``("ssp", "sse")``, table1 retains nothing) and records the pickled payload
bytes under ``payload_v2`` in ``BENCH_profiler.json``.  The fig7 total must
shrink at least a further 2x against the PR 4 ``slim_payload`` baseline,
which pickled all three stitched profiles.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.experiments.common import FAST_SCALE
from repro.experiments.fig7 import fig7_jobs
from repro.experiments.sweep import execute_job
from repro.experiments.table1 import table1_jobs

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_profiler.json"


def _read_results() -> dict:
    if RESULT_PATH.exists():
        try:
            return json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            return {}
    return {}


def _merge_payload_v2(update: dict) -> None:
    """Merge ``update`` into the ``payload_v2`` section, keeping its other keys."""
    payload = _read_results()
    section = dict(payload.get("payload_v2") or {})
    section.update(update)
    payload["payload_v2"] = section
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _pickled_bytes(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


# --------------------------------------------------------------------------- #
# Driver-declared section subsets vs the PR 4 all-sections slim baseline.
# --------------------------------------------------------------------------- #
@pytest.mark.bench
def test_sectioned_payload_vs_pr4_baseline():
    """fig7+table1 payloads shrink >=2x further than the PR 4 slim baseline."""
    baseline = _read_results().get("slim_payload")
    assert baseline, (
        "no 'slim_payload' baseline in BENCH_profiler.json; run "
        "bench_experiment_sweep.py::test_slim_vs_full_payload first"
    )
    baseline_bytes = {row["job"]: row["slim_bytes"] for row in baseline["jobs"]}

    rows = []
    for job in fig7_jobs(scale=FAST_SCALE) + table1_jobs(scale=FAST_SCALE):
        result = execute_job(job)  # driver-declared sections, untouched
        row = {
            "job": job.job_id,
            "sections": list(job.profile_sections or ()),
            "bytes": _pickled_bytes(result),
        }
        before = baseline_bytes.get(job.job_id)
        if before is not None:
            row["pr4_slim_bytes"] = before
            row["shrink_vs_pr4"] = before / row["bytes"]
        rows.append(row)

    fig7_rows = [row for row in rows if "pr4_slim_bytes" in row]
    assert fig7_rows, "no fig7 jobs overlapped the PR 4 baseline"
    total_now = sum(row["bytes"] for row in fig7_rows)
    total_before = sum(row["pr4_slim_bytes"] for row in fig7_rows)
    shrink = total_before / total_now

    print("\n=== driver-declared section payloads vs PR 4 slim baseline ===")
    for row in rows:
        extra = ""
        if "shrink_vs_pr4" in row:
            extra = (f"  pr4 {row['pr4_slim_bytes']:>8,} B "
                     f"({row['shrink_vs_pr4']:.1f}x smaller)")
        print(f"  {row['job']:<22} sections={','.join(row['sections']) or '-':<9} "
              f"{row['bytes']:>8,} B{extra}")
    print(f"  fig7 total: {total_before:,} B -> {total_now:,} B ({shrink:.1f}x)")

    _merge_payload_v2({
        "scale": FAST_SCALE.name,
        "jobs": rows,
        "fig7_total_bytes": total_now,
        "fig7_pr4_slim_bytes": total_before,
        "fig7_shrink_vs_pr4": shrink,
    })
    assert shrink >= 2.0, (
        f"sectioned fig7 payloads only {shrink:.2f}x below the PR 4 slim "
        f"baseline, expected >=2x"
    )
