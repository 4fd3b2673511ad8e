"""Benchmark: columnar profile construction + the parallel experiment sweep.

Three measurements, all extending ``BENCH_profiler.json``:

* ``test_profile_construction_scaling`` builds profiles from 1k-100k stitched
  LOIs through the columnar path (``profile_from_lois``) and the retained
  object-based path (``profile_from_lois_reference``), including the array
  materialisation every consumer performs (times + per-component series +
  mean).  The columnar path must be at least 5x faster at 50k points, with
  bit-identical results.
* ``test_sweep_worker_scaling`` runs the Figure-7 + Table-I job set (the two
  biggest per-kernel fan-outs of the suite) at the fast scale through
  :class:`SweepRunner` with one worker and with N workers, asserting that the
  results are identical and recording the measured wall-clock speedup.
* ``test_slim_vs_full_payload`` executes every fast-scale Figure-7 job in
  both result modes and records the pickled payload bytes -- the slim mode
  must shrink at least one fig7 job's payload >=5x (the short-kernel jobs
  reach tens of x) with bit-identical profiles.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.profile import ProfileKind, profile_from_lois, profile_from_lois_reference
from repro.core.records import LogOfInterest, PowerReading
from repro.experiments.fig7 import fig7_jobs
from repro.experiments.sweep import SweepRunner, execute_job
from repro.experiments.table1 import table1_jobs
from repro.experiments.common import FAST_SCALE

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_profiler.json"


def _write_results(update: dict) -> None:
    payload = {}
    if RESULT_PATH.exists():
        try:
            payload = json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload.update(update)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


# --------------------------------------------------------------------------- #
# Profile construction: columnar vs object path.
# --------------------------------------------------------------------------- #
def make_lois(n: int, seed: int = 17) -> list[LogOfInterest]:
    rng = np.random.default_rng(seed)
    toi = rng.uniform(0, 1e-4, size=n)
    total = 700 + rng.standard_normal(n) * 12
    xcd = 500 + rng.standard_normal(n) * 8
    return [
        LogOfInterest(
            run_index=int(i % 600),
            execution_index=int(30 + (i % 4)),
            reading=PowerReading(
                gpu_timestamp_ticks=i,
                window_s=1e-3,
                total_w=float(total[i]),
                components={"xcd": float(xcd[i]), "iod": 120.0, "hbm": 80.0},
            ),
            window_end_cpu_s=1.0 + i * 1e-3,
            toi_s=float(toi[i]),
            toi_fraction=0.5,
        )
        for i in range(n)
    ]


def construction_seconds(builder, lois, repetitions: int = 3):
    """Best-of-N time to build a profile and materialise its arrays."""
    best = float("inf")
    profile = None
    for _ in range(repetitions):
        begin = time.perf_counter()
        profile = builder("bench", ProfileKind.SSP, lois, 1e-4)
        profile.times()
        for component in profile.components:
            profile.series(component)
        profile.mean_power_w()
        best = min(best, time.perf_counter() - begin)
    return profile, best


@pytest.mark.bench
def test_profile_construction_scaling():
    """Columnar construction is >=5x the object path at 50k points."""
    rows = []
    speedup_at_50k = None
    for n in (1_000, 10_000, 50_000, 100_000):
        lois = make_lois(n)
        columnar, columnar_s = construction_seconds(profile_from_lois, lois)
        objects, objects_s = construction_seconds(profile_from_lois_reference, lois)
        assert np.array_equal(columnar.times(), objects.times())
        assert columnar.components == objects.components
        for component in columnar.components:
            assert np.array_equal(columnar.series(component), objects.series(component))
        speedup = objects_s / columnar_s
        if n == 50_000:
            speedup_at_50k = speedup
        rows.append({
            "points": n,
            "columnar_ms": columnar_s * 1e3,
            "object_ms": objects_s * 1e3,
            "speedup": speedup,
        })
    print("\n=== profile construction: columnar vs object path ===")
    for row in rows:
        print(f"  {row['points']:>7} points: columnar {row['columnar_ms']:8.2f} ms, "
              f"object {row['object_ms']:8.2f} ms ({row['speedup']:.1f}x)")
    _write_results({"profile_construction": rows})
    assert speedup_at_50k is not None and speedup_at_50k >= 5.0, (
        f"columnar speedup at 50k points {speedup_at_50k:.2f}x below 5x"
    )


# --------------------------------------------------------------------------- #
# Sweep worker scaling: fig7 + table1 at fast scale, 1 vs N workers.
# --------------------------------------------------------------------------- #
def _sweep_jobs():
    return fig7_jobs(scale=FAST_SCALE) + table1_jobs(scale=FAST_SCALE)


def _profiles_identical(left, right) -> bool:
    for job_id in left:
        a, b = left[job_id], right[job_id]
        # Slim results carry only their declared sections; compare those.
        sections = getattr(a, "sections", ("ssp", "sse", "run"))
        if sections != getattr(b, "sections", ("ssp", "sse", "run")):
            return False
        if a.summary() != b.summary():
            return False
        for attribute in (f"{name}_profile" for name in sections):
            pa, pb = getattr(a, attribute), getattr(b, attribute)
            if len(pa) != len(pb) or not np.array_equal(pa.times(), pb.times()):
                return False
            if any(not np.array_equal(pa.series(c), pb.series(c)) for c in pa.components):
                return False
    return True


@pytest.mark.bench
def test_sweep_worker_scaling():
    """N workers beat 1 worker on the fig7+table1 job set, bit-identically.

    The wall-clock speedup is asserted only when the machine actually has more
    than one CPU; on a single-CPU box the parallel leg still runs (so the
    process-pool path and its determinism are exercised) but can only be held
    to an overhead bound.
    """
    cpus = os.cpu_count() or 1
    workers = min(max(cpus, 2), 8)
    jobs = _sweep_jobs()

    begin = time.perf_counter()
    serial = SweepRunner(workers=1).run(jobs)
    serial_s = time.perf_counter() - begin

    begin = time.perf_counter()
    parallel = SweepRunner(workers=workers).run(jobs)
    parallel_s = time.perf_counter() - begin

    speedup = serial_s / parallel_s
    print("\n=== sweep worker scaling (fig7 + table1 jobs, fast scale) ===")
    print(f"  {len(jobs)} jobs, {workers} workers, {cpus} CPUs")
    print(f"  1 worker:  {serial_s:6.2f} s")
    print(f"  {workers} workers: {parallel_s:6.2f} s")
    print(f"  speedup:   {speedup:.2f}x")
    section = {
        "jobs": len(jobs),
        "scale": FAST_SCALE.name,
        "workers": workers,
        "cpus": cpus,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": speedup,
    }
    if cpus == 1:
        section["note"] = (
            "measured in a single-CPU container: the workers contend for one "
            "core, so the sub-1x 'speedup' reflects process-pool overhead, "
            "not a sweep-engine regression; re-run on a multi-core host for "
            "a meaningful ratio"
        )
    _write_results({"sweep": section})
    assert set(serial) == set(parallel)
    assert _profiles_identical(serial, parallel), "worker count changed the results"
    if cpus > 1:
        assert speedup >= 1.3, f"parallel sweep speedup {speedup:.2f}x below 1.3x"
    else:
        # Single CPU: parallelism cannot pay off; bound the pool overhead
        # (worker spawn + result pickling while contending for the one core).
        assert parallel_s <= serial_s * 2.0, (
            f"process-pool overhead too high on one CPU: {parallel_s:.2f}s "
            f"vs {serial_s:.2f}s serial"
        )


# --------------------------------------------------------------------------- #
# Slim vs full result payloads: every fig7 job, both modes.
# --------------------------------------------------------------------------- #
@pytest.mark.bench
def test_slim_vs_full_payload():
    """Slim results shrink fig7 job payloads >=5x with bit-identical profiles."""
    rows = []
    for job in fig7_jobs(scale=FAST_SCALE):
        # Pin sections to all-three so this series stays comparable with the
        # PR 4 baseline; the driver-declared subsets are measured separately
        # by bench_result_payload.py (``payload_v2``).
        full = execute_job(dataclasses.replace(job, result_mode="full"))
        slim = execute_job(
            dataclasses.replace(job, result_mode="slim", profile_sections=None)
        )
        for attribute in ("ssp_profile", "sse_profile", "run_profile"):
            pa, pb = getattr(full, attribute), getattr(slim, attribute)
            assert np.array_equal(pa.times(), pb.times())
            assert pa.components == pb.components
            for component in pa.components:
                assert np.array_equal(pa.series(component), pb.series(component))
        assert full.summary() == slim.summary()
        full_bytes = len(pickle.dumps(full, protocol=pickle.HIGHEST_PROTOCOL))
        slim_bytes = len(pickle.dumps(slim, protocol=pickle.HIGHEST_PROTOCOL))
        rows.append({
            "job": job.job_id,
            "runs": full.num_runs,
            "full_bytes": full_bytes,
            "slim_bytes": slim_bytes,
            "ratio": full_bytes / slim_bytes,
        })
    total_full = sum(row["full_bytes"] for row in rows)
    total_slim = sum(row["slim_bytes"] for row in rows)
    print("\n=== slim vs full pickled payloads (fig7, fast scale) ===")
    for row in rows:
        print(f"  {row['job']:<22} runs={row['runs']:4d}  "
              f"full {row['full_bytes']:>9,} B  slim {row['slim_bytes']:>8,} B  "
              f"({row['ratio']:.1f}x)")
    print(f"  total: {total_full:,} B -> {total_slim:,} B "
          f"({total_full / total_slim:.1f}x)")
    _write_results({"slim_payload": {
        "scale": FAST_SCALE.name,
        "jobs": rows,
        "total_full_bytes": total_full,
        "total_slim_bytes": total_slim,
        "total_ratio": total_full / total_slim,
    }})
    best = max(row["ratio"] for row in rows)
    assert best >= 5.0, f"best fig7 slim payload ratio {best:.1f}x below 5x"
