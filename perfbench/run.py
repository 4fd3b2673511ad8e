"""The repository's end-to-end benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same rounds untraced and then traced, and reports per-layer self
times and counts.  Every run checks the program's outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.  See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from measure import samples_needed, tail_percentile
from spans import ROOT as ROOT_LAYER, Tracer, inclusive_times, layer_self_times, leftover_wrappers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives here, inside the checkout.
WORK = ROOT / ".perfbench-work"

#: Environment knobs that change jobs or the engine; the benchmark refuses
#: to run while any of them is set, so every record measures the defaults.
REFUSED_KNOBS = (
    "FINGRAV_RESULT_MODE", "FINGRAV_ADAPTIVE", "FINGRAV_SCALE", "FINGRAV_WORKERS",
    "FINGRAV_PROFILE_CACHE", "FINGRAV_FAULT_PLAN", "FINGRAV_SPILL_POINTS",
    "REPRO_ENGINE", "REPRO_FASTCORE_PROVIDER",
)

#: Fresh interpreters timed per run; set-up is reported as their median.
SETUP_PROBES = 9
#: Untimed rounds with ground-truth capture, which give ``ssp_err_pct``.
#: CB-8K-GEMM's error varies most from call to call (0.15-0.6 %), hence
#: the most rounds on profile-long; the others' mean error is within 1 %
#: from seed to seed after 10 rounds.
VERIFY_ROUNDS = {"profile-short": 10, "profile-long": 80, "profile-stream": 10, "sweep": 1}
TAIL_Q = 0.95
#: A timed run is stretched past ``--seconds`` only until the p95 has
#: enough samples beyond it and two rounds are done, for at most this factor
#: of ``--seconds`` or STRETCH_FLOOR_S, whichever is longer.
MAX_STRETCH = 2.0
STRETCH_FLOOR_S = 30.0
MIN_ROUNDS = 2

END_TO_END_UNITS = {
    "profile_ms_p50": "ms", "profile_ms_p95": "ms", "ssp_err_pct": "%",
    "sweep_cold_s": "s", "sweep_warm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}

HARDWARE_NOTE = (
    "ssp_err_pct is the error against the simulator's own ground truth; the "
    "power model is not validated against real MI300X hardware, so it is not "
    "a hardware error figure."
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def prepare_environment() -> None:
    """Refuse job-changing knobs, pin threads and keep all files in WORK."""
    refused = [knob for knob in REFUSED_KNOBS if knob in os.environ]
    if refused:
        fail(f"unset {', '.join(refused)}: they change the jobs or the engine")
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no package at {SRC / 'repro'}; run from a full checkout")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ.update({
        # nproc is small and shared: one BLAS/OpenMP thread per process.
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NUMEXPR_NUM_THREADS": "1",
        "REPRO_FASTCORE_CACHE": str(WORK / "fastcore"),
        "TMPDIR": str(WORK / "tmp"),
    })
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))


def git_state() -> tuple[str | None, bool | None]:
    if not (ROOT / ".git").exists():
        return None, None
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head, bool(status.strip())


def provenance(args: argparse.Namespace) -> dict[str, object]:
    import numpy

    from repro.experiments.common import execution_provenance

    commit, dirty = git_state()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_commit": commit,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        **execution_provenance(),
    }


def setup_probes(workload: str) -> list[dict]:
    """Time SETUP_PROBES fresh interpreters after one untimed one.

    The untimed probe warms the OS page cache and the bytecode cache, as a
    user's second start would find them.
    """
    kind = "sweep" if workload == "sweep" else "profile"
    probes = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), kind, str(SRC)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes[1:]


class Run:
    """Counts what a run attempted and which checks failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def absorb(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failures += outcome.failures


def timed_rounds(workload, seconds: float, samples: int, run: Run) -> list:
    """Closed loop of rounds for ``seconds`` (see MAX_STRETCH)."""
    outcomes: list = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        have = sum(len(o.profile_ms) for o in outcomes)
        if elapsed >= seconds and have >= samples and len(outcomes) >= MIN_ROUNDS:
            break
        if elapsed >= max(seconds * MAX_STRETCH, STRETCH_FLOOR_S):
            break
        outcome = workload.run_round(len(outcomes))
        run.absorb(outcome)
        outcomes.append(outcome)
    return outcomes


def end_to_end(args, workload, run: Run) -> tuple[dict, dict]:
    probes = setup_probes(args.workload)
    ssp_err, verify_digests, checked = workload.verify(VERIFY_ROUNDS[args.workload])
    run.absorb(checked)
    outcomes = timed_rounds(workload, args.seconds, samples_needed(TAIL_Q), run)
    for index, digest in enumerate(verify_digests[: len(outcomes)]):
        if outcomes[index].digest != digest:
            run.failures.append(f"round {index}: outputs differ from the verification pass")
    latencies = [ms for o in outcomes for ms in o.profile_ms]
    try:
        p95 = tail_percentile(latencies, TAIL_Q)
    except ValueError as exc:
        run.failures.append(f"profile_ms_p95: {exc}")
        p95 = max(latencies)
    warm = [s for o in outcomes for s in o.warm_s]
    values = {
        "profile_ms_p50": median(latencies),
        "profile_ms_p95": p95,
        "ssp_err_pct": ssp_err,
        "sweep_cold_s": median([o.cold_s for o in outcomes]),
        "sweep_warm_s": median(warm),
        "setup_s": median([p["setup_s"] for p in probes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "profile_samples": len(latencies),
        "rounds": len(outcomes),
        "warm_samples": len(warm),
        "setup_probes": len(probes),
        "ssp_err_rounds": VERIFY_ROUNDS[args.workload],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return metrics, detail


def per_layer(args, workload, run: Run) -> tuple[dict, dict, dict]:
    probes = setup_probes(args.workload)
    run.absorb(workload.run_round(0))  # warm-up, so both passes start warm
    untraced_s, untraced = [], []
    start = time.perf_counter()
    while len(untraced) < MIN_ROUNDS or time.perf_counter() - start < args.seconds / 2:
        began = time.perf_counter()
        outcome = workload.run_round(len(untraced))
        untraced_s.append(time.perf_counter() - began)
        run.absorb(outcome)
        untraced.append(outcome)
    tracer = Tracer()
    traced = []
    with tracer:
        for index in range(len(untraced)):
            with tracer.round(index):
                outcome = workload.run_round(index)
            run.absorb(outcome)
            traced.append(outcome)
    leftover = leftover_wrappers()
    if leftover:
        run.failures.append(f"wrappers not removed: {leftover}")
    for index, (plain, seen) in enumerate(zip(untraced, traced)):
        if plain.digest != seen.digest:
            run.failures.append(f"round {index}: traced outputs differ from untraced")

    spans = tracer.closed_spans()
    layers = tracer.layers
    self_s = layer_self_times(spans, layers)
    traced_wall = sum(inclusive_times(spans, layers, ROOT_LAYER))
    if abs(sum(self_s.values()) - traced_wall) > 1e-6 * traced_wall:
        run.failures.append("layer self times do not add up to the traced wall time")
    rounds = len(traced)
    runs = sum(o.runs for o in traced)
    jobs = sum(o.jobs for o in traced)
    run_spans = inclusive_times(spans, layers, "gpu.backend.glue")
    values: dict[str, tuple[float, str]] = {
        "setup.import_ms": (median([p["import_s"] for p in probes]) * 1e3, "ms"),
    }
    for layer in layers:
        values[f"{layer}_ms"] = (self_s[layer] / rounds * 1e3, "ms")
    for name, total in tracer.counts.items():
        values[name] = (total / rounds, "count")
    values.update({
        "gpu.backend.run_us": (sum(run_spans) / len(run_spans) * 1e6 if run_spans else 0.0, "us"),
        "core.binning.golden_yield": (sum(o.golden for o in traced) / runs if runs else 0.0, "ratio"),
        "core.session.batches": (sum(o.batches for o in traced) / rounds, "count"),
        "core.session.runs_per_profile": (
            runs / max(sum(o.profiles for o in traced), 1), "count"),
        "experiments.sweep.hit_ratio": (sum(o.hits for o in traced) / jobs if jobs else 0.0, "ratio"),
        "experiments.sweep.cache_bytes": (sum(o.cache_bytes for o in traced) / rounds, "B"),
        "trace.wall_ms": (traced_wall / rounds * 1e3, "ms"),
        "trace.overhead_pct": ((traced_wall / sum(untraced_s) - 1.0) * 100.0, "%"),
    })
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    detail = {"rounds": rounds, "spans": len(spans), "untraced_s": sum(untraced_s)}
    return metrics, detail, tracer.to_payload()


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(payload, handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_environment()
    try:
        from workloads import WORKLOADS, make_workload
    except ImportError as exc:
        fail(f"cannot import the program: {exc}")
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; pick from {WORKLOADS}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    from repro.gpu import fastcore

    fastcore.kernels()  # build the compiled provider before set-up is timed
    run = Run()
    workload = make_workload(args.workload, args.seed, WORK)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, detail, trace = per_layer(args, workload, run)
    else:
        metrics, detail = end_to_end(args, workload, run)
    # Read after the metrics: provenance imports repro.experiments, which
    # would otherwise count in the profile-* workloads' peak RSS.
    record = {"provenance": provenance(args)}
    failed = len(run.failures)
    record.update({
        "metrics": metrics,
        "detail": detail,
        "attempted": run.attempted,
        "failed": failed,
        "failed_frac": failed / max(run.attempted, 1),
        "failures": run.failures,
    })
    write_json(WORK / "records" / f"{tag}.json", record)
    if args.trace:
        write_json(WORK / "traces" / f"{tag}.json", {"provenance": record["provenance"], **trace})

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<34} {record['failed_frac']:>14.6g} ratio "
          f"({failed} of {run.attempted} attempted)")
    print("  " + json.dumps(detail, sort_keys=True))
    if not args.trace:
        print("note: " + HARDWARE_NOTE)
    for problem in run.failures[:20]:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
