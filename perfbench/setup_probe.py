"""Times one fresh interpreter's set-up for a workload; prints one JSON line.

Set-up is importing what the workload needs, resolving the engine and the
compiled-kernel provider, and constructing the first backend.  Run as
``python3 perfbench/setup_probe.py <profile|sweep> <repo src dir>``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    kind, src = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    if kind == "sweep":
        from repro.experiments import (  # noqa: F401
            ablations, fig5, fig6, fig7, fig8, fig9, fig10, sweep, table1, table2,
        )
        from repro.experiments.common import make_backend as build
    else:
        from repro import FinGraVProfiler, ProfilerConfig, SimulatedDeviceBackend  # noqa: F401
        from repro.kernels.workloads import cb_gemm, collective_suite, mb_gemv  # noqa: F401

        build = SimulatedDeviceBackend
    imported = time.perf_counter()
    from repro.gpu import fastcore

    engine = fastcore.resolve_engine()
    provider = fastcore.provider_name()
    build(seed=0)
    done = time.perf_counter()
    print(json.dumps({
        "import_s": imported - _START,
        "setup_s": done - _START,
        "engine": engine,
        "provider": provider,
    }))


if __name__ == "__main__":
    main()
