"""One driver per paper table/figure, plus ablations and the sweep engine.

Each module exposes ``run_<experiment>()`` returning a result object with the
rows/series the paper reports and boolean checks for the paper's qualitative
claims.  Drivers register their per-kernel profiling work as
:class:`~repro.experiments.sweep.ProfileJob` specs, so a
:class:`~repro.experiments.sweep.SweepRunner` can fan the whole suite out
across a process pool (``python -m repro.experiments.sweep --all``); the
matching benchmark under ``benchmarks/`` calls the driver and prints the
regenerated table/figure data.
"""

from importlib import import_module

#: Re-exported name -> the submodule that defines it.  Names resolve on first
#: access (PEP 562), so importing the package loads no experiment module -- in
#: particular not ``sweep``, which ``python -m repro.experiments.sweep`` runs as
#: ``__main__``.
_EXPORTS: dict[str, str] = {
    "BinningMarginSweep": "ablations",
    "CoarseCoverageResult": "ablations",
    "DriftSensitivityResult": "ablations",
    "SamplerAblationResult": "ablations",
    "run_binning_margin_sweep": "ablations",
    "run_coarse_coverage": "ablations",
    "run_drift_sensitivity": "ablations",
    "run_sampler_ablation": "ablations",
    "FAST_SCALE": "common",
    "PAPER_SCALE": "common",
    "TINY_SCALE": "common",
    "ExperimentScale": "common",
    "default_scale": "common",
    "scale_by_name": "common",
    "power_sample_period_s": "common",
    "make_backend": "common",
    "make_profiler": "common",
    "Fig5Result": "fig5",
    "run_fig5": "fig5",
    "Fig6Result": "fig6",
    "run_fig6": "fig6",
    "Fig7Result": "fig7",
    "run_fig7": "fig7",
    "Fig8Result": "fig8",
    "run_fig8": "fig8",
    "Fig9Result": "fig9",
    "run_fig9": "fig9",
    "Fig10Result": "fig10",
    "run_fig10": "fig10",
    "EXPERIMENT_NAMES": "sweep",
    "JobFailure": "sweep",
    "KernelSpec": "sweep",
    "ProfileJob": "sweep",
    "SweepConfig": "sweep",
    "SweepJobError": "sweep",
    "SweepManifest": "sweep",
    "SweepRunner": "sweep",
    "configured_adaptive": "sweep",
    "configured_result_mode": "sweep",
    "default_runner": "sweep",
    "execute_job": "sweep",
    "kernel_spec": "sweep",
    "run_jobs": "sweep",
    "run_sweep": "sweep",
    "Table1Result": "table1",
    "run_table1": "table1",
    "Table2Result": "table2",
    "run_table2": "table2",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
