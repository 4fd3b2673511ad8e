"""FinGraV methodology: fine-grain GPU power profiling (the paper's contribution).

The core package is platform-agnostic: it drives any
:class:`~repro.core.backend.ProfilingBackend` through the nine methodology
steps of paper Section IV-B and produces :class:`~repro.core.profile.FineGrainProfile`
objects (SSE, SSP, and whole-run views), together with the guidance table,
binning, time-sync and differentiation building blocks.
"""

from .backend import PrecedingWork, ProfilingBackend
from .baselines import (
    CoarseSamplerEstimator,
    CoverageReport,
    full_methodology_profiler,
    no_binning_profiler,
    reduced_runs_profiler,
    sse_only_profiler,
    unsynchronized_profiler,
)
from .binning import BinningResult, ExecutionTimeBinner, histogram_of_durations
from .differentiation import (
    DifferentiationPlan,
    StabilitySearchResult,
    WarmupAnalysis,
    analyze_warmups,
    build_plan,
    detect_throttling,
    search_power_stable_executions,
    ssp_execution_count,
)
from .guidance import GuidanceEntry, GuidanceTable, PAPER_GUIDANCE, paper_guidance_table
from .profile import (
    FineGrainProfile,
    ProfileColumns,
    ProfileKind,
    ProfilePoint,
    columns_from_lois,
    measurement_error,
    profile_from_lois,
    profile_from_lois_reference,
)
from .profiler import (
    PROFILE_SECTIONS,
    FinGraVProfiler,
    FinGraVResult,
    ProfilerConfig,
    SlimFinGraVResult,
    normalize_profile_sections,
)
from .records import (
    COMPONENT_KEYS,
    DelayCalibration,
    ExecutionRole,
    ExecutionTiming,
    LogOfInterest,
    PowerReading,
    ReadingColumns,
    RunRecord,
    TimestampAnchor,
)
from .report import (
    comparative_report,
    format_duration,
    format_table,
    guidance_report,
    profile_summary_row,
    result_report,
)
from .session import ProfileSession, ProfileSnapshot, STOP_REASONS
from .stitching import ProfileStitcher, StitchedRunSeries
from .timesync import (
    ClockSynchronizer,
    NaiveIndexSynchronizer,
    match_execution,
    synchronizer_for_run,
)

__all__ = [
    "PrecedingWork",
    "ProfilingBackend",
    "CoarseSamplerEstimator",
    "CoverageReport",
    "full_methodology_profiler",
    "no_binning_profiler",
    "reduced_runs_profiler",
    "sse_only_profiler",
    "unsynchronized_profiler",
    "BinningResult",
    "ExecutionTimeBinner",
    "histogram_of_durations",
    "DifferentiationPlan",
    "StabilitySearchResult",
    "WarmupAnalysis",
    "analyze_warmups",
    "build_plan",
    "detect_throttling",
    "search_power_stable_executions",
    "ssp_execution_count",
    "GuidanceEntry",
    "GuidanceTable",
    "PAPER_GUIDANCE",
    "paper_guidance_table",
    "FineGrainProfile",
    "ProfileColumns",
    "ProfileKind",
    "ProfilePoint",
    "columns_from_lois",
    "measurement_error",
    "profile_from_lois",
    "profile_from_lois_reference",
    "FinGraVProfiler",
    "FinGraVResult",
    "SlimFinGraVResult",
    "ProfilerConfig",
    "PROFILE_SECTIONS",
    "normalize_profile_sections",
    "COMPONENT_KEYS",
    "DelayCalibration",
    "ExecutionRole",
    "ExecutionTiming",
    "LogOfInterest",
    "PowerReading",
    "ReadingColumns",
    "RunRecord",
    "TimestampAnchor",
    "comparative_report",
    "format_duration",
    "format_table",
    "guidance_report",
    "profile_summary_row",
    "result_report",
    "ProfileSession",
    "ProfileSnapshot",
    "STOP_REASONS",
    "ProfileStitcher",
    "StitchedRunSeries",
    "ClockSynchronizer",
    "NaiveIndexSynchronizer",
    "match_execution",
    "synchronizer_for_run",
]
