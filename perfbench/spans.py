"""Span tracing of the library's layers from outside the library.

The benchmark attributes host time to layers by wrapping public entry points
of ``repro.gpu``, ``repro.core``, ``repro.analysis`` and ``repro.experiments``
for the duration of a traced pass.  Nothing inside the library changes:
:class:`Patcher` swaps a class attribute or module global for a wrapper and
puts the original object back on :meth:`Patcher.remove`.

Spans are kept in memory as ``(layer, start, end, parent, call)`` tuples --
``parent`` is the index of the enclosing span (``-1`` for a root) and
``call`` the id shared by every span of one benchmark round -- and written
out once the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

#: The layer name of the benchmark's own per-round root span.  Its self time
#: is the part of a round no layer span covers (the untraced remainder).
ROOT = "bench.other"


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _executions(args: tuple, kwargs: dict, result, before) -> int:
    # KernelLauncher.sequence_into(self, arena, descriptor, executions, ...)
    return int(_arg(args, kwargs, 3, "executions"))


def _launched(args: tuple, kwargs: dict, result, before) -> int:
    # KernelLauncher.launch_sequence(self, descriptor, executions, ...)
    return int(_arg(args, kwargs, 2, "executions"))


def _readings(args: tuple, kwargs: dict, result, before) -> int:
    return int(len(result[0]))


def _listed(args: tuple, kwargs: dict, result, before) -> int:
    return len(result)


def _lois_before(args: tuple, kwargs: dict) -> int:
    # ProfileStitcher.extend(self, series, new_records) grows series in place.
    return _arg(args, kwargs, 1, "series").num_lois


def _lois(args: tuple, kwargs: dict, result, before) -> int:
    return result.num_lois - (before or 0)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``qualname`` is ``func`` or ``Class.method``."""

    module: str
    qualname: str
    layer: str
    #: Name of a per-layer count and how to read it from a call.
    count: str | None = None
    counter: Callable | None = None
    before: Callable | None = None


#: Every traced entry point, grouped by layer.  A layer's self time is the
#: time inside its spans minus the time inside spans nested in them.  A count
#: is taken only at the outermost span of its layer, so that ``park`` calling
#: ``idle`` is one idle call and ``samples`` calling ``sample_columns`` counts
#: its readings once.
TARGETS: tuple[Target, ...] = (
    Target("repro.gpu.device", "SimulatedGPU.idle", "gpu.device.idle", "gpu.device.idle_calls"),
    Target("repro.gpu.device", "SimulatedGPU.park", "gpu.device.idle", "gpu.device.idle_calls"),
    Target("repro.gpu.device", "SimulatedGPU.start_recording", "gpu.device.record"),
    Target("repro.gpu.device", "SimulatedGPU.stop_recording", "gpu.device.record"),
    Target("repro.gpu.device", "SimulatedGPU.read_timestamp", "gpu.device.record"),
    Target("repro.gpu.scheduler", "KernelLauncher.sequence_into", "gpu.scheduler.launch",
           "gpu.scheduler.executions", _executions),
    Target("repro.gpu.scheduler", "KernelLauncher.launch_sequence", "gpu.scheduler.launch",
           "gpu.scheduler.executions", _launched),
    Target("repro.gpu.telemetry", "AveragingPowerLogger.sample_columns", "gpu.telemetry.sample",
           "gpu.telemetry.readings", _readings),
    Target("repro.gpu.telemetry", "AveragingPowerLogger.samples", "gpu.telemetry.sample",
           "gpu.telemetry.readings", _listed),
    Target("repro.gpu.telemetry", "InstantaneousPowerSampler.sample_columns",
           "gpu.telemetry.sample", "gpu.telemetry.readings", _readings),
    Target("repro.gpu.telemetry", "InstantaneousPowerSampler.samples", "gpu.telemetry.sample",
           "gpu.telemetry.readings", _listed),
    Target("repro.gpu.backend", "SimulatedDeviceBackend.run", "gpu.backend.glue",
           "gpu.backend.runs"),
    Target("repro.gpu.backend", "SimulatedDeviceBackend.time_kernel", "gpu.backend.setup"),
    Target("repro.gpu.backend", "SimulatedDeviceBackend.calibrate_read_delay",
           "gpu.backend.setup"),
    Target("repro.core.differentiation", "build_plan", "core.differentiation.plan"),
    Target("repro.core.binning", "ExecutionTimeBinner.extend", "core.binning.bin"),
    Target("repro.core.binning", "ExecutionTimeBinner.bin", "core.binning.bin"),
    Target("repro.core.stitching", "ProfileStitcher.collect", "core.stitching.ingest",
           "core.stitching.lois", _lois),
    Target("repro.core.stitching", "ProfileStitcher.extend", "core.stitching.ingest",
           "core.stitching.lois", _lois, _lois_before),
    Target("repro.core.stitching", "ProfileStitcher.section_profiles",
           "core.stitching.sections"),
    Target("repro.core.session", "ProfileSession.step", "core.session.step"),
    Target("repro.core.session", "ProfileSession.snapshot", "core.session.step"),
    Target("repro.core.session", "ProfileSession.result", "core.session.step"),
    Target("repro.analysis.errors", "evaluate_profile_convergence", "analysis.errors.converge",
           "analysis.errors.converge_calls"),
    Target("repro.experiments.sweep", "execute_job", "experiments.sweep.execute"),
    Target("repro.experiments.sweep", "SweepRunner.run", "experiments.sweep.cache"),
    Target("repro.experiments.sweep", "run_sweep", "experiments.sweep.assemble"),
)


def resolve(module: str, qualname: str) -> tuple[object, str]:
    """The object that holds entry point ``qualname`` and the attribute name."""
    owner: object = importlib.import_module(module)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def leftover_wrappers(targets: tuple[Target, ...] = TARGETS) -> list[str]:
    """Entry points that still carry a wrapper (empty after a clean removal)."""
    return [
        t.qualname for t in targets
        if hasattr(getattr(*resolve(t.module, t.qualname)), "__wrapped__")
    ]


class Patcher:
    """Replaces entry points with wrappers and restores the originals.

    A method is replaced on the class that defines it.  A module-level
    function is replaced in every loaded ``repro`` module that holds it under
    its own name, because callers such as ``repro.core.session`` bind
    ``build_plan`` at import time.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module: str, qualname: str, make_wrapper: Callable[[Callable], Callable]) -> None:
        owner, name = resolve(module, qualname)
        if isinstance(owner, type):
            if name not in vars(owner):
                raise AttributeError(f"{qualname} is not defined on its class")
            original = vars(owner)[name]
            holders = [owner]
        else:
            original = getattr(owner, name)
            holders = [
                loaded for key, loaded in list(sys.modules.items())
                if (key == "repro" or key.startswith("repro.")) and loaded is not None
                and vars(loaded).get(name) is original
            ]
        wrapper = make_wrapper(original)
        for holder in holders:
            self._saved.append((holder, name, original))
            setattr(holder, name, wrapper)

    def remove(self) -> None:
        """Put every original back, newest first."""
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)


class Tracer:
    """Records layer spans while installed; see the module docstring."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.layers: list[str] = list(dict.fromkeys(t.layer for t in targets)) + [ROOT]
        self._layer_ids = {name: i for i, name in enumerate(self.layers)}
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._depth = [0] * len(self.layers)
        self._call = -1
        self._patcher = Patcher()

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        for target in self.targets:
            self._patcher.wrap(target.module, target.qualname, self._wrapper_for(target))

    def remove(self) -> None:
        self._patcher.remove()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    # ------------------------------------------------------------------ #
    def _open(self, layer_id: int) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._depth[layer_id] += 1
        return index

    def _close(self, index: int, layer_id: int, start: float, end: float) -> None:
        self._stack.pop()
        self._depth[layer_id] -= 1
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (layer_id, start, end, parent, self._call)

    @contextmanager
    def round(self, call: int) -> Iterator[None]:
        """One benchmark round, recorded as a root span with id ``call``."""
        self._call = call
        root = self._layer_ids[ROOT]
        index = self._open(root)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, root, start, time.perf_counter())

    def _wrapper_for(self, target: Target) -> Callable[[Callable], Callable]:
        tracer = self
        layer_id = self._layer_ids[target.layer]
        count, counter, before = target.count, target.counter, target.before
        if count is not None:
            self.counts.setdefault(count, 0)
        clock = time.perf_counter

        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                pre = before(args, kwargs) if before is not None else None
                outermost = tracer._depth[layer_id] == 0
                index = tracer._open(layer_id)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index, layer_id, start, clock())
                if count is not None and outermost:
                    tracer.counts[count] += (
                        1 if counter is None else counter(args, kwargs, result, pre)
                    )
                return result

            traced.__wrapped__ = original
            traced.__name__ = getattr(original, "__name__", "traced")
            return traced

        return make

    # ------------------------------------------------------------------ #
    def closed_spans(self) -> list[tuple[int, float, float, int, int]]:
        if any(span is None for span in self.spans):
            raise RuntimeError("a span is still open")
        return list(self.spans)  # type: ignore[arg-type]

    def to_payload(self) -> dict[str, object]:
        """JSON-ready spans: layer names plus ``[layer, start, end, parent, call]``."""
        return {
            "layers": self.layers,
            "fields": ["layer", "start_s", "end_s", "parent", "call"],
            "spans": [list(span) for span in self.closed_spans()],
        }


def self_times(spans: list[tuple[int, float, float, int, int]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so the result never goes negative and never counts a moment
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result: list[float] = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def layer_self_times(
    spans: list[tuple[int, float, float, int, int]], layers: list[str]
) -> dict[str, float]:
    """Total self time per layer name, in seconds."""
    totals = {name: 0.0 for name in layers}
    for span, own in zip(spans, self_times(spans)):
        totals[layers[span[0]]] += own
    return totals


def inclusive_times(
    spans: list[tuple[int, float, float, int, int]], layers: list[str], layer: str
) -> list[float]:
    """Durations of every span of ``layer``, children included."""
    wanted = layers.index(layer)
    return [end - start for lid, start, end, _, _ in spans if lid == wanted]


__all__ = [
    "ROOT",
    "TARGETS",
    "Target",
    "resolve",
    "leftover_wrappers",
    "Patcher",
    "Tracer",
    "self_times",
    "layer_self_times",
    "inclusive_times",
]
