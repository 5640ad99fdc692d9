"""In-memory spans around the calls into each layer of the program.

The benchmark does not edit the program: :func:`instrument` wraps the
layer entry points named in :data:`LAYERS` at the attribute their callers
resolve — the class attribute of a method, and every ``repro.*`` module
global bound to a module-level function (``from x import f`` makes a
binding per importing module).  An entry point the program no longer has
is skipped, so its layer reads zero calls instead of failing the run.

Spans are ``(name, start, end, parent, request)`` records kept in memory;
:meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``(span name, defining module, attribute)`` of every wrapped entry point.
#: ``Class.method`` attributes are wrapped on the class.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("scenes.build", "repro.scenes.registry", "build_scene"),
    ("scenes.context_build", "repro.api.session", "Session.context"),
    ("core.renderer_build", "repro.core.pipeline", "StreamingRenderer.__init__"),
    ("core.render", "repro.core.pipeline", "StreamingRenderer.render"),
    ("core.ray_voxel", "repro.core.ray_voxel", "ordering_tables_for_tiles"),
    ("core.voxel_order", "repro.core.voxel_order", "topological_orders_for_tables"),
    (
        "core.filter",
        "repro.core.hierarchical_filter",
        "HierarchicalFilter.filter_voxel",
    ),
    (
        "core.filter",
        "repro.core.hierarchical_filter",
        "HierarchicalFilter.filter_voxel_batch",
    ),
    ("gaussians.projection", "repro.gaussians.projection", "project_gaussians"),
    ("engine.frame_cache", "repro.engine.cache", "FrameCache.get"),
    ("arch.evaluate", "repro.arch.accelerator", "StreamingGSAccelerator.evaluate"),
)


def _render_counts(output) -> Optional[Dict[str, int]]:
    stats = getattr(output, "stats", None)
    if stats is None:
        return None
    return {
        "gaussians_streamed": int(stats.gaussians_streamed),
        "blended_fragments": int(stats.blended_fragments),
        "dram_bytes": int(stats.traffic.total_bytes),
    }


#: Per span name: what a span keeps of its call's result (``Span.info``).
RESULT_INFO: Dict[str, Callable[[object], object]] = {
    "engine.frame_cache": lambda result: result is not None,
    "core.render": _render_counts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: str = ""
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread of the benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Entry points found and wrapped, and those the program lacks.
        self.wrapped: List[str] = []
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: str = "") -> Iterator[Span]:
        stack = self._stack()
        record = Span(name, 0.0, parent=stack[-1] if stack else -1, request=request)
        if not request and stack:
            record.request = self.spans[stack[-1]].request
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        keep = RESULT_INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if keep is not None:
                record.info = keep(result)
            return result

        return traced

    def dump(self) -> Dict[str, object]:
        return {
            "wrapped": self.wrapped,
            "missing": self.missing,
            "fields": ["name", "start", "end", "parent", "request", "info"],
            "spans": [
                [s.name, s.start, s.end, s.parent, s.request, s.info]
                for s in self.spans
            ],
        }


# ----------------------------------------------------------------------
# Installing the wrappers.
# ----------------------------------------------------------------------
def _program_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point of :data:`LAYERS`; returns the undo function."""
    undo: List[Tuple[object, str, object]] = []
    tracer.wrapped, tracer.missing = [], []
    # Load the whole package first, so every module binding a wrapped
    # function exists when the bindings are collected.
    importlib.import_module("repro")
    for name, module_name, attribute in LAYERS:
        label = f"{module_name}.{attribute}"
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            tracer.missing.append(label)
            continue
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(member) if isinstance(owner, type) else None
            if original is None:
                tracer.missing.append(label)
                continue
            undo.append((owner, member, original))
            setattr(owner, member, tracer.wrap(name, original))
        else:
            original = getattr(module, member, None)
            if original is None:
                tracer.missing.append(label)
                continue
            wrapper = tracer.wrap(name, original)
            for program_module in _program_modules():
                for key, value in list(vars(program_module).items()):
                    if value is original:
                        undo.append((program_module, key, original))
                        setattr(program_module, key, wrapper)
        tracer.wrapped.append(label)

    def restore() -> None:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Run a block with every layer wrapped, unwrapping afterwards."""
    restore = instrument(tracer)
    try:
        yield tracer
    finally:
        restore()


# ----------------------------------------------------------------------
# Analysis.
# ----------------------------------------------------------------------
def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    return [span.duration - child_time[i] for i, span in enumerate(spans)]


def has_ancestor(spans: List[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_totals(
    spans: List[Span], within: Optional[str] = None
) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total and self seconds.

    With ``within``, only spans nested (at any depth) in a span of that
    name count — the span named ``within`` itself included.
    """
    selfs = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for index, span in enumerate(spans):
        if within is not None and span.name != within:
            if not has_ancestor(spans, index, within):
                continue
        entry = totals[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += selfs[index]
    return dict(totals)


def render_layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-render layer metrics from the spans nested in ``core.render``.

    Times are self times in ms per render; the workload counts are exact
    per-render means of the renders' ``StreamingStats``.
    """
    inside = layer_totals(spans, within="core.render")
    renders = [s for s in spans if s.name == "core.render"]
    if not renders:
        return {}
    count = len(renders)

    def self_ms(name: str) -> float:
        return 1e3 * inside.get(name, {}).get("self_s", 0.0) / count

    lookups = [s for s in spans if s.name == "engine.frame_cache"]
    counts = [s.info for s in renders if isinstance(s.info, dict)]

    def mean_count(key: str) -> float:
        return sum(c[key] for c in counts) / len(counts) if counts else 0.0

    return {
        "core.ray_voxel_ms": self_ms("core.ray_voxel"),
        "core.voxel_order_ms": self_ms("core.voxel_order"),
        "core.filter_ms": self_ms("core.filter"),
        "gaussians.projection_ms": self_ms("gaussians.projection"),
        "gaussians.projection_calls": inside.get("gaussians.projection", {}).get(
            "calls", 0
        )
        / count,
        "core.render_self_ms": self_ms("core.render"),
        "engine.frame_cache_hit_ratio": (
            sum(1 for s in lookups if s.info) / len(lookups) if lookups else 0.0
        ),
        "core.gaussians_streamed": mean_count("gaussians_streamed"),
        "core.blended_fragments": mean_count("blended_fragments"),
        "arch.dram_mb_per_frame": mean_count("dram_bytes") / 1e6,
    }


def mean_span_ms(spans: List[Span], name: str) -> float:
    """Mean duration in ms of the spans called ``name`` (0 when none)."""
    durations = [s.duration for s in spans if s.name == name]
    return 1e3 * sum(durations) / len(durations) if durations else 0.0
