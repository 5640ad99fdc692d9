"""``sweep``: ``Session(jobs=2).sweep`` over a design-space grid.

One scene-context axis (``voxel_size``, as many values as workers) is
crossed with arch-only axes (``num_hfu``, ``cfus_per_hfu``,
``sram_scale``).  Every repetition runs in a fresh ``Session`` with the
result cache off: a reused session would re-shard from the previous
sweep's timings and find its scene contexts already built.  ``setup_s`` is
the time a fresh interpreter takes to import the program and build the
scene model.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from checks import metrics_mismatch
from common import (
    HostSpeed,
    child_env,
    live_children_peak_rss_mb,
    median,
    peak_rss_mb,
    scale_times,
    timing_summary,
)
from spans import Tracer, mean_span_ms, render_layer_metrics, traced

from repro.api import ExperimentSpec, Session

SCENE = "lego"
JOBS = 2
SETUPS = 5
#: A design-space sweep evaluates the accelerator model, not image
#: quality: half-resolution contexts without VQ keep one repetition near a
#: second, so a run holds enough repetitions for a tail.
BASE = dict(scene=SCENE, compression="none", resolution_scale=0.5)

_READY_PROBE = (
    "import repro.api, repro.scenes.registry as r; "
    f"r.build_scene({SCENE!r}); print('ready', flush=True)"
)


def grid(seed: int) -> Dict[str, List]:
    """The seeded grid: 2 voxel sizes x 2 x 2 x 2 arch values (16 points)."""
    rng = np.random.default_rng(seed)

    def pick(values) -> List:
        chosen = rng.choice(len(values), size=2, replace=False)
        return [values[i] for i in sorted(chosen)]

    return {
        "voxel_size": [
            round(0.35 + rng.uniform(-0.02, 0.02), 4),
            round(0.5 + rng.uniform(-0.02, 0.02), 4),
        ],
        "num_hfu": pick([2, 4, 8]),
        "cfus_per_hfu": pick([2, 4, 8]),
        "sram_scale": pick([0.5, 1.0, 2.0]),
    }


def _ready() -> None:
    """Start a fresh interpreter and wait until program and scene are ready."""
    probe = subprocess.Popen(
        [sys.executable, "-c", _READY_PROBE],
        stdout=subprocess.PIPE,
        env=child_env(),
    )
    try:
        line = probe.stdout.readline()
        probe.wait(timeout=60)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
        probe.stdout.close()
    if line.strip() != b"ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")


def _join_workers() -> None:
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def _sweep(
    grid_axes: Dict[str, List], jobs: int, tracer: Optional[Tracer] = None
) -> Tuple[object, float, float]:
    """One sweep in a fresh session: ``(result, wall s, workers' peak MB)``.

    Timing covers the ``sweep`` call; closing the session and joining its
    workers happen after, so the caller's next probe runs on a quiet host.
    """
    session = Session(jobs=jobs)
    try:
        with traced(tracer) if tracer else contextlib.nullcontext():
            started = time.perf_counter()
            result = session.sweep(ExperimentSpec(**BASE), cache=False, **grid_axes)
            wall = time.perf_counter() - started
        workers_mb = live_children_peak_rss_mb()
        contexts = session.stats()["context_misses"]
    finally:
        session.close()
        _join_workers()
    result.meta["contexts_built"] = contexts
    return result, wall, workers_mb


def _point_failures(reference, result) -> List[str]:
    """One reason per grid point of ``result`` that disagrees with ``reference``."""
    expected = {p.meta.get("label"): p.metrics for p in reference.results}
    failures = []
    for point in result.results:
        label = point.meta.get("label")
        if label not in expected:
            failures.append(f"{label}: not in the serial sweep")
            continue
        reason = metrics_mismatch(expected[label], point.metrics)
        if reason:
            failures.append(f"{label}: {reason}")
    missing = len(reference.results) - len(result.results)
    failures.extend(["point missing"] * max(0, missing))
    return failures


def run(seed: int, seconds: float) -> Dict[str, object]:
    axes = grid(seed)
    host = HostSpeed()
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        _, wall, scaled = host.timed(_ready)
        raw_setups.append(wall)
        setups.append(scaled)
    _sweep(axes, JOBS)  # warm-up repetition, discarded

    walls: List[float] = []
    times: List[float] = []
    results = []
    workers_mb = 0.0
    host.probe()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        result, wall, mb = _sweep(axes, JOBS)
        walls.append(wall)
        times.append(wall * host.next_factor())
        results.append(result)
        workers_mb = max(workers_mb, mb)
    rss = peak_rss_mb() + workers_mb

    reference, _, _ = _sweep(axes, 1)
    points = len(reference.results)
    failures = [
        reason for result in results for reason in _point_failures(reference, result)
    ]
    attempted = points * len(results)
    summary = timing_summary("sweep", times)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            "setup_s": median(setups),
            "latency_ms": summary["median_ms"],
            "latency_ms_tail": summary["tail_ms"],
            "throughput_per_s": attempted / sum(times),
            "success_ratio": (attempted - len(failures)) / attempted,
            "peak_rss_mb": rss,
        },
        "details": {
            "base": BASE,
            "grid": axes,
            "points_per_sweep": points,
            "jobs": JOBS,
            "setups_s": setups,
            "sweep": summary,
            "wall": {
                "setups_s": raw_setups,
                "sweep": timing_summary("sweep", walls),
                "throughput_per_s": attempted / sum(walls),
            },
            "host": host.summary(),
            "failures": failures[:10],
        },
    }


def run_traced(seed: int, seconds: float) -> Dict[str, object]:
    """Serial sweeps with and without spans, and untraced parallel sweeps."""
    axes = grid(seed)
    host = HostSpeed()
    _sweep(axes, JOBS)  # warm-up repetition, discarded
    tracer = Tracer()
    plain: List[float] = []
    spanned: List[float] = []
    parallel: List[float] = []
    contexts_built = 0
    failures: List[str] = []
    attempted = 0
    host.probe()
    started = time.perf_counter()
    while not spanned or time.perf_counter() - started < seconds:
        reference, wall, _ = _sweep(axes, 1)
        plain.append(wall * host.next_factor())
        with tracer.span("sweep", request=f"sweep-{len(spanned)}"):
            result, wall, _ = _sweep(axes, 1, tracer)
        spanned.append(wall * host.next_factor())
        contexts_built += result.meta["contexts_built"]
        parallel_result, wall, _ = _sweep(axes, JOBS)
        parallel.append(wall * host.next_factor())
        for checked in (result, parallel_result):
            attempted += len(checked.results)
            failures.extend(_point_failures(reference, checked))

    spans = tracer.spans
    context_ms = sum(s.duration for s in spans if s.name == "scenes.context_build")
    layer_ms = {
        **render_layer_metrics(spans),
        "scenes.context_build_ms": 1e3 * context_ms / contexts_built
        if contexts_built
        else 0.0,
        "arch.evaluate_ms": mean_span_ms(spans, "arch.evaluate"),
    }
    metrics = {
        **scale_times(layer_ms, host.run_factor()),
        "api.parallel_efficiency": median(spanned) / (JOBS * median(parallel)),
        "trace.overhead_ratio": median(spanned) / median(plain) - 1.0,
    }
    return {
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "details": {
            "grid": axes,
            "serial_untraced": timing_summary("sweep", plain),
            "serial_traced": timing_summary("sweep", spanned),
            "parallel": timing_summary("sweep", parallel),
            "contexts_built": contexts_built,
            "layer_ms_wall": layer_ms,
            "host": host.summary(),
            "failures": failures[:10],
        },
        "trace": {"sweeps": tracer.dump()},
    }
