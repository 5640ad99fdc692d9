"""``frames``: single-thread, in-process ``Session.render`` of orbit poses.

The benchmark renders a seeded cycle of ``CYCLE`` distinct poses spread
evenly round the scene, longer than the renderer's frame cache, so every
frame pays for frame preparation.  ``setup_s`` is the time from a fresh
``Session`` to a warm renderer: scene build, ``StreamingRenderer``
(voxel grid, VQ fit, layout) and the warm-up frames.
"""

from __future__ import annotations

import contextlib
import math
import time
from typing import Dict, List, Tuple

import numpy as np

from checks import frame_mismatch, image_digest, stats_mismatch
from common import HostSpeed, median, peak_rss_mb, scale_times, timing_summary
from spans import (
    Tracer,
    layer_totals,
    mean_span_ms,
    render_layer_metrics,
    self_times,
    traced,
)

from repro.api import Session
from repro.core.config import StreamingConfig
from repro.gaussians.camera import Camera
from repro.scenes.registry import SCENE_REGISTRY

SCENE = "train"
#: Distinct poses per cycle; more than the default 8-entry frame cache.
CYCLE = 12
SETUPS = 3
WARMUP_FRAMES = 2
#: Cycle positions also rendered through the per-voxel reference oracle.
ORACLE_POSES = (0, CYCLE // 2)


def orbit_camera(scene: str, azimuth_deg: float, elevation_deg: float) -> Camera:
    """A camera on the scene's evaluation orbit, looking at its centre.

    The geometry of ``repro.scenes.registry.default_eval_camera`` at any
    azimuth and elevation.  Its whole-degree views would repeat within a
    run, and the renderer's content-keyed caches would then serve repeats.
    """
    desc = SCENE_REGISTRY[scene]
    width, height = desc.sim_resolution
    radius = desc.extent * (1.15 if desc.layout == "object" else 0.62)
    center = np.zeros(3)
    if desc.layout == "room":
        center = np.array([0.0, 0.0, 0.08 * desc.extent])
    azimuth, elevation = math.radians(azimuth_deg), math.radians(elevation_deg)
    eye = center + radius * np.array(
        [
            math.cos(azimuth) * math.cos(elevation),
            math.sin(azimuth) * math.cos(elevation),
            math.sin(elevation),
        ]
    )
    return Camera.from_lookat(eye=eye, target=center, width=width, height=height)


def cycle_poses(seed: int) -> Tuple[List[Camera], List[Camera]]:
    """The seeded pose cycle and the warm-up poses (not in the cycle).

    Poses are spread evenly round the orbit from a seeded phase with a
    small seeded jitter, so each seed renders different views at about the
    same total cost.
    """
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 360.0)
    cycle = [
        orbit_camera(
            SCENE,
            phase + 360.0 * i / CYCLE + rng.uniform(-4.0, 4.0),
            22.0 + rng.uniform(-3.0, 3.0),
        )
        for i in range(CYCLE)
    ]
    warmup = [
        orbit_camera(SCENE, phase + 180.0 * i, 35.0) for i in range(WARMUP_FRAMES)
    ]
    return cycle, warmup


def _setup(warmup: List[Camera]) -> Session:
    session = Session()
    for camera in warmup:
        session.render(SCENE, camera)
    return session


def _oracle_failures(cycle: List[Camera], first: Dict[int, object]) -> Dict[int, str]:
    """Cycle positions whose fast-path frame disagrees with the oracle."""
    reference = StreamingConfig().with_options(streaming_kernel="reference")
    failures = {}
    with Session() as oracle:
        for index in (i for i in ORACLE_POSES if i in first):
            expected = oracle.render(SCENE, cycle[index], config=reference)
            got = first[index]
            reason = frame_mismatch(
                expected.image, expected.stats, got.image, got.stats
            )
            if reason:
                failures[index] = reason
    return failures


class _FrameChecker:
    """Every frame must equal the first render of its pose, bit for bit."""

    def __init__(self) -> None:
        self.first: Dict[int, object] = {}
        self.digests: Dict[int, str] = {}
        self.failures: List[Tuple[int, str]] = []
        self.poses: List[int] = []

    def add(self, pose: int, response) -> None:
        frame = len(self.poses)
        self.poses.append(pose)
        if pose not in self.first:
            self.first[pose] = response
            self.digests[pose] = image_digest(response.image)
            return
        if image_digest(response.image) != self.digests[pose]:
            self.failures.append((frame, "image differs from an earlier render"))
            return
        reason = stats_mismatch(self.first[pose].stats, response.stats)
        if reason:
            self.failures.append((frame, reason))

    def failed_frames(self, oracle: Dict[int, str]) -> int:
        failed = {frame for frame, _ in self.failures}
        failed.update(f for f, pose in enumerate(self.poses) if pose in oracle)
        return len(failed)


def run(seed: int, seconds: float) -> Dict[str, object]:
    cycle, warmup = cycle_poses(seed)
    host = HostSpeed()
    setups, raw_setups = [], []
    session = None
    for _ in range(SETUPS):
        if session is not None:
            session.close()
        session, wall, scaled = host.timed(_setup, warmup)
        raw_setups.append(wall)
        setups.append(scaled)

    checker = _FrameChecker()
    walls: List[float] = []
    times: List[float] = []
    host.probe()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        pose = len(times) % CYCLE
        response, wall, scaled = host.timed(session.render, SCENE, cycle[pose])
        walls.append(wall)
        times.append(scaled)
        checker.add(pose, response)
    rss = peak_rss_mb()
    session.close()

    oracle = _oracle_failures(cycle, checker.first)
    failed = checker.failed_frames(oracle)
    summary = timing_summary("frame", times)
    return {
        "attempted": len(times),
        "failed": failed,
        "metrics": {
            "setup_s": median(setups),
            "latency_ms": summary["median_ms"],
            "latency_ms_tail": summary["tail_ms"],
            "throughput_per_s": len(times) / sum(times),
            "success_ratio": (len(times) - failed) / len(times),
            "peak_rss_mb": rss,
        },
        "details": {
            "scene": SCENE,
            "cycle": CYCLE,
            "setups_s": setups,
            "frame": summary,
            "wall": {
                "setups_s": raw_setups,
                "frame": timing_summary("frame", walls),
                "throughput_per_s": len(walls) / sum(walls),
            },
            "host": host.summary(),
            "failures": checker.failures[:10],
            "oracle_failures": oracle,
        },
    }


# ----------------------------------------------------------------------
# Traced run.
# ----------------------------------------------------------------------
def run_traced(seed: int, seconds: float) -> Dict[str, object]:
    cycle, warmup = cycle_poses(seed)
    host = HostSpeed()
    setup_tracer = Tracer()
    with traced(setup_tracer):
        session = _setup(warmup)
    setup_spans = setup_tracer.spans

    tracer = Tracer()
    checker = _FrameChecker()
    plain: List[float] = []
    spanned: List[float] = []

    def render_in_span(camera: Camera, frame: int):
        with tracer.span("frame", request=f"frame-{frame}"):
            return session.render(SCENE, camera)

    host.probe()
    started = time.perf_counter()
    # Whole cycles alternate untraced and traced, so both see every pose.
    while not spanned or time.perf_counter() - started < seconds:
        for use_spans, times in ((False, plain), (True, spanned)):
            with traced(tracer) if use_spans else contextlib.nullcontext():
                for pose in range(CYCLE):
                    frame = len(checker.poses)
                    if use_spans:
                        response, _, scaled = host.timed(
                            render_in_span, cycle[pose], frame
                        )
                    else:
                        response, _, scaled = host.timed(
                            session.render, SCENE, cycle[pose]
                        )
                    times.append(scaled)
                    checker.add(pose, response)
    engine = session.stats()["service"]
    session.close()

    spans = tracer.spans
    selfs = self_times(spans)
    frames = [i for i, span in enumerate(spans) if span.name == "frame"]
    lookups = engine["renderer_hits"] + engine["renderer_misses"]
    layer_ms = {
        "scenes.build_ms": mean_span_ms(setup_spans, "scenes.build"),
        "core.renderer_build_ms": mean_span_ms(setup_spans, "core.renderer_build"),
        **render_layer_metrics(spans),
    }
    metrics = {
        **scale_times(layer_ms, host.run_factor()),
        "engine.renderer_hit_ratio": (
            engine["renderer_hits"] / lookups if lookups else 0.0
        ),
        "trace.overhead_ratio": median(spanned) / median(plain) - 1.0,
        "trace.uncovered_share": sum(selfs[i] for i in frames)
        / sum(spans[i].duration for i in frames),
    }
    return {
        "attempted": len(checker.poses),
        "failed": checker.failed_frames({}),
        "metrics": metrics,
        "details": {
            "untraced_frame": timing_summary("frame", plain),
            "traced_frame": timing_summary("frame", spanned),
            "layer_ms_wall": layer_ms,
            "host": host.summary(),
            "setup_layers": layer_totals(setup_spans),
            "frame_layers": layer_totals(spans, within="frame"),
            "failures": checker.failures[:10],
        },
        "trace": {"setup": setup_tracer.dump(), "frames": tracer.dump()},
    }
