"""Micro-benchmarks of the blending kernels and the streaming render path.

:func:`run_kernel_benchmark` times the tile-centric render of a seeded
synthetic scene under each registered blending kernel, verifies the outputs
agree, and reports the speedup of the vectorized kernel over the reference
loop (``benchmarks/bench_engine.py`` → ``BENCH_engine.json``; the runner's
``engine`` experiment).

:func:`run_streaming_benchmark` does the same for the memory-centric
streaming pipeline's render paths: the voxel-at-a-time reference loop
against the frame-level fast path (``StreamingConfig.streaming_kernel``),
checking that images agree within 1e-9 and that every workload statistic —
fragments, filter reductions, depth-order violation sets — is exactly
equal (``benchmarks/bench_streaming.py`` → ``BENCH_streaming.json``).

:func:`run_trajectory_benchmark` times a registered camera trajectory
through the fast path, with the same parity contract against the
reference oracle, frame by frame
(``benchmarks/bench_trajectory.py`` → ``BENCH_trajectory.json``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer, StreamingStats
from repro.engine.kernels import DEFAULT_KERNEL, available_kernels
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import TileRasterizer
from repro.gaussians.sh import rgb_to_sh_dc


def benchmark_scene(
    num_gaussians: int = 6000, extent: float = 4.0, seed: int = 7
) -> GaussianModel:
    """A seeded synthetic Gaussian cloud for kernel timing."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-extent / 2, extent / 2, size=(num_gaussians, 3))
    scales = rng.lognormal(np.log(0.08), 0.3, size=(num_gaussians, 3))
    rotations = rng.normal(size=(num_gaussians, 4))
    opacities = np.clip(rng.normal(0.8, 0.1, size=num_gaussians), 0.05, 0.99)
    colors = rng.uniform(0.1, 0.9, size=(num_gaussians, 3))
    sh_rest = rng.normal(0.0, 0.02, size=(num_gaussians, 15, 3))
    return GaussianModel(
        positions=positions,
        scales=scales,
        rotations=rotations,
        opacities=opacities,
        sh_dc=rgb_to_sh_dc(colors),
        sh_rest=sh_rest,
    )


def benchmark_camera(width: int = 160, height: int = 120) -> Camera:
    """The evaluation view of the benchmark scene."""
    return Camera.from_lookat(
        eye=(6.0, 0.5, 1.0),
        target=(0.0, 0.0, 0.0),
        width=width,
        height=height,
        fov_deg=60.0,
    )


@dataclass
class KernelBenchResult:
    """Timings and equivalence check of one kernel-comparison run."""

    num_gaussians: int
    resolution: tuple
    repeats: int
    seconds: Dict[str, float] = field(default_factory=dict)
    max_image_delta: float = 0.0
    blended_fragments: Dict[str, int] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Reference-kernel time over vectorized-kernel time."""
        reference = self.seconds.get("reference", 0.0)
        vectorized = self.seconds.get("vectorized", 0.0)
        return reference / vectorized if vectorized else 0.0

    def as_dict(self) -> dict:
        return {
            "num_gaussians": self.num_gaussians,
            "resolution": list(self.resolution),
            "repeats": self.repeats,
            "seconds": dict(self.seconds),
            "speedup": self.speedup,
            "max_image_delta": self.max_image_delta,
            "blended_fragments": dict(self.blended_fragments),
            "default_kernel": DEFAULT_KERNEL,
        }

    def format(self) -> str:
        lines = [
            "engine kernel micro-benchmark "
            f"({self.num_gaussians} Gaussians, {self.resolution[0]}x{self.resolution[1]}, "
            f"{self.repeats} repeat(s))"
        ]
        for name in sorted(self.seconds):
            lines.append(
                f"  {name:<12} {self.seconds[name] * 1e3:9.1f} ms  "
                f"fragments={self.blended_fragments[name]}"
            )
        lines.append(
            f"  speedup (reference / vectorized): {self.speedup:.2f}x; "
            f"max |image delta| = {self.max_image_delta:.3g}"
        )
        return "\n".join(lines)


def run_kernel_benchmark(
    num_gaussians: int = 6000,
    width: int = 160,
    height: int = 120,
    repeats: int = 3,
    seed: int = 7,
) -> KernelBenchResult:
    """Time every registered kernel on the tile-centric render of one scene."""
    model = benchmark_scene(num_gaussians=num_gaussians, seed=seed)
    camera = benchmark_camera(width=width, height=height)
    result = KernelBenchResult(
        num_gaussians=num_gaussians, resolution=(width, height), repeats=repeats
    )
    images: Dict[str, np.ndarray] = {}
    rasterizers = {name: TileRasterizer(kernel=name) for name in available_kernels()}
    best: Dict[str, float] = {name: float("inf") for name in rasterizers}
    # Rounds are interleaved across kernels so machine-load drift during the
    # benchmark biases neither side of the speedup ratio.
    for _ in range(repeats):
        for name, rasterizer in rasterizers.items():
            start = time.perf_counter()
            output = rasterizer.render(model, camera)
            best[name] = min(best[name], time.perf_counter() - start)
            result.blended_fragments[name] = output.stats.num_blended_fragments
            images[name] = output.image
    result.seconds = dict(best)
    deltas: List[float] = [
        float(np.max(np.abs(images[name] - images["reference"])))
        for name in images
    ]
    result.max_image_delta = max(deltas)
    return result


# ----------------------------------------------------------------------
# Streaming render-path benchmark.
# ----------------------------------------------------------------------
def streaming_stats_equal(
    a: StreamingStats, b: StreamingStats, weight_atol: float = 1e-9
) -> Tuple[bool, str]:
    """Whether two streaming runs produced the same workload description.

    Integer accounting (fragments, filter counts, traffic bytes, sort
    lists, violation counts) must be *exactly* equal; the float
    per-Gaussian weight arrays within ``weight_atol``; the derived
    error-Gaussian (violation) sets identical.  Returns ``(ok, detail)``
    with ``detail`` naming the first mismatching field.
    """
    exact_fields = (
        "num_tiles",
        "num_tile_voxel_pairs",
        "rays_sampled",
        "ordering_table_entries",
        "dag_edges",
        "dag_nodes",
        "cycles_broken",
        "gaussians_streamed",
        "filter",
        "traffic",
        "blended_fragments",
        "blended_fragment_slots",
        "sorted_gaussians",
        "max_voxel_list_length",
        "rendered_gaussian_slots",
        "depth_order_errors",
        "sort_list_lengths",
    )
    for name in exact_fields:
        if getattr(a, name) != getattr(b, name):
            return False, f"{name}: {getattr(a, name)!r} != {getattr(b, name)!r}"
    for name in ("gaussian_blend_weight", "gaussian_violation_weight"):
        left, right = getattr(a, name), getattr(b, name)
        if (left is None) != (right is None):
            return False, f"{name}: one side is None"
        if left is not None and not np.allclose(left, right, atol=weight_atol):
            return False, f"{name}: max delta {np.max(np.abs(left - right)):.3g}"
    if not np.array_equal(a.error_gaussian_indices(), b.error_gaussian_indices()):
        return False, "error_gaussian_indices differ"
    return True, ""


@dataclass
class StreamingBenchResult:
    """Timings and equivalence check of one streaming-path comparison run."""

    num_gaussians: int
    resolution: tuple
    voxel_size: float
    repeats: int
    seconds: Dict[str, float] = field(default_factory=dict)
    max_image_delta: float = 0.0
    stats_equal: bool = False
    stats_detail: str = ""
    gaussians_streamed: int = 0
    blended_fragments: int = 0
    filtering_reduction: float = 0.0

    @property
    def speedup(self) -> float:
        """Reference-path time over vectorized-path time."""
        reference = self.seconds.get("reference", 0.0)
        vectorized = self.seconds.get("vectorized", 0.0)
        return reference / vectorized if vectorized else 0.0

    def as_dict(self) -> dict:
        return {
            "num_gaussians": self.num_gaussians,
            "resolution": list(self.resolution),
            "voxel_size": self.voxel_size,
            "repeats": self.repeats,
            "seconds": dict(self.seconds),
            "speedup": self.speedup,
            "max_image_delta": self.max_image_delta,
            "stats_equal": self.stats_equal,
            "stats_detail": self.stats_detail,
            "gaussians_streamed": self.gaussians_streamed,
            "blended_fragments": self.blended_fragments,
            "filtering_reduction": self.filtering_reduction,
        }

    def format(self) -> str:
        lines = [
            "streaming render-path micro-benchmark "
            f"({self.num_gaussians} Gaussians, {self.resolution[0]}x{self.resolution[1]}, "
            f"voxel {self.voxel_size}, {self.repeats} repeat(s))"
        ]
        for name in sorted(self.seconds):
            lines.append(f"  {name:<20} {self.seconds[name] * 1e3:9.1f} ms")
        lines.append(
            f"  speedup (reference / vectorized): {self.speedup:.2f}x; "
            f"max |image delta| = {self.max_image_delta:.3g}; "
            f"stats {'EQUAL' if self.stats_equal else 'DIFFER: ' + self.stats_detail}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Trajectory benchmark.
# ----------------------------------------------------------------------
@dataclass
class TrajectoryBenchResult:
    """Timing and oracle parity of one trajectory through the fast path.

    ``seconds`` holds the best full-trajectory wall time over the timed
    passes.  Parity against the per-voxel reference oracle (images within
    1e-9, statistics exactly equal, frame by frame) is recorded from a
    dedicated untimed pass.
    """

    scene: str
    path: str
    frames: int
    resolution_scale: float
    repeats: int
    voxel_size: float = 0.0
    seconds: float = 0.0
    max_image_delta: float = 0.0
    stats_equal: bool = False
    stats_detail: str = ""

    @property
    def ms_per_frame(self) -> float:
        """Amortized wall time per frame of the best timed pass."""
        return 1e3 * self.seconds / max(1, self.frames)

    def as_dict(self) -> dict:
        return {
            "scene": self.scene,
            "path": self.path,
            "frames": self.frames,
            "resolution_scale": self.resolution_scale,
            "repeats": self.repeats,
            "voxel_size": self.voxel_size,
            "seconds": self.seconds,
            "ms_per_frame": self.ms_per_frame,
            "max_image_delta": self.max_image_delta,
            "stats_equal": self.stats_equal,
            "stats_detail": self.stats_detail,
        }

    def format(self) -> str:
        return "\n".join(
            [
                "trajectory benchmark "
                f"({self.scene}/{self.path}, {self.frames} frames @ "
                f"{self.resolution_scale:g}x, voxel {self.voxel_size:g}, "
                f"{self.repeats} repeat(s))",
                f"  {self.seconds * 1e3:9.1f} ms ({self.ms_per_frame:7.1f} ms/frame)",
                f"  vs reference oracle: max |image delta| = "
                f"{self.max_image_delta:.3g}; "
                f"stats {'EQUAL' if self.stats_equal else 'DIFFER: ' + self.stats_detail}",
            ]
        )


def run_trajectory_benchmark(
    scene: str = "train",
    path: str = "orbit",
    frames: int = 24,
    resolution_scale: float = 1.5,
    repeats: int = 3,
    config: Optional[StreamingConfig] = None,
) -> TrajectoryBenchResult:
    """Time a trajectory through the fast path, checking it against the oracle.

    The frame-preparation cache is disabled (the timed passes revisit the
    same poses and would otherwise replay whole frames).  An untimed first
    pass renders every frame through both the fast path and the per-voxel
    reference loop and checks parity — images within 1e-9, statistics
    exactly equal; the timed passes then measure the fast path alone.
    """
    from repro.scenes.registry import SCENE_REGISTRY, build_scene, trajectory_cameras

    model = build_scene(scene)
    base = config or StreamingConfig(
        voxel_size=SCENE_REGISTRY[scene].default_voxel_size
    )
    if base.frame_cache_size:
        base = base.with_options(frame_cache_size=0)
    fast = StreamingRenderer(model, base)
    oracle = StreamingRenderer(
        model, base.with_options(streaming_kernel="reference"), quantizer=fast.quantizer
    )
    cameras = trajectory_cameras(
        scene, path, frames, resolution_scale=resolution_scale
    )

    result = TrajectoryBenchResult(
        scene=scene,
        path=path,
        frames=len(cameras),
        resolution_scale=resolution_scale,
        repeats=repeats,
        voxel_size=base.voxel_size,
    )
    result.stats_equal = True
    for index, camera in enumerate(cameras):
        expected = oracle.render(camera)
        actual = fast.render(camera)
        result.max_image_delta = max(
            result.max_image_delta,
            float(np.max(np.abs(actual.image - expected.image))),
        )
        ok, detail = streaming_stats_equal(expected.stats, actual.stats)
        if not ok and result.stats_equal:
            result.stats_equal = False
            result.stats_detail = f"frame {index}: {detail}"
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for camera in cameras:
            fast.render(camera)
        best = min(best, time.perf_counter() - start)
    result.seconds = best
    return result


def run_streaming_benchmark(
    num_gaussians: int = 6000,
    width: int = 160,
    height: int = 120,
    repeats: int = 3,
    seed: int = 7,
    voxel_size: float = 0.5,
    config: Optional[StreamingConfig] = None,
) -> StreamingBenchResult:
    """Time the streaming reference loop against the vectorized fast path.

    Frame preparation (ray traversal, topological sort) is warmed first so
    the timings isolate the render path the two kernels differ in.
    """
    model = benchmark_scene(num_gaussians=num_gaussians, seed=seed)
    camera = benchmark_camera(width=width, height=height)
    # ``voxel_size`` shapes the default configuration only; an explicit
    # ``config`` is benchmarked exactly as given (and its voxel size is
    # what the trajectory records).
    base = config or StreamingConfig(voxel_size=voxel_size, use_vq=False)
    voxel_size = base.voxel_size
    renderers = {
        name: StreamingRenderer(model, base.with_options(streaming_kernel=name))
        for name in ("reference", "vectorized")
    }
    for renderer in renderers.values():
        renderer.prepare_frame(camera)

    result = StreamingBenchResult(
        num_gaussians=num_gaussians,
        resolution=(width, height),
        voxel_size=voxel_size,
        repeats=repeats,
    )
    outputs: Dict[str, object] = {}
    best: Dict[str, float] = {name: float("inf") for name in renderers}
    # Rounds are interleaved across paths so machine-load drift during the
    # benchmark biases neither side of the speedup ratio.
    for _ in range(repeats):
        for name, renderer in renderers.items():
            start = time.perf_counter()
            outputs[name] = renderer.render(camera)
            best[name] = min(best[name], time.perf_counter() - start)
    result.seconds = dict(best)

    reference, vectorized = outputs["reference"], outputs["vectorized"]
    result.max_image_delta = float(
        np.max(np.abs(vectorized.image - reference.image))
    )
    result.stats_equal, result.stats_detail = streaming_stats_equal(
        reference.stats, vectorized.stats
    )
    result.gaussians_streamed = vectorized.stats.gaussians_streamed
    result.blended_fragments = vectorized.stats.blended_fragments
    result.filtering_reduction = vectorized.stats.filtering_reduction
    return result
