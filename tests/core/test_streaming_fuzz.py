"""Differential fuzz of the streaming fast path against the per-voxel oracle.

Every case draws a seeded random scene, camera and
:class:`~repro.core.config.StreamingConfig` and renders it twice: through
``StreamingRenderer.render`` as configured and through the voxel-at-a-time
reference loop (``streaming_kernel="reference"``).  The golden contract is
images (and alpha) within 1e-9, every integer workload statistic exactly
equal and the per-Gaussian weight arrays within 1e-9.

Random draws alone rarely reach the corners where a batched path can
diverge, so the first cases force them: a tile size that does not divide
the frame, a camera inside the voxel grid, Gaussians straddling the near
plane, a single-Gaussian scene and an all-background frame.  VQ and the
coarse filter cycle through all four on/off combinations across the seeds.
A failing case names its seed, so it replays with
``pytest -k "fuzz and <seed>"``.
"""

import numpy as np
import pytest

from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer
from repro.engine.bench import streaming_stats_equal
from repro.gaussians.camera import Camera
from tests.conftest import make_model

GOLDEN_ATOL = 1e-9

NUM_CASES = 40

#: Edge cases forced on the first seeds (the rest draw freely).
FORCED = (
    "ragged-tiles",
    "camera-inside-grid",
    "near-plane-straddle",
    "single-gaussian",
    "all-background",
)


def _orbit_eye(rng, distance: float) -> np.ndarray:
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    elevation = rng.uniform(-0.6, 0.6)
    return distance * np.array(
        [
            np.cos(azimuth) * np.cos(elevation),
            np.sin(azimuth) * np.cos(elevation),
            np.sin(elevation),
        ]
    )


def draw_case(seed: int):
    """``(model, camera, config, kind)`` of one seeded fuzz case."""
    rng = np.random.default_rng(seed)
    kind = FORCED[seed] if seed < len(FORCED) else "random"
    extent = float(rng.uniform(2.0, 5.0))
    model = make_model(
        num_gaussians=1 if kind == "single-gaussian" else int(rng.integers(20, 260)),
        extent=extent,
        scale=float(rng.uniform(0.05, 0.3)),
        seed=int(rng.integers(0, 2**31)),
        opacity=float(rng.uniform(0.4, 0.98)),
    )
    width = int(rng.integers(16, 49))
    height = int(rng.integers(16, 41))
    tile_size = int(rng.choice([4, 6, 8, 13, 16]))
    near = 0.05
    target = rng.uniform(-0.3 * extent, 0.3 * extent, size=3)
    eye = target + _orbit_eye(rng, float(rng.uniform(1.2, 2.5)) * extent)
    if kind == "ragged-tiles":
        width, height, tile_size = 45, 29, 8
    elif kind == "camera-inside-grid":
        eye = rng.uniform(-0.2 * extent, 0.2 * extent, size=3)
        target = eye + _orbit_eye(rng, 1.0)
    elif kind == "near-plane-straddle":
        # The near plane cuts through the middle of the cloud.
        distance = float(np.linalg.norm(eye - target))
        near = distance - float(np.linalg.norm(target))
    elif kind == "all-background":
        # Looking straight away from the scene: no ray meets a voxel.
        target = eye + (eye - target)
    camera = Camera.from_lookat(
        eye=tuple(eye),
        target=tuple(target),
        width=width,
        height=height,
        fov_deg=float(rng.uniform(40.0, 80.0)),
        near=max(near, 0.05),
    )
    config = StreamingConfig(
        voxel_size=float(rng.uniform(0.3, 1.5)),
        tile_size=tile_size,
        ray_stride=int(rng.integers(1, 5)),
        sh_degree=int(rng.integers(0, 4)),
        use_vq=bool(seed % 2),
        use_coarse_filter=bool((seed // 2) % 2),
        max_voxels_per_ray=int(rng.choice([6, 512])),
        background=tuple(float(c) for c in rng.uniform(0.0, 1.0, size=3)),
    )
    return model, camera, config, kind


@pytest.mark.parametrize("seed", range(NUM_CASES))
def test_fast_path_matches_reference_oracle(seed):
    model, camera, config, kind = draw_case(seed)
    fast = StreamingRenderer(model, config)
    oracle = StreamingRenderer(
        model,
        config.with_options(streaming_kernel="reference"),
        quantizer=fast.quantizer,
    )
    expected = oracle.render(camera)
    actual = fast.render(camera)
    case = f"fuzz seed {seed} ({kind}): {config}"
    assert actual.telemetry["streaming_kernel"] == "vectorized", case
    np.testing.assert_allclose(actual.image, expected.image, atol=GOLDEN_ATOL, err_msg=case)
    np.testing.assert_allclose(actual.alpha, expected.alpha, atol=GOLDEN_ATOL, err_msg=case)
    equal, detail = streaming_stats_equal(expected.stats, actual.stats, weight_atol=GOLDEN_ATOL)
    assert equal, f"{case}: {detail}"


def test_forced_edge_cases_reach_their_corner():
    """The forced cases really exercise the corner they are named after."""
    cases = {case[3]: case for case in map(draw_case, range(len(FORCED)))}

    model, camera, config, _ = cases["ragged-tiles"]
    assert camera.width % config.tile_size and camera.height % config.tile_size

    model, camera, config, _ = cases["camera-inside-grid"]
    lo, hi = model.bounding_box()
    assert np.all(camera.position > lo) and np.all(camera.position < hi)

    model, camera, config, _ = cases["near-plane-straddle"]
    depths = camera.world_to_camera(model.positions)[:, 2]
    radii = 3.0 * model.max_scales
    assert np.any(np.abs(depths - camera.near) < radii)

    model, camera, config, _ = cases["single-gaussian"]
    assert len(model) == 1

    model, camera, config, _ = cases["all-background"]
    output = StreamingRenderer(model, config).render(camera)
    assert output.stats.num_tile_voxel_pairs == 0
    np.testing.assert_allclose(
        output.image, np.broadcast_to(config.background, output.image.shape)
    )
