"""Golden-equivalence suite for the vectorized streaming render path.

The acceptance bar of the streaming fast path: across scenes, compression
variants, filter configurations and camera trajectories, the frame-level
path (``StreamingConfig.streaming_kernel="vectorized"``) must produce
images within 1e-9 of the voxel-at-a-time reference loop and *exactly*
equal workload statistics — fragment counts, hierarchical-filter
reductions, DRAM traffic, sort-list shapes and depth-order violation sets.
The same bar applies to the batched building blocks (frame-level
hierarchical filter, DDA traversal, traffic accounting) against their
serial counterparts.  ``test_streaming_fuzz.py`` extends the comparison to
random scenes, cameras and configs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StreamingConfig
from repro.core.data_layout import DataLayout, LayoutTraffic
from repro.core.hierarchical_filter import FilterStats, HierarchicalFilter
from repro.core.pipeline import STREAMING_KERNELS, StreamingRenderer
from repro.core.ray_voxel import _tile_ray_pixels, traverse_ray, traverse_rays
from repro.core.voxel_grid import VoxelGrid
from repro.engine.bench import streaming_stats_equal
from repro.gaussians.camera import Camera
from repro.gaussians.tiles import TileGrid
from tests.conftest import make_camera, make_model

GOLDEN_ATOL = 1e-9

#: Two scene shapes: a mid-density cloud and a dense, near-opaque cloud
#: whose saturated tiles exercise the voxel-granular early termination.
SCENES = {
    "sparse": dict(num_gaussians=300, extent=5.0, scale=0.1, seed=3, opacity=0.8),
    "opaque": dict(num_gaussians=1200, extent=3.0, scale=0.25, seed=11, opacity=0.98),
}

#: Per-scene render geometry (the opaque scene is viewed close up through
#: small voxels so whole tiles saturate mid-stream).
SCENE_SETUP = {
    "sparse": dict(voxel_size=0.8, distance=5.0),
    "opaque": dict(voxel_size=0.6, distance=4.0),
}


def render_pair(scene: str, **config_options):
    model = make_model(**SCENES[scene])
    camera = make_camera(width=48, height=32, distance=SCENE_SETUP[scene]["distance"])
    base = StreamingConfig(
        voxel_size=SCENE_SETUP[scene]["voxel_size"], **config_options
    )
    outputs = {}
    for kernel in STREAMING_KERNELS:
        renderer = StreamingRenderer(
            model, base.with_options(streaming_kernel=kernel)
        )
        outputs[kernel] = renderer.render(camera)
    return outputs["reference"], outputs["vectorized"]


class TestStreamingGoldenEquivalence:
    @pytest.mark.parametrize("scene", sorted(SCENES))
    @pytest.mark.parametrize("use_vq", [False, True])
    @pytest.mark.parametrize("use_coarse_filter", [False, True])
    def test_vectorized_path_matches_reference(self, scene, use_vq, use_coarse_filter):
        reference, vectorized = render_pair(
            scene, use_vq=use_vq, use_coarse_filter=use_coarse_filter
        )
        np.testing.assert_allclose(
            vectorized.image, reference.image, atol=GOLDEN_ATOL
        )
        np.testing.assert_allclose(
            vectorized.alpha, reference.alpha, atol=GOLDEN_ATOL
        )
        equal, detail = streaming_stats_equal(reference.stats, vectorized.stats)
        assert equal, detail

    def test_early_termination_truncates_statistics_identically(self):
        """Saturated tiles stop streaming voxels at the same point."""
        reference, vectorized = render_pair("opaque", use_vq=False)
        # The opaque scene must actually terminate early somewhere, or the
        # scenario is untested.
        renderer = StreamingRenderer(
            make_model(**SCENES["opaque"]),
            StreamingConfig(voxel_size=SCENE_SETUP["opaque"]["voxel_size"], use_vq=False),
        )
        preparation = renderer.prepare_frame(
            make_camera(width=48, height=32, distance=SCENE_SETUP["opaque"]["distance"])
        )
        total_order_entries = sum(
            len(order.order) for order in preparation.tile_orders.values()
        )
        assert reference.stats.num_tile_voxel_pairs < total_order_entries
        assert (
            vectorized.stats.num_tile_voxel_pairs
            == reference.stats.num_tile_voxel_pairs
        )
        assert vectorized.stats.filter == reference.stats.filter
        assert vectorized.stats.traffic == reference.stats.traffic

    def test_streaming_kernel_is_validated(self):
        with pytest.raises(ValueError, match="streaming_kernel"):
            StreamingConfig(streaming_kernel="nope")

    def test_default_streaming_kernel_is_vectorized(self):
        assert StreamingConfig().streaming_kernel == "vectorized"
        assert set(STREAMING_KERNELS) == {"reference", "vectorized"}

    def test_reference_blend_kernel_routes_through_reference_path(self):
        """The blend-kernel escape hatch still covers streaming renders."""
        model = make_model(num_gaussians=120, extent=4.0, seed=2)
        camera = make_camera(width=32, height=32)
        renderer = StreamingRenderer(
            model,
            StreamingConfig(voxel_size=1.0, use_vq=False, blend_kernel="reference"),
        )
        output = renderer.render(camera)
        assert output.telemetry["streaming_kernel"] == "reference"
        vectorized = StreamingRenderer(
            model, StreamingConfig(voxel_size=1.0, use_vq=False)
        ).render(camera)
        assert vectorized.telemetry["streaming_kernel"] == "vectorized"
        np.testing.assert_allclose(
            vectorized.image, output.image, atol=GOLDEN_ATOL
        )


class TestBatchedHierarchicalFilter:
    @pytest.fixture
    def scene(self):
        model = make_model(num_gaussians=400, extent=6.0, seed=8)
        grid = VoxelGrid.build(model, voxel_size=1.2)
        camera = make_camera(width=64, height=48, distance=7.0)
        return model, grid, camera

    @staticmethod
    def stream(grid, voxel_ids):
        return grid.gaussians_in_voxels(np.asarray(voxel_ids, dtype=np.int64))

    def test_gather_matches_per_voxel_lists(self, scene):
        _, grid, _ = scene
        voxel_ids = np.arange(grid.num_voxels)[::-1]
        counts, candidates = self.stream(grid, voxel_ids)
        np.testing.assert_array_equal(
            counts, [len(grid.gaussians_in_voxel(v)) for v in voxel_ids]
        )
        np.testing.assert_array_equal(
            candidates,
            np.concatenate([grid.gaussians_in_voxel(v) for v in voxel_ids]),
        )

    @pytest.mark.parametrize("use_coarse_filter", [False, True])
    def test_batch_matches_serial_per_voxel(self, scene, use_coarse_filter):
        model, grid, camera = scene
        hfilter = HierarchicalFilter(use_coarse_filter=use_coarse_filter)
        # Two tiles with different voxel streams share one projection.
        tile_bounds = [(16, 0, 48, 32), (0, 16, 32, 48)]
        tile_voxels = [list(range(grid.num_voxels)), list(range(grid.num_voxels))[::-2]]
        frame = hfilter.filter_voxel_batch(
            model, camera, tile_bounds, [self.stream(grid, v) for v in tile_voxels]
        )
        assert len(frame.tiles) == 2
        for bounds, voxel_ids, batch in zip(tile_bounds, tile_voxels, frame.tiles):
            offset = 0
            for position, voxel_id in enumerate(voxel_ids):
                indices = grid.gaussians_in_voxel(voxel_id)
                serial = hfilter.filter_voxel(model, indices, camera, bounds)
                assert batch.voxel_stats(position) == serial.stats
                count = int(batch.fine_passed[position])
                assert count == len(serial.indices)
                segment = slice(offset, offset + count)
                np.testing.assert_array_equal(batch.indices[segment], serial.indices)
                np.testing.assert_array_equal(
                    batch.segment_ids[segment], np.full(count, position)
                )
                # Projection math is row-independent but BLAS kernels may
                # pick different instruction paths per batch size, so
                # survivor projections agree to the last few ulps, not
                # bit-for-bit.
                rows = batch.rows[segment]
                for name in ("depths", "means2d", "conics", "colors"):
                    np.testing.assert_allclose(
                        getattr(frame.projected, name)[rows],
                        getattr(serial.projected, name),
                        rtol=1e-12,
                        atol=1e-12,
                    )
                offset += count

    def test_prefix_stats_matches_serial_accumulation(self, scene):
        model, grid, camera = scene
        hfilter = HierarchicalFilter()
        bounds = (0, 0, 32, 32)
        voxel_ids = list(range(grid.num_voxels))
        frame = hfilter.filter_voxel_batch(
            model, camera, [bounds], [self.stream(grid, voxel_ids)]
        )
        batch = frame.tiles[0]
        accumulated = FilterStats()
        for position, voxel_id in enumerate(voxel_ids):
            accumulated = accumulated.merge(
                hfilter.filter_voxel(
                    model, grid.gaussians_in_voxel(voxel_id), camera, bounds
                ).stats
            )
            assert batch.prefix_stats(position + 1) == accumulated

    def test_empty_batch(self, scene):
        model, grid, camera = scene
        hfilter = HierarchicalFilter()
        frame = hfilter.filter_voxel_batch(model, camera, [], [])
        assert frame.tiles == []
        assert len(frame.projected) == 0
        frame = hfilter.filter_voxel_batch(
            model, camera, [(0, 0, 16, 16)], [self.stream(grid, [])]
        )
        batch = frame.tiles[0]
        assert batch.num_voxels == 0
        assert len(batch.indices) == 0
        assert batch.prefix_stats(0) == FilterStats()


#: Strategy for one random-but-valid FilterStats record.
filter_stats = st.builds(
    FilterStats,
    gaussians_in=st.integers(0, 10_000),
    coarse_tested=st.integers(0, 10_000),
    coarse_passed=st.integers(0, 10_000),
    fine_tested=st.integers(0, 10_000),
    fine_passed=st.integers(0, 10_000),
    coarse_macs=st.integers(0, 10_000_000),
    fine_macs=st.integers(0, 10_000_000),
)


class TestFilterStatsMergeProperties:
    @settings(max_examples=50, deadline=None)
    @given(a=filter_stats, b=filter_stats, c=filter_stats)
    def test_merge_is_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=50, deadline=None)
    @given(a=filter_stats, b=filter_stats)
    def test_merge_commutes(self, a, b):
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=50, deadline=None)
    @given(a=filter_stats)
    def test_empty_is_identity(self, a):
        assert a.merge(FilterStats()) == a
        assert FilterStats().merge(a) == a


class TestBatchedTraversal:
    def test_batch_matches_scalar_per_ray(self):
        model = make_model(num_gaussians=500, extent=5.0, seed=9)
        grid = VoxelGrid.build(model, 0.7)
        camera = make_camera(width=64, height=48)
        tile_grid = TileGrid(64, 48, 16)
        for tile_id in range(tile_grid.num_tiles):
            px, py = _tile_ray_pixels(tile_grid.tile_pixel_bounds(tile_id), 4)
            origins, directions = camera.pixel_rays(px, py)
            batch = traverse_rays(grid, origins, directions)
            for ray in range(len(origins)):
                assert list(batch[ray]) == traverse_ray(
                    grid, origins[ray], directions[ray]
                )

    def test_max_voxels_bound_respected(self):
        model = make_model(num_gaussians=300, extent=5.0, seed=4)
        grid = VoxelGrid.build(model, 0.3)
        camera = make_camera(width=32, height=32)
        px, py = _tile_ray_pixels((0, 0, 32, 32), 8)
        origins, directions = camera.pixel_rays(px, py)
        short = traverse_rays(grid, origins, directions, max_voxels=3)
        full = traverse_rays(grid, origins, directions)
        for bounded, reference in zip(short, full):
            assert len(bounded) <= 3
            assert list(bounded) == list(reference[: len(bounded)])

    def test_zero_direction_raises(self):
        model = make_model(num_gaussians=50, seed=1)
        grid = VoxelGrid.build(model, 1.0)
        with pytest.raises(ValueError, match="non-zero"):
            traverse_rays(grid, np.zeros((1, 3)), np.zeros((1, 3)))


class TestBatchedTraffic:
    def test_batch_matches_per_voxel_merge(self):
        model = make_model(num_gaussians=400, extent=5.0, seed=6)
        grid = VoxelGrid.build(model, 1.0)
        layout = DataLayout(grid=grid, use_vq=False)
        rng = np.random.default_rng(0)
        voxel_ids = np.arange(grid.num_voxels, dtype=np.int64)
        passed = rng.integers(0, grid.voxel_counts + 1)
        merged = LayoutTraffic()
        for voxel_id, count in zip(voxel_ids, passed):
            merged = merged.merge(
                layout.voxel_stream_traffic(int(voxel_id), int(count))
            )
        assert layout.voxel_stream_traffic_batch(voxel_ids, passed) == merged

    def test_batch_validates_bounds(self):
        model = make_model(num_gaussians=100, seed=2)
        grid = VoxelGrid.build(model, 1.0)
        layout = DataLayout(grid=grid, use_vq=False)
        with pytest.raises(ValueError):
            layout.voxel_stream_traffic_batch(
                np.array([0]), np.array([int(grid.voxel_counts[0]) + 1])
            )
        assert layout.voxel_stream_traffic_batch(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        ) == LayoutTraffic()


def _orbit_camera(angle_deg: float, distance: float, height: float = 0.6) -> Camera:
    angle = np.deg2rad(angle_deg)
    return Camera.from_lookat(
        eye=(distance * np.cos(angle), distance * np.sin(angle), height),
        target=(0.0, 0.0, 0.0),
        width=48,
        height=32,
        fov_deg=60.0,
    )


def _trajectory(path: str, distance: float):
    """Small deterministic camera paths."""
    if path == "orbit":
        return [_orbit_camera(4.0 * i, distance) for i in range(5)]
    if path == "dolly":
        return [_orbit_camera(0.0, distance * (1.0 - 0.02 * i)) for i in range(5)]
    if path == "repeat":
        return [_orbit_camera(30.0, distance)] * 4
    if path == "jump":
        return [_orbit_camera(90.0 * i, distance) for i in range(4)]
    raise AssertionError(path)


class TestTrajectoryParity:
    """Frame sequences through one renderer stay exact against the oracle."""

    @pytest.mark.parametrize("scene", sorted(SCENES))
    @pytest.mark.parametrize("path", ["orbit", "dolly", "repeat", "jump"])
    def test_matches_oracle_frame_by_frame(self, scene, path):
        model = make_model(**SCENES[scene])
        base = StreamingConfig(
            voxel_size=SCENE_SETUP[scene]["voxel_size"], frame_cache_size=0
        )
        fast = StreamingRenderer(model, base)
        oracle = StreamingRenderer(
            model,
            base.with_options(streaming_kernel="reference"),
            quantizer=fast.quantizer,
        )
        for index, camera in enumerate(
            _trajectory(path, SCENE_SETUP[scene]["distance"])
        ):
            expected, actual = oracle.render(camera), fast.render(camera)
            np.testing.assert_allclose(
                actual.image, expected.image, atol=GOLDEN_ATOL,
                err_msg=f"frame {index} image diverged",
            )
            np.testing.assert_allclose(
                actual.alpha, expected.alpha, atol=GOLDEN_ATOL,
                err_msg=f"frame {index} alpha diverged",
            )
            equal, detail = streaming_stats_equal(expected.stats, actual.stats)
            assert equal, f"frame {index}: {detail}"


def test_render_takes_no_execution_knobs():
    """The camera is the only render argument; no per-call execution path."""
    model = make_model(num_gaussians=50, seed=1)
    renderer = StreamingRenderer(model, StreamingConfig(voxel_size=1.0, use_vq=False))
    camera = make_camera(width=32, height=32)
    for knob in ("tile_workers", "tile_mode"):
        with pytest.raises(TypeError):
            renderer.render(camera, **{knob: 1})
    assert set(renderer.render(camera).telemetry) == {
        "streaming_kernel",
        "tiles",
        "seconds",
    }
