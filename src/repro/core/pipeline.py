"""The memory-centric streaming renderer (Sec. III, Fig. 5).

For every pixel group (image tile) the renderer:

1. samples rays through the tile and builds the voxel ordering table
   (:mod:`repro.core.ray_voxel`);
2. establishes the global voxel rendering order with a topological sort of
   the per-ray dependency DAG (:mod:`repro.core.voxel_order`);
3. streams the ordered voxels one at a time: hierarchical filtering
   (:mod:`repro.core.hierarchical_filter`), per-voxel depth sort and
   alpha blending of *partial* pixel values that stay on-chip;
4. writes only the final pixel values back to DRAM.

The default (vectorized) path executes step 3 for the whole frame at once —
one filter pass, one projection, one cross-tile blend — and reproduces the
voxel-at-a-time reference loop (``streaming_kernel="reference"``) exactly:
images within 1e-9, statistics equal.

Steps 1 and 2 are pure view geometry, so the renderer memoizes them per
camera pose in an engine :class:`~repro.engine.cache.FrameCache`; repeated
renders of the same view (benchmark sweeps, fine-tuning probes, batched
service requests) skip the traversal and topological sort entirely while
producing identical statistics.

Besides the image, the renderer produces :class:`StreamingStats` — the
complete workload description (Gaussians streamed, filter pass rates, DRAM
bytes by category, per-voxel sort lengths, depth-order violations) that the
architecture model consumes.  Per-Gaussian blend/violation weights are held
in dense NumPy arrays indexed by model Gaussian id and accumulated in place
by the blending kernels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.compression.vq import VectorQuantizer
from repro.core.config import StreamingConfig
from repro.core.data_layout import DataLayout, LayoutTraffic, render_model
from repro.core.hierarchical_filter import FilterStats, HierarchicalFilter
from repro.core.ray_voxel import ordering_tables_for_tiles
from repro.core.voxel_grid import VoxelGrid
from repro.core.voxel_order import (
    topological_orders_for_tables,
    voxel_depth_values,
)
from repro.engine.cache import FrameCache, FramePreparation, frame_key
from repro.engine.kernels import (
    TRANSMITTANCE_EPSILON,
    blend_tile_streams,
    get_kernel,
)
from repro.engine.state import BlendState
from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RenderOutput
from repro.gaussians.tiles import TileGrid

#: Registered streaming render paths (``StreamingConfig.streaming_kernel``).
STREAMING_KERNELS = ("reference", "vectorized")


@dataclass
class StreamingStats:
    """Per-frame workload statistics of the streaming pipeline."""

    num_tiles: int = 0
    num_tile_voxel_pairs: int = 0
    rays_sampled: int = 0
    ordering_table_entries: int = 0
    dag_edges: int = 0
    dag_nodes: int = 0
    cycles_broken: int = 0
    gaussians_streamed: int = 0
    filter: FilterStats = field(default_factory=FilterStats)
    traffic: LayoutTraffic = field(default_factory=LayoutTraffic)
    blended_fragments: int = 0
    blended_fragment_slots: int = 0
    sorted_gaussians: int = 0
    max_voxel_list_length: int = 0
    rendered_gaussian_slots: int = 0
    depth_order_errors: int = 0
    sort_list_lengths: List[int] = field(default_factory=list)
    #: (N,) per-Gaussian blended weight and out-of-order blended weight
    #: (indexed by model Gaussian id) — the data Fig. 7's "error Gaussian
    #: ratio" and the boundary-aware fine-tuning target selection are
    #: computed from.  Allocated by the renderer and accumulated in place
    #: by the blending kernels (no per-voxel copying).
    gaussian_blend_weight: Optional[np.ndarray] = None
    gaussian_violation_weight: Optional[np.ndarray] = None

    #: Fraction of a Gaussian's blended weight that must be out of order for
    #: the Gaussian to count as an "error Gaussian" (T_i = 1).
    ERROR_WEIGHT_THRESHOLD = 0.05

    def ensure_weight_arrays(self, num_gaussians: int) -> None:
        """Allocate the per-Gaussian attribution arrays."""
        if self.gaussian_blend_weight is None:
            self.gaussian_blend_weight = np.zeros(num_gaussians, dtype=np.float64)
            self.gaussian_violation_weight = np.zeros(num_gaussians, dtype=np.float64)

    @property
    def mean_voxels_per_tile(self) -> float:
        if self.num_tiles == 0:
            return 0.0
        return self.num_tile_voxel_pairs / self.num_tiles

    @property
    def fragment_violation_ratio(self) -> float:
        """Fraction of blended contributions that arrive out of depth order."""
        if self.blended_fragment_slots == 0:
            return 0.0
        return self.depth_order_errors / self.blended_fragment_slots

    def error_gaussian_indices(
        self, threshold: float = ERROR_WEIGHT_THRESHOLD
    ) -> np.ndarray:
        """Model indices of Gaussians rendered significantly out of depth order.

        A Gaussian is flagged (``T_i = 1`` in Eq. 2) when more than
        ``threshold`` of its total blended weight was contributed to pixels
        that had already blended a deeper Gaussian.
        """
        if self.gaussian_violation_weight is None:
            return np.array([], dtype=np.int64)
        total = self.gaussian_blend_weight
        violation = self.gaussian_violation_weight
        flagged = (total > 0.0) & (violation > threshold * total)
        return np.flatnonzero(flagged).astype(np.int64)

    def top_violating_gaussians(self, coverage: float = 0.9) -> np.ndarray:
        """Model indices of the Gaussians carrying most out-of-order weight.

        Returns the smallest set of Gaussians whose summed violation weight
        covers ``coverage`` of the frame's total violation weight.  The
        boundary-aware fine-tuning targets this set: a handful of large
        cross-boundary Gaussians typically causes the bulk of the ordering
        error.
        """
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        violation = self.gaussian_violation_weight
        if violation is None or not np.any(violation > 0.0):
            return np.array([], dtype=np.int64)
        order = np.argsort(-violation, kind="stable")
        order = order[violation[order] > 0.0]
        cumulative = np.cumsum(violation[order])
        count = int(np.searchsorted(cumulative, coverage * cumulative[-1])) + 1
        return np.sort(order[:count]).astype(np.int64)

    @property
    def rendered_gaussian_count(self) -> int:
        """Number of distinct Gaussians that contributed to the frame."""
        if self.gaussian_blend_weight is None:
            return 0
        return int(np.count_nonzero(self.gaussian_blend_weight > 0.0))

    @property
    def error_gaussian_ratio(self) -> float:
        """Fraction of contributing Gaussians rendered out of depth order.

        The quantity plotted in Fig. 7 (the paper reports 2.3 % before and
        0.4 % after boundary-aware fine-tuning).
        """
        rendered = self.rendered_gaussian_count
        if rendered == 0:
            return 0.0
        return len(self.error_gaussian_indices()) / rendered

    @property
    def filtering_reduction(self) -> float:
        """Fraction of streamed Gaussians removed by hierarchical filtering."""
        return self.filter.overall_reduction


@dataclass
class StreamingRenderOutput:
    """Image plus streaming workload statistics.

    ``telemetry`` carries per-frame execution metadata (wall time, the
    streaming kernel used, tile count) — deliberately outside
    :class:`StreamingStats` so workload statistics stay comparable across
    render paths.
    """

    image: np.ndarray
    alpha: np.ndarray
    stats: StreamingStats
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def height(self) -> int:
        return int(self.image.shape[0])

    @property
    def width(self) -> int:
        return int(self.image.shape[1])


class StreamingRenderer:
    """Voxel-by-voxel memory-centric renderer.

    Parameters
    ----------
    model:
        The trained (and optionally boundary-fine-tuned) Gaussian model.
    config:
        Streaming configuration; ``StreamingConfig()`` by default.  Selects
        the blending kernel (``config.blend_kernel``) and the size of the
        frame-preparation cache (``config.frame_cache_size``).
    quantizer:
        Optional pre-fitted :class:`VectorQuantizer`.  When ``config.use_vq``
        is True and no quantizer is given, one is fitted on ``model``.
    """

    def __init__(
        self,
        model: GaussianModel,
        config: Optional[StreamingConfig] = None,
        quantizer: Optional[VectorQuantizer] = None,
    ) -> None:
        if len(model) == 0:
            raise ValueError("cannot build a streaming renderer over an empty model")
        self.config = config or StreamingConfig()
        self.source_model = model
        self.grid = VoxelGrid.build(model, self.config.voxel_size)
        if self.config.use_vq:
            self.quantizer = quantizer or VectorQuantizer(seed=0).fit(model)
        else:
            self.quantizer = quantizer
        self.layout = DataLayout(
            grid=self.grid, quantizer=self.quantizer, use_vq=self.config.use_vq
        )
        self.render_model = render_model(model, self.layout)
        self.filter = HierarchicalFilter(
            use_coarse_filter=self.config.use_coarse_filter,
            sh_degree=self.config.sh_degree,
        )
        self.background = np.asarray(self.config.background, dtype=np.float64)
        self.kernel = get_kernel(self.config.blend_kernel)
        self.frame_cache = FrameCache(capacity=self.config.frame_cache_size)

    # ------------------------------------------------------------------
    def prepare_frame(self, camera: Camera) -> FramePreparation:
        """View geometry of one camera pose, memoized in the frame cache.

        Builds (or reuses) the per-voxel depth map, the per-tile voxel
        ordering tables and the topologically sorted global voxel orders.
        The preparation depends only on the voxel grid and the camera, never
        on the Gaussian parameters, so it is safe to share across renders.
        """
        config = self.config
        key = frame_key(
            camera,
            tile_size=config.tile_size,
            ray_stride=config.ray_stride,
            max_voxels_per_ray=config.max_voxels_per_ray,
        )
        cached = self.frame_cache.get(key)
        if cached is not None:
            return cached
        tile_grid = TileGrid(camera.width, camera.height, config.tile_size)
        depth_map = voxel_depth_values(self.grid, camera)
        tile_bounds = {
            tile_id: tile_grid.tile_pixel_bounds(tile_id)
            for tile_id in range(tile_grid.num_tiles)
        }
        tables = ordering_tables_for_tiles(
            self.grid,
            camera,
            tile_bounds,
            ray_stride=config.ray_stride,
            max_voxels_per_ray=config.max_voxels_per_ray,
        )
        orders = topological_orders_for_tables(tables, voxel_depths=depth_map)
        preparation = FramePreparation(
            depth_map=depth_map, tile_tables=tables, tile_orders=orders
        )
        self.frame_cache.put(key, preparation)
        return preparation

    # ------------------------------------------------------------------
    def render(self, camera: Camera) -> StreamingRenderOutput:
        """Render one frame voxel-by-voxel.

        The vectorized path (the default) runs the frame-level execution of
        :meth:`_render_frame`; ``streaming_kernel="reference"`` — or
        ``blend_kernel="reference"``, which the fast path's broadcast blend
        cannot honour — renders tile by tile through the per-voxel
        reference loop, the oracle the fast path is tested against.
        """
        config = self.config
        started = time.perf_counter()
        tile_grid = TileGrid(camera.width, camera.height, config.tile_size)
        image = np.zeros((camera.height, camera.width, 3), dtype=np.float64)
        alpha_img = np.zeros((camera.height, camera.width), dtype=np.float64)
        stats = StreamingStats(num_tiles=tile_grid.num_tiles)
        stats.ensure_weight_arrays(len(self.source_model))
        vectorized_path = (
            config.streaming_kernel == "vectorized"
            and config.blend_kernel == "vectorized"
        )
        preparation = self.prepare_frame(camera)
        if vectorized_path:
            self._render_frame(camera, tile_grid, preparation, image, alpha_img, stats)
        else:
            for tile_id in range(tile_grid.num_tiles):
                self._render_tile_reference(
                    camera,
                    tile_id,
                    tile_grid.tile_pixel_bounds(tile_id),
                    preparation,
                    image,
                    alpha_img,
                    stats,
                )
        # Final pixel writes are the only off-chip writes of the pipeline.
        stats.traffic = stats.traffic.merge(
            DataLayout.pixel_write_traffic(camera.num_pixels)
        )
        return StreamingRenderOutput(
            image=np.clip(image, 0.0, 1.0),
            alpha=alpha_img,
            stats=stats,
            telemetry={
                "streaming_kernel": "vectorized" if vectorized_path else "reference",
                "tiles": tile_grid.num_tiles,
                "seconds": time.perf_counter() - started,
            },
        )

    # ------------------------------------------------------------------
    def _tile_header_stats(
        self,
        tile_id: int,
        bounds,
        preparation: FramePreparation,
        image: np.ndarray,
        stats: StreamingStats,
    ):
        """Record per-tile table/DAG accounting; returns the voxel order.

        Returns ``None`` (after painting the background) when the tile has
        no voxels to stream — shared prologue of both render paths.
        """
        x0, y0, x1, y1 = bounds
        table = preparation.tile_tables[tile_id]
        stats.rays_sampled += table.rays_sampled
        stats.ordering_table_entries += table.total_entries
        stats.traffic = stats.traffic.merge(
            DataLayout.ordering_metadata_traffic(table.total_entries)
        )
        order_result = preparation.tile_orders[tile_id]
        stats.dag_edges += order_result.num_edges
        stats.dag_nodes += order_result.num_nodes
        stats.cycles_broken += order_result.cycles_broken
        if not order_result.order:
            image[y0:y1, x0:x1] = self.background
            return None
        return order_result.order

    def _render_tile_reference(
        self,
        camera: Camera,
        tile_id: int,
        bounds,
        preparation: FramePreparation,
        image: np.ndarray,
        alpha_img: np.ndarray,
        stats: StreamingStats,
    ) -> None:
        """Render one pixel group voxel by voxel (the reference loop)."""
        x0, y0, x1, y1 = bounds
        order = self._tile_header_stats(tile_id, bounds, preparation, image, stats)
        if order is None:
            return

        xs, ys = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
        xs = xs.reshape(-1)
        ys = ys.reshape(-1)
        state = BlendState.fresh(len(xs))
        # Kernels accumulate per-Gaussian attribution (keyed by model id)
        # directly into the frame-level statistics arrays.
        state.bind_weight_arrays(
            stats.gaussian_blend_weight, stats.gaussian_violation_weight
        )

        for voxel_id in order:
            voxel_indices = self.grid.gaussians_in_voxel(voxel_id)
            stats.num_tile_voxel_pairs += 1
            stats.gaussians_streamed += len(voxel_indices)

            result = self.filter.filter_voxel(
                self.render_model, voxel_indices, camera, bounds
            )
            stats.filter = stats.filter.merge(result.stats)
            coarse_passed = (
                result.stats.coarse_passed
                if self.config.use_coarse_filter
                else len(voxel_indices)
            )
            stats.traffic = stats.traffic.merge(
                self.layout.voxel_stream_traffic(voxel_id, coarse_passed)
            )
            if len(result.indices) == 0:
                continue

            # Per-voxel depth sort (the simplified bitonic sorting unit).
            depth_order = np.argsort(result.projected.depths, kind="stable")
            stats.sorted_gaussians += len(depth_order)
            stats.sort_list_lengths.append(len(depth_order))
            stats.max_voxel_list_length = max(
                stats.max_voxel_list_length, len(depth_order)
            )
            stats.rendered_gaussian_slots += len(depth_order)

            fragments_before = state.blended_fragments
            state = self.kernel(
                xs,
                ys,
                result.projected,
                depth_order,
                state,
                model_indices=np.asarray(result.indices, dtype=np.int64),
                track_depth_order=True,
            )
            stats.blended_fragments += state.blended_fragments - fragments_before
            if not np.any(state.transmittance > TRANSMITTANCE_EPSILON):
                break

        stats.depth_order_errors += state.depth_violations
        stats.blended_fragment_slots += state.blended_fragments
        final = state.color + state.transmittance[:, None] * self.background[None, :]
        h, w = y1 - y0, x1 - x0
        image[y0:y1, x0:x1] = final.reshape(h, w, 3)
        alpha_img[y0:y1, x0:x1] = (1.0 - state.transmittance).reshape(h, w)

    def _render_frame(
        self,
        camera: Camera,
        tile_grid: TileGrid,
        preparation: FramePreparation,
        image: np.ndarray,
        alpha_img: np.ndarray,
        stats: StreamingStats,
    ) -> None:
        """Render every tile of a frame through the frame-level fast path.

        Instead of filtering and blending tile by tile, the whole frame's
        voxel streams go through one hierarchical-filter pass (one coarse
        projection of the model, one fine projection of the union of every
        tile's coarse survivors), one segment-wise depth sort per tile and
        one cross-tile blend.  The reference loop's voxel-granular early
        termination is reproduced exactly in the statistics from the
        blend's per-pixel saturation positions: voxels past the last
        pixel's saturation contribute nothing to the blend (their
        contribution gate is closed), so only the accounting has to be
        truncated.
        """
        tile_bounds, orders, streams = [], [], []
        for tile_id in range(tile_grid.num_tiles):
            bounds = tile_grid.tile_pixel_bounds(tile_id)
            order = self._tile_header_stats(tile_id, bounds, preparation, image, stats)
            if order is None:
                continue
            order = np.asarray(order, dtype=np.int64)
            tile_bounds.append(bounds)
            orders.append(order)
            streams.append(self.grid.gaussians_in_voxels(order))
        frame = self.filter.filter_voxel_batch(
            self.render_model, camera, tile_bounds, streams
        )

        depths = frame.projected.depths
        stream_rows, stream_model = [], []
        for tile in frame.tiles:
            # Segment-wise stable depth sort: identical to the per-voxel
            # ``argsort(..., kind="stable")`` of the reference loop.
            order = np.lexsort((depths[tile.rows], tile.segment_ids))
            stream_rows.append(tile.rows[order])
            stream_model.append(tile.indices[order])
        blend = blend_tile_streams(
            tile_bounds,
            stream_rows,
            stream_model,
            frame.projected,
            stats.gaussian_blend_weight,
            stats.gaussian_violation_weight,
        )

        for slot, (tile, order) in enumerate(zip(frame.tiles, orders)):
            # The voxel prefix the reference loop would have processed: it
            # breaks after the first voxel that saturates every pixel.
            cols = slice(blend.col_starts[slot], blend.col_starts[slot + 1])
            last_saturating = int(blend.saturation[cols].max())
            if last_saturating < len(stream_rows[slot]):
                segment_ends = np.cumsum(tile.fine_passed)
                processed = int(
                    np.searchsorted(segment_ends, last_saturating, side="right")
                ) + 1
            else:
                processed = len(order)

            stats.num_tile_voxel_pairs += processed
            stats.gaussians_streamed += int(tile.gaussians_in[:processed].sum())
            stats.filter = stats.filter.merge(tile.prefix_stats(processed))
            coarse_passed = (
                tile.coarse_passed
                if self.config.use_coarse_filter
                else tile.gaussians_in
            )
            stats.traffic = stats.traffic.merge(
                self.layout.voxel_stream_traffic_batch(
                    order[:processed], coarse_passed[:processed]
                )
            )
            survivors = tile.fine_passed[:processed]
            survivors = survivors[survivors > 0]
            stats.sorted_gaussians += int(survivors.sum())
            stats.sort_list_lengths.extend(int(n) for n in survivors)
            if len(survivors):
                stats.max_voxel_list_length = max(
                    stats.max_voxel_list_length, int(survivors.max())
                )
            stats.rendered_gaussian_slots += int(survivors.sum())
            stats.blended_fragments += int(blend.fragments[slot])
            stats.depth_order_errors += int(blend.violations[slot])
            stats.blended_fragment_slots += int(blend.fragments[slot])

            x0, y0, x1, y1 = tile.bounds
            transmittance = blend.transmittance[cols]
            final = blend.color[cols] + transmittance[:, None] * self.background[None, :]
            image[y0:y1, x0:x1] = final.reshape(y1 - y0, x1 - x0, 3)
            alpha_img[y0:y1, x0:x1] = (1.0 - transmittance).reshape(y1 - y0, x1 - x0)


def tile_centric_reference(
    model: GaussianModel, camera: Camera, config: Optional[StreamingConfig] = None
) -> RenderOutput:
    """Convenience wrapper: the tile-centric reference render of ``model``.

    Uses the same tile size, SH degree, background and blending kernel as
    the streaming configuration so streaming-vs-reference comparisons are
    apples to apples.
    """
    from repro.engine.service import RenderService

    return RenderService.tile_rasterizer(config).render(model, camera)
