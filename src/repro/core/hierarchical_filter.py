"""Two-phase hierarchical Gaussian filtering (Sec. III-B, Fig. 5).

Loading a whole voxel unavoidably brings Gaussians on-chip that do not
intersect the current image tile.  The hierarchical filter removes them in
two phases:

* **coarse-grained filter** — uses only the 4 uncompressed parameters
  (position + maximum scale, ~55 MACs per Gaussian) to conservatively test
  tile intersection; Gaussians that fail are dropped before their remaining
  55 parameters are ever fetched;
* **fine-grained filter** — for survivors, fetches (and de-quantises) the
  second half, computes the exact 2D covariance/conic/radius (~427 MACs) and
  performs the precise tile-intersection test; survivors proceed to sorting
  and rendering.

The filter also records the MAC and byte accounting used by the HFU energy
and traffic models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.projection import (
    ProjectedGaussians,
    coarse_project_centers,
    project_gaussians,
)

#: MACs per Gaussian in the coarse-grained filter (paper, Sec. IV-C).
COARSE_FILTER_MACS = 55

#: MACs per Gaussian in the fine-grained filter (paper, Sec. IV-C).
FINE_FILTER_MACS = 427


@dataclass
class FilterStats:
    """Accounting of one hierarchical-filter invocation (or an accumulation)."""

    gaussians_in: int = 0
    coarse_tested: int = 0
    coarse_passed: int = 0
    fine_tested: int = 0
    fine_passed: int = 0
    coarse_macs: int = 0
    fine_macs: int = 0

    def merge(self, other: "FilterStats") -> "FilterStats":
        """Element-wise sum (accumulate over voxels / tiles / frames)."""
        return FilterStats(
            gaussians_in=self.gaussians_in + other.gaussians_in,
            coarse_tested=self.coarse_tested + other.coarse_tested,
            coarse_passed=self.coarse_passed + other.coarse_passed,
            fine_tested=self.fine_tested + other.fine_tested,
            fine_passed=self.fine_passed + other.fine_passed,
            coarse_macs=self.coarse_macs + other.coarse_macs,
            fine_macs=self.fine_macs + other.fine_macs,
        )

    @property
    def coarse_reject_rate(self) -> float:
        """Fraction of tested Gaussians rejected by the coarse filter."""
        if self.coarse_tested == 0:
            return 0.0
        return 1.0 - self.coarse_passed / self.coarse_tested

    @property
    def overall_reduction(self) -> float:
        """Fraction of loaded Gaussians removed before sorting/rendering.

        The paper reports 76.3 % for the combined coarse + fine filtering.
        """
        if self.gaussians_in == 0:
            return 0.0
        return 1.0 - self.fine_passed / self.gaussians_in

    @property
    def total_macs(self) -> int:
        return self.coarse_macs + self.fine_macs


def _overlaps_tile(
    means2d: np.ndarray,
    radii: np.ndarray,
    depths: np.ndarray,
    tile_bounds: Tuple[int, int, int, int],
    near: float,
) -> np.ndarray:
    """AABB test of Gaussian footprints against a pixel-tile rectangle."""
    x0, y0, x1, y1 = tile_bounds
    in_front = depths > near
    overlap_x = (means2d[:, 0] + radii >= x0) & (means2d[:, 0] - radii < x1)
    overlap_y = (means2d[:, 1] + radii >= y0) & (means2d[:, 1] - radii < y1)
    return in_front & overlap_x & overlap_y


@dataclass
class FilterResult:
    """Outcome of filtering one voxel's Gaussians against one tile."""

    indices: np.ndarray                    # model indices that passed both phases
    projected: ProjectedGaussians          # precise projection of the survivors
    stats: FilterStats = field(default_factory=FilterStats)


@dataclass
class TileFilterBatch:
    """Outcome of filtering one tile's whole voxel stream in the frame pass.

    Survivors of every voxel are concatenated in voxel-stream order
    (``segment_ids`` maps each survivor to its position in the tile's voxel
    stream); ``rows`` index the frame's shared projection.  The per-voxel
    accounting is held as parallel arrays so the pipeline can accumulate
    statistics for exactly the voxel prefix the reference loop would have
    processed before early termination.
    """

    bounds: Tuple[int, int, int, int]
    #: (S,) model indices of the survivors, concatenated voxel by voxel.
    indices: np.ndarray
    #: (S,) rows of the survivors in :attr:`FrameFilterResult.projected`.
    rows: np.ndarray
    #: (S,) position of each survivor's voxel in the tile's voxel stream.
    segment_ids: np.ndarray
    #: (V,) per-voxel accounting, parallel to the tile's voxel stream.
    gaussians_in: np.ndarray
    coarse_tested: np.ndarray
    coarse_passed: np.ndarray
    fine_tested: np.ndarray
    fine_passed: np.ndarray

    @property
    def num_voxels(self) -> int:
        return len(self.gaussians_in)

    def prefix_stats(self, num_voxels: int) -> FilterStats:
        """Accumulated :class:`FilterStats` of the first ``num_voxels`` voxels.

        Identical to merging the serial loop's per-voxel stats over the
        same prefix — every field is an integer sum, so the accumulation is
        exact and associative.
        """
        k = num_voxels
        coarse_tested = int(self.coarse_tested[:k].sum())
        fine_tested = int(self.fine_tested[:k].sum())
        return FilterStats(
            gaussians_in=int(self.gaussians_in[:k].sum()),
            coarse_tested=coarse_tested,
            coarse_passed=int(self.coarse_passed[:k].sum()),
            fine_tested=fine_tested,
            fine_passed=int(self.fine_passed[:k].sum()),
            coarse_macs=COARSE_FILTER_MACS * coarse_tested,
            fine_macs=FINE_FILTER_MACS * fine_tested,
        )

    def voxel_stats(self, voxel: int) -> FilterStats:
        """The :class:`FilterStats` one serial ``filter_voxel`` call would report."""
        return FilterStats(
            gaussians_in=int(self.gaussians_in[voxel]),
            coarse_tested=int(self.coarse_tested[voxel]),
            coarse_passed=int(self.coarse_passed[voxel]),
            fine_tested=int(self.fine_tested[voxel]),
            fine_passed=int(self.fine_passed[voxel]),
            coarse_macs=COARSE_FILTER_MACS * int(self.coarse_tested[voxel]),
            fine_macs=FINE_FILTER_MACS * int(self.fine_tested[voxel]),
        )


@dataclass
class FrameFilterResult:
    """Outcome of filtering every tile of a frame in one pass."""

    #: Precise projection of the union of every tile's fine candidates.
    projected: ProjectedGaussians
    #: One record per input tile, in input order.
    tiles: List[TileFilterBatch]


class HierarchicalFilter:
    """The coarse + fine filtering pipeline of the HFU.

    Parameters
    ----------
    use_coarse_filter:
        When False (the paper's "w/o CGF" variants), every Gaussian of the
        voxel goes straight to the fine-grained phase, paying the full
        427-MAC projection and the full second-half fetch.
    sh_degree:
        SH degree used when the fine phase computes RGB values.
    """

    def __init__(self, use_coarse_filter: bool = True, sh_degree: int = 3) -> None:
        self.use_coarse_filter = use_coarse_filter
        self.sh_degree = sh_degree

    def filter_voxel(
        self,
        model: GaussianModel,
        voxel_indices: np.ndarray,
        camera: Camera,
        tile_bounds: Tuple[int, int, int, int],
    ) -> FilterResult:
        """Filter the Gaussians of one voxel against one image tile.

        Parameters
        ----------
        model:
            The full scene model (the voxel's Gaussians are selected from it).
        voxel_indices:
            Model indices of the Gaussians stored in the streamed voxel.
        camera:
            The rendering camera.
        tile_bounds:
            Pixel rectangle ``(x0, y0, x1, y1)`` of the current tile.
        """
        voxel_indices = np.asarray(voxel_indices, dtype=np.int64)
        stats = FilterStats(gaussians_in=len(voxel_indices))
        if len(voxel_indices) == 0:
            return FilterResult(
                indices=voxel_indices,
                projected=project_gaussians(model, camera, indices=voxel_indices),
                stats=stats,
            )

        candidates = voxel_indices
        if self.use_coarse_filter:
            means2d, depths, coarse_radii = coarse_project_centers(
                model.positions[voxel_indices],
                model.max_scales[voxel_indices],
                camera,
            )
            passed = _overlaps_tile(
                means2d, coarse_radii, depths, tile_bounds, camera.near
            )
            stats.coarse_tested = len(voxel_indices)
            stats.coarse_macs = COARSE_FILTER_MACS * len(voxel_indices)
            stats.coarse_passed = int(np.count_nonzero(passed))
            candidates = voxel_indices[passed]

        stats.fine_tested = len(candidates)
        stats.fine_macs = FINE_FILTER_MACS * len(candidates)
        projected = project_gaussians(
            model, camera, sh_degree=self.sh_degree, indices=candidates
        )
        fine_pass = projected.valid & _overlaps_tile(
            projected.means2d,
            projected.radii,
            projected.depths,
            tile_bounds,
            camera.near,
        )
        stats.fine_passed = int(np.count_nonzero(fine_pass))

        survivor_mask = fine_pass
        survivors = candidates[survivor_mask]
        projected_survivors = ProjectedGaussians(
            means2d=projected.means2d[survivor_mask],
            depths=projected.depths[survivor_mask],
            conics=projected.conics[survivor_mask],
            radii=projected.radii[survivor_mask],
            colors=projected.colors[survivor_mask],
            opacities=projected.opacities[survivor_mask],
            valid=projected.valid[survivor_mask],
        )
        return FilterResult(
            indices=survivors, projected=projected_survivors, stats=stats
        )

    # ------------------------------------------------------------------
    def filter_voxel_batch(
        self,
        model: GaussianModel,
        camera: Camera,
        tile_bounds: Sequence[Tuple[int, int, int, int]],
        tile_streams: Sequence[Tuple[np.ndarray, np.ndarray]],
    ) -> FrameFilterResult:
        """Filter the voxel streams of every tile of a frame in one pass.

        ``tile_streams[t]`` is ``(counts, candidates)`` of the tile with
        pixel rectangle ``tile_bounds[t]``: the Gaussian count of each
        streamed voxel and the voxels' model indices concatenated in stream
        order.  Equivalent to calling :meth:`filter_voxel` once per (tile,
        voxel) pair — the survivor sets and statistics are identical — but
        the coarse phase projects the whole model once and the AABB tests
        gather its rows, and the fine phase projects the union of every
        tile's coarse survivors in one call.  Both projections are
        row-independent, so the gathered rows match per-voxel projections.
        """
        use_coarse = self.use_coarse_filter
        if use_coarse and any(len(candidates) for _, candidates in tile_streams):
            coarse_means, coarse_depths, coarse_radii = coarse_project_centers(
                model.positions, model.max_scales, camera
            )
        # Coarse phase per tile: (counts, coarse survivors, their segments,
        # coarse_tested, coarse_passed).
        coarse = []
        for bounds, (counts, candidates) in zip(tile_bounds, tile_streams):
            counts = np.asarray(counts, dtype=np.int64)
            segments = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
            if not use_coarse:
                # Matches the serial path: with the coarse phase disabled both
                # coarse counters stay zero and every candidate goes fine.
                zeros = np.zeros(len(counts), dtype=np.int64)
                coarse.append((counts, candidates, segments, zeros, zeros))
                continue
            if len(candidates):
                passed = _overlaps_tile(
                    coarse_means[candidates],
                    coarse_radii[candidates],
                    coarse_depths[candidates],
                    bounds,
                    camera.near,
                )
                candidates, segments = candidates[passed], segments[passed]
            coarse_passed = np.bincount(segments, minlength=len(counts))
            coarse.append((counts, candidates, segments, counts.copy(), coarse_passed))

        union = np.unique(
            np.concatenate([np.zeros(0, dtype=np.int64)] + [c[1] for c in coarse])
        ).astype(np.int64)
        projected = project_gaussians(
            model, camera, sh_degree=self.sh_degree, indices=union
        )

        tiles: List[TileFilterBatch] = []
        for bounds, (counts, candidates, segments, coarse_tested, coarse_passed) in zip(
            tile_bounds, coarse
        ):
            rows = np.searchsorted(union, candidates)
            fine_pass = projected.valid[rows] & _overlaps_tile(
                projected.means2d[rows],
                projected.radii[rows],
                projected.depths[rows],
                bounds,
                camera.near,
            )
            tiles.append(
                TileFilterBatch(
                    bounds=bounds,
                    indices=candidates[fine_pass],
                    rows=rows[fine_pass],
                    segment_ids=segments[fine_pass],
                    gaussians_in=counts,
                    coarse_tested=coarse_tested,
                    coarse_passed=coarse_passed,
                    fine_tested=np.bincount(segments, minlength=len(counts)),
                    fine_passed=np.bincount(
                        segments[fine_pass], minlength=len(counts)
                    ),
                )
            )
        return FrameFilterResult(projected=projected, tiles=tiles)

    # ------------------------------------------------------------------
    def coarse_filter_soundness_check(
        self,
        model: GaussianModel,
        voxel_indices: np.ndarray,
        camera: Camera,
        tile_bounds: Tuple[int, int, int, int],
    ) -> bool:
        """True when no Gaussian rejected by the coarse phase would pass the fine phase.

        Used by the property-based tests: the coarse radius is a conservative
        over-approximation, so coarse rejection must imply fine rejection.
        """
        voxel_indices = np.asarray(voxel_indices, dtype=np.int64)
        if len(voxel_indices) == 0:
            return True
        means2d, depths, coarse_radii = coarse_project_centers(
            model.positions[voxel_indices], model.max_scales[voxel_indices], camera
        )
        coarse_pass = _overlaps_tile(
            means2d, coarse_radii, depths, tile_bounds, camera.near
        )
        rejected = voxel_indices[~coarse_pass]
        if len(rejected) == 0:
            return True
        projected = project_gaussians(
            model, camera, sh_degree=0, indices=rejected
        )
        fine_pass = projected.valid & _overlaps_tile(
            projected.means2d,
            projected.radii,
            projected.depths,
            tile_bounds,
            camera.near,
        )
        return not bool(np.any(fine_pass))
