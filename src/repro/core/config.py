"""Configuration of the streaming pipeline."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class StreamingConfig:
    """Parameters of the memory-centric streaming renderer.

    Attributes
    ----------
    voxel_size:
        Edge length of the cubic voxels the scene is partitioned into.  The
        paper uses 2.0 for real-world scenes and 0.4 for synthetic scenes
        (Sec. V-A) and studies the sensitivity in Fig. 12.
    tile_size:
        Edge length (pixels) of the pixel groups rendered together.
    ray_stride:
        Stride (pixels) between the rays sampled inside a pixel group when
        building the voxel ordering table.  1 samples every pixel; the VSU
        hardware samples a subset, which is sufficient because neighbouring
        pixels traverse nearly identical voxel sequences.
    ray_step_fraction:
        Ray-marching step used by the voxel traversal, as a fraction of the
        voxel size (only used by the sampling-based traversal; the DDA
        traversal is exact).
    sh_degree:
        Spherical-harmonics degree used for colour.
    use_coarse_filter:
        Enable the coarse-grained filter (disabled in the "w/o CGF" and
        "w/o VQ+CGF" variants of Fig. 11).
    use_vq:
        Fetch the second half as codebook indices (disabled in the
        "w/o VQ+CGF" variant).
    max_voxels_per_ray:
        Safety bound on traversal length.
    background:
        Background colour composited behind the accumulated radiance.
    blend_kernel:
        Name of the engine blending kernel (``"vectorized"`` by default;
        ``"reference"`` selects the per-Gaussian loop — both are
        numerically equivalent, see :mod:`repro.engine.kernels`).
    streaming_kernel:
        Render path of the streaming pipeline.  ``"vectorized"`` (default)
        executes whole frames at once: one hierarchical-filter pass over
        every tile's voxel stream (one coarse projection, one fine
        projection of the union of coarse survivors), a segment-wise depth
        sort per tile and one cross-tile blend.  ``"reference"`` is the
        voxel-at-a-time loop, the oracle the fast path is tested against.
        Both produce identical :class:`StreamingStats` and images within
        1e-9.  The fast path is built on the broadcast blend machinery, so
        selecting ``blend_kernel="reference"`` also routes streaming
        renders through the voxel-at-a-time loop.
    frame_cache_size:
        Number of prepared frames (voxel depth map, per-tile ordering
        tables, topological orders) memoized per camera pose; 0 disables
        the frame-preparation cache.
    """

    voxel_size: float = 2.0
    tile_size: int = 16
    ray_stride: int = 4
    ray_step_fraction: float = 0.5
    sh_degree: int = 3
    use_coarse_filter: bool = True
    use_vq: bool = True
    max_voxels_per_ray: int = 512
    background: tuple = (0.0, 0.0, 0.0)
    blend_kernel: str = "vectorized"
    streaming_kernel: str = "vectorized"
    frame_cache_size: int = 8

    def __post_init__(self) -> None:
        if self.voxel_size <= 0:
            raise ValueError(f"voxel_size must be positive, got {self.voxel_size!r}")
        if self.tile_size <= 0:
            raise ValueError(f"tile_size must be positive, got {self.tile_size!r}")
        if self.ray_stride <= 0:
            raise ValueError(f"ray_stride must be positive, got {self.ray_stride!r}")
        if not 0 < self.ray_step_fraction <= 1.0:
            raise ValueError(
                f"ray_step_fraction must be in (0, 1], got {self.ray_step_fraction!r}"
            )
        if self.sh_degree < 0 or self.sh_degree > 3:
            raise ValueError(f"sh_degree must be in [0, 3], got {self.sh_degree!r}")
        if self.max_voxels_per_ray <= 0:
            raise ValueError(
                f"max_voxels_per_ray must be positive, got {self.max_voxels_per_ray!r}"
            )
        from repro.engine.kernels import KERNELS

        if self.blend_kernel not in KERNELS:
            raise ValueError(
                f"unknown blend_kernel {self.blend_kernel!r}; "
                f"available: {sorted(KERNELS)}"
            )
        from repro.core.pipeline import STREAMING_KERNELS

        if self.streaming_kernel not in STREAMING_KERNELS:
            raise ValueError(
                f"unknown streaming_kernel {self.streaming_kernel!r}; "
                f"available: {sorted(STREAMING_KERNELS)}"
            )
        if self.frame_cache_size < 0:
            raise ValueError(
                f"frame_cache_size must be non-negative, got {self.frame_cache_size!r}"
            )

    def with_options(self, **kwargs) -> "StreamingConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def for_scene_category(cls, category: str, **kwargs) -> "StreamingConfig":
        """The paper's default voxel size for a scene category.

        ``real`` scenes use a voxel size of 2.0 and ``synthetic`` scenes use
        0.4 (Sec. V-A).
        """
        if category == "real":
            voxel_size = 2.0
        elif category == "synthetic":
            voxel_size = 0.4
        else:
            raise ValueError(f"unknown scene category {category!r}")
        return cls(voxel_size=voxel_size, **kwargs)
