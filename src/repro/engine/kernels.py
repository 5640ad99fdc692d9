"""Interchangeable alpha-blending kernels.

Both renderers funnel every pixel they produce through one of these kernels:

* :func:`blend_reference` — the per-Gaussian reference loop (vectorised over
  the pixels of a tile, sequential over the depth-sorted Gaussian list), a
  direct transcription of the reference 3DGS blending recurrence;
* :func:`blend_vectorized` — a fully batched kernel that evaluates all
  (gaussian, pixel) powers in one broadcast and derives per-step
  transmittance with an exclusive cumulative product, reproducing the
  reference recurrence (including the early-termination gate) exactly;
* :func:`blend_tile_streams` — the streaming renderer's frame-level blend:
  every tile's depth-sorted voxel stream is blended through one cross-tile
  chunk loop over stacked pixel columns, reporting per pixel the stream
  position at which it saturated, so the pipeline can reproduce the
  reference loop's voxel-granular early termination in its statistics.

The first two share one signature::

    kernel(pixel_x, pixel_y, projected, sorted_indices, state,
           model_indices=None, track_depth_order=False) -> BlendState

``model_indices`` maps rows of ``projected`` to model Gaussian ids; the
streaming reference loop passes the surviving-voxel indices so per-Gaussian
weight attribution lands directly in the frame-level arrays bound into
``state``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.engine.state import BlendState
from repro.gaussians.projection import ProjectedGaussians

#: Alpha-blending terminates a pixel once its transmittance drops below this.
TRANSMITTANCE_EPSILON = 1e-4

#: Contributions with alpha below this are skipped (matches reference impl).
ALPHA_EPSILON = 1.0 / 255.0

#: Alpha is clamped to this maximum to keep blending stable.
ALPHA_MAX = 0.99

#: Depth slack below which an out-of-order contribution is not counted.
DEPTH_VIOLATION_EPSILON = 1e-9

#: Gaussians per broadcast batch of the vectorized kernel.  Bounds the
#: (gaussians x pixels) working set to a cache-resident block and sets the
#: granularity of the active-pixel compaction and early-termination checks.
VECTORIZED_CHUNK = 64

#: Minimum chunk rows (stream positions) of the frame-level streaming
#: blend.  Chunk-partition invariance of the blend recurrence makes the
#: size a pure performance knob: smaller chunks bound the padding waste of
#: tiles whose streams end mid-chunk and refresh the active-column
#: compaction more often, at the price of more chunk iterations — which
#: cost most when render threads share the interpreter (16-row chunks made
#: two-thread train frames ~15% slower).
STREAM_CHUNK = 32

#: Element budget (chunk rows x active columns) used to grow chunks as
#: pixel columns saturate and drop out of the active set.
STREAM_CHUNK_ELEMS = STREAM_CHUNK * 2048

#: Pixel columns per blend block.  The frame-level blend walks whole tiles
#: grouped into blocks of at most this many columns (a single larger tile
#: forms its own block), so every chunk temporary stays cache-resident even
#: on full-resolution frames.
STREAM_COL_BLOCK = 4096

BlendKernel = Callable[..., BlendState]


def _tracking_size(
    projected: ProjectedGaussians, model_indices: Optional[np.ndarray]
) -> int:
    if model_indices is None:
        return len(projected)
    return int(np.max(model_indices)) + 1 if len(model_indices) else 0


def blend_reference(
    pixel_x: np.ndarray,
    pixel_y: np.ndarray,
    projected: ProjectedGaussians,
    sorted_indices: np.ndarray,
    state: BlendState,
    model_indices: Optional[np.ndarray] = None,
    track_depth_order: bool = False,
) -> BlendState:
    """Per-Gaussian reference blending loop (front to back)."""
    if track_depth_order:
        state.ensure_weight_arrays(_tracking_size(projected, model_indices))
    px = pixel_x.astype(np.float64) + 0.5
    py = pixel_y.astype(np.float64) + 0.5
    for gid in sorted_indices:
        if not projected.valid[gid]:
            continue
        active = state.transmittance > TRANSMITTANCE_EPSILON
        if not np.any(active):
            break
        dx = px - projected.means2d[gid, 0]
        dy = py - projected.means2d[gid, 1]
        a, b, c = projected.conics[gid]
        power = -0.5 * (a * dx * dx + c * dy * dy) - b * dx * dy
        alpha = projected.opacities[gid] * np.exp(np.minimum(power, 0.0))
        alpha = np.minimum(alpha, ALPHA_MAX)
        contributes = active & (alpha > ALPHA_EPSILON) & (power <= 0.0)
        if not np.any(contributes):
            continue
        weight = np.where(contributes, alpha * state.transmittance, 0.0)
        state.color += weight[:, None] * projected.colors[gid][None, :]
        state.transmittance = np.where(
            contributes, state.transmittance * (1.0 - alpha), state.transmittance
        )
        state.blended_fragments += int(np.count_nonzero(contributes))
        if track_depth_order:
            depth = float(projected.depths[gid])
            violated = contributes & (
                state.max_depth > depth + DEPTH_VIOLATION_EPSILON
            )
            state.depth_violations += int(np.count_nonzero(violated))
            key = int(gid) if model_indices is None else int(model_indices[gid])
            state.gaussian_weights[key] += float(weight.sum())
            if np.any(violated):
                state.gaussian_violation_weights[key] += float(weight[violated].sum())
            state.max_depth = np.where(
                contributes, np.maximum(state.max_depth, depth), state.max_depth
            )
    return state


def blend_vectorized(
    pixel_x: np.ndarray,
    pixel_y: np.ndarray,
    projected: ProjectedGaussians,
    sorted_indices: np.ndarray,
    state: BlendState,
    model_indices: Optional[np.ndarray] = None,
    track_depth_order: bool = False,
) -> BlendState:
    """Broadcast-batched blending kernel.

    For a batch of Gaussians the kernel evaluates the full (gaussian, pixel)
    power matrix at once and recovers the sequential transmittance
    recurrence through one exclusive cumulative product along the Gaussian
    axis, seeded with the incoming per-pixel transmittance.  The recurrence
    is reproduced *bit for bit*:

    * non-contributing Gaussians (tiny alpha, positive power) have their
      blending factor replaced by exactly 1.0, so the sequential product is
      unchanged by them;
    * the early-termination gate (``T > epsilon``) evaluates identically on
      the ungated product because transmittance is non-increasing: past the
      first saturation crossing both the gated and ungated products sit at
      or below the threshold;
    * the post-batch transmittance is the running product just after the
      last contributing Gaussian (recovered as a masked minimum, since the
      product is non-increasing), where gated and ungated products agree.

    Depth-order tracking uses an exclusive running maximum of contributing
    depths along the same axis.
    """
    if track_depth_order:
        state.ensure_weight_arrays(_tracking_size(projected, model_indices))
    sorted_indices = np.asarray(sorted_indices, dtype=np.int64)
    sel = sorted_indices[projected.valid[sorted_indices]]
    num_pixels = len(pixel_x)
    if len(sel) == 0:
        return state
    px = pixel_x.astype(np.float64) + 0.5
    py = pixel_y.astype(np.float64) + 0.5

    for start in range(0, len(sel), VECTORIZED_CHUNK):
        # Active-pixel compaction: transmittance is non-increasing, so
        # saturated pixels can never contribute again and their columns are
        # dropped from the broadcast batch entirely (the reference loop can
        # only mask them, not skip their arithmetic).
        active = np.flatnonzero(state.transmittance > TRANSMITTANCE_EPSILON)
        if len(active) == 0:
            break
        compact = len(active) < num_pixels
        if compact:
            apx, apy = px[active], py[active]
            transmittance_in = state.transmittance[active]
        else:
            apx, apy = px, py
            transmittance_in = state.transmittance
        chunk = sel[start : start + VECTORIZED_CHUNK]

        dx = apx[None, :] - projected.means2d[chunk, 0][:, None]      # (G, A)
        dy = apy[None, :] - projected.means2d[chunk, 1][:, None]
        conics = projected.conics[chunk]
        power = conics[:, 0][:, None] * (dx * dx)
        power += conics[:, 2][:, None] * (dy * dy)
        power *= -0.5
        dx *= dy
        dx *= conics[:, 1][:, None]
        power -= dx

        opacities = projected.opacities[chunk][:, None]
        positive = power > 0.0
        np.minimum(power, 0.0, out=power)
        a = np.exp(power, out=power)                                  # reuse buffer
        a *= opacities
        np.minimum(a, ALPHA_MAX, out=a)
        a[positive] = 0.0
        a[a <= ALPHA_EPSILON] = 0.0

        # Sequential transmittance: running[k] is the transmittance Gaussian
        # k observes; scaling the first factor by the incoming state keeps
        # the multiplication order of the reference loop.
        factors = 1.0 - a
        factors[0] *= transmittance_in
        running = np.empty((len(chunk) + 1, len(transmittance_in)), dtype=np.float64)
        running[0] = transmittance_in
        np.cumprod(factors, axis=0, out=running[1:])
        contributes = (a > 0.0) & (running[:-1] > TRANSMITTANCE_EPSILON)

        weight = np.where(contributes, a * running[:-1], 0.0)         # (G, A)

        color_delta = np.einsum("gp,gc->pc", weight, projected.colors[chunk])
        if compact:
            state.color[active] += color_delta
        else:
            state.color += color_delta
        state.blended_fragments += int(np.count_nonzero(contributes))

        if track_depth_order:
            depths = projected.depths[chunk].astype(np.float64)
            max_depth_in = state.max_depth[active] if compact else state.max_depth
            contributed_depth = np.where(contributes, depths[:, None], -np.inf)
            # Exclusive running max of contributing depths, seeded by state.
            prior_max = np.maximum.accumulate(
                np.vstack([max_depth_in[None, :], contributed_depth]), axis=0
            )
            violated = contributes & (
                prior_max[:-1] > depths[:, None] + DEPTH_VIOLATION_EPSILON
            )
            state.depth_violations += int(np.count_nonzero(violated))
            keys = chunk if model_indices is None else model_indices[chunk]
            np.add.at(state.gaussian_weights, keys, weight.sum(axis=1))
            np.add.at(
                state.gaussian_violation_weights,
                keys,
                np.where(violated, weight, 0.0).sum(axis=1),
            )
            if compact:
                state.max_depth[active] = prior_max[-1]
            else:
                state.max_depth = prior_max[-1]

        # Transmittance after the last contributing Gaussian: the running
        # product only decreases on contributing steps, so the masked
        # minimum recovers it; pixels without contributions keep their
        # incoming value.
        after = np.min(
            np.where(contributes, running[1:], np.inf), axis=0, initial=np.inf
        )
        transmittance_out = np.where(np.isfinite(after), after, transmittance_in)
        if compact:
            state.transmittance[active] = transmittance_out
        else:
            state.transmittance = transmittance_out
    return state


# ----------------------------------------------------------------------
# Frame-level streaming blend.
# ----------------------------------------------------------------------
@dataclass
class StreamBlend:
    """Outcome of blending every tile's voxel stream of one frame.

    Pixel columns are stacked tile by tile, each tile's pixels in row-major
    (meshgrid) order; tile ``t`` owns columns
    ``col_starts[t]:col_starts[t + 1]``.
    """

    #: (T,) contributing fragments and depth-order violations per tile.
    fragments: np.ndarray
    violations: np.ndarray
    #: (T + 1,) column offsets of the tiles.
    col_starts: np.ndarray
    #: (P,) final transmittance and (P, 3) accumulated colour per column.
    transmittance: np.ndarray
    color: np.ndarray
    #: (P,) stream position of the Gaussian whose blend saturated the
    #: column (transmittance fell to or below
    #: :data:`TRANSMITTANCE_EPSILON`), or the tile's stream length when the
    #: column never saturated.
    saturation: np.ndarray


def blend_tile_streams(
    tile_bounds: Sequence[Tuple[int, int, int, int]],
    stream_rows: Sequence[np.ndarray],
    stream_model: Sequence[np.ndarray],
    projected: ProjectedGaussians,
    gaussian_weights: np.ndarray,
    violation_weights: np.ndarray,
) -> StreamBlend:
    """Blend every tile's depth-ordered stream through one cross-tile loop.

    ``stream_rows[t]`` are tile ``t``'s Gaussians as rows of ``projected``
    in blend order (every row valid) and ``stream_model[t]`` their model
    ids, under which blended and out-of-order weight accumulate in place
    into ``gaussian_weights`` / ``violation_weights``.

    The arithmetic is that of :func:`blend_vectorized` on stacked pixel
    columns.  The blend recurrence is invariant to how the stream is
    chunked — non-contributing factors are exactly 1.0 — so per-column
    transmittance, contribution gates, saturation positions and every
    integer counter are bit-identical to the reference loop under any
    partition; only the floating-point accumulation order of colours and
    per-Gaussian weights differs, which the 1e-9 tolerances cover.
    """
    num_tiles = len(tile_bounds)
    sizes = [(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in tile_bounds]
    col_starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    num_columns = int(col_starts[-1])
    stream_lens = np.array([len(rows) for rows in stream_rows], dtype=np.int64)
    blend = StreamBlend(
        fragments=np.zeros(num_tiles, dtype=np.int64),
        violations=np.zeros(num_tiles, dtype=np.int64),
        col_starts=col_starts,
        transmittance=np.ones(num_columns, dtype=np.float64),
        color=np.zeros((num_columns, 3), dtype=np.float64),
        saturation=np.repeat(stream_lens, sizes),
    )
    if num_tiles == 0:
        return blend

    frame = _StackedStreams(
        tile_bounds,
        sizes,
        stream_lens,
        stream_rows,
        stream_model,
        projected,
        gaussian_weights,
        violation_weights,
    )

    # Walk whole tiles in column blocks of ~STREAM_COL_BLOCK pixels: each
    # block's chunk temporaries stay cache-resident, and per-column
    # independence of the recurrence keeps every output bit-identical to
    # one global walk.
    block_lo = 0
    for slot in range(1, num_tiles + 1):
        if slot == num_tiles or col_starts[slot + 1] - col_starts[block_lo] > STREAM_COL_BLOCK:
            _blend_column_block(frame, blend, block_lo, slot)
            block_lo = slot
    return blend


class _StackedStreams:
    """Per-frame inputs of the column-block blend.

    ``rows`` / ``model`` hold tile ``t``'s stream in column ``t``, padded
    past the stream end with one sentinel projection row whose zero
    opacity, conic and mean make it an exact no-op (alpha 0, blending
    factor exactly 1.0) and model id 0 (it adds exactly 0.0).  The
    per-parameter 1-D copies make the chunk gathers contiguous takes.
    """

    def __init__(
        self,
        tile_bounds: Sequence[Tuple[int, int, int, int]],
        sizes: Sequence[int],
        stream_lens: np.ndarray,
        stream_rows: Sequence[np.ndarray],
        stream_model: Sequence[np.ndarray],
        projected: ProjectedGaussians,
        gaussian_weights: np.ndarray,
        violation_weights: np.ndarray,
    ) -> None:
        px_parts, py_parts = [], []
        for x0, y0, x1, y1 in tile_bounds:
            xs, ys = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
            px_parts.append(xs.reshape(-1) + 0.5)
            py_parts.append(ys.reshape(-1) + 0.5)
        self.px = np.concatenate(px_parts)
        self.py = np.concatenate(py_parts)
        self.col_tile = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        self.max_depth = np.full(len(self.px), -np.inf, dtype=np.float64)
        self.stream_lens = stream_lens
        self.gaussian_weights = gaussian_weights
        self.violation_weights = violation_weights

        self.mean_x = np.append(projected.means2d[:, 0], 0.0)
        self.mean_y = np.append(projected.means2d[:, 1], 0.0)
        self.conic_a = np.append(projected.conics[:, 0], 0.0)
        self.conic_b = np.append(projected.conics[:, 1], 0.0)
        self.conic_c = np.append(projected.conics[:, 2], 0.0)
        self.colors = np.vstack([projected.colors, np.zeros((1, 3))])
        self.opacities = np.append(projected.opacities, 0.0)
        self.depths = np.append(projected.depths.astype(np.float64), 0.0)
        # Row-major (stream position x tile) layout keeps every
        # accumulate/cumprod step one contiguous row operation.
        shape = (int(stream_lens.max()), len(stream_lens))
        self.rows = np.full(shape, len(projected.means2d), dtype=np.int64)
        self.model = np.zeros(shape, dtype=np.int64)
        for tile, (rows, model) in enumerate(zip(stream_rows, stream_model)):
            self.rows[: len(rows), tile] = rows
            self.model[: len(model), tile] = model


def _blend_column_block(
    frame: _StackedStreams, blend: StreamBlend, slot_lo: int, slot_hi: int
) -> None:
    """Run the chunked blend over the pixel columns of tiles ``slot_lo:slot_hi``."""
    col_lo, col_hi = blend.col_starts[slot_lo], blend.col_starts[slot_hi]
    stream_lens = frame.stream_lens
    max_len = int(stream_lens[slot_lo:slot_hi].max())
    transmittance = blend.transmittance
    block_cols = frame.col_tile[col_lo:col_hi]
    start = 0
    while start < max_len:
        active = col_lo + np.flatnonzero(
            (transmittance[col_lo:col_hi] > TRANSMITTANCE_EPSILON)
            & (stream_lens > start)[block_cols]
        )
        if len(active) == 0:
            break
        # col_tile is ascending, so the active columns of one tile are
        # contiguous — segment reductions (reduceat) recover per-tile sums.
        col_active = frame.col_tile[active]
        present = np.unique(col_active)
        runs = np.bincount(col_active, minlength=len(stream_lens))[present]
        boundaries = np.concatenate(([0], np.cumsum(runs[:-1])))
        # Chunk-partition invariance makes the boundary placement a pure
        # performance choice: chunks grow as columns saturate (amortising
        # the per-chunk call overhead over the long-stream tail) and the
        # last chunk shrinks to the longest remaining stream so finished
        # tiles do not pay for sentinel rows.
        rows_k = max(STREAM_CHUNK, STREAM_CHUNK_ELEMS // len(active))
        rows_k = int(min(rows_k, stream_lens[present].max() - start))
        stop = start + rows_k

        # Every pixel column of a tile shares the tile's stream, so the
        # per-Gaussian parameters vary per (chunk row, tile) only: gather
        # them once per present tile (a small random gather) and expand to
        # columns with a sequential ``take`` — identical values, but the
        # expensive scattered reads shrink by the tile occupancy factor.
        tile_chunk = frame.rows[start:stop].take(present, axis=1)
        col_pos = np.repeat(np.arange(len(present)), runs)
        transmittance_in = transmittance[active]

        # Chunk temporaries dominate the frame's peak memory, so each is
        # released as soon as it is consumed.
        dx = frame.px[active][None, :] - frame.mean_x.take(tile_chunk).take(col_pos, axis=1)
        dy = frame.py[active][None, :] - frame.mean_y.take(tile_chunk).take(col_pos, axis=1)
        power = frame.conic_a.take(tile_chunk).take(col_pos, axis=1)
        power *= dx * dx
        power += frame.conic_c.take(tile_chunk).take(col_pos, axis=1) * (dy * dy)
        power *= -0.5
        dx *= dy
        del dy
        dx *= frame.conic_b.take(tile_chunk).take(col_pos, axis=1)
        power -= dx
        del dx

        positive = power > 0.0
        np.minimum(power, 0.0, out=power)
        a = np.exp(power, out=power)
        a *= frame.opacities.take(tile_chunk).take(col_pos, axis=1)
        np.minimum(a, ALPHA_MAX, out=a)
        positive |= a <= ALPHA_EPSILON
        np.copyto(a, 0.0, where=positive)
        del positive

        factors = 1.0 - a
        factors[0] *= transmittance_in
        running = np.empty((rows_k + 1, len(active)), dtype=np.float64)
        running[0] = transmittance_in
        np.cumprod(factors, axis=0, out=running[1:])
        del factors
        contributes = (a > 0.0) & (running[:-1] > TRANSMITTANCE_EPSILON)
        weight = np.where(contributes, a * running[:-1], 0.0)
        del a

        # Colour accumulation as one small matmul per present tile: the
        # colour block varies per (chunk row, tile) only, so the per-column
        # weighted sum is (columns x rows) @ (rows x 3).
        ends = np.cumsum(runs)
        for i in range(len(present)):
            cs, ce = boundaries[i], ends[i]
            blend.color[active[cs:ce]] += weight[:, cs:ce].T @ frame.colors[tile_chunk[:, i]]

        counts_col = np.count_nonzero(contributes, axis=0)
        blend.fragments[present] += np.add.reduceat(counts_col, boundaries)

        depths = frame.depths.take(tile_chunk).take(col_pos, axis=1)
        prior_max = np.empty((rows_k + 1, len(active)), dtype=np.float64)
        prior_max[0] = frame.max_depth[active]
        prior_max[1:] = np.where(contributes, depths, -np.inf)
        np.maximum.accumulate(prior_max, axis=0, out=prior_max)
        violated = contributes & (prior_max[:-1] > depths + DEPTH_VIOLATION_EPSILON)
        frame.max_depth[active] = prior_max[-1]
        del depths, prior_max

        # Per-(chunk row, tile) weight sums scattered into the frame-level
        # per-Gaussian attribution arrays.
        model_chunk = frame.model[start:stop].take(present, axis=1)
        np.add.at(
            frame.gaussian_weights, model_chunk, np.add.reduceat(weight, boundaries, axis=1)
        )
        if violated.any():
            blend.violations[present] += np.add.reduceat(
                np.count_nonzero(violated, axis=0), boundaries
            )
            np.add.at(
                frame.violation_weights,
                model_chunk,
                np.add.reduceat(np.where(violated, weight, 0.0), boundaries, axis=1),
            )

        # The running product is non-increasing (factors are in [0, 1]), so
        # a column saturated somewhere in the chunk iff its final value is
        # below the epsilon; only those columns pay for the first-row scan.
        # Columns enter a chunk active, so that row is the global first
        # crossing.
        sat_cols = running[-1] <= TRANSMITTANCE_EPSILON
        if sat_cols.any():
            sat_idx = np.flatnonzero(sat_cols)
            first_row = np.argmax(running[1:, sat_idx] <= TRANSMITTANCE_EPSILON, axis=0)
            blend.saturation[active[sat_idx]] = start + first_row

        # Post-chunk transmittance: the running value after the column's
        # last contributing row (monotonicity makes it the minimum over
        # contributing rows); columns with no contribution keep their
        # incoming value.
        last_row = rows_k - 1 - np.argmax(contributes[::-1], axis=0)
        transmittance[active] = np.where(
            counts_col > 0,
            running[last_row + 1, np.arange(len(active))],
            transmittance_in,
        )
        start = stop


#: Registry of the interchangeable blending kernels.
KERNELS = {
    "reference": blend_reference,
    "vectorized": blend_vectorized,
}

#: Kernel used when no explicit selection is made.
DEFAULT_KERNEL = "vectorized"


def available_kernels() -> tuple:
    """Names of the registered blending kernels."""
    return tuple(KERNELS)


def get_kernel(name: Optional[str] = None) -> BlendKernel:
    """Resolve a kernel name (``None`` means the default) to its callable."""
    key = name or DEFAULT_KERNEL
    if key not in KERNELS:
        raise KeyError(
            f"unknown blending kernel {key!r}; available: {sorted(KERNELS)}"
        )
    return KERNELS[key]
