"""Output checks behind ``success_ratio``, outside every timed region.

The tolerances are the program's golden contract: an image is within
``GOLDEN_ATOL`` of the per-voxel reference oracle, and the workload
statistics are equal — integer accounting exactly, the per-Gaussian float
weight arrays within ``GOLDEN_ATOL``.  Each check returns ``""`` when the
output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

GOLDEN_ATOL = 1e-9


def image_digest(image: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(image).tobytes()).hexdigest()


def stats_mismatch(expected: Any, actual: Any, atol: float = GOLDEN_ATOL) -> str:
    """First field where two ``StreamingStats`` differ, or ``""``.

    Walks the dataclass fields, so a statistic the program adds later is
    compared too: arrays within ``atol``, everything else exactly.
    """
    if type(expected) is not type(actual):
        return f"type {type(expected).__name__} != {type(actual).__name__}"
    for field in dataclasses.fields(expected):
        left = getattr(expected, field.name)
        right = getattr(actual, field.name)
        if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
            if left is None or right is None:
                return f"{field.name}: one side is None"
            if left.shape != right.shape or not np.allclose(
                left, right, rtol=0.0, atol=atol
            ):
                return f"{field.name}: arrays differ"
        elif left != right:
            return f"{field.name}: {left!r} != {right!r}"
    return ""


def frame_mismatch(
    expected_image: np.ndarray,
    expected_stats: Any,
    image: np.ndarray,
    stats: Any,
    atol: float = GOLDEN_ATOL,
) -> str:
    """Whether one rendered frame matches its expected image and statistics."""
    if image.shape != expected_image.shape:
        return f"image shape {image.shape} != {expected_image.shape}"
    if not np.all(np.isfinite(image)):
        return "image has non-finite pixels"
    delta = float(np.max(np.abs(image - expected_image))) if image.size else 0.0
    if delta > atol:
        return f"image differs by {delta:.3g} > {atol:g}"
    return stats_mismatch(expected_stats, stats, atol)


def metrics_mismatch(
    expected: Mapping[str, float], actual: Mapping[str, float], rtol: float = 1e-12
) -> str:
    """Whether two metric dictionaries of one grid point agree."""
    if set(expected) != set(actual):
        return f"metric names differ: {sorted(set(expected) ^ set(actual))}"
    for name, value in expected.items():
        other = actual[name]
        if not math.isclose(value, other, rel_tol=rtol, abs_tol=0.0):
            return f"{name}: {value!r} != {other!r}"
    return ""


def reply_mismatch(
    response: Any,
    tag: str,
    frames: int,
    expected_checksums: Optional[Sequence[float]] = None,
    num_pixels: int = 0,
) -> str:
    """Whether a service ``trajectory`` reply is ok, undegraded and correct.

    A reply that took more than one attempt or that the daemon degraded
    counts as failed, so lowering fidelity cannot buy latency.  With
    ``expected_checksums`` (the in-process render of the same poses) every
    frame's image checksum must agree to within the golden tolerance summed
    over its pixels.
    """
    if not response.ok:
        return f"not ok: {response.code} {response.error}"
    meta: Dict[str, Any] = dict(response.meta or {})
    if meta.get("degraded"):
        return f"degraded: {meta['degraded']}"
    if int(meta.get("attempts", 1)) > 1:
        return f"took {meta['attempts']} attempts"
    result = response.result or {}
    if result.get("label") != tag:
        return f"label {result.get('label')!r} != {tag!r}"
    checksums = list(result.get("image_checksums") or [])
    if len(checksums) != frames or int(result.get("frames", -1)) != frames:
        return f"{len(checksums)} frames returned, {frames} requested"
    if not all(math.isfinite(value) and value > 0.0 for value in checksums):
        return "non-finite or empty frame checksum"
    if expected_checksums is not None:
        tolerance = GOLDEN_ATOL * 3 * num_pixels
        for index, (want, got) in enumerate(zip(expected_checksums, checksums)):
            if abs(want - got) > tolerance:
                return f"frame {index} checksum {got!r} != {want!r}"
    return ""


def image_checksum(image: np.ndarray) -> float:
    """The service's per-frame checksum of an image (sum of absolute values)."""
    return float(np.abs(image).sum())
