"""Vectorized bbox geometry kernels.

Coordinate convention is PDF-standard: ``(x0, y0, x1, y1)`` with y measured
from the *bottom* of the page (``/root/reference/libpdf/models/position.py:26-41``).
All kernels accept numpy ``(N, 4)`` float arrays so per-page spatial joins /
anti-joins run as numpy broadcasts, not Python loops.
"""

from __future__ import annotations

import numpy as np


def as_bbox_array(items, keys=("x0", "y0", "x1", "y1")) -> np.ndarray:
    """List of dicts with x0..y1 → (N, 4) float64 array."""
    if len(items) == 0:
        return np.empty((0, 4), dtype=np.float64)
    return np.array([[float(it[k]) for k in keys] for it in items], dtype=np.float64)


def contains(outer: np.ndarray, inner: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Pairwise complete-containment matrix.

    ``out[i, j]`` is True when ``inner[j]`` lies completely inside
    ``outer[i]`` expanded by ``margin`` on every side.  Mirrors the strict
    containment test of ``libpdf/utils.py:212-238`` (check_lt_obj_in_bbox).
    """
    o = outer[:, None, :]  # (N,1,4)
    i = inner[None, :, :]  # (1,M,4)
    return (
        (i[..., 0] >= o[..., 0] - margin)
        & (i[..., 1] >= o[..., 1] - margin)
        & (i[..., 2] <= o[..., 2] + margin)
        & (i[..., 3] <= o[..., 3] + margin)
    )


def inside_any(regions: np.ndarray, boxes: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """(M,) bool: box j completely inside at least one region (± margin).

    This is the predicate of ``libpdf/textbox.py:889-898``: a textbox is
    removed when *no* side sticks out of the margin-expanded region.
    """
    if len(regions) == 0 or len(boxes) == 0:
        return np.zeros(len(boxes), dtype=bool)
    return contains(regions, boxes, margin).any(axis=0)


def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise bbox intersection matrix (open intervals excluded)."""
    aa = a[:, None, :]
    bb = b[None, :, :]
    return (
        (aa[..., 0] < bb[..., 2])
        & (aa[..., 2] > bb[..., 0])
        & (aa[..., 1] < bb[..., 3])
        & (aa[..., 3] > bb[..., 1])
    )


def union_bbox(bboxes: np.ndarray) -> tuple:
    """min/max union of a set of bboxes (``libpdf/textbox.py:193-196``)."""
    return (
        float(bboxes[:, 0].min()),
        float(bboxes[:, 1].min()),
        float(bboxes[:, 2].max()),
        float(bboxes[:, 3].max()),
    )


def area(bboxes: np.ndarray) -> np.ndarray:
    return np.maximum(bboxes[:, 2] - bboxes[:, 0], 0.0) * np.maximum(
        bboxes[:, 3] - bboxes[:, 1], 0.0
    )


def contains_coord(
    bbox,
    page: int,
    target_page: int,
    x: float,
    y: float,
    tolerance: float = 65.0,
) -> bool:
    """Link-target containment with leftward/upward tolerance.

    Faithful to ``libpdf/models/position.py:101-121``: the target coordinate
    of a PDF GoTo action sits at the top-left of the element, so the test
    extends ``tolerance`` points left of x0 and above y1.
    """
    x0, y0, x1, y1 = bbox
    return (
        page == target_page
        and x1 > x >= (x0 - tolerance)
        and (y1 + tolerance) > y >= y0
    )
