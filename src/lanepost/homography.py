"""Plane-to-plane projective transforms between the camera image and the
bird's-eye view.

The calibration input is a single quad correspondence (road trapezoid in
the image, rectangle in the BEV plane), so estimation is the exact 4-point
solve: 8 equations, 8 unknowns, h33 pinned to 1. Pixel (row, col) maps to
the continuous point (col + 0.5, row + 0.5): center-of-pixel keeps
round-trips unbiased. BEV results stay as real-valued coordinates and are
never re-rasterized; far lane markings only cover a handful of pixels and
snapping them to a grid would throw away most of their signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ProjectionError

__all__ = [
    "Homography",
    "QuadCorrespondence",
    "estimate_homography",
    "transform_instance",
    "transform_pixels",
]

_W_TOL = 1e-12


@dataclass(frozen=True)
class Homography:
    """3x3 invertible projective map, normalized so m[2][2] == 1."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        if abs(m[2, 2]) <= _W_TOL:
            raise CalibrationError("matrix cannot be normalized: m[2][2] ~ 0")
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            m = m / m[2, 2]
        if not np.isfinite(m).all():
            raise CalibrationError("matrix has non-finite entries")
        if abs(np.linalg.det(m)) <= 1e-12:
            raise CalibrationError("matrix is singular")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @classmethod
    def identity(cls) -> "Homography":
        return cls(np.eye(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map an (n, 2) array of points, preserving order. A point maps to
        the same bits whatever the batch size."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) point array, got shape {pts.shape}")
        if len(pts) == 1:
            # BLAS may route a one-row product through a matrix-vector
            # kernel that rounds differently; two rows round like any batch
            return self.apply(np.concatenate([pts, pts]))[:1]
        hom = pts @ self.m[:2, :2].T
        hom += self.m[:2, 2]
        w = pts @ self.m[2, :2]
        w += self.m[2, 2]
        if not np.all(np.abs(w) > _W_TOL):
            raise ProjectionError("some points map to projective infinity")
        hom /= w[:, None]
        return hom

    def inverse(self) -> "Homography":
        try:
            inv = np.linalg.inv(self.m)
        except np.linalg.LinAlgError as exc:
            raise CalibrationError(f"matrix is singular: {exc}") from exc
        return Homography(inv)


def _check_quad(points, name):
    quad = tuple((float(x), float(y)) for x, y in points)
    if len(quad) != 4:
        raise CalibrationError(f"{name} quad needs exactly 4 points, got {len(quad)}")
    if not all(np.isfinite(v) for p in quad for v in p):
        raise CalibrationError(f"{name} quad contains non-finite coordinates")
    xs = [p[0] for p in quad]
    ys = [p[1] for p in quad]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                ax, ay = quad[i]
                bx, by = quad[j]
                cx, cy = quad[k]
                cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
                if abs(cross) <= 1e-9 * span * span:
                    raise CalibrationError(
                        f"{name} quad has collinear points {quad[i]}, {quad[j]}, {quad[k]}"
                    )
    return quad


@dataclass(frozen=True)
class QuadCorrespondence:
    """Four matched points: src in the image plane (trapezoid), dst in the
    BEV plane (rectangle). Consistent order: TL, TR, BR, BL."""

    src: tuple
    dst: tuple

    def __post_init__(self):
        object.__setattr__(self, "src", _check_quad(self.src, "src"))
        object.__setattr__(self, "dst", _check_quad(self.dst, "dst"))


def estimate_homography(corr: QuadCorrespondence) -> Homography:
    """Exact homography through four correspondences.

    Builds the 8x8 linear system with unknowns h11..h32 (h33 = 1) and
    solves it; each dst point is then reproduced to < 1e-9 px.
    """
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i, ((x, y), (u, v)) in enumerate(zip(corr.src, corr.dst)):
        a[2 * i] = (x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y)
        b[2 * i] = u
        a[2 * i + 1] = (0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y)
        b[2 * i + 1] = v
    try:
        h = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise CalibrationError(f"degenerate correspondence: {exc}") from exc
    m = np.array(
        [[h[0], h[1], h[2]], [h[3], h[4], h[5]], [h[6], h[7], 1.0]]
    )
    return Homography(m)


def transform_instance(h: Homography, inst) -> np.ndarray:
    """Map an instance's pixels into the target plane; see transform_pixels."""
    return transform_pixels(h, inst.pixels)


def transform_pixels(h: Homography, pixels) -> np.ndarray:
    """Map (row, col) pixels into the target plane.

    Pixel (row, col) enters as the center point (col + 0.5, row + 0.5);
    the output (n, 2) array keeps pixel order and stays real-valued.
    """
    # a fresh C-contiguous float64 array, so BLAS sees one layout
    points = np.add(np.asarray(pixels)[:, ::-1], 0.5, dtype=np.float64)
    return h.apply(points)
