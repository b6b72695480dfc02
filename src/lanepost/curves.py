"""Per-cluster lane curves: quadratic least squares in BEV, uniform
sampling, and back-projection of the samples into the image.

Fits parameterize x as a polynomial in y, matching the line fits used for
voting: BEV lane markings run close to vertical. The y axis is mapped to
[-1, 1] before forming the normal equations; raw y in [0, 480] drives the
3x3 normal matrix to condition ~1e10, which is exactly the regime where a
direct solve loses the trailing digits the tests check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, ProcessingError
from .homography import Homography
from .voting import _SAME_Y_TOL

__all__ = ["LaneCurve", "fit_curve", "sample_curve", "back_project"]

_DUPLICATE_TOL = 1e-6


@dataclass(frozen=True)
class LaneCurve:
    """x = c2*y^2 + c1*y + c0 over y in [y_min, y_max], BEV coordinates.

    The one polynomial record for fitted lanes and for ground truth; a
    truth curve keeps its divider id in cluster_id.
    """

    c0: float
    c1: float
    c2: float
    y_min: float
    y_max: float
    cluster_id: int

    @property
    def degree(self) -> int:
        """Index of the highest nonzero coefficient. fit_curve drops sparse
        clusters to a line or a constant instead of failing, because far
        markings may come down to a handful of pixels and the pipeline
        must still emit a lane for them."""
        return 2 if self.c2 != 0.0 else (1 if self.c1 != 0.0 else 0)

    def eval(self, y):
        return (self.c2 * y + self.c1) * y + self.c0


def fit_curve(points, cluster_id: int) -> LaneCurve:
    """Least-squares polynomial x(y) of degree min(2, distinct_y - 1).

    Points are sorted canonically (y, then x) before any summation, so the
    coefficients do not depend on input order. y values closer than 1e-9
    count as one distinct value.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError(f"expected a non-empty (n, 2) point array, got shape {pts.shape}")
    pts = pts[np.lexsort((pts[:, 0], pts[:, 1]))]
    xs = pts[:, 0]
    ys = pts[:, 1]
    y_min = float(ys[0])
    y_max = float(ys[-1])
    distinct = 1 + int((np.diff(ys) > _SAME_Y_TOL).sum())
    degree = min(2, distinct - 1)

    if degree == 0:
        return LaneCurve(float(xs.mean()), 0.0, 0.0, y_min, y_max, cluster_id)

    # solve on t in [-1, 1], then expand t = alpha*y + beta back to y
    alpha = 2.0 / (y_max - y_min)
    beta = -(y_max + y_min) / (y_max - y_min)
    t = alpha * ys + beta
    cols = [np.ones_like(t), t] if degree == 1 else [np.ones_like(t), t, t * t]
    v = np.stack(cols, axis=1)
    gram = v.T @ v
    rhs = v.T @ xs
    scaled = np.linalg.solve(gram, rhs)

    if degree == 1:
        s0, s1 = scaled
        c0 = float(s0 + s1 * beta)
        c1 = float(s1 * alpha)
        c2 = 0.0
    else:
        s0, s1, s2 = scaled
        c0 = float(s0 + s1 * beta + s2 * beta * beta)
        c1 = float(alpha * (s1 + 2.0 * s2 * beta))
        c2 = float(s2 * alpha * alpha)
    return LaneCurve(c0, c1, c2, y_min, y_max, cluster_id)


def sample_curve(curve: LaneCurve, n: int) -> np.ndarray:
    """n points on the curve, y uniformly spaced over its extent."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if curve.y_min == curve.y_max:
        raise DegenerateGeometryError(
            f"curve extent is a single y value ({curve.y_min}); nothing to sample"
        )
    ys = np.linspace(curve.y_min, curve.y_max, n)
    return np.stack([curve.eval(ys), ys], axis=1)


def back_project(h_inv: Homography, samples) -> np.ndarray:
    """Map BEV samples into the image plane, preserving order.

    Consecutive points closer than 1e-6 px collapse into one; a polyline
    needs at least 2 surviving points.
    """
    pts = np.asarray(samples, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError(f"expected a non-empty (n, 2) sample array, got shape {pts.shape}")
    mapped = h_inv.apply(pts)
    steps = np.hypot(*np.diff(mapped, axis=0).T)
    if not (steps >= _DUPLICATE_TOL).all():
        # A short step exists: distance is measured to the last kept point,
        # which is only known after the points before it are decided.
        keep = [0]
        for i in range(1, len(mapped)):
            delta = mapped[i] - mapped[keep[-1]]
            if float(np.hypot(delta[0], delta[1])) >= _DUPLICATE_TOL:
                keep.append(i)
        mapped = mapped[keep]
    if len(mapped) < 2:
        raise ProcessingError("back-projected polyline collapsed to fewer than 2 points")
    return mapped
