"""Per-cluster lane curves: quadratic least squares in BEV, uniform
sampling, and back-projection of the samples into the image.

Fits parameterize x as a polynomial in y, matching the line fits used for
voting: BEV lane markings run close to vertical. The y axis is mapped to
[-1, 1] before forming the normal equations; raw y in [0, 480] drives the
3x3 normal matrix to condition ~1e10, which is exactly the regime where a
direct solve loses the trailing digits the tests check.

A frame's clusters are fitted in one pass (fit_curves): one stable sort
puts the points in canonical order, grouped by cluster and within each
cluster by (y, x); the extents and the rescaled y columns are computed for
all clusters at once, and all normal systems are solved in one stacked
call. The canonical order is defined here once: _order_key builds the
(y, x) sort key, _order_ranks ranks points by it, and _group_order sorts
the key cluster * n + rank, as `pipeline.run_frame` does with the ranks
of its pixel map. The pass after the sort (_fit_grouped) takes the order
as given. fit_curve is fit_curves with one cluster, so a cluster gets the
same curve bit for bit alone or in a frame. That holds only while every
cluster's normal matrix and right-hand side come from the same BLAS
products on the same memory layout: the x column must stay the stride-16
column view of the sorted (n, 2) points, because BLAS rounds a contiguous
copy differently. Likewise project_curves samples and back-projects all
curves at once with the same sampling code and duplicate-collapse rule as
sample_curve and back_project. When the batch is refused, project_curves
replays that per-curve chain in order, so the first curve the chain
refuses decides the error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._scratch import borrow
from .errors import DegenerateGeometryError, ProcessingError
from .homography import Homography
from .voting import _SAME_Y_TOL, _point_array

__all__ = ["LaneCurve", "fit_curve", "fit_curves", "sample_curve", "back_project", "project_curves"]

_DUPLICATE_TOL = 1e-6


@dataclass(frozen=True)
class LaneCurve:
    """x = c2*y^2 + c1*y + c0 over y in [y_min, y_max], BEV coordinates.

    The one polynomial record for fitted lanes and for ground truth; a
    truth curve keeps its divider id in cluster_id. The degree that
    fit_curve chose is not recorded.
    """

    c0: float
    c1: float
    c2: float
    y_min: float
    y_max: float
    cluster_id: int

    def eval(self, y):
        return (self.c2 * y + self.c1) * y + self.c0


def fit_curve(points, cluster_id: int) -> LaneCurve:
    """Least-squares polynomial x(y) of degree min(2, distinct_y - 1),
    with 0.0 above that degree. Sparse clusters drop to a line or a
    constant instead of failing, because far markings may come down to a
    handful of pixels and the pipeline must still emit a lane for them.

    Points are sorted canonically (y, then x) before any summation, so the
    coefficients do not depend on input order. y values closer than 1e-9
    count as one distinct value. NaN coordinates are rejected: they have
    no place in that order.
    """
    pts = _point_array(points, "point")
    (curve,) = fit_curves(pts, np.zeros(len(pts), np.intp), 1)
    return replace(curve, cluster_id=cluster_id)


def fit_curves(points, labels, count: int) -> list[LaneCurve]:
    """fit_curve(points[labels == k], k) for k in range(count), bit for
    bit, in one pass over the frame's points.

    labels gives each point's cluster; every cluster 0..count-1 needs at
    least one point.
    """
    pts = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if pts.ndim != 2 or pts.shape[1] != 2 or labels.shape != (len(pts),):
        raise ValueError(
            f"expected (n, 2) points and n labels, got shapes {pts.shape} and {labels.shape}"
        )
    if labels.size and labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got {labels.dtype}")
    key = labels.astype(np.intp)
    sizes = np.bincount(key, minlength=count)  # refuses negative labels
    if len(sizes) != count or not sizes.all():
        raise ValueError(f"every cluster 0..{count - 1} needs at least one point")
    if not count:
        return []
    ranks = _order_ranks(pts.copy().view(np.complex128).ravel())
    return _fit_grouped(pts, _group_order(key, ranks, len(pts)), sizes)


def _group_order(groups: np.ndarray, ranks: np.ndarray, n: int) -> np.ndarray:
    """The canonical order of _fit_grouped: the points one group after
    another, each group by y, then x. groups (intp) holds each point's
    group and ranks its rank from _order_ranks among n points; groups is
    turned into the sort key group * n + rank in place."""
    groups *= n
    groups += ranks
    return np.argsort(groups, kind="stable")


def _order_key(xy: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The canonical-order key y + ix of the complex points xy (x + iy),
    written into out, which may be xy itself; returns out.

    A stable sort of the key orders the points by y, then x, exactly as
    np.lexsort((x, y)) does for non-NaN values, and several times faster.
    The key of a key is the point again."""
    y = xy.imag.copy()
    out.imag = xy.real
    out.real = y
    return out


# points per step of _order_ranks: each step's temporaries hold about
# 64 KiB whatever the number of points
_RANK_STEP = 4096


def _order_ranks(points: np.ndarray) -> np.ndarray:
    """The int32 rank of each of the complex points (x + iy) in canonical
    order: how many points come before it by y, then x.

    Points whose keys compare equal share the lowest rank of their tie, so
    the stable sort of _group_order leaves tied points in the group's
    order, as a stable sort of each group's keys would: ties keep their
    input order, and every sum of the fit sees the same sequence whatever
    grid or frame the ranks were taken over. (Tied keys can differ only in
    the sign of a zero, and such a pair keeps its order too.)

    points holds its keys while they are sorted and its own bits again on
    return. Besides the ranks, this takes the sort's permutation (8 bytes
    per point, freed on return) and temporaries of _RANK_STEP points.
    """
    n = len(points)
    steps = [(start, min(start + _RANK_STEP, n)) for start in range(0, n, _RANK_STEP)]
    for start, stop in steps:
        _order_key(points[start:stop], points[start:stop])
    order = np.argsort(points, kind="stable")
    ranks = np.empty(n, np.int32)
    tie_rank = 0
    for start, stop in steps:
        keys = points.take(order[max(start - 1, 0) : stop])
        rank = np.arange(start, stop, dtype=np.int32)
        tied = keys[1:] == keys[:-1]
        if start == 0:
            tied = np.concatenate([[False], tied])
        if tied.any():
            # a tied point takes the rank of the point before it
            rank[tied] = 0
            if tied[0]:
                rank[0] = tie_rank
            np.maximum.accumulate(rank, out=rank)
        ranks[order[start:stop]] = rank
        tie_rank = rank[-1]
    del order
    for start, stop in steps:
        _order_key(points[start:stop], points[start:stop])
    return ranks


def _fit_grouped(points: np.ndarray, order: np.ndarray, sizes) -> list[LaneCurve]:
    """The curves of point groups, numbered 0, 1, ... as their cluster_id,
    for groups that order lists one after another, each in canonical
    order (by y, then x); sizes gives each group's non-zero length."""
    if np.isnan(points).any():
        raise ValueError("points must not be NaN")
    stops = np.cumsum(sizes)
    starts = stops - sizes
    # the gathered points and the Vandermonde columns are this thread's
    # pooled scratch (see `_scratch`)
    xy = np.ascontiguousarray(points).view(np.complex128).ravel()
    with borrow(5 * len(xy), np.float64) as work:
        # the x column stays a stride-16 view of the (n, 2) points: BLAS
        # rounds a contiguous copy of it differently
        grouped = work[: 2 * len(xy)].view(np.complex128)
        pts = np.take(xy, order, out=grouped, mode="clip").view(np.float64).reshape(-1, 2)
        xs = pts[:, 0]
        ys = pts[:, 1]
        v = work[2 * len(xy) :].reshape(-1, 3)
        last = stops - 1
        gaps = np.empty(len(ys), dtype=bool)
        np.greater(np.subtract(ys[1:], ys[:-1], out=v[:-1, 0]), _SAME_Y_TOL, out=gaps[:-1])
        gaps[last] = False  # the step from a group's last point leaves the group
        y_min = ys[starts].tolist()
        y_max = ys[last].tolist()
        degrees = np.minimum(2, np.add.reduceat(gaps, starts, dtype=np.intp)).tolist()

        # solve on t in [-1, 1], then expand t = alpha*y + beta back to y;
        # per-group scalars are Python floats, the same IEEE doubles
        spans = [hi - lo if degree else 1.0 for lo, hi, degree in zip(y_min, y_max, degrees)]
        alphas = [2.0 / span for span in spans]
        betas = [-(hi + lo) / span for lo, hi, span in zip(y_min, y_max, spans)]
        v[:, 0] = 1.0
        t = np.multiply(np.repeat(alphas, sizes), ys, out=v[:, 1])
        t += np.repeat(betas, sizes)
        np.multiply(t, t, out=v[:, 2])

        coefficients = {}
        systems = {1: [], 2: []}  # degree -> (group, gram, rhs) of each group
        for k, (start, stop, degree) in enumerate(zip(starts.tolist(), stops.tolist(), degrees)):
            if degree == 0:
                coefficients[k] = (float(xs[start:stop].mean()), 0.0, 0.0)
                continue
            vk = v[start:stop, : degree + 1]
            if degree == 1:
                vk = np.ascontiguousarray(vk)
            systems[degree].append((k, vk.T @ vk, vk.T @ xs[start:stop]))
        for degree, rows in systems.items():
            if not rows:
                continue
            ks, grams, rhs = zip(*rows)
            solved = np.linalg.solve(np.array(grams), np.array(rhs)[:, :, None])[:, :, 0]
            for k, s in zip(ks, solved.tolist()):
                a, b = alphas[k], betas[k]
                if degree == 1:
                    coefficients[k] = (s[0] + s[1] * b, s[1] * a, 0.0)
                else:
                    coefficients[k] = (
                        s[0] + s[1] * b + s[2] * b * b, a * (s[1] + 2.0 * s[2] * b), s[2] * a * a
                    )
        return [LaneCurve(*coefficients[k], y_min[k], y_max[k], k) for k in range(len(degrees))]


def sample_curve(curve: LaneCurve, n: int) -> np.ndarray:
    """n points on the curve, y uniformly spaced over its extent."""
    return _sample([curve], n)[0]


def _sample(curves, n: int) -> np.ndarray:
    """(k, n, 2) samples of the curves; the first curve whose extent is a
    single y value raises.

    y is spaced as np.linspace(y_min, y_max, n) spaces it, row by row:
    np.linspace itself switches every row to another formula as soon as
    one row's step underflows to zero.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    for curve in curves:
        if curve.y_min == curve.y_max:
            raise DegenerateGeometryError(
                f"curve extent is a single y value ({curve.y_min}); nothing to sample"
            )
    c0, c1, c2, lo, hi = np.array(
        [(c.c0, c.c1, c.c2, c.y_min, c.y_max) for c in curves], dtype=np.float64
    ).reshape(-1, 5, 1).transpose(1, 0, 2)
    i = np.arange(n, dtype=np.float64)
    delta = hi - lo
    step = delta / (n - 1)
    samples = np.empty((len(curves), n, 2))
    ys = samples[:, :, 1]
    np.multiply(i, step, out=ys)
    if not step.all():
        np.copyto(ys, i / (n - 1) * delta, where=step == 0)  # linspace's form for a zero step
    ys += lo
    ys[:, -1] = hi[:, 0]
    xs = samples[:, :, 0]  # LaneCurve.eval, row by row
    np.multiply(c2, ys, out=xs)
    xs += c1
    xs *= ys
    xs += c0
    return samples


def back_project(h_inv: Homography, samples) -> np.ndarray:
    """Map BEV samples into the image plane, preserving order.

    Consecutive points closer than 1e-6 px collapse into one; a polyline
    needs at least 2 surviving points.
    """
    pts = _point_array(samples, "sample")
    mapped = h_inv.apply(pts)
    return _collapse(mapped, np.hypot(*np.diff(mapped, axis=0).T))


def project_curves(h_inv: Homography, curves, n: int) -> list[np.ndarray]:
    """back_project(h_inv, sample_curve(curve, n)) for every curve, bit for
    bit, with one sampling pass and one homography application.

    Errors come as from that per-curve chain run in order: when the batch
    is refused, the chain is replayed curve by curve, so the first curve
    that it refuses decides the exception.
    """
    curves = list(curves)
    try:
        samples = _sample(curves, n)
        mapped = h_inv.apply(samples.reshape(-1, 2)).reshape(samples.shape)
        d = np.diff(mapped, axis=1)
        steps = np.hypot(d[:, :, 0], d[:, :, 1])
        return [_collapse(m, s) for m, s in zip(mapped, steps)]
    except ProcessingError:
        for curve in curves:
            back_project(h_inv, sample_curve(curve, n))
        raise


def _collapse(mapped: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """mapped without each point closer than 1e-6 px to the last point
    kept before it; steps[i] is the distance between points i and i + 1.
    Raises when fewer than 2 points are left."""
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
