"""Group lane-marking instances into lane dividers by pairwise voting.

Every instance gets a straight line fitted through its BEV points
(x as a function of y, because markings are near-vertical in BEV and
regressing y on x would be degenerate). For a pair of instances, the
facing point P sits midway between their nearest facing endpoints; the
pair's vote is the sum of P's perpendicular distances to the two fitted
lines. Collinear segments of one dashed divider vote ~0 and merge, while
markings of a neighboring divider stay a lane-width apart. Votes under the
threshold eta define a graph whose connected components are the dividers.

The voting core, cluster_segments, takes a frame's BEV points as one
segmented array: the instances' points laid end to end in id order, plus
each instance's point count. All instances are fitted in one array pass
with per-instance sums folded in index order by np.bincount, so an
instance's line is the same bits whether it is fitted alone (fit_line)
or with the rest of the frame. Pairs are scored in canonical (min id,
max id) order, a block of rows of the vote matrix at a time, and the
facing-point construction is order-independent, so results are bitwise
deterministic and invariant to input permutation. cluster_instances is
the per-instance view: it sorts BevInstance objects by id and lays their
points end to end for the same core. BevInstance.from_points takes its
bottom and top from the same exact segment extremes as the vote matrix,
so BevInstance and the scalar vote() remain the reference the vote
matrix is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError
from .graph import component_labels

__all__ = [
    "BevInstance",
    "FittedLine",
    "Clustering",
    "fit_line",
    "facing_point",
    "vote",
    "cluster_instances",
    "cluster_segments",
]

_SAME_Y_TOL = 1e-9  # y spread at or below which points share one y; curves fits use it too
_BLOCK_ELEMENTS = 1 << 14  # vote-matrix entries computed at once; bounds the temporaries


@dataclass(eq=False)
class BevInstance:
    """An instance's pixels mapped into BEV space.

    bottom is the member point with maximum y (nearest the camera), top the
    minimum; ties break toward minimum x.
    """

    id: int
    points: np.ndarray
    bottom: tuple[float, float]
    top: tuple[float, float]

    @classmethod
    def from_points(cls, instance_id: int, points) -> "BevInstance":
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise ValueError(f"expected a non-empty (n, 2) point array, got shape {pts.shape}")
        bottom_x, bottom_y, top_x, top_y = _extreme_arrays(pts, [0])
        bottom = (float(bottom_x[0]), float(bottom_y[0]))
        return cls(instance_id, pts, bottom, (float(top_x[0]), float(top_y[0])))


def _extreme_arrays(points: np.ndarray, starts) -> tuple[np.ndarray, ...]:
    """(bottom_x, bottom_y, top_x, top_y) arrays of consecutive non-empty
    point segments, given by their starts.

    The bottom is a segment's point of maximum y, the top its point of
    minimum y; ties break toward minimum x. Min and max are exact, so the
    result does not depend on how the segments are batched. Complex
    numbers compare by real part, then imaginary part, so one reduction
    over y + i*(-x) finds the bottom and one over y + i*x the top.
    """
    key = np.empty(len(points), dtype=np.complex128)
    key.real = points[:, 1]
    np.negative(points[:, 0], out=key.imag)
    bottom = np.maximum.reduceat(key, starts)
    key.imag = points[:, 0]
    top = np.minimum.reduceat(key, starts)
    # contiguous copies: the vote matrix broadcasts these arrays n times
    return -bottom.imag, bottom.real.copy(), top.imag.copy(), top.real.copy()


@dataclass(frozen=True)
class FittedLine:
    """x = a*y + b. vertical_fallback marks the single-point case, where the
    line degenerates to the vertical through that point (a = 0, b = x0)."""

    a: float
    b: float
    vertical_fallback: bool = False

    def distance_to(self, x: float, y: float) -> float:
        """Perpendicular distance from (x, y) to the line."""
        return abs(x - self.a * y - self.b) / math.sqrt(1.0 + self.a * self.a)


def fit_line(points) -> FittedLine:
    """Least-squares line x = a*y + b through a point set.

    A single point yields the vertical fallback. Multiple points sharing
    one y value (within 1e-9) describe a horizontal marking, which cannot
    occur for real lanes in BEV and signals upstream mislabeling. This is
    the one-segment case of the batched fit the vote matrix uses, so both
    give the same line bit for bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError(f"expected a non-empty (n, 2) point array, got shape {pts.shape}")
    (a,), (b,) = _fit_segments(pts, np.array([len(pts)]))
    return FittedLine(float(a), float(b), vertical_fallback=len(pts) == 1)


def _fit_segments(points: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares lines x = a*y + b through consecutive non-empty point
    segments of the given sizes, as arrays a and b, one entry per segment.

    np.bincount adds each segment's terms from left to right, so a
    segment's line does not depend on which other segments share the
    batch. A single point gives the vertical fallback (a = 0, b = x0); the
    first multi-point segment whose points share one y raises.
    """
    if not sizes.all():
        raise ValueError("every segment needs at least one point")
    xs = points[:, 0]
    ys = points[:, 1]
    n = len(sizes)
    starts = np.cumsum(sizes) - sizes
    single = sizes == 1
    spread = np.maximum.reduceat(ys, starts) - np.minimum.reduceat(ys, starts)
    flat = (spread <= _SAME_Y_TOL) & ~single
    if flat.any():
        k = int(np.argmax(flat))
        raise DegenerateGeometryError(
            f"all {sizes[k]} points share y ~ {float(ys[starts[k]])}; cannot fit x = f(y)"
        )
    segment = np.repeat(np.arange(n), sizes)
    x_mean = np.bincount(segment, xs, n) / sizes
    y_mean = np.bincount(segment, ys, n) / sizes
    dy = ys - y_mean[segment]
    sxy = np.bincount(segment, dy * (xs - x_mean[segment]), n)
    syy = np.bincount(segment, dy * dy, n)
    a = np.divide(sxy, syy, out=np.zeros(n), where=~single)
    b = np.where(single, xs[starts], x_mean - a * y_mean)
    return a, b


def facing_point(li: BevInstance, lj: BevInstance) -> tuple[float, float]:
    """Midpoint between the two instances' nearest facing endpoints.

    The instance with the larger maximum y is the lower one; P is the
    midpoint of (top of lower, bottom of upper). Ties on y break by id, so
    the construction is exactly symmetric in its arguments.
    """
    if li.id == lj.id:
        raise ValueError(f"facing point needs two distinct instances, both have id {li.id}")
    if (li.bottom[1], li.id) > (lj.bottom[1], lj.id):
        lower, upper = li, lj
    else:
        lower, upper = lj, li
    return (
        (lower.top[0] + upper.bottom[0]) / 2.0,
        (lower.top[1] + upper.bottom[1]) / 2.0,
    )


def vote(li: BevInstance, lj: BevInstance) -> float:
    """Pairwise vote: sum of the facing point's perpendicular distances to
    the two instances' fitted lines. Symmetric and non-negative; 0 for
    collinear segments of one divider."""
    px, py = facing_point(li, lj)
    return fit_line(li.points).distance_to(px, py) + fit_line(lj.points).distance_to(px, py)


@dataclass
class Clustering:
    """Partition of instance ids into lane dividers. Cluster ids are dense
    0..m-1, ordered by each cluster's smallest member instance id."""

    assignment: dict[int, int]
    num_clusters: int

    def members(self) -> list[list[int]]:
        groups: list[list[int]] = [[] for _ in range(self.num_clusters)]
        for inst_id in sorted(self.assignment):
            groups[self.assignment[inst_id]].append(inst_id)
        return groups


def cluster_instances(instances, eta: float) -> Clustering:
    """Merge instances whose pairwise vote is below eta, then take the
    transitive closure: connected components of the thresholded vote graph.

    The per-instance view of cluster_segments: instances are taken in id
    order and their points laid end to end.
    """
    instances = sorted(instances, key=lambda inst: inst.id)
    ids = [inst.id for inst in instances]
    if len(set(ids)) != len(ids):
        raise ValueError("instance ids must be unique")
    points = np.concatenate([inst.points for inst in instances] or [np.empty((0, 2))])
    sizes = np.array([len(inst.points) for inst in instances], dtype=np.intp)
    labels, count = cluster_segments(points, sizes, eta)
    return Clustering(dict(zip(ids, labels.tolist())), count)


def cluster_segments(points, sizes, eta: float) -> tuple[np.ndarray, int]:
    """cluster_instances over consecutive BEV point segments of the given
    sizes, segment i being instance i: (labels, count), where labels[i] is
    segment i's cluster in 0..count-1.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    points, sizes = np.asarray(points), np.asarray(sizes)
    if points.ndim != 2 or points.shape[1] != 2 or sizes.sum() != len(points):
        raise ValueError(
            f"expected (n, 2) points split by sizes summing to n, got shape {points.shape} "
            f"and sizes summing to {sizes.sum()}"
        )
    if not len(sizes):
        return np.zeros(0, dtype=np.intp), 0
    return component_labels(len(sizes), *_pairs_below(points, sizes, eta))


def _pairs_below(points: np.ndarray, sizes: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i < j, of point segments whose vote is below eta."""
    upper, lower = [], []
    for r0, votes in _vote_rows(points, sizes):
        i, j = np.nonzero(votes < eta)
        i += r0
        j += r0
        above = i < j
        upper.append(i[above])
        lower.append(j[above])
    return np.concatenate(upper), np.concatenate(lower)


def _vote_rows(points: np.ndarray, sizes: np.ndarray):
    """The vote matrix of consecutive point segments, a block of rows at a
    time; segment i is the instance with the i-th smallest id.

    Yields (r0, votes) where votes[k, m] is the vote of segments r0 + k
    and r0 + m; columns before r0 are left out, so every pair i < j comes
    up once. All segments are fitted in one batched call, which gives
    each the same line as fit_line. Bottoms and tops are taken from the
    same points by the exact segment extremes that BevInstance holds.
    Every entry then repeats the scalar vote()'s IEEE operations, so it
    is bitwise the same number.
    """
    a, b = _fit_segments(points, sizes)
    norm = np.sqrt(1.0 + a * a)
    bottom_x, bottom_y, top_x, top_y = _extreme_arrays(points, np.cumsum(sizes) - sizes)

    # Ids ascend with the index, so for i < j the (bottom y, id) order of
    # facing_point reduces to: i is the lower one iff its bottom y is
    # greater. Entries with i >= j are computed and ignored.
    n = len(sizes)
    rows = max(1, _BLOCK_ELEMENTS // n)
    for r0 in range(0, n, rows):
        r = slice(r0, min(r0 + rows, n))
        c = slice(r0, n)
        row_lower = bottom_y[r, None] > bottom_y[None, c]
        px = np.where(row_lower, top_x[r, None], top_x[None, c])
        px += np.where(row_lower, bottom_x[None, c], bottom_x[r, None])
        px /= 2.0
        py = np.where(row_lower, top_y[r, None], top_y[None, c])
        py += np.where(row_lower, bottom_y[None, c], bottom_y[r, None])
        py /= 2.0
        votes = _distances(px, py, a[r, None], b[r, None], norm[r, None])
        votes += _distances(px, py, a[None, c], b[None, c], norm[None, c])
        yield r0, votes


def _distances(px, py, a, b, norm):
    """FittedLine.distance_to, elementwise: |px - a*py - b| / norm."""
    d = a * py
    np.subtract(px, d, out=d)
    d -= b
    np.abs(d, out=d)
    d /= norm
    return d
