"""Group lane-marking instances into lane dividers by pairwise voting.

Every instance gets a straight line fitted through its BEV points
(x as a function of y, because markings are near-vertical in BEV and
regressing y on x would be degenerate). For a pair of instances, the
facing point P sits midway between the top of the lower instance and the
bottom of the upper one; the pair's vote is the sum of P's perpendicular
distances to the two fitted lines. Collinear segments of one dashed
divider vote ~0 and merge, while markings of a neighboring divider stay a
lane-width apart. Votes under the threshold eta define a graph whose
connected components are the dividers.

The core, cluster_segments, takes a frame's BEV points as one segmented
array: the instances' points laid end to end in id order, plus each
instance's point count. All instances are fitted in one array pass, with
per-instance sums folded in index order by np.bincount, so an instance's
line does not depend on the rest of the frame. Pairs are scored in facing
order, a block of rows of the vote matrix's upper triangle at a time, in
buffers reused from block to block and, per thread, from call to call.
The votes are bitwise deterministic and invariant to input permutation.
Every vote is computed, but no frame-wide edge list is kept: each block's
pairs below eta are folded into the running cluster labels as the block
is scored, so memory is O(n + block) however many pairs merge.
cluster_instances and vote are the per-instance views of the same core:
they lay BevInstance points end to end in id order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scratch import borrow
from .errors import DegenerateGeometryError
from .graph import component_labels

__all__ = [
    "BevInstance",
    "Clustering",
    "vote",
    "cluster_instances",
    "cluster_segments",
]

_SAME_Y_TOL = 1e-9  # y spread at or below which points share one y; curves fits use it too
_BLOCK_ELEMENTS = 1 << 14  # vote-matrix entries per block; sizes the reused block buffers


@dataclass(eq=False)
class BevInstance:
    """An instance's pixels mapped into BEV space."""

    id: int
    points: np.ndarray

    @classmethod
    def from_points(cls, instance_id: int, points) -> "BevInstance":
        return cls(instance_id, _point_array(points, "point"))


def _point_array(points, what: str) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError(f"expected a non-empty (n, 2) {what} array, got shape {pts.shape}")
    return pts


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
    return -bottom.imag, bottom.real, top.imag, top.real


def _fit_segments(points: np.ndarray, sizes: np.ndarray, spread) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares lines x = a*y + b through consecutive non-empty point
    segments of the given sizes, as arrays a and b, one entry per segment.

    np.bincount adds each segment's terms from left to right, so a
    segment's line does not depend on which other segments share the
    batch. A single point gives the vertical fallback (a = 0, b = x0); the
    first multi-point segment whose points share one y raises.

    spread is each segment's y spread from `_extreme_arrays` (bottom y -
    top y). A point with a NaN x is both extremes of its segment, so that
    spread can only read low; a segment it finds flat is checked again
    from the points themselves.
    """
    xs = points[:, 0]
    ys = points[:, 1]
    n = len(sizes)
    starts = np.cumsum(sizes) - sizes
    single = sizes == 1
    if ((spread <= _SAME_Y_TOL) & ~single).any():
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


def vote(li: BevInstance, lj: BevInstance) -> float:
    """Pairwise vote: sum of the facing point's perpendicular distances to
    the two instances' fitted lines, read from the pair's vote matrix.
    Symmetric and non-negative; 0 for collinear segments of one divider."""
    if li.id == lj.id:
        raise ValueError(f"a vote needs two distinct instances, both have id {li.id}")
    first, second = sorted((li, lj), key=lambda inst: inst.id)
    points, sizes = _segments(
        np.concatenate((first.points, second.points)), [len(first.points), len(second.points)]
    )
    with np.errstate(all="ignore"):
        for _, _, votes in _vote_blocks(points, sizes):
            # returned from inside the loop: the pooled buffer is read
            # before closing the generator gives it back
            return float(votes[0, 0])


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

    Each block of votes is folded into the labels as it is scored: pairs
    whose two segments already share a label are masked, and the rest
    that vote below eta join their labels' components in one
    component_labels call. The labels stay numbered by smallest member,
    so they are those of the whole sub-eta graph, at any block size.

    sizes may have any integer dtype; every size must be positive.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    points, sizes = _segments(points, sizes)
    if not len(sizes):
        return np.zeros(0, dtype=np.intp), 0
    labels, count = np.arange(len(sizes)), len(sizes)
    with np.errstate(all="ignore"):
        for row_ids, col_ids, votes in _vote_blocks(points, sizes):
            rows, cols = labels[row_ids], labels[col_ids]
            below = np.not_equal(rows[:, None], cols[None, :])
            below &= votes < eta
            k, c = divmod(np.flatnonzero(below), votes.shape[1])
            facing = c >= k
            merged, count = component_labels(count, rows[k[facing]], cols[c[facing]])
            labels = merged[labels]
    return labels, count


def _segments(points, sizes) -> tuple[np.ndarray, np.ndarray]:
    """(points, sizes) as arrays, sizes as np.intp, once they are checked to
    split (n, 2) points into segments of positive sizes."""
    points, sizes = np.asarray(points), np.asarray(sizes)
    if sizes.ndim != 1 or sizes.size and (sizes.dtype.kind not in "iu" or sizes.min() <= 0):
        raise ValueError(
            f"sizes must be a 1-d array of positive integers, got {sizes.dtype} {sizes.shape}"
        )
    sizes = sizes.astype(np.intp, copy=False)
    if points.ndim != 2 or points.shape[1] != 2 or sizes.sum() != len(points):
        raise ValueError(
            f"expected (n, 2) points split by sizes summing to n, got shape {points.shape} "
            f"and sizes summing to {sizes.sum()}"
        )
    return points, sizes


def _vote_blocks(points: np.ndarray, sizes: np.ndarray):
    """The vote matrix of consecutive point segments in facing order, a
    block of rows of its strict upper triangle at a time; segment i is the
    instance with the i-th smallest id.

    Facing order sorts the instances by descending (bottom y, id), where
    an instance's bottom is its point of largest y and its top its point of
    smallest y, ties going to the smaller x. Of two instances, the one that
    comes first is the lower, so in facing positions p < q the facing point
    is P = ((top_x[p] + bottom_x[q]) / 2, (top_y[p] + bottom_y[q]) / 2),
    with no per-pair selection (halving by * 0.5 rounds exactly as / 2),
    and the vote is P's distance to p's line plus its distance to q's.
    Yields (row_ids, col_ids, votes), where votes[k, c] is the vote of
    segments row_ids[k] and col_ids[c] for c >= k; entries with c < k lie
    below the diagonal and hold no vote. Every pair comes up once. votes
    is a view of this thread's pooled block buffer (see `_scratch`), which
    the next block, or the next call on this thread, overwrites. The
    buffers go back to the pool when the generator finishes or is closed;
    one left unfinished keeps its own, and the next call allocates afresh.
    """
    bottom_x, bottom_y, top_x, top_y = _extreme_arrays(points, np.cumsum(sizes) - sizes)
    a, b = _fit_segments(points, sizes, bottom_y - top_y)
    norm = np.sqrt(1.0 + a * a)
    # the stable sort keeps equal bottom y in id order, so reversed, the
    # larger id of a tie comes first, as the lower instance
    order = np.argsort(bottom_y, kind="stable")[::-1]
    a, b, norm, bottom_x, bottom_y, top_x, top_y = np.array(
        (a, b, norm, bottom_x, bottom_y, top_x, top_y)
    ).take(order, axis=1)

    # rows p0..p0+rows against columns p0+1..n-1, as many rows as fill
    # _BLOCK_ELEMENTS entries with the columns left
    n = len(order)
    size = min(max(_BLOCK_ELEMENTS, n - 1), (n - 1) ** 2)
    with borrow("votes", 3 * size, np.float64) as scratch:
        px, py, d = scratch.reshape(3, size)
        p0 = 0
        while p0 < n - 1:
            cols = n - 1 - p0
            rows = min(max(1, _BLOCK_ELEMENTS // cols), cols)
            r, c = slice(p0, p0 + rows), slice(p0 + 1, n)
            x = px[: rows * cols].reshape(rows, cols)
            y = py[: rows * cols].reshape(rows, cols)
            votes = d[: rows * cols].reshape(rows, cols)
            np.add(top_x[r, None], bottom_x[None, c], out=x)
            x *= 0.5
            np.add(top_y[r, None], bottom_y[None, c], out=y)
            y *= 0.5
            _distances(x, y, a[r, None], b[r, None], norm[r, None], out=votes)
            votes += _distances(x, y, a[None, c], b[None, c], norm[None, c], out=y)
            yield order[r], order[c], votes
            p0 += rows


def _distances(px, py, a, b, norm, out):
    """Perpendicular distances |px - a*py - b| / norm from points (px, py)
    to lines x = a*y + b, elementwise, written into out, which may be py."""
    np.multiply(a, py, out=out)
    np.subtract(px, out, out=out)
    out -= b
    np.abs(out, out=out)
    out /= norm
    return out
