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
line does not depend on the rest of the frame. Pairs are taken in facing
order, a block of rows of the vote matrix's upper triangle at a time, in
one buffer reused from block to block and, per thread, from call to call.
The votes are bitwise deterministic and invariant to input permutation.
cluster_segments does not compute every vote: it scores a block with two
matrix products of inner size 3, whose rounding error has a proven bound
delta, and computes the exact vote of only those pairs whose score lies
within delta of eta. The pairs that merge are still exactly those whose
vote is below eta. No frame-wide edge list is kept: each block's pairs
below eta are folded into the running cluster labels as the block is
decided, so memory is O(n + block) however many pairs merge. Nor are the
pairs inside one cluster scored once it dominates: when more than three
quarters of the instances still ahead share a label, only the pairs with
an end outside that cluster are scored, and the frame is done. A pair
inside it would only join a label to itself, so the labels are the same.
cluster_instances and vote are the per-instance views of the same core:
they lay BevInstance points end to end in id order.
"""

from __future__ import annotations

import math
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
_BAND = 2.0**-45  # 256 unit roundoffs: the rounding band's half-width per unit of X + B
_SAFE = 2.0**1000  # a frame whose X*(1 + max|a|) + 2 max|b| is below this cannot overflow
_TINY = 2.0**-1022  # the smallest normal float: covers what underflow can add to the band


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
    with borrow(len(points), np.complex128) as key:
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
    the two instances' fitted lines, computed by the exact vote kernel
    (`_pair_votes`) on the pair alone. Symmetric and non-negative; 0 for
    collinear segments of one divider."""
    if li.id == lj.id:
        raise ValueError(f"a vote needs two distinct instances, both have id {li.id}")
    first, second = sorted((li, lj), key=lambda inst: inst.id)
    points, sizes = _segments(
        np.concatenate((first.points, second.points)), [len(first.points), len(second.points)]
    )
    with np.errstate(all="ignore"):
        _, lines = _facing_lines(points, sizes)
        return float(_pair_votes(lines, 0, 1))


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

    The vote matrix is taken a block of rows at a time (`_block_rows`) in
    facing order (`_facing_lines`). Each block is scored with two matrix
    products (`_score_factors`), each score within delta of its pair's
    exact vote. A score below lo, the float next below eta - delta, then
    means an exact vote below eta, and one at or above hi, the float next
    above eta + delta, an exact vote above it. A pair between distinct
    labels scored in [lo, hi) is decided from its exact vote
    (`_pair_votes`). A frame that has no factors scores every pair 0, in a
    band of (-inf, inf), so each of its pairs is decided that way.

    Each block's merging pairs are folded into the labels as the block is
    decided: pairs whose two segments already share a label are dropped,
    and the rest join their labels' components in one component_labels
    call, which a block without such a pair skips. The labels stay
    numbered by smallest member, so they are those of the whole sub-eta
    graph, at any block size.

    Each time a block has at least halved the label count since the last
    such check, at most log2(n) times, the largest cluster among the m
    positions still ahead is found (`_outside_largest`); the first block
    is half size, so that the first check comes early. The pairs inside
    that cluster would all be dropped as same-label pairs. So when
    scoring only the pairs with an end outside it, at most 2*|O|*m
    entries for the |O| positions outside, costs fewer than the plain
    blocks' m(m - 1)/2, just those pairs are scored and decided as
    above, in chunks of at most a block, and the frame is done. Their
    scores come from products of other shapes than the plain blocks',
    but delta bounds any of them, so every pair is still decided as its
    exact vote decides it.

    sizes may have any integer dtype; every size must be positive.
    """
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    points, sizes = _segments(points, sizes)
    if not len(sizes):
        return np.zeros(0, dtype=np.intp), 0
    n = len(sizes)
    labels, count = np.arange(n), n
    position = np.arange(n)

    def fold(rows, cols):
        """Score facing positions rows against cols (slices or ascending
        index arrays), and fold the facing pairs among them, row before
        column, that vote below eta into the labels."""
        nonlocal labels, count
        scores = _block_scores(factors, rows, cols, scratch)
        hit = np.flatnonzero(scores < hi)
        if not len(hit):
            return
        k, c = divmod(hit, scores.shape[1])
        p, q = position[rows][k], position[cols][c]
        u, v = order[p], order[q]
        if count < n:  # until the first merge, every instance is its own label
            u, v = labels[u], labels[v]
        merge = (p < q) & (u != v)
        band = merge & (scores.ravel()[hit] >= lo)
        if band.any():  # the exact votes decide the pairs in the band
            merge[band] = _pair_votes(lines, p[band], q[band]) < eta
        if merge.any():
            merged, count = component_labels(count, u[merge], v[merge])
            labels = merged[labels]

    with np.errstate(all="ignore"):
        order, lines = _facing_lines(points, sizes)
        scored = _score_factors(lines)
        if scored is None:  # no safe scores: every pair scores 0, inside the band
            factors, lo, hi = np.zeros((9, n)), -math.inf, math.inf
        else:
            factors, delta = scored
            lo, hi = math.nextafter(eta - delta, -math.inf), math.nextafter(eta + delta, math.inf)
        entries = _block_entries(n)
        with borrow(2 * entries, np.float64) as scratch:
            checked = count
            for p0, rows in _block_rows(n):
                fold(slice(p0, p0 + rows), slice(p0 + 1, n))
                ahead = p0 + rows
                if 2 * count > checked or ahead == n - 1:
                    continue
                checked = count
                apart = _outside_largest(labels[order[ahead:]])
                if apart is None:
                    continue
                # only the pairs with an end outside the largest cluster:
                # rows outside it against every later position, and
                # earlier positions inside it against columns outside it
                outside, inside = ahead + np.flatnonzero(apart), ahead + np.flatnonzero(~apart)
                step = entries // (n - ahead)  # entries >= n - 1: at least one row
                for j in range(0, len(outside), step):
                    chunk = outside[j : j + step]
                    fold(chunk, slice(chunk[0] + 1, n))
                    fold(inside[: np.searchsorted(inside, chunk[-1])], chunk)
                break
    return labels, count


def _outside_largest(ahead):
    """Where ahead, the labels of the m facing positions still to be
    scored, lies outside its largest cluster (the first, on a tie); or
    None when scoring only the pairs with an end there, at most 2*|O|*m
    entries for |O| such positions, would not score fewer than the plain
    blocks' m(m - 1)/2."""
    m = len(ahead)
    counts = np.bincount(ahead)
    if 4 * (m - int(counts.max())) >= m - 1:
        return None
    return ahead != counts.argmax()


def _segments(points, sizes) -> tuple[np.ndarray, np.ndarray]:
    """(points, sizes) as arrays, points as float64 and sizes as np.intp,
    once they are checked to split (n, 2) points into segments of positive
    sizes."""
    points, sizes = np.asarray(points, dtype=np.float64), np.asarray(sizes)
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


def _facing_lines(points: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, lines): the facing order of consecutive point segments, and
    their lines and extremes in it, as the rows a, b, norm, top_x, top_y,
    bottom_x, bottom_y of lines, column p for the instance at position p.

    Facing order sorts the instances by descending (bottom y, id), where
    an instance's bottom is its point of largest y and its top its point of
    smallest y, ties going to the smaller x. Of two instances, the one that
    comes first is the lower, so in facing positions p < q the facing point
    is P = ((top_x[p] + bottom_x[q]) / 2, (top_y[p] + bottom_y[q]) / 2),
    with no per-pair selection. norm is sqrt(1 + a*a), which turns a
    residual x - a*y - b into a distance.
    """
    bottom_x, bottom_y, top_x, top_y = _extreme_arrays(points, np.cumsum(sizes) - sizes)
    a, b = _fit_segments(points, sizes, bottom_y - top_y)
    # the stable sort keeps equal bottom y in id order, so reversed, the
    # larger id of a tie comes first, as the lower instance
    order = np.argsort(bottom_y, kind="stable")[::-1]
    lines = np.array((a, b, np.sqrt(1.0 + a * a), top_x, top_y, bottom_x, bottom_y))
    return order, lines.take(order, axis=1)


def _block_rows(n: int):
    """The blocks (p0, rows) of an n-instance vote matrix's strict upper
    triangle: facing rows p0..p0+rows-1 against columns p0+1..n-1, as many
    rows as fill _BLOCK_ELEMENTS entries with the columns left. The first
    block fills half as many, so that a frame where one cluster soon
    dominates is found out after fewer rows (`cluster_segments`)."""
    p0, limit = 0, _BLOCK_ELEMENTS // 2
    while p0 < n - 1:
        cols = n - 1 - p0
        rows = min(max(1, limit // cols), cols)
        yield p0, rows
        p0, limit = p0 + rows, _BLOCK_ELEMENTS


def _block_entries(n: int) -> int:
    """Entries of the largest block of `_block_rows(n)`."""
    return min(max(_BLOCK_ELEMENTS, n - 1), (n - 1) ** 2)


def _pair_votes(lines, p, q):
    """The exact votes of facing positions p < q, elementwise.

    The facing point is halved by * 0.5, which rounds exactly as / 2, and
    the vote is its distance |x - a*y - b| / norm to p's line plus its
    distance to q's. This is the one place votes are computed: `vote` and
    the band pairs of `cluster_segments` both read it.
    """
    a, b, norm, top_x, top_y, bottom_x, bottom_y = lines
    x = (top_x[p] + bottom_x[q]) * 0.5
    y = (top_y[p] + bottom_y[q]) * 0.5
    return np.abs(x - a[p] * y - b[p]) / norm[p] + np.abs(x - a[q] * y - b[q]) / norm[q]


def _score_factors(lines):
    """(factors, delta): the factors of the block scores (`_block_scores`)
    of facing lines, and a bound delta on how far a score can lie from its
    pair's exact vote; or None for a frame whose lines or extremes are not
    all finite, or so large that a vote could overflow.

    With h = 0.5 / norm, a pair's vote is |s_p| + |s_q|, where
    s_i = (tx_p + bx_q - a_i*(ty_p + by_q) - 2*b_i) * h_i for i = p, q,
    (tx_p, ty_p) being the top of the row instance p and (bx_q, by_q) the
    bottom of the column instance q. Each side sum is linear in the two
    extremes. So a block's S_p is the product of the rows' (K_top, h,
    -a*h) with the columns' (1, bx, by), and S_q that of the rows' (tx,
    ty, 1) with the columns' (h, -a*h, K_bottom), where K = (x - a*y -
    2b)*h at an instance's own top or bottom. factors holds these nine
    rows; the score is |S_p| + |S_q|.

    The bound, to first order in the unit roundoff u = 2**-53. Let X be
    the largest |coordinate| of a top or bottom and B the largest |b|*h.
    norm >= 1, so h <= 0.5 and |a|*h <= 0.5, up to a factor 1 + 4u. Let V
    be the vote in exact arithmetic from the rounded a, b and norm: each
    side of it is at most 2X + 2B.
    - The IEEE vote (`_pair_votes`). The residual x - a*y - b carries
      three roundings on x (the sum, two subtractions) and four on a*y,
      and one on b; over norm that is (3X + 4X + 2B)u. The quotient adds
      (2X + 2B)u, so a side errs by (9X + 4B)u, and the sum of the two
      sides adds (4X + 4B)u: |vote - V| <= (22X + 12B)u.
    - The score. K takes four roundings on tx*h, five on a*ty*h and three
      on 2b*h: (2X + 2.5X + 6B)u. h and -a*h err by u and 2u relative,
      over |bx|, |by| <= X: (0.5X + X)u. A product of three terms errs by
      at most 3u times the sum of their magnitudes, 2X + 2B, in any order
      and with or without fused multiply-adds, so for whatever kernel the
      BLAS picks: (6X + 6B)u. A side errs by (12X + 12B)u, and the sum of
      the magnitudes adds (4X + 4B)u: |score - V| <= (28X + 28B)u.
    So |score - vote| <= (50X + 40B)u, below 64u(X + B) with the
    second-order terms. delta takes four times that, 256u(X + B), plus the
    smallest normal float, which covers what underflow can add.

    The factors are all finite, and no intermediate of a vote or a score
    (each at most four times X*(1 + max|a|) + 2 max|b|) overflows, when
    that sum is below _SAFE; a NaN fails the test too.
    """
    a, b, norm = lines[:3]
    # rows K_top, h, -a*h, K_bottom, top_x, top_y, 1, bottom_x, bottom_y
    factors = np.empty((9, len(a)))
    h = np.divide(0.5, norm, out=factors[1])
    np.negative(np.multiply(a, h, out=factors[2]), out=factors[2])
    # the side sums' constant terms (x - a*y - 2b)*h, at the tops and the bottoms
    k = factors[0:4:3]
    np.multiply(a, lines[4::2], out=k)
    np.subtract(lines[3::2], k, out=k)
    k -= b + b
    k *= h
    factors[4:6] = lines[3:5]
    factors[6] = 1.0
    factors[7:9] = lines[5:7]
    a_max, b_max, _, *extremes = np.abs(lines).max(axis=1).tolist()
    x_max = max(extremes)
    if not x_max * (1.0 + a_max) + 2.0 * b_max < _SAFE:
        return None
    return factors, _BAND * (x_max + float(np.abs(b * h).max())) + _TINY


def _block_scores(factors, rows, cols, scratch):
    """The scores |S_p| + |S_q| of facing positions rows against cols,
    each a slice or an index array, as a (len(rows), len(cols)) view of
    scratch, which must hold twice that many float64."""
    top, bottom = factors[:, rows], factors[:, cols]
    rows, cols = top.shape[1], bottom.shape[1]
    s = scratch[: 2 * rows * cols].reshape(2, rows, cols)
    np.matmul(top[0:3].T, bottom[6:9], out=s[0])  # (K_top, h, -a*h) . (1, bx, by)
    np.matmul(top[4:7].T, bottom[1:4], out=s[1])  # (tx, ty, 1) . (h, -a*h, K_bottom)
    np.abs(s, out=s)
    return np.add(s[0], s[1], out=s[0])
