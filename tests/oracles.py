"""Independent reference implementations used only by the test suite.

Everything here is written with plain Python loops and scalar arithmetic,
deliberately sharing no code with the package under test. Slow is fine;
these run on small inputs.
"""

from __future__ import annotations

import math


# ---------------------------------------------------------------------------
# Segmentation loss, evaluated entry by entry
# ---------------------------------------------------------------------------

def scalar_grid_mean(grid):
    total = 0.0
    count = 0
    for row in grid:
        for v in row:
            total += float(v)
            count += 1
    return total / count


def scalar_dice_loss(gt, pred, alpha, eps):
    """Scalar evaluation of the false-positive-penalized soft dice loss.

    gt/pred are (H, W, C) nested sequences (numpy arrays index fine).
    Ground truth zeros are replaced by -alpha in the numerator product.
    """
    height = len(gt)
    width = len(gt[0])
    channels = len(gt[0][0])
    loss = 0.0
    for k in range(channels):
        num_prod = [[0.0] * width for _ in range(height)]
        gt_sq = [[0.0] * width for _ in range(height)]
        pred_sq = [[0.0] * width for _ in range(height)]
        for i in range(height):
            for j in range(width):
                g = float(gt[i][j][k])
                p = float(pred[i][j][k])
                g_mod = g if g != 0.0 else -alpha
                num_prod[i][j] = g_mod * p
                gt_sq[i][j] = g * g
                pred_sq[i][j] = p * p
        numerator = 2.0 * scalar_grid_mean(num_prod) + eps
        denominator = scalar_grid_mean(gt_sq) + scalar_grid_mean(pred_sq) + eps
        loss -= numerator / denominator
    return loss


def central_diff_gradient(func, pred, h=1e-6):
    """Central finite differences of a scalar function of an (H, W, C) array."""
    import numpy as np

    grad = np.zeros_like(pred, dtype=float)
    it = np.nditer(pred, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = pred.copy()
        bumped[idx] = pred[idx] + h
        up = func(bumped)
        bumped[idx] = pred[idx] - h
        down = func(bumped)
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


# ---------------------------------------------------------------------------
# Connected components by union-find over adjacent pixel pairs
# ---------------------------------------------------------------------------

def union_find_components(mask, connectivity):
    """Label a boolean grid, union-find style. Returns a set of frozensets
    of (row, col) pixels, one per component. No ordering semantics.
    """
    height = len(mask)
    width = len(mask[0]) if height else 0
    parent = {}

    def find(p):
        root = p
        while parent[root] != root:
            root = parent[root]
        while parent[p] != root:
            parent[p], p = root, parent[p]
        return root

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rq] = rp

    for r in range(height):
        for c in range(width):
            if mask[r][c]:
                parent[(r, c)] = (r, c)
    if connectivity == 4:
        offsets = [(0, 1), (1, 0)]
    else:
        offsets = [(0, 1), (1, 0), (1, 1), (1, -1)]
    for r in range(height):
        for c in range(width):
            if not mask[r][c]:
                continue
            for dr, dc in offsets:
                nr, nc = r + dr, c + dc
                if 0 <= nr < height and 0 <= nc < width and mask[nr][nc]:
                    union((r, c), (nr, nc))
    groups = {}
    for p in parent:
        groups.setdefault(find(p), []).append(p)
    return {frozenset(g) for g in groups.values()}


# ---------------------------------------------------------------------------
# Dense linear solves by Gaussian elimination with partial pivoting
# ---------------------------------------------------------------------------

def gauss_solve(matrix, rhs):
    """Solve A x = b on plain Python lists. Raises ValueError when singular."""
    n = len(matrix)
    a = [list(map(float, row)) + [float(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-300:
            raise ValueError("singular system")
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = a[r][n]
        for c in range(r + 1, n):
            s -= a[r][c] * x[c]
        x[r] = s / a[r][r]
    return x


def homography_from_quads(src, dst):
    """3x3 projective map from four correspondences via the 8x8 system."""
    rows = []
    rhs = []
    for (x, y), (u, v) in zip(src, dst):
        rows.append([x, y, 1.0, 0.0, 0.0, 0.0, -u * x, -u * y])
        rhs.append(u)
        rows.append([0.0, 0.0, 0.0, x, y, 1.0, -v * x, -v * y])
        rhs.append(v)
    h = gauss_solve(rows, rhs)
    return [[h[0], h[1], h[2]], [h[3], h[4], h[5]], [h[6], h[7], 1.0]]


def apply_homography(H, x, y):
    w = H[2][0] * x + H[2][1] * y + H[2][2]
    return (
        (H[0][0] * x + H[0][1] * y + H[0][2]) / w,
        (H[1][0] * x + H[1][1] * y + H[1][2]) / w,
    )


# ---------------------------------------------------------------------------
# Least-squares fits straight from the normal equations
# ---------------------------------------------------------------------------

def line_fit_normal_eq(points):
    """Fit x = a*y + b by solving the raw 2x2 normal equations."""
    n = float(len(points))
    sy = sum(p[1] for p in points)
    syy = sum(p[1] * p[1] for p in points)
    sx = sum(p[0] for p in points)
    sxy = sum(p[0] * p[1] for p in points)
    a, b = gauss_solve([[syy, sy], [sy, n]], [sxy, sx])
    return a, b


def poly_fit_normal_eq(ys, xs, degree):
    """Fit x = sum_d c_d * y**d by normal equations on a shifted/scaled axis.

    The y axis is mapped to [-1, 1] before forming the Vandermonde products
    (own arithmetic throughout), then coefficients are expanded back to the
    raw axis. Returns [c0, c1, ..., c_degree].
    """
    ys = [float(v) for v in ys]
    xs = [float(v) for v in xs]
    lo, hi = min(ys), max(ys)
    if hi > lo:
        half = (hi - lo) / 2.0
        mid = (hi + lo) / 2.0
    else:
        half, mid = 1.0, lo
    ts = [(y - mid) / half for y in ys]

    m = degree + 1
    gram = [[0.0] * m for _ in range(m)]
    rhs = [0.0] * m
    for t, x in zip(ts, xs):
        powers = [t ** d for d in range(m)]
        for i in range(m):
            rhs[i] += powers[i] * x
            for j in range(m):
                gram[i][j] += powers[i] * powers[j]
    scaled = gauss_solve(gram, rhs)

    # expand sum_d scaled[d] * ((y - mid)/half)**d into powers of y
    coeffs = [0.0] * m
    for d in range(m):
        # ((y - mid)/half)**d = sum_i C(d,i) y**i (-mid)**(d-i) / half**d
        for i in range(d + 1):
            coeffs[i] += (
                scaled[d]
                * math.comb(d, i)
                * ((-mid) ** (d - i))
                / (half ** d)
            )
    return coeffs


def poly_residual(ys, xs, coeffs):
    rss = 0.0
    for y, x in zip(ys, xs):
        fit = sum(c * y ** d for d, c in enumerate(coeffs))
        rss += (x - fit) ** 2
    return rss


# ---------------------------------------------------------------------------
# Clustering as plain graph traversal over thresholded pair scores
# ---------------------------------------------------------------------------

def threshold_graph_components(ids, score, eta):
    """Connected components of the graph with an edge wherever
    score(i, j) < eta. `score` takes two ids. Returns a mapping
    id -> cluster index, clusters numbered by smallest member id.
    """
    ids = sorted(ids)
    adj = {i: set() for i in ids}
    for a in ids:
        for b in ids:
            if a < b and score(a, b) < eta:
                adj[a].add(b)
                adj[b].add(a)
    seen = set()
    components = []
    for start in ids:
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            node = stack.pop()
            comp.append(node)
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        components.append(comp)
    components.sort(key=min)
    return {i: ci for ci, comp in enumerate(components) for i in comp}


# ---------------------------------------------------------------------------
# PNG row filters undone pixel by pixel
# ---------------------------------------------------------------------------

def png_unfilter(stream):
    """Decode a filtered PNG image stream (8-bit, one channel).

    `stream` is a sequence of rows, each a filter-type byte followed by the
    row's filtered bytes. Returns the decoded rows as lists of ints. Follows
    the PNG specification's reconstruction functions literally: a is the
    pixel to the left, b the one above, c the one above-left, all 0 outside
    the image.
    """
    decoded = []
    prev = None
    for line in stream:
        ftype = int(line[0])
        filt = [int(v) for v in line[1:]]
        if prev is None:
            prev = [0] * len(filt)
        row = []
        for i, x in enumerate(filt):
            a = row[i - 1] if i > 0 else 0
            b = prev[i]
            c = prev[i - 1] if i > 0 else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) // 2
            elif ftype == 4:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
            else:
                raise ValueError(f"unknown filter type {ftype}")
            row.append((x + pred) % 256)
        decoded.append(row)
        prev = row
    return decoded


# ---------------------------------------------------------------------------
# Cluster purity counted pixel by pixel
# ---------------------------------------------------------------------------

def cluster_purity(instance_pixels, cluster_of, assignment, noise_id):
    """Share of instances whose truth label is their cluster's label.

    instance_pixels[i] lists instance i's (row, col) pixels, cluster_of[i]
    is its cluster and assignment[row][col] the truth id of a pixel (0 for
    background, noise_id for noise). An instance's label is the truth id
    that most of its marking pixels carry, ties going to the smallest id,
    weighted by that pixel count; an instance with no marking pixel is
    labelled noise_id, weighted by its size. A cluster's label is the label
    of largest total weight among its instances, ties going to the smallest
    label. 1.0 when there are no instances.
    """
    labels = []
    cluster_weights = {}
    for pixels, cluster in zip(instance_pixels, cluster_of):
        counts = {}
        for r, c in pixels:
            value = int(assignment[r][c])
            if value != 0 and value != noise_id:
                counts[value] = counts.get(value, 0) + 1
        if counts:
            label = min(counts, key=lambda k: (-counts[k], k))
            weight = counts[label]
        else:
            label = noise_id
            weight = len(pixels)
        labels.append(label)
        weights = cluster_weights.setdefault(cluster, {})
        weights[label] = weights.get(label, 0) + weight
    if not labels:
        return 1.0
    cluster_label = {
        cluster: min(weights, key=lambda k: (-weights[k], k))
        for cluster, weights in cluster_weights.items()
    }
    pure = 0
    for label, cluster in zip(labels, cluster_of):
        if label == cluster_label[cluster]:
            pure += 1
    return pure / len(labels)


# ---------------------------------------------------------------------------
# Pairwise votes by the scalar rule, one pair at a time
# ---------------------------------------------------------------------------

def _running_sum(values):
    """Left-to-right sum, one addition at a time, from 0.0."""
    total = 0.0
    for v in values:
        total += v
    return total


def scalar_fit_line(points):
    """(a, b) of the least-squares line x = a*y + b through (x, y) points.

    Means and centred sums are added from the first point to the last. A
    single point gives the vertical through it, (0.0, x0). Several points
    whose y values (none NaN) span at most 1e-9 lie on a horizontal, which
    raises DegenerateGeometryError.
    """
    from lanepost.errors import DegenerateGeometryError

    xs = [float(p[0]) for p in points]
    ys = [float(p[1]) for p in points]
    n = len(xs)
    if n == 1:
        return 0.0, xs[0]
    if all(y == y for y in ys) and max(ys) - min(ys) <= 1e-9:
        raise DegenerateGeometryError(f"all {n} points share y ~ {ys[0]}")
    x_mean = _running_sum(xs) / n
    y_mean = _running_sum(ys) / n
    sxy = _running_sum((y - y_mean) * (x - x_mean) for x, y in zip(xs, ys))
    syy = _running_sum((y - y_mean) * (y - y_mean) for y in ys)
    a = sxy / syy
    return a, x_mean - a * y_mean


def scalar_extremes(points):
    """(bottom, top) of (x, y) points: the point of largest y and the point
    of smallest y, ties going to the smaller x."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    bottom = min(pts, key=lambda p: (-p[1], p[0]))
    top = min(pts, key=lambda p: (p[1], p[0]))
    return bottom, top


def scalar_facing_point(id_i, points_i, id_j, points_j):
    """Midpoint of the lower instance's top and the upper instance's bottom.

    The lower instance is the one whose bottom has the larger y, ties going
    to the larger id. Raises ValueError when the ids are equal.
    """
    if id_i == id_j:
        raise ValueError(f"two distinct instances needed, both have id {id_i}")
    bottom_i, top_i = scalar_extremes(points_i)
    bottom_j, top_j = scalar_extremes(points_j)
    if (bottom_i[1], id_i) > (bottom_j[1], id_j):
        lower_top, upper_bottom = top_i, bottom_j
    else:
        lower_top, upper_bottom = top_j, bottom_i
    return (lower_top[0] + upper_bottom[0]) / 2.0, (lower_top[1] + upper_bottom[1]) / 2.0


def scalar_line_distance(a, b, x, y):
    """Perpendicular distance from (x, y) to the line x = a*y + b."""
    return abs(x - a * y - b) / math.sqrt(1.0 + a * a)


def scalar_vote(id_i, points_i, id_j, points_j):
    """The facing point's distance to instance i's line plus its distance to
    instance j's line."""
    px, py = scalar_facing_point(id_i, points_i, id_j, points_j)
    a_i, b_i = scalar_fit_line(points_i)
    a_j, b_j = scalar_fit_line(points_j)
    return scalar_line_distance(a_i, b_i, px, py) + scalar_line_distance(a_j, b_j, px, py)


# ---------------------------------------------------------------------------
# Lane precision, one lane and one grid point at a time
# ---------------------------------------------------------------------------

def lane_precision(lanes, truths, tolerance, grid=100):
    """(false lanes, precision) of lanes against truth dividers.

    lanes and truths are (c0, c1, c2, y_min, y_max) tuples of curves
    x = c0 + c1*y + c2*y^2. A lane is correct when, at grid evenly spaced
    y from its y_min to its y_max, its mean |x_lane - x_truth| to some
    truth divider is below tolerance. Precision is the share of correct
    lanes, 1.0 when there are no lanes.
    """
    correct = 0
    for c0, c1, c2, y_min, y_max in lanes:
        for t0, t1, t2, _, _ in truths:
            total = 0.0
            for k in range(grid):
                y = y_min + (y_max - y_min) * k / (grid - 1)
                total += abs((c0 + c1 * y + c2 * y * y) - (t0 + t1 * y + t2 * y * y))
            if total / grid < tolerance:
                correct += 1
                break
    if not lanes:
        return 0, 1.0
    return len(lanes) - correct, correct / len(lanes)
