import numpy as np
import pytest

from lanepost import (
    DegenerateGeometryError,
    Homography,
    LaneCurve,
    ProcessingError,
    ProjectionError,
    QuadCorrespondence,
    back_project,
    estimate_homography,
    fit_curve,
    fit_curves,
    project_curves,
    sample_curve,
)
from lanepost.curves import _sample
from oracles import line_fit_normal_eq, poly_fit_normal_eq, poly_residual

ROAD_TRAPEZOID = ((100, 200), (380, 200), (460, 360), (20, 360))
BEV_RECTANGLE = ((120, 0), (360, 0), (360, 480), (120, 480))


def rss(curve, pts):
    return float(((pts[:, 0] - curve.eval(pts[:, 1])) ** 2).sum())


def random_cluster(rng):
    n = int(rng.integers(30, 200))
    lo = rng.uniform(0.0, 150.0)
    hi = lo + rng.uniform(150.0, 480.0 - lo)
    ys = rng.uniform(lo, hi, n)
    c0 = rng.uniform(100.0, 400.0)
    c1 = rng.uniform(-0.3, 0.3)
    c2 = rng.uniform(-5e-4, 5e-4)
    xs = c0 + c1 * ys + c2 * ys**2 + rng.normal(0.0, 0.5, n)
    return np.stack([xs, ys], axis=1)


class TestFitCurve:
    def test_exact_quadratic_recovery(self):
        ys = np.linspace(10.0, 300.0, 10)
        xs = 0.01 * ys**2 - ys + 200.0
        curve = fit_curve(np.stack([xs, ys], axis=1), cluster_id=4)
        assert curve.c2 == pytest.approx(0.01, abs=1e-6)
        assert curve.c1 == pytest.approx(-1.0, abs=1e-6)
        assert curve.c0 == pytest.approx(200.0, abs=1e-6)
        assert curve.cluster_id == 4
        assert (curve.y_min, curve.y_max) == (10.0, 300.0)

    def test_two_points_give_exact_line(self):
        curve = fit_curve([(3.0, 0.0), (7.0, 8.0)], 0)
        assert curve.c2 == 0.0
        assert curve.eval(0.0) == pytest.approx(3.0, abs=1e-9)
        assert curve.eval(8.0) == pytest.approx(7.0, abs=1e-9)

    def test_single_point_constant(self):
        curve = fit_curve([(5.5, 100.0)], 0)
        assert (curve.c0, curve.c1, curve.c2) == (5.5, 0.0, 0.0)
        assert curve.y_min == curve.y_max == 100.0

    def test_same_y_points_reduce_to_constant(self):
        curve = fit_curve([(2.0, 50.0), (4.0, 50.0)], 0)
        assert (curve.c0, curve.c1, curve.c2) == (3.0, 0.0, 0.0)

    def test_matches_normal_equation_oracle(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            pts = random_cluster(rng)
            curve = fit_curve(pts, 0)
            oc = poly_fit_normal_eq(pts[:, 1].tolist(), pts[:, 0].tolist(), 2)
            assert abs(curve.c0 - oc[0]) < 1e-10, f"seed {seed}"
            assert abs(curve.c1 - oc[1]) < 1e-10, f"seed {seed}"
            assert abs(curve.c2 - oc[2]) < 1e-10, f"seed {seed}"
            mine = rss(curve, pts)
            ref = poly_residual(pts[:, 1].tolist(), pts[:, 0].tolist(), oc)
            assert mine <= ref * (1.0 + 1e-9) + 1e-12

    def test_local_minimum_of_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pts = random_cluster(rng)
            curve = fit_curve(pts, 0)
            base = rss(curve, pts)
            for dc0, dc1, dc2 in ((1e-3, 0, 0), (-1e-3, 0, 0), (0, 1e-3, 0),
                                  (0, -1e-3, 0), (0, 0, 1e-3), (0, 0, -1e-3)):
                bumped = LaneCurve(
                    curve.c0 + dc0, curve.c1 + dc1, curve.c2 + dc2,
                    curve.y_min, curve.y_max, curve.cluster_id,
                )
                assert rss(bumped, pts) >= base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        pts = random_cluster(rng)
        base = fit_curve(pts, 0)
        for _ in range(5):
            shuffled = pts[rng.permutation(len(pts))]
            again = fit_curve(shuffled, 0)
            assert (again.c0, again.c1, again.c2) == (base.c0, base.c1, base.c2)

    def test_degree_two_beats_degree_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            pts = random_cluster(rng)
            quad = fit_curve(pts, 0)
            a, b = line_fit_normal_eq(pts.tolist())
            line_curve = LaneCurve(b, a, 0.0, quad.y_min, quad.y_max, 0)
            assert rss(quad, pts) <= rss(line_curve, pts) * (1.0 + 1e-12)

    def test_exact_inputs_reproduced(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            ys = np.sort(rng.uniform(0.0, 480.0, 25))
            c0, c1, c2 = rng.uniform(-100, 400), rng.uniform(-1, 1), rng.uniform(-1e-3, 1e-3)
            xs = c0 + c1 * ys + c2 * ys**2
            curve = fit_curve(np.stack([xs, ys], axis=1), 0)
            assert np.abs(curve.eval(ys) - xs).max() < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_curve(np.empty((0, 2)), 0)


class TestSampleCurve:
    def test_line_samples(self):
        curve = LaneCurve(0.0, 1.0, 0.0, 0.0, 10.0, 0)
        assert sample_curve(curve, 3).tolist() == [[0.0, 0.0], [5.0, 5.0], [10.0, 10.0]]

    def test_constant_curve(self):
        curve = LaneCurve(7.0, 0.0, 0.0, 2.0, 6.0, 0)
        assert sample_curve(curve, 2).tolist() == [[7.0, 2.0], [7.0, 6.0]]

    def test_samples_satisfy_polynomial(self):
        curve = LaneCurve(200.0, -0.6, 3e-4, 5.0, 470.0, 0)
        pts = sample_curve(curve, 101)
        assert np.abs(pts[:, 0] - curve.eval(pts[:, 1])).max() < 1e-12
        assert len(pts) == 101

    def test_bad_inputs(self):
        curve = LaneCurve(0.0, 1.0, 0.0, 0.0, 10.0, 0)
        with pytest.raises(ValueError):
            sample_curve(curve, 1)
        flat = LaneCurve(5.0, 0.0, 0.0, 3.0, 3.0, 0)
        with pytest.raises(DegenerateGeometryError):
            sample_curve(flat, 5)


class TestBackProject:
    def test_identity(self):
        samples = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(back_project(Homography.identity(), samples), samples)

    def test_round_trip(self):
        h = estimate_homography(QuadCorrespondence(ROAD_TRAPEZOID, BEV_RECTANGLE))
        image_pts = np.stack(
            [np.linspace(150.0, 330.0, 40), np.linspace(210.0, 350.0, 40)], axis=1
        )
        bev = h.apply(image_pts)
        back = back_project(h.inverse(), bev)
        assert np.abs(back - image_pts).max() < 1e-6

    def test_perspective_foreshortening(self):
        # uniform BEV spacing compresses toward the image's upper (far) region:
        # walking from far to near, inter-point spacing strictly grows
        h = estimate_homography(QuadCorrespondence(ROAD_TRAPEZOID, BEV_RECTANGLE))
        curve = LaneCurve(240.0, 0.0, 0.0, 0.0, 480.0, 0)
        poly = back_project(h.inverse(), sample_curve(curve, 25))
        spacing = np.linalg.norm(np.diff(poly, axis=0), axis=1)
        assert np.all(np.diff(spacing) > 0)
        assert np.all(np.diff(poly[:, 1]) > 0)  # strictly monotonic image y

    def test_duplicates_collapse(self):
        samples = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9], [2.0, 2.0]])
        out = back_project(Homography.identity(), samples)
        assert len(out) == 2

    def test_repeated_samples_keep_the_sequential_indices(self):
        def kept_by_loop(points):
            # reference: distance to the last kept point, one point at a time
            keep = [0]
            for i in range(1, len(points)):
                if float(np.hypot(*(points[i] - points[keep[-1]]))) >= 1e-6:
                    keep.append(i)
            return keep

        creep = np.stack([np.arange(6) * 0.6e-6, np.zeros(6)], axis=1)  # every step short
        repeats = np.array(
            [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1e-9], [1.0, 0.0], [2.0, 0.0], [2.0, 0.0]]
        )
        rng = np.random.default_rng(4)
        random_repeats = np.repeat(rng.uniform(0.0, 50.0, (12, 2)), rng.integers(1, 4, 12), axis=0)
        for samples, expected in ((creep, [0, 2, 4]), (repeats, [0, 2, 5]), (random_repeats, None)):
            keep = kept_by_loop(samples)
            if expected is not None:
                assert keep == expected
            out = back_project(Homography.identity(), samples)
            assert out.tobytes() == samples[keep].tobytes()

    def test_degenerate_polyline_rejected(self):
        from lanepost import ProcessingError

        samples = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
        with pytest.raises(ProcessingError):
            back_project(Homography.identity(), samples)


def curve_fields(curve):
    return (curve.c0, curve.c1, curve.c2, curve.y_min, curve.y_max, curve.cluster_id)


def odd_clusters(rng):
    """Clusters with y ties and rounded x, single points, two distinct y,
    all-same y, and y spreads at the 1e-9 distinct-y tolerance."""
    general = random_cluster(rng)
    ties = np.stack(
        [np.round(rng.uniform(100, 300, 80), 1), rng.integers(0, 12, 80) * 7.5], axis=1
    )
    two_y = np.stack([rng.uniform(0, 10, 9), rng.choice([4.0, 31.5], 9)], axis=1)
    same_y = np.stack([rng.uniform(0, 10, 6), np.full(6, 77.25)], axis=1)
    near_tol = np.stack([rng.uniform(0, 1, 7), 50.0 + rng.integers(0, 3, 7) * 5e-10], axis=1)
    single = np.array([[3.5, 12.0]])
    return [general, ties, single, two_y, same_y, near_tol, single + 1.0]


def lexsort_fit(points):
    """The per-cluster fit written out step by step: lexsort, one Gram
    product on the stride-16 column view, one solve. fit_curve must give
    its bits; BLAS rounds differently when x is a contiguous copy."""
    pts = np.asarray(points, dtype=np.float64)
    pts = pts[np.lexsort((pts[:, 0], pts[:, 1]))]
    xs, ys = pts[:, 0], pts[:, 1]
    y_min, y_max = float(ys[0]), float(ys[-1])
    degree = min(2, int((np.diff(ys) > 1e-9).sum()))
    if degree == 0:
        return (float(xs.mean()), 0.0, 0.0, y_min, y_max)
    alpha = 2.0 / (y_max - y_min)
    beta = -(y_max + y_min) / (y_max - y_min)
    t = alpha * ys + beta
    v = np.stack([np.ones_like(t), t, t * t][: degree + 1], axis=1)
    s = np.linalg.solve(v.T @ v, v.T @ xs)
    if degree == 1:
        return (float(s[0] + s[1] * beta), float(s[1] * alpha), 0.0, y_min, y_max)
    c0 = float(s[0] + s[1] * beta + s[2] * beta * beta)
    return (c0, float(alpha * (s[1] + 2.0 * s[2] * beta)), float(s[2] * alpha * alpha), y_min, y_max)


class TestFitCurves:
    def test_bitwise_equal_to_lexsort_reference(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for k, pts in enumerate(odd_clusters(rng)):
                assert curve_fields(fit_curve(pts, 0))[:5] == lexsort_fit(pts), (seed, k)

    def test_bitwise_equal_to_fit_curve_per_cluster(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            clusters = odd_clusters(rng)
            points = np.concatenate(clusters)
            labels = np.repeat(np.arange(len(clusters)), [len(c) for c in clusters])
            shuffle = rng.permutation(len(points))  # interleaves the clusters
            points, labels = points[shuffle], labels[shuffle]
            curves = fit_curves(points, labels, len(clusters))
            assert [c.cluster_id for c in curves] == list(range(len(clusters)))
            for k, curve in enumerate(curves):
                alone = fit_curve(points[labels == k], k)
                assert curve_fields(curve) == curve_fields(alone), (seed, k)

    def test_degrees_of_odd_clusters(self):
        clusters = odd_clusters(np.random.default_rng(0))
        points = np.concatenate(clusters)
        labels = np.repeat(np.arange(len(clusters)), [len(c) for c in clusters])
        # (c1, c2) nonzero, by cluster: quadratic, constant, line, then constants
        nonzero = [(c.c1 != 0.0, c.c2 != 0.0) for c in fit_curves(points, labels, len(clusters))]
        assert nonzero[1:] == [(True, True), (False, False), (True, False)] + [(False, False)] * 3

    def test_no_clusters(self):
        assert fit_curves(np.empty((0, 2)), [], 0) == []

    def test_bad_labels_rejected(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        for labels, count in (([0, 2], 3), ([0, 1], 1), ([-1, 0], 2), ([0], 1), ([0.0, 1.0], 2)):
            with pytest.raises(ValueError):
                fit_curves(pts, np.array(labels), count)

    def test_nan_rejected(self):
        # NaN has no place in the (y, x) order the fit sums in
        pts = np.array([[1.0, 2.0], [np.nan, 4.0], [3.0, 5.0]])
        with pytest.raises(ValueError):
            fit_curve(pts, 0)
        with pytest.raises(ValueError):
            fit_curves(pts, np.zeros(3, dtype=int), 1)


def per_curve_chain(h_inv, curves, n):
    """The sequential reference: (polylines, None) or (None, (class, message))."""
    try:
        return [back_project(h_inv, sample_curve(c, n)) for c in curves], None
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return None, (type(exc), str(exc))


def batched(h_inv, curves, n):
    try:
        return project_curves(h_inv, curves, n), None
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return None, (type(exc), str(exc))


class TestProjectCurves:
    H_INV = estimate_homography(QuadCorrespondence(ROAD_TRAPEZOID, BEV_RECTANGLE)).inverse()
    GOOD = LaneCurve(200.0, -0.6, 3e-4, 5.0, 470.0, 0)
    # every sample lies within 1e-6 of the first: the polyline collapses
    COLLAPSING = LaneCurve(3.0, 0.0, 0.0, 10.0, 10.0 + 5e-7, 1)
    SINGLE_Y = LaneCurve(5.0, 0.0, 0.0, 3.0, 3.0, 2)

    def test_equals_per_curve_chain(self):
        rng = np.random.default_rng(3)
        curves = [fit_curve(random_cluster(rng), k) for k in range(6)]
        # 8 samples, steps 0.6e-6 apart: some short, some points kept
        curves.append(LaneCurve(240.0, 0.0, 0.0, 100.0, 100.0 + 4.2e-6, 6))
        for h_inv, n in ((self.H_INV, 50), (self.H_INV, 2), (Homography.identity(), 8)):
            want, err = per_curve_chain(h_inv, curves, n)
            assert err is None
            got = project_curves(h_inv, curves, n)
            assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
        assert len(got[-1]) < 8  # the short-step lane lost points

    def test_first_failing_curve_decides(self):
        h = Homography.identity()
        for curves in (
            [self.GOOD, self.COLLAPSING, self.SINGLE_Y],
            [self.GOOD, self.SINGLE_Y, self.COLLAPSING],
            [self.SINGLE_Y, self.GOOD],
            [self.COLLAPSING, self.GOOD],
        ):
            want = per_curve_chain(h, curves, 50)
            assert want[1] is not None
            assert batched(h, curves, 50)[1] == want[1]
        assert batched(h, [self.COLLAPSING, self.SINGLE_Y], 50)[1][0] is ProcessingError
        assert batched(h, [self.SINGLE_Y, self.COLLAPSING], 50)[1][0] is DegenerateGeometryError

    def test_projective_infinity_after_an_earlier_failure(self):
        # w = 1 - 0.1*y vanishes at y = 10, the middle of three samples on [0, 20]
        h_inv = Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -0.1, 1.0]]))
        infinite = LaneCurve(1.0, 0.0, 0.0, 0.0, 20.0, 3)
        collapsing = LaneCurve(3.0, 0.0, 0.0, 30.0, 30.0 + 1e-7, 4)
        for curves, cls in (([infinite, collapsing], ProjectionError),
                            ([collapsing, infinite], ProcessingError)):
            want = per_curve_chain(h_inv, curves, 3)
            assert want[1][0] is cls
            assert batched(h_inv, curves, 3)[1] == want[1]

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            project_curves(self.H_INV, [self.GOOD], 1)

    def test_sampling_rows_match_linspace(self):
        # np.linspace on arrays switches every row to another formula once
        # one row's step underflows; each row must still be linspace's own
        curves = [self.GOOD, LaneCurve(1.0, 0.0, 0.0, 0.0, 5e-324, 1), LaneCurve(0.0, 1.0, 0.0, -3.0, 7.0, 2)]
        samples = _sample(curves, 10)
        for curve, rows in zip(curves, samples):
            ys = np.linspace(curve.y_min, curve.y_max, 10)
            assert rows[:, 1].tobytes() == ys.tobytes()
            assert rows[:, 0].tobytes() == curve.eval(ys).tobytes()
