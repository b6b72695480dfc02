import numpy as np
import pytest

from lanepost import (
    CalibrationError,
    Homography,
    Instance,
    ProjectionError,
    QuadCorrespondence,
    estimate_homography,
    transform_instance,
)
from oracles import apply_homography, homography_from_quads

UNIT_SQUARE = ((0, 0), (1, 0), (1, 1), (0, 1))
ROAD_TRAPEZOID = ((100, 200), (380, 200), (460, 360), (20, 360))
BEV_RECTANGLE = ((120, 0), (360, 0), (360, 480), (120, 480))


def random_well_conditioned(rng):
    while True:
        m = np.eye(3) + rng.normal(0, 0.2, (3, 3))
        m[2, :2] = rng.normal(0, 1e-3, 2)
        m[2, 2] = 1.0
        if abs(np.linalg.det(m)) > 1e-3 and np.linalg.cond(m) < 1e6:
            return Homography(m)


class TestEstimate:
    def test_identity(self):
        h = estimate_homography(QuadCorrespondence(UNIT_SQUARE, UNIT_SQUARE))
        assert np.allclose(h.m, np.eye(3), atol=1e-12)

    def test_pure_scale(self):
        dst = tuple((2 * x, 2 * y) for x, y in UNIT_SQUARE)
        h = estimate_homography(QuadCorrespondence(UNIT_SQUARE, dst))
        assert np.allclose(h.m, np.diag([2.0, 2.0, 1.0]), atol=1e-12)

    def test_road_calibration_corners_and_oracle(self):
        corr = QuadCorrespondence(ROAD_TRAPEZOID, BEV_RECTANGLE)
        h = estimate_homography(corr)
        for s, d in zip(corr.src, corr.dst):
            u, v = h.apply(np.array([s]))[0]
            assert abs(u - d[0]) < 1e-9 and abs(v - d[1]) < 1e-9
        reference = np.array(homography_from_quads(corr.src, corr.dst))
        assert np.allclose(h.m, reference, rtol=1e-9, atol=1e-9)

    def test_collinear_quad_rejected(self):
        with pytest.raises(CalibrationError):
            QuadCorrespondence(((0, 0), (1, 1), (2, 2), (0, 1)), UNIT_SQUARE)

    def test_wrong_point_count_rejected(self):
        with pytest.raises(CalibrationError):
            QuadCorrespondence(((0, 0), (1, 0), (1, 1)), UNIT_SQUARE)

    def test_non_finite_rejected(self):
        with pytest.raises(CalibrationError):
            QuadCorrespondence(((0, 0), (1, 0), (1, np.nan), (0, 1)), UNIT_SQUARE)


class TestTransform:
    def test_identity_point(self):
        h = Homography.identity()
        assert tuple(h.apply(np.array([(3.5, -2.0)]))[0]) == (3.5, -2.0)

    def test_diag_scale_point(self):
        h = Homography(np.diag([2.0, 2.0, 1.0]))
        assert tuple(h.apply(np.array([(3, 4)]))[0]) == (6.0, 8.0)

    def test_round_trip_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = random_well_conditioned(rng)
            pts = rng.uniform(-100, 100, (25, 2))
            back = h.inverse().apply(h.apply(pts))
            assert np.abs(back - pts).max() < 1e-9

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        h = random_well_conditioned(rng)
        for _ in range(10):
            x, y = rng.uniform(-50, 50, 2)
            ox, oy = apply_homography(h.m.tolist(), x, y)
            mx, my = h.apply(np.array([(x, y)]))[0]
            assert abs(mx - ox) < 1e-9 and abs(my - oy) < 1e-9

    def test_point_at_infinity_raises(self):
        h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 1.0]]))
        with pytest.raises(ProjectionError):
            h.apply(np.array([(-1.0, 5.0)]))
        with pytest.raises(ProjectionError):
            h.apply(np.array([[0.0, 0.0], [-1.0, 5.0]]))

    def test_one_row_maps_like_any_batch(self):
        # BLAS may take a different kernel for a one-row product; a point's
        # image must not depend on how many points travel with it
        h = estimate_homography(QuadCorrespondence(ROAD_TRAPEZOID, BEV_RECTANGLE))
        rng = np.random.default_rng(3)
        image_pts = np.stack(
            [rng.uniform(0.0, 480.0, 200_000), rng.uniform(0.0, 360.0, 200_000)], axis=1
        )
        bev_pts = np.stack(
            [rng.uniform(120.0, 360.0, 200_000), rng.uniform(0.0, 480.0, 200_000)], axis=1
        )
        for hom, pts in ((h, image_pts), (h.inverse(), bev_pts)):
            batch = hom.apply(pts)
            for k in rng.choice(len(pts), 300, replace=False).tolist():
                assert np.array_equal(hom.apply(pts[k : k + 1])[0], batch[k]), k
                assert np.array_equal(hom.apply(pts[k : k + 2])[0], batch[k]), k

    def test_composition(self):
        rng = np.random.default_rng(2)
        h1 = random_well_conditioned(rng)
        h2 = random_well_conditioned(rng)
        combined = Homography(h2.m @ h1.m)
        pts = rng.uniform(-20, 20, (30, 2))
        assert np.abs(combined.apply(pts) - h2.apply(h1.apply(pts))).max() < 1e-9


class TestInvert:
    def test_identity(self):
        assert np.array_equal(Homography.identity().inverse().m, np.eye(3))

    def test_diag(self):
        inv = Homography(np.diag([2.0, 2.0, 1.0])).inverse()
        assert np.allclose(inv.m, np.diag([0.5, 0.5, 1.0]), atol=1e-12)

    def test_product_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = random_well_conditioned(rng)
            prod = h.m @ h.inverse().m
            prod = prod / prod[2, 2]
            assert np.abs(prod - np.eye(3)).max() < 1e-9

    def test_singular_matrix_rejected(self):
        with pytest.raises(CalibrationError):
            Homography(np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]]))

    @pytest.mark.parametrize(
        "m",
        [
            np.full((3, 3), np.nan),
            np.array([[1.0, 0, np.inf], [0, 1.0, 0], [0, 0, 1.0]]),
            np.array([[1.0, 0, 0], [0, 1.0, 0], [-np.inf, 0, 1.0]]),
            np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, np.nan]]),
            np.diag([1e300, 1.0, 1e-11]),  # finite, but overflows when normalized
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_matrix_rejected(self, m):
        with pytest.raises(CalibrationError):
            Homography(m)


class TestTransformInstance:
    def _instance(self, pixels):
        arr = np.asarray(pixels, dtype=np.int32)
        return Instance(0, arr, len(arr), (0, 0, 0, 0))

    def test_identity_maps_to_pixel_centers(self):
        inst = self._instance([(3, 4), (5, 6)])
        out = transform_instance(Homography.identity(), inst)
        assert np.array_equal(out, np.array([[4.5, 3.5], [6.5, 5.5]]))

    def test_scale_doubles_centers(self):
        inst = self._instance([(0, 0), (1, 2), (9, 3)])
        out = transform_instance(Homography(np.diag([2.0, 2.0, 1.0])), inst)
        expected = np.array([[1.0, 1.0], [5.0, 3.0], [7.0, 19.0]])
        assert np.allclose(out, expected, atol=1e-12)

    def test_collinearity_preserved(self):
        h = estimate_homography(QuadCorrespondence(ROAD_TRAPEZOID, BEV_RECTANGLE))
        rows = np.arange(210, 350, 2)
        cols = rows // 2 + 60  # exactly collinear pixel centers, slope 2
        inst = self._instance(np.stack([rows, cols], axis=1))
        pts = transform_instance(h, inst)
        # unit-scale cross product of consecutive direction vectors
        d = np.diff(pts, axis=0)
        d = d / np.linalg.norm(d, axis=1)[:, None]
        cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
        assert np.abs(cross).max() < 1e-6
