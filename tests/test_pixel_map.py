"""The pixel map of `pipeline`: every target pixel's BEV point and fit rank
under one calibration, looked up by run_frame instead of transforming and
sorting each frame's points.

The map must give the points transform_pixels gives, bit for bit, the
order a complex (y, x) sort gives (by_y_then_x), ties included, and the
refusals transform_pixels makes, no more; and it must hold no more memory
than its two arrays, during the build as after it.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import lanepost as lp
from lanepost import _scratch, pipeline
from lanepost.curves import _RANK_STEP, _order_ranks, fit_curves, project_curves
from lanepost.homography import transform_pixels
from lanepost.instances import label_segments
from lanepost.voting import cluster_segments
from test_golden import clutter_masks, corpus_scenes
from test_metamorphic import BEV_WIDTH, CALIBRATIONS, mirrored_quad
from test_scratch import in_a_new_thread

ROWS, COLS = lp.default_config().target_rows, lp.default_config().target_cols


def six_calibrations():
    """The calibrations of the metamorphic relations: default and skewed,
    each as it is, mirrored, and with its BEV quad scaled by 2."""
    for name, corr in CALIBRATIONS.items():
        yield name, corr
        yield f"{name}_mirrored", lp.QuadCorrespondence(
            src=mirrored_quad(corr.src, COLS), dst=mirrored_quad(corr.dst, BEV_WIDTH)
        )
        yield f"{name}_scaled", lp.QuadCorrespondence(
            src=corr.src, dst=tuple((2 * x, 2 * y) for x, y in corr.dst)
        )


def by_y_then_x(points, order, sizes):
    """order, which lists point groups one after another (sizes gives each
    group's length), with each group sorted stably by y and then x: the
    canonical order, by one complex sort per group."""
    grouped = np.asarray(points)[order]
    key = np.empty(len(grouped), np.complex128)
    key.real, key.imag = grouped[:, 1], grouped[:, 0]
    order = order.copy()
    stops = np.cumsum(sizes)
    for start, stop in zip((stops - sizes).tolist(), stops.tolist()):
        order[start:stop] = order[start:stop][np.argsort(key[start:stop], kind="stable")]
    return order


def grid_pixels(rows=ROWS, cols=COLS):
    return np.stack(np.indices((rows, cols)), axis=-1).reshape(-1, 2).astype(np.int32)


@pytest.fixture
def patched_homography(monkeypatch):
    """Patch `pipeline.estimate_homography` to give h for every
    calibration, with the map cache cleared before and after."""

    def patch(h):
        monkeypatch.setattr(pipeline, "estimate_homography", lambda calibration: h)
        pipeline._pixel_map.cache_clear()
        return pipeline._pixel_map(lp.default_config().calibration, ROWS, COLS)

    yield patch
    pipeline._pixel_map.cache_clear()


def test_order_ranks_count_the_points_before_and_restore_them():
    # 49 distinct points, zeros of both signs among them: every step of
    # _order_ranks starts inside a tie
    rng = np.random.default_rng(5)
    n = 3 * _RANK_STEP + 17
    xy = rng.integers(-3, 4, size=(n, 2)).astype(np.float64)
    xy[rng.random((n, 2)) < 0.1] = -0.0
    points = xy.view(np.complex128).ravel()
    before = points.tobytes()
    ranks = _order_ranks(points)
    assert points.tobytes() == before
    key = np.empty(n, np.complex128)
    key.real, key.imag = xy[:, 1], xy[:, 0]
    assert ranks.dtype == np.int32
    assert np.array_equal(ranks, np.searchsorted(np.sort(key), key))  # points strictly before
    groups = rng.integers(0, 5, size=n)
    sizes = np.bincount(groups)
    by_key = by_y_then_x(xy, np.argsort(groups, kind="stable"), sizes)
    assert np.array_equal(np.argsort(groups * n + ranks, kind="stable"), by_key)


def frame_orders(segments, labels, count, grid, points):
    """(the order run_frame fits in, the order fit_curves fits in) of a
    frame's points, which are its pixels' BEV points."""
    point_labels = np.repeat(labels, segments.sizes)
    flat = segments.pixels[:, 0].astype(np.intp) * COLS + segments.pixels[:, 1]
    key = point_labels * (ROWS * COLS) + grid.ranks[flat]
    sizes = np.bincount(point_labels, minlength=count)
    grouped = np.argsort(point_labels, kind="stable")
    return np.argsort(key, kind="stable"), by_y_then_x(points, grouped, sizes)


def pixel_chain(mask, cfg, h):
    """run_frame as transform_pixels and fit_curves compose it: (curves,
    polylines), or the class name of the refusal."""
    try:
        segments = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
        points = transform_pixels(h, segments.pixels)
        labels, count = cluster_segments(points, segments.sizes, cfg.eta)
        curves = fit_curves(points, np.repeat(labels, segments.sizes), count)
        return curves, [p.tobytes() for p in project_curves(h.inverse(), curves, cfg.sample_count)]
    except lp.ProcessingError as exc:
        return type(exc).__name__


def frame_outcome(mask, cfg):
    try:
        lanes = lp.run_frame(mask, cfg).lanes
        return [lane.curve for lane in lanes], [lane.polyline.tobytes() for lane in lanes]
    except lp.ProcessingError as exc:
        return type(exc).__name__


SIX = dict(six_calibrations())


@pytest.mark.parametrize("name", SIX)
def test_map_is_transform_pixels_and_the_complex_sort_bit_for_bit(name):
    calibration = SIX[name]
    grid = pipeline._pixel_map(calibration, ROWS, COLS)
    h = lp.estimate_homography(calibration)
    want = transform_pixels(h, grid_pixels())
    assert grid.points.dtype == np.complex128 and grid.ranks.dtype == np.int32
    assert grid.points.tobytes() == want.tobytes()
    assert grid.far is None
    key = want[:, 1] + 1j * want[:, 0]
    assert np.array_equal(np.argsort(grid.ranks, kind="stable"), np.argsort(key, kind="stable"))
    assert len(np.unique(grid.ranks)) == ROWS * COLS  # no tied keys
    assert not grid.points.flags.writeable and not grid.ranks.flags.writeable


def test_rank_order_is_the_complex_sort_on_every_frame():
    cfg = lp.default_config()
    h = lp.estimate_homography(cfg.calibration)
    grid = pipeline._pixel_map(cfg.calibration, ROWS, COLS)
    masks = [scene.mask for scene in corpus_scenes()] + list(clutter_masks())
    for i, mask in enumerate(masks):
        segments = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
        rows, cols = segments.pixels.T
        points = transform_pixels(h, segments.pixels)
        assert grid.points[rows * COLS + cols].tobytes() == points.tobytes(), i
        labels, count = cluster_segments(points, segments.sizes, cfg.eta)
        by_rank, by_key = frame_orders(segments, labels, count, grid, points)
        assert np.array_equal(by_rank, by_key), i


def test_tied_keys_keep_their_frame_order(patched_homography):
    # x = col + 0.5 + 1e17 rounds 16 columns at a time to one value, so
    # each image row holds runs of tied keys, which share a rank
    h = lp.Homography(np.array([[1.0, 0.0, 1e17], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    grid = patched_homography(h)
    assert len(np.unique(grid.ranks)) < ROWS * COLS // 10
    cfg = lp.default_config()
    lanes = 0
    for mask in list(clutter_masks())[:4]:
        segments = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
        points = transform_pixels(h, segments.pixels)
        labels, count = cluster_segments(points, segments.sizes, cfg.eta)
        by_rank, by_key = frame_orders(segments, labels, count, grid, points)
        assert np.array_equal(by_rank, by_key)
        want = pixel_chain(mask, cfg, h)
        assert frame_outcome(mask, cfg) == want
        lanes += len(want[0])
    assert lanes


def test_far_pixels_refuse_only_the_frames_that_touch_them(patched_homography):
    # w = 1 - 2 * (row + 0.5) is exactly 0 on image row 0 and nowhere else
    h = lp.Homography(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -2.0, 1.0]]))
    grid = patched_homography(h)
    assert np.array_equal(grid.far, np.arange(COLS))
    assert np.isnan(grid.points[:COLS].view(np.float64)).all()
    assert not np.isnan(grid.points[COLS:].view(np.float64)).any()
    cfg = lp.default_config()
    for seed in range(3):
        mask = lp.generate_scene(lp.SceneParams(num_lanes=3), seed, cfg).mask.copy()
        mask[0] = False
        want = pixel_chain(mask, cfg, h)
        assert not isinstance(want, str) and want[0]
        assert frame_outcome(mask, cfg) == want
        mask[0:4, 100:110] = True  # an instance with pixels on row 0
        with pytest.raises(lp.ProjectionError, match="projective infinity"):
            transform_pixels(h, label_segments(mask, cfg.connectivity, cfg.min_instance_size).pixels)
        with pytest.raises(lp.ProjectionError, match="projective infinity"):
            lp.run_frame(mask, cfg)


@in_a_new_thread
def test_map_holds_twenty_bytes_a_pixel_and_borrows_nothing():
    # the build holds at its peak the map, the rank sort's permutation (8
    # bytes per pixel) and its bands' temporaries (0.25 MB), never a
    # whole-grid transform or a second copy of the keys; the permutation
    # is freed before the map is returned
    calibration = CALIBRATIONS["skewed"]
    pipeline._pixel_map.cache_clear()
    tracemalloc.start()
    try:
        grid = pipeline._pixel_map(calibration, ROWS, COLS)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = 20 * ROWS * COLS
    assert grid.points.nbytes + grid.ranks.nbytes == size and grid.far is None
    assert size <= held < size + (16 << 10), held
    assert peak < size + 8 * ROWS * COLS + (320 << 10), peak
    assert not getattr(_scratch._pools, "slots", None)  # this thread never borrowed
    pipeline._pixel_map.cache_clear()


def test_map_cache_is_small_and_keyed_by_grid():
    assert pipeline._pixel_map.cache_info().maxsize == 8
    cfg = lp.default_config()
    pipeline._pixel_map.cache_clear()
    lp.run_frame(np.zeros((90, 120), bool), dataclasses.replace(cfg, target_rows=90, target_cols=120))
    lp.run_frame(np.zeros((ROWS, COLS), bool), cfg)
    assert pipeline._pixel_map.cache_info().currsize == 2
    assert len(pipeline._pixel_map(cfg.calibration, 90, 120).points) == 90 * 120
    pipeline._pixel_map.cache_clear()


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_transform_pixels_gives_one_set_of_bits_for_every_layout(n, dtype, monkeypatch):
    # the pixel centres are C-ordered float64 whatever the pixels' layout,
    # so BLAS sees one layout; the map holds the same bits
    seen = []
    apply = lp.Homography.apply

    def spy(self, points):
        seen.append((points.dtype, points.flags.c_contiguous))
        return apply(self, points)

    cfg = lp.default_config()
    h = lp.estimate_homography(cfg.calibration)
    grid = pipeline._pixel_map(cfg.calibration, ROWS, COLS)
    rng = np.random.default_rng(n)
    pixels = np.stack([rng.integers(0, ROWS, n), rng.integers(0, COLS, n)], axis=1).astype(dtype)
    want = grid.points[pixels[:, 0] * COLS + pixels[:, 1]].view(np.float64).reshape(-1, 2)
    layouts = {
        "C": np.ascontiguousarray(pixels),
        "F": np.asfortranarray(pixels),
        "reversed rows": np.ascontiguousarray(pixels[::-1])[::-1],
        "reversed columns": np.ascontiguousarray(pixels[:, ::-1])[:, ::-1],
    }
    monkeypatch.setattr(lp.Homography, "apply", spy)
    for name, layout in layouts.items():
        assert np.array_equal(layout, pixels) and layout.dtype == dtype
        got = transform_pixels(h, layout)
        assert got.shape == (n, 2) and got.flags.c_contiguous, name
        assert got.tobytes() == want.tobytes(), name
    assert seen == [(np.float64, True)] * len(layouts)
