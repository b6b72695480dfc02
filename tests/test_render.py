import time

import numpy as np
import pytest

from lanepost import (
    Lane,
    SceneParams,
    default_config,
    generate_scene,
    parse_lanes,
    render_overlay,
    run_frame,
)
from lanepost.render import PALETTE, _MASK_GRAY
from test_golden import corpus_scenes


def reference_overlay(mask, lanes):
    """render_overlay as a loop that stamps every sample of every segment,
    outside the image or not."""
    mask = np.asarray(mask) != 0
    img = np.zeros((*mask.shape, 3), dtype=np.uint8)
    img[mask] = _MASK_GRAY
    height, width = mask.shape
    for i, lane in enumerate(lanes):
        color = np.array(PALETTE[i % len(PALETTE)], dtype=np.uint8)
        poly = np.asarray(lane.polyline)
        for p0, p1 in zip(poly[:-1], poly[1:]):
            length = float(np.hypot(p1[0] - p0[0], p1[1] - p0[1]))
            ts = np.linspace(0.0, 1.0, max(2, int(np.ceil(length / 0.5)) + 1))
            cs = np.floor(p0[0] + ts * (p1[0] - p0[0])).astype(np.int64)
            rs = np.floor(p0[1] + ts * (p1[1] - p0[1])).astype(np.int64)
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    r, c = rs + dr, cs + dc
                    keep = (r >= 0) & (r < height) & (c >= 0) & (c < width)
                    img[r[keep], c[keep]] = color
    return img


def test_overlay_shape_and_background():
    cfg = default_config()
    scene = generate_scene(SceneParams(num_lanes=2), 3, cfg)
    result = run_frame(scene.mask, cfg)
    img = render_overlay(scene.mask, result.lanes)
    assert img.shape == (360, 480, 3)
    assert img.dtype == np.uint8
    # untouched mask pixels are gray, background stays black
    flat = img.reshape(-1, 3)
    background = ~scene.mask.reshape(-1)
    assert set(map(tuple, np.unique(flat[background], axis=0))) <= (
        {(0, 0, 0)} | {tuple(c) for c in PALETTE}
    )
    gray = np.all(flat == _MASK_GRAY, axis=1)
    assert gray.any()


def test_each_lane_gets_its_palette_color():
    cfg = default_config()
    scene = generate_scene(SceneParams(num_lanes=3), 5, cfg)
    result = run_frame(scene.mask, cfg)
    img = render_overlay(scene.mask, result.lanes)
    flat = set(map(tuple, img.reshape(-1, 3)))
    for i in range(len(result.lanes)):
        assert PALETTE[i] in flat


def test_deterministic():
    cfg = default_config()
    scene = generate_scene(SceneParams(num_lanes=2), 9, cfg)
    result = run_frame(scene.mask, cfg)
    a = render_overlay(scene.mask, result.lanes)
    b = render_overlay(scene.mask, result.lanes)
    assert np.array_equal(a, b)


def test_empty_lanes_only_mask():
    mask = np.zeros((20, 30), dtype=bool)
    mask[4, 5] = True
    img = render_overlay(mask, [])
    assert tuple(img[4, 5]) == (_MASK_GRAY,) * 3
    assert img.sum() == _MASK_GRAY * 3


def test_golden_frames_render_as_the_reference():
    cfg = default_config()
    for scene in corpus_scenes():
        lanes = run_frame(scene.mask, cfg).lanes
        assert np.array_equal(render_overlay(scene.mask, lanes), reference_overlay(scene.mask, lanes))


@pytest.mark.parametrize("seed", range(4))
def test_polylines_partly_outside_render_as_the_reference(seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((37, 53)) < 0.1
    lanes = []
    for _ in range(30):
        points = rng.uniform((-40, -30), (93, 67), (rng.integers(2, 6), 2))
        if rng.random() < 0.3:  # on the image's edges and their half-pixels
            points = np.round(points * 2) / 2
        if rng.random() < 0.2:
            points[:, rng.integers(0, 2)] = rng.choice([-1.5, -1.0, -0.5, 0.0, 36.5, 37.0, 52.5, 53.0])
        lanes.append(Lane(None, points))
    assert np.array_equal(render_overlay(mask, lanes), reference_overlay(mask, lanes))



def test_last_sample_is_the_end_point():
    # 50 samples: 49 * (1 / 49) is 0.9999999999999999, but linspace's last
    # sample is 1.0, so the end point's square reaches column 25
    mask = np.zeros((20, 30), dtype=bool)
    lanes = [Lane(None, np.array([[-0.5, 10.0], [24.0, 10.0]]))]
    img = render_overlay(mask, lanes)
    assert tuple(img[10, 25]) == PALETTE[0]
    assert np.array_equal(img, reference_overlay(mask, lanes))

@pytest.mark.parametrize("far", ["1e7", "1e12", "-1e12"])
def test_long_segments_render_in_bounded_time(far):
    mask = np.zeros((360, 480), dtype=bool)
    lanes = parse_lanes(f"0 1 0 0 0 10 0,0 {far},5")
    start = time.perf_counter()
    img = render_overlay(mask, lanes)
    assert time.perf_counter() - start < 0.5
    assert tuple(img[0, 0]) == PALETTE[0]
