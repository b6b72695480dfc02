"""Steady-state frames: after warm-up, a frame's path allocates and faults
in little beyond the arrays it hands back.

The frame path draws its image-, point- and block-sized temporaries from
per-thread pools (`lanepost._scratch`), so a stream of frames reuses the
same pages. These tests bound what a second frame still allocates
(tracemalloc), check that nothing handed to a caller aliases a pool, and
count the pages a frame faults in under a fixed glibc mmap threshold,
where every fresh allocation of 128 KiB or more is a fresh mapping.
"""

import json
import os
import platform
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import lanepost as lp
from lanepost import _scratch
from test_golden import clutter_masks
from test_maskio import filtered_stream, lane_image, stream_png
from test_scratch import in_a_new_thread

PNG_MODES = range(6)  # None, Sub, Up, Average, Paeth, adaptive


def write_mask(path, mask):
    lp.write_pgm(path, np.where(mask, 255, 0).astype(np.uint8))
    return str(path)


def write_png(path, mode, seed=4):
    gray = lane_image(seed, (720, 1280))
    path.write_bytes(stream_png(filtered_stream(gray, [mode] * 720)))
    return str(path)


def pooled() -> list:
    """The calling thread's pooled buffers."""
    return [buf for buf in _scratch._pools.slots if buf is not None]


def frame_outputs(result) -> int:
    """Bytes of the arrays a FrameResult keeps."""
    return (
        result.segments.pixels.nbytes
        + result.segments.sizes.nbytes
        + result.labels.nbytes
        + sum(lane.polyline.nbytes for lane in result.lanes)
    )


def traced_peak(call):
    tracemalloc.start()
    try:
        value = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak


def test_steady_state_frame_memory_is_bounded():
    # a second run_frame on a clutter frame allocates its result and at
    # most this much besides: the labeler's run arrays, the merging pairs
    # of a vote block and the fit's sort key and order (about 0.36 MB on
    # these frames, against 0.5-1.1 MB when the BEV, voting and fitting
    # temporaries were allocated per frame)
    cfg = lp.default_config()
    for mask in list(clutter_masks())[:4]:
        want = lp.run_frame(mask, cfg)
        got, peak = traced_peak(lambda: lp.run_frame(mask, cfg))
        assert lp.format_lanes(got.lanes) == lp.format_lanes(want.lanes)
        assert peak < frame_outputs(got) + (448 << 10), peak


def test_steady_state_png_read_memory_is_bounded(tmp_path):
    # load_mask + crop_and_resize of a 720x1280 PNG: once the pools hold
    # the file, the decode buffer and the row gather, a frame allocates
    # its two results and, beside them, one 64 KiB piece of inflated
    # stream at a time and a few small arrays (72-83 KB in all; 0.8 MB
    # when the inflated stream and the row gather were allocated per
    # frame)
    cfg = lp.default_config()
    for mode in PNG_MODES:
        path = write_png(tmp_path / f"mode{mode}.png", mode)
        want = lp.crop_and_resize(lp.load_mask(path, cfg.mask_threshold), cfg)

        def read():
            raw = lp.load_mask(path, cfg.mask_threshold)
            return raw, lp.crop_and_resize(raw, cfg)

        (raw, got), peak = traced_peak(read)
        assert np.array_equal(got, want)
        assert peak < raw.nbytes + got.nbytes + (128 << 10), peak


def test_results_do_not_alias_the_pools(tmp_path):
    # every array handed back stays bitwise the same while later frames of
    # other shapes reuse (and grow) the pooled buffers
    cfg = lp.default_config()
    masks = list(clutter_masks())[:2]
    frame = lp.run_frame(masks[0], cfg)
    kept = [frame.segments.pixels, frame.segments.sizes, frame.labels]
    kept += [lane.polyline for lane in frame.lanes]
    p5 = write_mask(tmp_path / "small.pgm", masks[1][:100, :150])
    png = write_png(tmp_path / "lanes.png", 3)
    reads = [lp.load_mask(p5), lp.read_gray(p5), lp.load_mask(png), lp.read_gray(png)]
    before = [a.tobytes() for a in kept + reads]
    text = lp.format_lanes(frame.lanes)

    for mask in masks[::-1]:
        lp.run_frame(mask, cfg)
    lp.run_frame(np.ones((cfg.target_rows, cfg.target_cols), bool), cfg)  # one instance of every pixel
    big = tmp_path / "big.png"
    big.write_bytes(stream_png(filtered_stream(lane_image(5, (1000, 1500)), [4] * 1000)))
    for path in (p5, png, str(big)):
        lp.crop_and_resize(lp.load_mask(path), cfg)
        lp.read_gray(path)
    assert [a.tobytes() for a in kept + reads] == before
    assert lp.format_lanes(frame.lanes) == text
    pools = pooled()
    assert pools and not any(np.shares_memory(a, buf) for a in kept + reads for buf in pools)


@in_a_new_thread
def test_a_thread_keeps_two_buffers_after_p5_and_png_frames(tmp_path):
    # a lane scene and a clutter frame read from P5, then a 720x1280 PNG in
    # every filter mode: the frame path nests borrows two deep, so the
    # thread keeps two buffers, here the PNG's row gather (360 x 1280) and
    # its decode buffer (721 x 1281), below the 2,077,609 bytes that six
    # buffers, one per size class, kept after the same frames
    cfg = lp.default_config()
    scene = lp.generate_scene(lp.SceneParams(num_lanes=4, noise_rate=0.0005), 31, cfg)
    paths = [write_mask(tmp_path / "scene.pgm", scene.mask)]
    paths += [write_mask(tmp_path / "clutter.pgm", list(clutter_masks())[2])]
    paths += [write_png(tmp_path / f"mode{mode}.png", mode) for mode in PNG_MODES]
    for path in paths:
        lp.run_frame(lp.crop_and_resize(lp.load_mask(path, cfg.mask_threshold), cfg), cfg)
    held = [len(buf) for buf in pooled()]
    assert len(held) == 2 and sum(held) < 2_077_609, held


# Run in a child process: the mmap threshold must be set before the
# interpreter's allocator starts, and only for that process.
_FAULTS_CHILD = r"""
import json, resource, sys
sys.path.insert(0, sys.argv[1])
import lanepost as lp

def faults(call):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    value = call()
    return value, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

cfg = lp.default_config()
report = {}
for path in sys.argv[2:]:
    seen = report[path] = {"load": [], "crop": [], "run": [], "load_bytes": 0}
    for rep in range(5):
        raw, load = faults(lambda: lp.load_mask(path, cfg.mask_threshold))
        mask, crop = faults(lambda: lp.crop_and_resize(raw, cfg))
        del raw
        result, run = faults(lambda: lp.run_frame(mask, cfg))
        del mask, result
        if rep >= 2:  # two warm-up frames
            seen["load"].append(load)
            seen["crop"].append(crop)
            seen["run"].append(run)
    seen["load_bytes"] = lp.load_mask(path, cfg.mask_threshold).nbytes
print(json.dumps(report))
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="counts page faults under glibc's malloc on Linux",
)
def test_steady_state_frames_fault_in_only_their_outputs(tmp_path):
    cfg = lp.default_config()
    scene = lp.generate_scene(lp.SceneParams(num_lanes=4, noise_rate=0.0005), 31, cfg)
    clutter = list(clutter_masks())[2]  # the golden frame with the most instances
    paths = [write_mask(tmp_path / "scene.pgm", scene.mask), write_mask(tmp_path / "clutter.pgm", clutter)]
    paths += [write_png(tmp_path / f"mode{mode}.png", mode) for mode in PNG_MODES]
    src = os.path.dirname(os.path.dirname(os.path.abspath(lp.__file__)))
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    proc = subprocess.run(
        [sys.executable, "-c", _FAULTS_CHILD, src, *paths],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(proc.stdout)
    page = resource.getpagesize()
    crop_pages = cfg.target_rows * cfg.target_cols // page + 1
    for path in paths:
        seen = report[path]
        output_pages = seen["load_bytes"] // page + 1  # with the mapping's header
        assert max(seen["load"]) <= output_pages + 2, (path, seen)
        assert max(seen["crop"]) <= crop_pages + 2, (path, seen)
        assert max(seen["run"]) <= 8, (path, seen)
