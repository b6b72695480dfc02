"""Seeded inputs for the lanepost benchmark.

Every workload is a list of frames on disk: a mask file (P5 graymap or
8-bit grayscale PNG) that the program reads, plus the truth it is scored
against (a truth-curve file and a per-pixel divider-id graymap, as
written by `lanepost synth`). The same seed always writes the same bytes.

Frame properties are stratified over the corpus rather than drawn
independently per frame, so two seeds give nearly the same frame mix and
the aggregate timings and quality figures move little from seed to seed.
Only positions, phases and jitter come from the seed.

PNG files come from the encoder in this module, which writes each row
with a chosen filter type (None, Sub, Up, Average, Paeth, or a per-row
adaptive choice). Every encoded file, PNG or P5, is decoded again through
`lanepost.read_gray` and compared with its source array before any
timing starts.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

import lanepost as lp
from lanepost.synthetic import NOISE_ID

# synth-stream and png-720p scene parameter ranges
LANES = (2, 3, 4, 5)
NOISE_MAX = 5e-4
OCCLUSION_MAX = 0.2

# instance-clutter stress
BLOBS_MIN, BLOBS_MAX = 150, 500
BLOB_SIDE = 4  # 4x4 = 16 px, above the default min_size of 15
BLOB_PITCH = 8
SPECKLE_RATE = 0.08
STRESS_EXTRAS = ("grid", "sky", "speckle", "streak")  # rotated by frame index
HORIZON_ROW = 200  # top edge of the default calibration trapezoid

PNG_SHAPE = (720, 1280)
PNG_MODES = ("none", "sub", "up", "average", "paeth", "adaptive")
_FILTER_TYPE = {"none": 0, "sub": 1, "up": 2, "average": 3, "paeth": 4}

CORPUS_FRAMES = {"synth-stream": 256, "instance-clutter": 224, "png-720p": 36}
WORKLOAD_PARAMS = {
    "synth-stream": {
        "frames": CORPUS_FRAMES["synth-stream"],
        "format": "P5 360x480",
        "lanes": list(LANES),
        "noise_rate": [0.0, NOISE_MAX],
        "occlusion_rate": [0.0, OCCLUSION_MAX],
    },
    "instance-clutter": {
        "frames": CORPUS_FRAMES["instance-clutter"],
        "format": "P5 360x480",
        "scene": "synth-stream scene parameters",
        "blobs": [BLOBS_MIN, BLOBS_MAX],
        "blob": f"{BLOB_SIDE}x{BLOB_SIDE} px on a {BLOB_PITCH} px pitch, image rows >= {HORIZON_ROW}",
        "extra_stress_by_frame_index": list(STRESS_EXTRAS),
        "speckle_rate": SPECKLE_RATE,
        "sky_clutter": f"vertical strokes above image row {HORIZON_ROW}",
        "streak": "one isolated 1-row horizontal run of 30-60 px",
    },
    "png-720p": {
        "frames": CORPUS_FRAMES["png-720p"],
        "format": "8-bit grayscale PNG 720x1280, upscaled so crop_and_resize gives back the 360x480 scene",
        "scene": "synth-stream scene parameters",
        "row_filter_by_frame_index": list(PNG_MODES),
    },
}


# ---------------------------------------------------------------------------
# PNG encoding
# ---------------------------------------------------------------------------

def _chunk(kind: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(kind + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + kind + payload + struct.pack(">I", crc)


def _filtered_rows(gray: np.ndarray) -> dict:
    """Residuals of every row under each of the five PNG filter types."""
    x = gray.astype(np.int16)
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    left = np.zeros_like(x)
    left[:, 1:] = x[:, :-1]
    diag = np.zeros_like(x)
    diag[1:, 1:] = x[:-1, :-1]
    p = left + up - diag
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - diag)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, diag))
    predictions = (0, left, up, (left + up) >> 1, paeth)
    return {t: ((x - pred) & 0xFF).astype(np.uint8) for t, pred in enumerate(predictions)}


def encode_png(gray: np.ndarray, mode: str) -> bytes:
    """8-bit grayscale PNG with every row filtered as `mode`.

    "adaptive" picks, per row, the filter type with the smallest sum of
    absolute signed residuals, the heuristic the PNG specification
    suggests.
    """
    gray = np.ascontiguousarray(gray, dtype=np.uint8)
    height, width = gray.shape
    residuals = _filtered_rows(gray)
    if mode == "adaptive":
        cost = np.stack(
            [np.abs(residuals[t].astype(np.int8).astype(np.int32)).sum(axis=1) for t in range(5)]
        )
        types = cost.argmin(axis=0)
    else:
        types = np.full(height, _FILTER_TYPE[mode])
    stream = np.empty((height, width + 1), dtype=np.uint8)
    stream[:, 0] = types
    for t in range(5):
        rows = types == t
        stream[rows, 1:] = residuals[t][rows]
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(stream.tobytes(), 6))
        + _chunk(b"IEND", b"")
    )


def upscale_for(mask: np.ndarray, shape, cfg) -> np.ndarray:
    """Nearest-neighbour upscale that `crop_and_resize` (zero crop) maps
    back onto exactly `mask`, so the scene's truth holds for the PNG."""
    rows, cols = cfg.target_rows, cfg.target_cols
    height, width = shape
    row_of = np.searchsorted((np.arange(rows) * height) // rows, np.arange(height), side="right") - 1
    col_of = np.searchsorted((np.arange(cols) * width) // cols, np.arange(width), side="right") - 1
    return mask[np.ix_(row_of, col_of)]


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

def _stratified(rng, n: int, hi: float) -> np.ndarray:
    """n values in [0, hi): one per equal-width stratum, in seeded order."""
    return hi * (rng.permutation(n) + rng.random(n)) / n


def _scenes(seed: int, n: int, cfg):
    """The synth-stream scene mix: lanes cycle through LANES, noise and
    occlusion rates are stratified over their ranges."""
    rng = np.random.default_rng([seed, 0])
    noise = _stratified(rng, n, NOISE_MAX)
    occlusion = _stratified(rng, n, OCCLUSION_MAX)
    scene_seeds = rng.integers(0, 2**31, size=n)
    for i in range(n):
        params = lp.SceneParams(
            num_lanes=LANES[i % len(LANES)],
            noise_rate=float(noise[i]),
            occlusion_rate=float(occlusion[i]),
        )
        yield lp.generate_scene(params, int(scene_seeds[i]), cfg)


def _add_stress(scene, pixels: np.ndarray) -> None:
    """Switch on stress pixels; every newly set pixel is noise in truth."""
    new = pixels & ~scene.mask
    scene.mask |= new
    scene.truth_assignment[new] = NOISE_ID


def _blob_grid(shape, count: int, top: int, where) -> np.ndarray:
    """A grid of `count` BLOB_SIDE-square blobs inside rows [top, height);
    `where` in [0, 1)^2 places it within the room left over."""
    height, width = shape
    grid_cols = int(np.ceil(np.sqrt(count * 1.6)))
    grid_rows = int(np.ceil(count / grid_cols))
    r0 = top + int(where[0] * max(height - top - grid_rows * BLOB_PITCH, 0))
    c0 = int(where[1] * max(width - grid_cols * BLOB_PITCH, 0))
    out = np.zeros(shape, dtype=bool)
    for k in range(count):
        r = r0 + (k // grid_cols) * BLOB_PITCH
        c = c0 + (k % grid_cols) * BLOB_PITCH
        out[r : r + BLOB_SIDE, c : c + BLOB_SIDE] = True
    return out


def _sky_clutter(rng, shape) -> np.ndarray:
    """A few short, near-vertical strokes above the calibration trapezoid."""
    out = np.zeros(shape, dtype=bool)
    for _ in range(int(rng.integers(3, 7))):
        r = int(rng.integers(40, HORIZON_ROW - 30))
        c = int(rng.integers(20, shape[1] - 20))
        out[r : r + int(rng.integers(12, 28)), c : c + 2] = True
    return out


def _streak(rng, mask: np.ndarray) -> np.ndarray:
    """One 1-row horizontal run whose 8-neighbourhood holds no mask pixel,
    so it labels as its own single-row instance (a stop line)."""
    height, width = mask.shape
    out = np.zeros_like(mask)
    for _ in range(1000):
        length = int(rng.integers(30, 61))
        r = int(rng.integers(HORIZON_ROW + 10, height - 2))
        c = int(rng.integers(1, width - length - 1))
        if not mask[r - 1 : r + 2, c - 1 : c + length + 1].any():
            out[r, c : c + length] = True
            return out
    raise RuntimeError("no free place for a streak")


def _clutter_scenes(seed: int, n: int, cfg):
    rng = np.random.default_rng([seed, 1])
    counts = np.linspace(BLOBS_MIN, BLOBS_MAX, n).round().astype(int)[rng.permutation(n)]
    where = np.stack([_stratified(rng, n, 1.0), _stratified(rng, n, 1.0)], axis=1)
    shape = (cfg.target_rows, cfg.target_cols)
    k = len(STRESS_EXTRAS)
    for i, scene in enumerate(_scenes(seed, n, cfg)):
        extra = STRESS_EXTRAS[(i + i // k) % k]  # every (lanes, extra) pair once per k*k frames
        _add_stress(scene, _blob_grid(shape, int(counts[i]), HORIZON_ROW, where[i]))
        if extra == "sky":
            _add_stress(scene, _sky_clutter(rng, shape))
        elif extra == "speckle":
            _add_stress(scene, rng.random(shape) < SPECKLE_RATE)
        elif extra == "streak":
            _add_stress(scene, _streak(rng, scene.mask))
        yield scene


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------

def _gray(mask: np.ndarray) -> np.ndarray:
    return np.where(mask, 255, 0).astype(np.uint8)


def _write_checked(path: str, gray: np.ndarray, mode: str | None) -> np.ndarray:
    """Write `gray` as PNG (mode given) or P5, then decode it through
    lanepost and require the exact source bytes back."""
    if mode is None:
        lp.write_pgm(path, gray)
    else:
        with open(path, "wb") as fh:
            fh.write(encode_png(gray, mode))
    decoded = lp.read_gray(path)
    if decoded.shape != gray.shape or not np.array_equal(decoded, gray):
        raise RuntimeError(f"{path}: decoded image differs from its source")
    return decoded


def _frame_files(out_dir: str, index: int, scene, cfg, mode: str | None = None) -> dict:
    """Write one frame's mask (P5, or PNG filtered as `mode`) and truth."""
    stem = os.path.join(out_dir, f"{index:04d}")
    mask_path = stem + (".pgm" if mode is None else ".png")
    gray = _gray(scene.mask)
    if mode is not None:
        gray = upscale_for(gray, PNG_SHAPE, cfg)
    decoded = _write_checked(mask_path, gray, mode)
    if mode is not None:
        seen = lp.crop_and_resize(decoded > cfg.mask_threshold, cfg)
        if not np.array_equal(seen, scene.mask):
            raise RuntimeError(f"{mask_path}: crop_and_resize does not give back the scene")
    lp.write_truth_curves(scene.truth_curves, stem + ".truth")
    lp.write_pgm(stem + ".ids.pgm", scene.truth_assignment)
    return {
        "mask": mask_path,
        "truth": stem + ".truth",
        "ids": stem + ".ids.pgm",
        "lanes": stem + ".lanes",
    }


def write_workload(name: str, seed: int, out_dir: str, cfg) -> list[dict]:
    """Write a workload's corpus into out_dir; return its frame manifest."""
    n = CORPUS_FRAMES[name]
    if name == "synth-stream":
        return [_frame_files(out_dir, i, s, cfg) for i, s in enumerate(_scenes(seed, n, cfg))]
    if name == "instance-clutter":
        return [_frame_files(out_dir, i, s, cfg) for i, s in enumerate(_clutter_scenes(seed, n, cfg))]
    if name == "png-720p":
        return [
            _frame_files(out_dir, i, s, cfg, PNG_MODES[i % len(PNG_MODES)])
            for i, s in enumerate(_scenes(seed, n, cfg))
        ]
    raise KeyError(name)


# ---------------------------------------------------------------------------
# probes: single stress masks for the traced run
# ---------------------------------------------------------------------------

def write_probes(seed: int, out_dir: str, cfg) -> dict:
    """Named stress masks from the ROADMAP baselines, plus one 720p PNG
    per row-filter mode of a single scene. Returns name -> path."""
    shape = (cfg.target_rows, cfg.target_cols)
    rng = np.random.default_rng([seed, 2])
    probes = {}

    def put(name, gray, mode=None):
        path = os.path.join(out_dir, f"probe-{name}" + (".pgm" if mode is None else ".png"))
        _write_checked(path, gray, mode)
        probes[name] = path

    put("all_ones", np.full(shape, 255, dtype=np.uint8))
    grid = np.zeros(shape, dtype=bool)
    for r in range(0, shape[0], 12):
        for c in range(0, shape[1], 12):
            grid[r + 4 : r + 8, c + 4 : c + 8] = True  # 30 x 40 = 1200 blobs
    put("blob_grid_1200", _gray(grid))
    put("streak", _gray(_streak(rng, np.zeros(shape, dtype=bool))))
    scene = next(_scenes(seed, 1, cfg))
    big = upscale_for(_gray(scene.mask), PNG_SHAPE, cfg)
    for mode in PNG_MODES:
        put(f"png_{mode}_720p", big, mode)
    return probes
