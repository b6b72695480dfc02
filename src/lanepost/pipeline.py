"""Frame-level orchestration: mask in, fitted lanes out.

Stages run in fixed order (instance detection, BEV transform, voting,
curve fitting + back-projection) with a monotonic-clock timing around
each. Everything downstream of the mask is deterministic, so identical
mask + config always reproduce identical lanes; only timings vary.

A frame's instances travel as one segmented record from labeling to
fitting: the labeler's pixel array and instance sizes, one lookup that
gathers every pixel's BEV point from the calibration's pixel map, one
voting pass over those points, which labels every instance with its
cluster, and one fit of every cluster, whose points one sort of the key
cluster * (rows * cols) + rank (`curves._group_order`) puts in canonical
order. No per-instance object is built on the way: FrameResult keeps the
record and the label array, and FrameResult.segments.instances() gives
the Instance list when one is wanted.

The pixel map (_pixel_map) holds, for one calibration and target grid,
every pixel's BEV point and its rank in the grid's canonical fit order,
and the inverse homography that back-projects the lanes; it is the only
per-calibration state. It is built on the calibration's first frame,
kept in a cache of at most 8 maps, and gives the points and order that
transform_pixels and fit_curves would compute, bit for bit.
It pays off on streams of many frames under few calibrations: a single
frame pays the whole build, and a stream that cycles through more
calibrations than the cache holds builds a map on every frame.

Lane files hold one line per lane: `cluster_id c0 c1 c2 y_min y_max`
followed by the image-space polyline as `x,y` pairs, all numbers printed
with 9 significant digits. Truth files are the same records without a
polyline, with the divider id in the cluster_id field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._files import overwrite
from ._scratch import borrow
from .config import PipelineConfig
from .curves import LaneCurve, _fit_grouped, _group_order, _order_ranks, project_curves
from .errors import ConfigError, FileFormatError, ProjectionError
from .homography import Homography, QuadCorrespondence, estimate_homography
from .instances import InstanceSegments, label_segments
from .voting import cluster_segments

__all__ = [
    "Lane",
    "StageTimings",
    "FrameResult",
    "crop_and_resize",
    "run_frame",
    "format_lanes",
    "parse_lanes",
    "write_lanes",
    "read_lanes",
]


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock stage durations for one frame, in milliseconds."""

    instance_detection_ms: float
    bev_ms: float
    voting_ms: float
    fitting_ms: float

    @property
    def total_ms(self) -> float:
        return self.instance_detection_ms + self.bev_ms + self.voting_ms + self.fitting_ms


@dataclass(eq=False)
class Lane:
    curve: LaneCurve
    polyline: np.ndarray  # image-space (n, 2) points


@dataclass(eq=False)
class FrameResult:
    segments: InstanceSegments
    labels: np.ndarray  # np.intp; labels[i] is instance i's cluster, dense in 0..cluster_count-1
    lanes: list[Lane]
    timings: StageTimings

    @property
    def instance_count(self) -> int:
        return len(self.segments.sizes)

    @property
    def cluster_count(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def crop_and_resize(mask, cfg: PipelineConfig) -> np.ndarray:
    """Drop the configured margins, then nearest-neighbor resize to the
    target grid. An output pixel is true iff its nearest source pixel is."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2D, got shape {mask.shape}")
    height, width = mask.shape
    top, bottom = cfg.crop_top, height - cfg.crop_bottom
    left, right = cfg.crop_left, width - cfg.crop_right
    if bottom - top < 1 or right - left < 1:
        raise ConfigError(
            f"crop margins leave no pixels: {height}x{width} minus "
            f"({cfg.crop_top},{cfg.crop_bottom},{cfg.crop_left},{cfg.crop_right})"
        )
    # gather the target grid's source pixels, then threshold only those;
    # taking whole rows first and then columns beats one np.ix_ gather, and
    # np.take beats indexing for the columns. The rows are gathered, as
    # booleans, into this thread's pooled scratch, where np.take reads them
    # contiguous (from a strided view it would first make a contiguous copy
    # of its own). Casting to bool there is the truth of astype(bool) for
    # every dtype, and the column gather copies, so the result never
    # aliases the input or the pool.
    rows = _nearest(top, bottom, cfg.target_rows)
    cols = _nearest(left, right, cfg.target_cols)
    if isinstance(cols, slice):
        return mask[rows, cols].astype(bool)
    with borrow(cfg.target_rows * width, bool) as flat:
        gathered = flat.reshape(cfg.target_rows, width)
        if isinstance(rows, slice):
            np.copyto(gathered, mask[rows], casting="unsafe")
        else:
            np.take(mask, rows, axis=0, out=gathered, mode="clip")  # "raise" would buffer out
        return np.take(gathered, cols, axis=1)


def _nearest(lo: int, hi: int, n: int):
    """Source indices lo + (i * (hi - lo)) // n of n target cells; a slice
    when the scale is whole, which is the same indices without a gather."""
    if (hi - lo) % n == 0:
        return slice(lo, hi, (hi - lo) // n)
    return lo + (np.arange(n) * (hi - lo)) // n


# pixels per band while a pixel map is built: a band is the whole rows
# that fit in this many pixels (one row when target_cols is larger), and
# its temporaries, the pixel centres, projective scale and far flags,
# hold 25 bytes per pixel of it
_BAND_PIXELS = 4096


@dataclass(frozen=True, eq=False)
class _PixelMap:
    """One calibration's BEV point and fit rank of every target pixel, in
    row-major order: pixel (row, col) is entry row * cols + col.

    points[i] is the complex x + iy of the point that transform_pixels
    maps pixel i to, bit for bit. ranks[i] is its rank in canonical fit
    order from `curves._order_ranks`: tied points share a rank, so the
    stable sort of `curves._group_order` over rows * cols gives each
    cluster the permutation its stable complex sort gives it, ties
    included, and every sum of the fit sees the same sequence. (The
    default and skewed calibrations of the tests have no ties.)

    Both arrays are read-only, 20 bytes per pixel together. far holds the
    indices of the pixels at projective infinity, whose points are NaN and
    which transform_pixels refuses, or is None when there are none. h_inv
    maps BEV points back into the image; Homography is immutable, so
    frames and threads share it safely.
    """

    points: np.ndarray  # complex128
    ranks: np.ndarray  # int32
    far: np.ndarray | None
    h_inv: Homography


@lru_cache(maxsize=8)
def _pixel_map(calibration: QuadCorrespondence, rows: int, cols: int) -> _PixelMap:
    """The pixel map of the calibration on a rows x cols target grid.

    The calibration's homography is solved here, once per map rather than
    once per frame. Each band of pixel centres is mapped straight into the
    points array the map keeps, and `curves._order_ranks` ranks the
    points; nothing comes from `_scratch`. The build peaks at the map, the
    rank sort's permutation (8 bytes per pixel, freed before the map is
    returned) and the band temporaries.
    """
    h = estimate_homography(calibration)
    points = np.empty(rows * cols, np.complex128)
    xy = points.view(np.float64).reshape(-1, 2)
    band_rows = max(1, _BAND_PIXELS // cols)
    centres = np.empty((band_rows, cols, 2))
    centres[:, :, 0] = np.arange(cols) + 0.5
    w = np.empty(band_rows * cols)
    far = []
    for top in range(0, rows, band_rows):
        k = min(band_rows, rows - top)
        start, stop = top * cols, (top + k) * cols
        centres[:k, :, 1] = (np.arange(top, top + k) + 0.5)[:, None]
        band_far = h._map_into(centres[:k].reshape(-1, 2), xy[start:stop], w[: stop - start])
        if band_far is not None:
            far.append(start + np.flatnonzero(band_far))
    ranks = _order_ranks(points)
    points.setflags(write=False)
    ranks.setflags(write=False)
    return _PixelMap(points, ranks, np.concatenate(far) if far else None, h.inverse())


def run_frame(mask, cfg: PipelineConfig) -> FrameResult:
    """Run the post-segmentation pipeline on one mask at target size.

    A frame with no surviving instances yields an empty lane list, not an
    error.
    """
    mask = np.asarray(mask)
    if mask.shape != (cfg.target_rows, cfg.target_cols):
        raise ValueError(
            f"mask shape {mask.shape} != configured target "
            f"({cfg.target_rows}, {cfg.target_cols}); crop_and_resize first"
        )

    t0 = time.perf_counter()
    segments = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
    t1 = time.perf_counter()

    # the BEV points are gathered from the pixel map into this thread's
    # pooled scratch (see `_scratch`), held through voting and fitting;
    # nothing the result keeps refers to it
    grid = _pixel_map(cfg.calibration, cfg.target_rows, cfg.target_cols)
    n = len(segments.pixels)
    flat = np.multiply(segments.pixels[:, 0], cfg.target_cols, dtype=np.intp)
    flat += segments.pixels[:, 1]
    if grid.far is not None and np.isin(flat, grid.far).any():
        raise ProjectionError("some points map to projective infinity")
    with borrow(2 * n, np.float64) as bev:
        np.take(grid.points, flat, out=bev.view(np.complex128), mode="clip")  # "raise" would buffer out
        points = bev.reshape(n, 2)
        ranks = grid.ranks.take(flat)  # half the bytes of flat, held through voting
        del flat
        t2 = time.perf_counter()

        labels, count = cluster_segments(points, segments.sizes, cfg.eta)
        t3 = time.perf_counter()

        lanes = []
        if count:
            # cluster by cluster, each in canonical order
            key = np.repeat(labels, segments.sizes)
            sizes = np.bincount(key, minlength=count)
            curves = _fit_grouped(points, _group_order(key, ranks, len(grid.ranks)), sizes)
            polylines = project_curves(grid.h_inv, curves, cfg.sample_count)
            lanes = [Lane(curve, polyline) for curve, polyline in zip(curves, polylines)]
        t4 = time.perf_counter()

    timings = StageTimings(
        instance_detection_ms=(t1 - t0) * 1e3,
        bev_ms=(t2 - t1) * 1e3,
        voting_ms=(t3 - t2) * 1e3,
        fitting_ms=(t4 - t3) * 1e3,
    )
    return FrameResult(segments, labels, lanes, timings)


# ---------------------------------------------------------------------------
# lane text files
# ---------------------------------------------------------------------------

def format_lanes(lanes) -> str:
    # "%.9g" % float is the same text as f"{float:.9g}", and one format
    # call per record beats one per number
    lines = []
    for lane in lanes:
        c = lane.curve
        xy = lane.polyline.ravel().tolist()
        record = " ".join(["%s %.9g %.9g %.9g %.9g %.9g"] + ["%.9g,%.9g"] * (len(xy) // 2))
        lines.append(record % (c.cluster_id, c.c0, c.c1, c.c2, c.y_min, c.y_max, *xy))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_lanes(text: str, source: str = "<string>") -> list[Lane]:
    """Inverse of format_lanes; every record needs a polyline of at least
    2 points."""
    return _parse_records(text, source, polyline=True)


def _parse_records(text: str, source, polyline: bool) -> list[Lane]:
    """Lane records, one per line; blank lines and # comments are skipped.
    With polyline False the records must have no points at all, as in a
    truth file. Every number must be finite, and y_min at most y_max."""
    lanes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if (len(tokens) < 8) if polyline else (len(tokens) != 6):
            wanted = "at least 8" if polyline else "6"
            raise FileFormatError(
                source, f"line {lineno}: expected {wanted} fields, got {len(tokens)}"
            )
        try:
            cluster_id = int(tokens[0])
            c0, c1, c2, y_min, y_max = (float(t) for t in tokens[1:6])
            points = []
            for tok in tokens[6:]:
                xs, ys = tok.split(",")
                points.append((float(xs), float(ys)))
        except ValueError as exc:
            raise FileFormatError(source, f"line {lineno}: {exc}") from exc
        xy = np.array(points, dtype=np.float64).reshape(-1, 2)
        if not (np.isfinite([c0, c1, c2, y_min, y_max]).all() and np.isfinite(xy).all()):
            raise FileFormatError(source, f"line {lineno}: numbers must be finite")
        if y_min > y_max:
            raise FileFormatError(source, f"line {lineno}: y_min {y_min!r} exceeds y_max {y_max!r}")
        lanes.append(Lane(LaneCurve(c0, c1, c2, y_min, y_max, cluster_id), xy))
    return lanes


def write_lanes(lanes, path) -> None:
    """Write format_lanes(lanes) to path, over the file's old bytes rather
    than after truncating it; like open(path, "w"), not atomic."""
    overwrite(path, format_lanes(lanes).encode("utf-8"))


def read_lanes(path) -> list[Lane]:
    return _read_records(path, polyline=True)


def _read_records(path, polyline: bool) -> list[Lane]:
    """The records of a lane file, or with polyline False of a truth file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        kind = "lane" if polyline else "truth"
        raise FileFormatError(path, f"cannot read {kind} file: {exc}") from exc
    return _parse_records(text, str(path), polyline)
