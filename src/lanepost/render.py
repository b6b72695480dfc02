"""RGB overlay rendering: gray mask background, fitted lanes on top as
3-px-wide polylines in distinct fixed colors (cycling palette)."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

__all__ = ["render_overlay", "PALETTE"]

PALETTE = (
    (230, 60, 60),
    (60, 200, 90),
    (70, 120, 235),
    (235, 200, 60),
    (200, 80, 220),
    (60, 205, 215),
    (245, 140, 40),
)
_MASK_GRAY = 96


def _stamp_segment(img, p0, p1, color):
    """Stamp 3x3 squares at the samples of np.linspace(0, 1, steps) along
    p0-p1, about every 0.5 px; only the samples whose square can reach the
    image are computed, so the work is bounded by the image, not the
    segment."""
    height, width = img.shape[:2]
    length = float(np.hypot(p1[0] - p0[0], p1[1] - p0[1]))
    steps = max(2, int(np.ceil(length / 0.5)) + 1)
    step = 1 / (steps - 1)  # linspace's samples are i * step, and the last is 1.0
    first, stop = 0, steps
    for axis, size in ((0, width), (1, height)):
        lo, hi = _reaching(float(p0[axis]), float(p1[axis] - p0[axis]), size, step, steps)
        first, stop = max(first, lo), min(stop, hi)
    if first >= stop:
        return
    ts = np.arange(first, stop) * step
    if stop == steps:
        ts[-1] = 1.0
    cs = np.floor(p0[0] + ts * (p1[0] - p0[0])).astype(np.int64)
    rs = np.floor(p0[1] + ts * (p1[1] - p0[1])).astype(np.int64)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            r = rs + dr
            c = cs + dc
            keep = (r >= 0) & (r < height) & (c >= 0) & (c < width)
            img[r[keep], c[keep]] = color


def _reaching(start, delta, size: int, step: float, steps: int) -> tuple[int, int]:
    """The samples lo..hi-1 of 0..steps-1 whose pixel floor(start + t * delta)
    lies in -1..size, t being i * step and 1.0 for the last: a range, found
    by bisection, since the pixel moves one way along the segment."""
    sign = 1 if delta >= 0 else -1

    def key(i):
        t = 1.0 if i == steps - 1 else i * step
        return sign * math.floor(start + t * delta)

    lo, hi = (-1, size) if sign > 0 else (-size, 1)
    return bisect_left(range(steps), lo, key=key), bisect_right(range(steps), hi, key=key)


def render_overlay(mask, lanes) -> np.ndarray:
    """(H, W, 3) uint8 image: mask pixels gray, one color per lane."""
    mask = np.asarray(mask) != 0
    img = np.zeros((*mask.shape, 3), dtype=np.uint8)
    img[mask] = _MASK_GRAY
    for i, lane in enumerate(lanes):
        color = np.array(PALETTE[i % len(PALETTE)], dtype=np.uint8)
        poly = np.asarray(lane.polyline)
        for j in range(len(poly) - 1):
            _stamp_segment(img, poly[j], poly[j + 1], color)
    return img
