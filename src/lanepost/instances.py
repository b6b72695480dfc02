"""Connected lane-marking instances in a binary mask.

Labeling is run-based, after He, Chao & Suzuki, "A run-based two-scan
labeling algorithm" (IEEE TIP 2008): each row is split into runs of true
pixels, runs in adjacent rows that touch are joined, and the components
of the run graph are the instances. Everything is array code over runs,
never a per-pixel loop: real masks contain components of ~10^4 pixels.
Component ids follow the row-major scan order of each component's first
pixel, so a given mask always labels identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import component_labels

__all__ = ["Instance", "label_instances"]


@dataclass(eq=False)
class Instance:
    """One connected blob of lane-marking pixels.

    pixels is an (n, 2) int array of (row, col) in row-major order, so
    pixels[0] is the component's first pixel in scan order; bbox is
    (min_row, min_col, max_row, max_col), tight.
    """

    id: int
    pixels: np.ndarray
    size: int
    bbox: tuple[int, int, int, int]


def label_instances(mask, connectivity: int = 8, min_size: int = 0) -> list[Instance]:
    """Split a boolean mask into connected components.

    Components smaller than min_size pixels are dropped (segmentation
    speckle); survivors get dense ids 0..n-1 in scan order. 8-connectivity
    is the default because thin diagonal markings fragment under 4.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.shape[0] < 1 or mask.shape[1] < 1:
        raise ValueError(f"mask must be a non-empty 2D grid, got shape {mask.shape}")
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    if min_size < 0:
        raise ValueError(f"min_size must be non-negative, got {min_size}")

    pitch = mask.shape[1] + 1
    starts, stops = _runs(mask, pitch)
    if len(starts) == 0:
        return []
    upper, lower = _touching_runs(starts, stops, pitch, connectivity)
    run_label, count = component_labels(len(starts), upper, lower)

    # Components are numbered by their smallest run index, which is the
    # scan order of each component's first pixel.
    lengths = stops - starts
    sizes = np.bincount(run_label, weights=lengths, minlength=count).astype(np.int64)
    kept = sizes >= min_size
    order = np.argsort(run_label, kind="stable")  # by component, then row-major
    order = order[kept[run_label[order]]]
    if len(order) == 0:
        return []
    run_id = (np.cumsum(kept) - 1)[run_label[order]]
    run_start, run_len = starts[order], lengths[order]

    # One pixel array for all kept components; each instance gets a slice.
    pixel_start = np.cumsum(run_len) - run_len
    flat_pos = np.arange(int(run_len.sum())) + np.repeat(run_start - pixel_start, run_len)
    pixels = np.empty((len(flat_pos), 2), dtype=np.int32)
    pixels[:, 0] = flat_pos // pitch
    pixels[:, 1] = flat_pos % pitch

    kept_sizes = sizes[kept].tolist()
    run_counts = np.bincount(run_id)
    first_run = np.cumsum(run_counts) - run_counts
    run_row, run_col = np.divmod(run_start, pitch)
    bboxes = np.stack(
        [
            run_row[first_run],
            np.minimum.reduceat(run_col, first_run),
            run_row[first_run + run_counts - 1],
            np.maximum.reduceat(run_col + run_len - 1, first_run),
        ],
        axis=1,
    ).tolist()
    instances = []
    offset = 0
    for i, (size, bbox) in enumerate(zip(kept_sizes, bboxes)):
        instances.append(Instance(i, pixels[offset : offset + size], size, tuple(bbox)))
        offset += size
    return instances


def _runs(mask: np.ndarray, pitch: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of the runs of true pixels, as positions in the mask
    laid out row after row with `pitch` cells per row; stops are one past
    each run's last cell, and runs are in row-major order.

    A false separator column at the end of every row keeps runs from
    wrapping into the next row, and a leading false cell makes a value
    change between cells p and p + 1 of the padded grid a run boundary at
    position p. Boundaries alternate between starts and stops.
    """
    height, width = mask.shape
    flat = np.zeros(height * pitch + 1, dtype=bool)
    flat[1:].reshape(height, pitch)[:, :width] = mask
    boundaries = np.flatnonzero(flat[1:] != flat[:-1])
    return boundaries[0::2], boundaries[1::2]


def _touching_runs(starts, stops, pitch: int, connectivity: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (upper, lower) of runs in adjacent rows that touch.

    Run b in the next row touches run a when their column spans overlap,
    widened by one pixel for 8-connectivity. A row's runs are sorted and
    disjoint, so the runs touching a form one index range, found by binary
    search on the positions shifted down one row. The separator column
    keeps every shifted span inside the next row.
    """
    reach = 1 if connectivity == 8 else 0
    first = np.searchsorted(stops, starts + (pitch + 1 - reach))
    count = np.searchsorted(starts, stops + (pitch + reach)) - first
    upper = np.repeat(np.arange(len(starts)), count)
    lower = np.arange(len(upper)) + np.repeat(first - (np.cumsum(count) - count), count)
    return upper, lower
