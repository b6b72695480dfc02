"""Connected lane-marking instances in a binary mask.

Labeling is run-based, after He, Chao & Suzuki, "A run-based two-scan
labeling algorithm" (IEEE TIP 2008): each row is split into runs of true
pixels, runs in adjacent rows that touch are joined, and the components
of the run graph are the instances. Everything is array code over runs,
never a per-pixel loop: real masks contain components of ~10^4 pixels.
Component ids follow the row-major scan order of each component's first
pixel, so a given mask always labels identically.

On a speckle-dense mask most runs are single pixels that form components
of their own, and min_size drops them after they have been labelled.
When min_size > 1 and a mask has many runs, the labeler first clears
every pixel with no neighbour under the frame's connectivity, inside the
scratch it already uses for the runs, and cuts runs from what is left.
Such a pixel is a one-pixel component, so the result does not change.

The labeler's result is one segmented record, InstanceSegments: all kept
pixels in one array, grouped by instance, plus each instance's size.
The frame path carries that record through BEV, voting and fitting
without building a Python object per instance; label_instances gives the
same instances as Instance objects, each a view into the record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._scratch import borrow
from .graph import component_labels

__all__ = ["Instance", "InstanceSegments", "label_instances", "label_segments"]


@dataclass(eq=False)
class Instance:
    """One connected blob of lane-marking pixels.

    pixels is an (n, 2) int array of (row, col) in row-major order, so
    pixels[0] is the component's first pixel in scan order.
    """

    id: int
    pixels: np.ndarray


@dataclass(frozen=True, eq=False)
class InstanceSegments:
    """A frame's instances as one segmented array, in the segmented-vector
    layout of Blelloch, "Vector Models for Data-Parallel Computing" (1990).

    pixels is one (n, 2) int32 array of (row, col), grouped by instance in
    id order and row-major within an instance; sizes[i] is the pixel count
    of instance i. Ids are 0..k-1 and every size is positive.
    """

    pixels: np.ndarray
    sizes: np.ndarray

    def instances(self) -> list[Instance]:
        """One Instance(id, pixels) per segment, pixels a view into the record."""
        stops = np.cumsum(self.sizes).tolist()
        return [
            Instance(i, self.pixels[start:stop])
            for i, (start, stop) in enumerate(zip([0, *stops], stops))
        ]


def label_instances(mask, connectivity: int = 8, min_size: int = 0) -> list[Instance]:
    """Split a boolean mask into connected components.

    Components smaller than min_size pixels are dropped (segmentation
    speckle); survivors get dense ids 0..n-1 in scan order. 8-connectivity
    is the default because thin diagonal markings fragment under 4. The
    per-instance view of label_segments.
    """
    return label_segments(mask, connectivity, min_size).instances()


def label_segments(mask, connectivity: int = 8, min_size: int = 0) -> InstanceSegments:
    """label_instances as one segmented record, without per-instance
    objects."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.shape[0] < 1 or mask.shape[1] < 1:
        raise ValueError(f"mask must be a non-empty 2D grid, got shape {mask.shape}")
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    if min_size < 0:
        raise ValueError(f"min_size must be non-negative, got {min_size}")

    pitch = mask.shape[1] + 1
    # a pixel with no neighbour is a one-pixel component, dropped anyway
    # when min_size > 1, so _runs may clear it first
    starts, stops = _runs(mask, pitch, connectivity if min_size > 1 else None)
    upper, lower = _touching_runs(starts, stops, pitch, connectivity)
    run_label, count = component_labels(len(starts), upper, lower)

    # Components are numbered by their smallest run index, which is the
    # scan order of each component's first pixel.
    lengths = stops - starts
    sizes = np.bincount(run_label, weights=lengths, minlength=count).astype(np.int64)
    kept = sizes >= min_size
    # the kept components' runs, by component, then row-major: only they
    # are sorted, which on a speckle frame is a fraction of all runs
    keep = np.flatnonzero(kept[run_label])
    order = keep[np.argsort(run_label[keep], kind="stable")]
    run_start, run_len = starts[order], lengths[order]

    # one pixel array for all kept components, laid out run after run, as
    # _touching_runs lays out its pairs: each run repeats its row, and its
    # first column less its first pixel's index, to which every pixel's
    # index is added back (int32 temporaries: half the memory of int64)
    run_row, run_col = np.divmod(run_start, pitch)
    n = int(run_len.sum())
    pixels = np.empty((n, 2), dtype=np.int32)
    pixels[:, 0] = np.repeat(run_row.astype(np.int32), run_len)
    first = np.cumsum(run_len) - run_len  # each run's first pixel
    pixels[:, 1] = np.repeat((run_col - first).astype(np.int32), run_len)
    pixels[:, 1] += np.arange(n, dtype=np.int32)
    return InstanceSegments(pixels, sizes[kept])


def _runs(mask: np.ndarray, pitch: int, isolated: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of the runs of true pixels, as positions in the mask
    laid out row after row with `pitch` cells per row; stops are one past
    each run's last cell, and runs are in row-major order.

    A false separator column at the end of every row keeps runs from
    wrapping into the next row, and a leading false cell makes a value
    change between cells p and p + 1 of the padded grid a run boundary at
    position p. Boundaries alternate between starts and stops.

    With `isolated` set to a connectivity (4 or 8), a speckle-dense mask,
    one with more than _CLEAR_BOUNDARIES run boundaries, has every pixel
    with no neighbour under that connectivity cleared from the padded grid
    first, the flags buffer serving as the neighbour scratch (see
    `_clear_isolated`); the runs are those of the cleared grid. With
    `isolated` None every true pixel is kept.

    The padded grid and the boundary flags are this thread's pooled
    scratch (see `_scratch`), so a steady stream of frames reuses the
    same pages; the mask is read, never written.
    """
    height, width = mask.shape
    size = height * pitch
    with borrow(size + 1, bool) as flat, borrow(size, bool) as flags:
        grid = flat[1:].reshape(height, pitch)
        flat[0] = False
        grid[:, width] = False
        grid[:, :width] = mask
        np.not_equal(flat[1:], flat[:-1], out=flags)
        if isolated is not None and np.count_nonzero(flags) > _CLEAR_BOUNDARIES:
            _clear_isolated(flat, flags, pitch, isolated)
            np.not_equal(flat[1:], flat[:-1], out=flags)
        boundaries = np.flatnonzero(flags)
    return boundaries[0::2], boundaries[1::2]


# Run boundaries (twice the runs) above which _runs clears isolated
# pixels. Clearing and recounting the flags take 75 us under
# 8-connectivity (48 under 4) at 360x480, and save about 0.12 us per
# isolated run. On 360x480 SceneParams(noise_rate=r) scenes (label_segments
# thread CPU time, min of 15-30, off -> on): r = 0.001, about 1,000
# boundaries, 0.27-0.33 -> 0.33-0.41 ms; 0.003 (1,700) 0.31 -> 0.32-0.34;
# 0.005 (2,400) 0.48-0.50 -> 0.41-0.46; 0.02 (7,300) 0.90-0.93 ->
# 0.50-0.59; 0.05 (17,000) 1.74-1.85 -> 0.91-0.97; 0.12 (36,800)
# 2.65-2.82 -> 1.87-1.95. Where every run is isolated the break-even is
# near 2,000; blob-grid frames with no isolated pixel, 2,100-4,000, lose
# 0.04-0.10 ms. At 8,192 a frame gains once about a seventh of its runs
# are isolated; the densest frame without speckle in perfbench's seed-11
# corpora has 4,888.
_CLEAR_BOUNDARIES = 2 * 4096


def _clear_isolated(flat: np.ndarray, neighbours: np.ndarray, pitch: int, connectivity: int) -> None:
    """Set false every cell of the padded grid `flat` (as laid out by
    `_runs`) with no true neighbour under `connectivity`, using
    `neighbours` (one cell per grid cell) as scratch.

    Each neighbour direction is one OR of the grid, shifted by its offset
    in the row-after-row layout, over the cells where the shift stays in
    bounds. A row's first and last cells see a false cell across the row
    end, the separator or the leading cell, so no row wraps into another.
    """
    cells = flat[1:]
    size = len(cells)
    np.copyto(neighbours, flat[:-1])  # the cell before, false before the first
    np.logical_or(neighbours[:-1], cells[1:], out=neighbours[:-1])  # the cell after
    for step in (pitch - 1, pitch, pitch + 1) if connectivity == 8 else (pitch,):
        span = max(size - step, 0)
        np.logical_or(neighbours[step:], cells[:span], out=neighbours[step:])  # the row above
        np.logical_or(neighbours[:span], cells[step:], out=neighbours[:span])  # the row below
    np.logical_and(cells, neighbours, out=cells)


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
