"""Connected lane-marking instances in a binary mask.

Labeling is run-based, after He, Chao & Suzuki, "A run-based two-scan
labeling algorithm" (IEEE TIP 2008): each row is split into runs of true
pixels, runs in adjacent rows that touch are joined, and the components
of the run graph are the instances. Everything is array code over runs,
never a per-pixel loop: real masks contain components of ~10^4 pixels.
Component ids follow the row-major scan order of each component's first
pixel, so a given mask always labels identically.

On a speckle-dense mask most runs belong to one- and two-pixel
components, and min_size drops them after they have been labelled. When
a mask has many runs, the labeler first counts each pixel's neighbours
under the frame's connectivity, inside the scratch it already uses for
the runs, and cuts runs from what is left after clearing
- with min_size > 1, every pixel with no neighbour (a one-pixel
  component);
- with min_size > 2, also every pixel with exactly one neighbour that in
  turn has only it (a two-pixel component).
min_size drops every cleared component anyway, so the result does not
change.

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
    # one- and two-pixel components that min_size drops anyway may be
    # cleared first on a speckle-dense mask
    starts, stops = _runs(mask, pitch, connectivity, min_size)
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


def _runs(mask: np.ndarray, pitch: int, connectivity: int, min_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of the runs of true pixels, as positions in the mask
    laid out row after row with `pitch` cells per row; stops are one past
    each run's last cell, and runs are in row-major order.

    A false separator column at the end of every row keeps runs from
    wrapping into the next row, and a leading false cell makes a value
    change between cells p and p + 1 of the padded grid a run boundary at
    position p. Boundaries alternate between starts and stops.

    A speckle-dense mask, one with more than _CLEAR_BOUNDARIES run
    boundaries, first has the components that min_size drops anyway
    cleared from the padded grid: one-pixel components when min_size > 1,
    and two-pixel ones too when min_size > 2, under `connectivity`, the
    flags buffer serving as the neighbour-count scratch (see
    `_clear_specks`). The runs are then those of the cleared grid.

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
        if min_size > 1 and np.count_nonzero(flags) > _CLEAR_BOUNDARIES:
            _clear_specks(flat, flags.view(np.uint8), pitch, connectivity, min_size > 2)
            np.not_equal(flat[1:], flat[:-1], out=flags)
        boundaries = np.flatnonzero(flags)
    return boundaries[0::2], boundaries[1::2]


# Run boundaries (twice the runs) above which _runs clears one- and
# two-pixel components. Counting neighbours twice and recounting the flags
# take about 0.14 ms under 8-connectivity at 360x480, and save the
# touching-run, union and sort work of every cleared run. On 360x480
# SceneParams(noise_rate=r) scenes, seeds 0-2 (label_segments thread CPU
# time at min_size 15, min of 31 interleaved, off -> on): r = 0.001, about
# 1,000 boundaries, 0.20-0.31 -> 0.31-0.49 ms; 0.003 (1,700) 0.22-0.23 ->
# 0.31-0.32; 0.005 (2,400) loses 0.05-0.06; 0.008 (3,400) breaks even;
# 0.011 (4,400) gains 0.03-0.06; 0.015 (5,700) 0.43-0.45 -> 0.33-0.34;
# 0.02 (7,300) gains 0.18-0.23; 0.05 (16,900) 1.05-1.09 -> 0.45-0.48;
# 0.12 (36,900) 1.86-1.91 -> 1.17-1.20. Blob-grid frames of perfbench's
# seed-11 clutter corpus with no speckle, 4,500-4,900 boundaries, lose
# 0.13-0.17 ms, and its speckle frames, 26,000-27,700, gain 0.58-0.99.
# At 8,192 a frame gains once about two fifths of its runs belong to one-
# or two-pixel components (about 0.09 us saved per such run); the densest
# frame without speckle in perfbench's seed-11 corpora has 4,888.
_CLEAR_BOUNDARIES = 2 * 4096

# _clear_specks' code for a cell: _CELL if it is true, plus twice its
# count of true neighbours; a true cell with one neighbour reads _CELL + 2
_CELL = 128


def _clear_specks(flat: np.ndarray, code: np.ndarray, pitch: int, connectivity: int, pairs: bool) -> None:
    """Set false every cell of the padded grid `flat` (as laid out by
    `_runs`) that has no true neighbour under `connectivity` and, with
    `pairs`, every cell whose only true neighbour has no other: the one-
    and two-pixel components. `code` (a uint8 per grid cell) is scratch.

    code first holds _CELL for a true cell plus twice its neighbour count:
    the grid is doubled in place, and each neighbour direction adds it,
    shifted by its offset in the row-after-row layout, over the cells
    where the shift stays in bounds. For pairs the grid then holds the
    true cells with exactly one neighbour, and each direction subtracts
    it: a cell of a pair drops to _CELL + 1, and every other true cell
    with a neighbour still reads _CELL + 2 or more (c >= 2 neighbours
    take off at most c). A row's first and last cells see a false cell
    across the row end, the separator or the leading cell, so no row
    wraps into another.
    """
    cells = flat[1:]
    grid = flat.view(np.uint8)[1:]
    size = len(cells)
    steps = (1, pitch - 1, pitch, pitch + 1) if connectivity == 8 else (1, pitch)

    def each_neighbour(ufunc):
        for step in steps:
            span = max(size - step, 0)
            ufunc(code[step:], grid[:span], out=code[step:])  # the cell step before
            ufunc(code[:span], grid[step:], out=code[:span])  # the cell step after

    np.multiply(grid, _CELL, out=code)
    np.add(grid, grid, out=grid)
    each_neighbour(np.add)
    if pairs:
        np.equal(code, _CELL + 2, out=cells)
        each_neighbour(np.subtract)
    np.greater_equal(code, _CELL + 2, out=cells)


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
