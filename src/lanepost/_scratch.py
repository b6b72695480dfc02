"""Per-thread scratch buffers for the frame path.

The frame path's image-, point- and block-sized temporaries sit near
glibc's mmap and trim thresholds, so a freed one goes back to the
operating system and the next frame faults in fresh zero pages for it. A
stage that needs such a buffer on every frame borrows it here instead.

The rule: a buffer is borrowed by the stage that uses it, and only when
it is image-sized, a vote block, or 16 bytes or more per point; smaller
per-point, per-run and per-pair temporaries stay on the heap. By stage:

- decode (`maskio._read_samples`): the file's bytes, and inside them a
  PNG's decode buffer (`maskio._decode_png_gray`);
- crop (`pipeline.crop_and_resize`): the gathered rows;
- labeling (`instances._runs`): the padded grid, and inside it the run
  boundary flags, which on a speckle-dense mask first hold each cell's
  neighbour count;
- BEV (`pipeline.run_frame`): the BEV points (16 bytes per point),
  gathered from the calibration's pixel map and held through voting and
  fitting (the map is built from temporaries of its own);
- voting: the complex sort key of `voting._extreme_arrays` (16 bytes per
  point) and the vote block scores of `voting.cluster_segments`;
- fitting (`curves._fit_grouped`): the gathered points and Vandermonde
  columns (40 bytes per point).

Each thread keeps one buffer per nesting depth: a borrow opened inside k
other open borrows takes slot k, which grows to the largest size asked
of it, so buffers in use at once never alias. The frame path nests two
deep, as listed above. Its two buffers hold about 0.35 MB after a stream
of 360x480 P5 lane frames, 0.6-0.7 MB after clutter frames, 1.4 MB after
a 720x1280 PNG, and 56 bytes per point of the largest frame (9.7 MB after
an all-ones 360x480 frame).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

_pools = threading.local()


@contextmanager
def borrow(size: int, dtype=np.uint8):
    """A 1-d array of `size` elements of `dtype`, its contents undefined.

    It is this thread's buffer at the current nesting depth, or a new one,
    and goes back to that slot when the block is left.
    """
    dtype = np.dtype(dtype)
    nbytes = size * dtype.itemsize
    slots = vars(_pools).setdefault("slots", [])
    # a borrowed slot holds None: inside k open borrows this finds slot k
    depth = next((k for k, buf in enumerate(slots) if buf is not None), len(slots))
    if depth == len(slots):
        slots.append(None)
    buf, slots[depth] = slots[depth], None
    if buf is None or len(buf) < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
    try:
        yield buf[:nbytes].view(dtype)
    finally:
        slots[depth] = buf
