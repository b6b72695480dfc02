"""Per-thread scratch buffers for the frame path.

The frame path's image-, point- and block-sized temporaries sit near
glibc's mmap and trim thresholds, so a freed one goes back to the
operating system and the next frame faults in fresh zero pages for it. A
stage that needs such a buffer on every frame borrows it here instead:
each thread keeps at most one buffer per kind, grown to the largest size
asked for. A borrow takes the buffer out of the pool until it is given
back, so a nested or concurrent borrow of the same kind gets a buffer of
its own and never aliases the first; but that buffer is then allocated
anew on every call, so buffers in use at once take distinct kinds.

Kinds are named by size class, not by stage: stages whose buffers are
never in use at once share a kind, and a class has as many kinds as it
has buffers in use at once. The frame path's kinds, for H x W images,
a point being one of the frame's instance pixels:

- `file`: a mask file's bytes (`maskio`).
- `image.0`: the PNG decode buffer, (H + 1) * (W + 1) bytes; then
  crop_and_resize's gathered rows; then the labeler's padded grid,
  H * (W + 1) + 1 bytes.
- `image.1`: the labeler's run boundary flags, H * (W + 1) bytes.
- `points.0`, 40 bytes per point: one stage's scratch at a time, the
  labeler's pixel steps (4), the BEV transform's pixel centres and
  projective scales (24), voting's extremes key (16), and fitting's
  gathered points (16) beside its sort key and then its Vandermonde
  columns (24).
- `points.1`, 16 bytes per point: the BEV points, which run_frame holds
  through voting and fitting.
- `block`: two blocks of vote scores, 256 KiB up to 16,385 instances.

So a thread keeps 56 bytes per point of the largest frame it has run
(0.7 MB at 12,000 points, 9.7 MB after an all-ones 360x480 frame) and
about 0.78 MB besides for 360x480 P5 frames, or 1.5 MB once it has read
a 720x1280 PNG.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

_pools = threading.local()


@contextmanager
def borrow(kind: str, size: int, dtype=np.uint8):
    """A 1-d array of `size` elements of `dtype`, its contents undefined.

    It is this thread's buffer of that kind, or a new one, and goes back
    to the pool of the thread that leaves the block.
    """
    dtype = np.dtype(dtype)
    nbytes = size * dtype.itemsize
    buf = vars(_pools).pop(kind, None)
    if buf is None or len(buf) < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
    try:
        yield buf[:nbytes].view(dtype)
    finally:
        pool = vars(_pools)
        if len(pool.get(kind, ())) < len(buf):
            pool[kind] = buf
