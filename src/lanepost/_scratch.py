"""Per-thread scratch buffers for the frame path.

The frame path's image- and block-sized temporaries sit near glibc's
mmap and trim thresholds, so a freed one goes back to the operating
system and the next frame faults in fresh zero pages for it. A stage
that needs such a buffer on every frame borrows it here instead: each
thread keeps at most one buffer per kind, grown to the largest size
asked for. A borrow takes the buffer out of the pool until it is given
back, so a nested or concurrent borrow of the same kind gets a buffer of
its own and never aliases the first.
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
