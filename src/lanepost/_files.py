"""The one writer for every file lanepost writes.

`open(path, "w")` truncates an existing file to zero length, which frees
its blocks, and the write that follows allocates them again. A lane file
that is rewritten every frame pays for both on every frame. `overwrite`
writes the new bytes over the old ones instead and cuts off only a tail
the new bytes do not cover, so a file rewritten with text of about the
same length keeps its blocks.
"""

from __future__ import annotations

import os
import stat


def overwrite(path, data: bytes) -> None:
    """Make the file at path hold exactly data, changing it in place.

    The result is what `open(path, "w")` and one write would give: the
    same bytes, the same inode, the mode 0o666 less the umask for a new
    file, and the same OSError for a missing directory or a full device.
    A regular file longer than data is cut to its length; nothing else is
    ever cut, so FIFOs and devices such as /dev/null work as targets.

    The write is not atomic, as `open(path, "w")` is not: a reader that
    opens the file during the write, or after a failed one, may see part
    of the old bytes and part of the new.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            os.ftruncate(fd, len(data))
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)
