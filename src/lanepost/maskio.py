"""Mask and overlay file I/O: portable graymaps (P2/P5), portable pixmaps
(P6), and 8-bit grayscale PNG reading. No image library dependency.

Reading the mask is the first step of every frame, and for a large PNG it
is the costliest one. Almost every residual of a lane mask's filtered rows
is zero, so before the filters are undone `_scan` finds the rows with a
nonzero residual and, one bounded chunk of those rows at a time, the
nonzero residuals themselves; the row decoders then pay per residual, not
per pixel (see `_unfilter`). A Sub run is filled with the running sums of
its residuals, an Up run adds only its rows with a residual, and Average
and Paeth runs are walked from their residuals. A run with more than 1/16
of its residuals nonzero, as in noise, keeps the per-pixel paths: a
running sum along the rows, and a walker that finds its own events and
hands off to an anti-diagonal wavefront.

Reading a frame makes no image-sized temporary that the caller does not
keep, and, once this thread has read a file as large, none that is
allocated anew. The file is read into this thread's pooled scratch (see
`_scratch`). P5 samples are a read-only view of it. A PNG's IDAT
payloads are views of it too, and `_inflate` inflates them at most
_CHUNK bytes at a time straight into a pooled decode buffer, whose rows
already have the stream's layout. The residuals `_scan` keeps take
at most 9/16 of a byte per pixel (twice that while they are joined),
and the walkers' Python lists of them are made one chunk of rows at a
time (see `_Residuals`). `load_mask` thresholds the samples where they
lie, and only `read_gray` copies them out.
"""

from __future__ import annotations

import operator
import os
import re
import stat
import zlib
from bisect import bisect_left, bisect_right

import numpy as np

from ._files import overwrite
from ._scratch import borrow
from .errors import ImageIOError

__all__ = ["read_gray", "load_mask", "write_pgm", "write_ppm"]

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_UNSUPPORTED = "unsupported format (want P2/P5 graymap or grayscale PNG)"
_MAX_PIXELS = 100_000_000
# The most bytes a file may hold: 5 per pixel of the largest image the
# decoders accept, and 1 MiB for headers, comments and ancillary chunks.
# An 8-bit P2 sample takes at most 3 digits and one separator, 4 bytes (5
# with a CRLF line end); a P5 sample takes 1 byte; and a PNG's zlib stream
# takes at most 2 bytes per pixel (a filter byte for each row of at least
# one sample), 5 bytes per 64 KiB stored block and 6 of framing, in chunks
# whose 12 bytes of overhead stay under 3 bytes per pixel when each holds
# 8 bytes or more. A longer file is refused by its size. A pipe or a
# device has none (/dev/zero): it is refused at once unless it starts as
# one of those formats, and once it gives more bytes than its header's
# image may take under the same rule, or than this bound.
_HEADER_BYTES = 1 << 20
_MAX_FILE_BYTES = 5 * _MAX_PIXELS + _HEADER_BYTES


def read_gray(path) -> np.ndarray:
    """Read a grayscale image as a (H, W) uint8 array of its samples.

    Accepts P2/P5 graymaps and 8-bit grayscale PNG, dispatched on the file
    signature. Samples are returned as stored: a graymap whose maxval is
    below 255 is not rescaled. The array is the caller's own: writable,
    C-contiguous and shared with no other read.
    """
    return _read_samples(path, np.uint8, lambda gray, maxval, out: np.copyto(out, gray))


def load_mask(path, threshold: int = 127) -> np.ndarray:
    """Boolean lane mask: true where the intensity exceeds threshold / 255.

    A sample s of a file with maximum value maxval has intensity
    s / maxval, so the exact test is s * 255 > threshold * maxval, that is
    s > floor(threshold * maxval / 255); for 8-bit files (maxval 255, and
    every PNG) it is s > threshold. Binary graymaps with maxval 1 thus
    read as marked where the sample is 1.

    threshold must be an integer (Python or NumPy) in 0..255, as the
    config's mask.threshold is; anything else raises ValueError.
    """
    try:
        threshold = operator.index(threshold)
    except TypeError:
        raise ValueError(f"threshold must be an integer, got {threshold!r}") from None
    if not 0 <= threshold <= 255:
        raise ValueError(f"threshold must be in 0..255, got {threshold}")
    return _read_samples(
        path, bool, lambda gray, maxval, out: np.greater(gray, (threshold * maxval) // 255, out=out)
    )


def _read_samples(path, dtype, fill):
    """A new (H, W) array of dtype for a graymap or grayscale PNG file,
    which fill(samples, maxval, out) writes.

    samples is valid only during the call: a read-only view of the file's
    bytes for P5, and a view of this thread's pooled decode buffer for PNG.
    The result is allocated as soon as the header gives its shape, before
    any temporary of the decode, so that those temporaries never take the
    memory the previous frame's result gave back.
    """
    try:
        fh = open(path, "rb", buffering=0)
    except OSError as exc:
        raise ImageIOError(path, f"cannot read file: {exc}") from exc
    with fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):  # a pipe or a device has no size
            return _decode(path, _read_stream(path, fh), dtype, fill)
        if info.st_size > _MAX_FILE_BYTES:
            raise ImageIOError(path, f"file too large: {info.st_size} bytes, at most {_MAX_FILE_BYTES}")
        with borrow(info.st_size + 1) as buf:
            try:
                data = _read_into(fh, buf, _MAX_FILE_BYTES)
            except OSError as exc:
                raise ImageIOError(path, f"cannot read file: {exc}") from exc
            if data is None:
                raise ImageIOError(path, f"file too large: more than {_MAX_FILE_BYTES} bytes")
            return _decode(path, data, dtype, fill)


def _decode(path, data, dtype, fill):
    """_read_samples' result for the file's bytes, by their signature."""
    if data[: len(_PNG_SIGNATURE)] == _PNG_SIGNATURE:
        return _decode_png_gray(path, data, dtype, fill)
    if data[:2] in (b"P2", b"P5"):
        gray, maxval = _decode_pgm(path, data)
        out = np.empty(gray.shape, dtype)
        fill(gray, maxval, out)
        return out
    raise ImageIOError(path, _UNSUPPORTED)


def _read_stream(path, fh) -> bytes:
    """The bytes of a file with no size, such as a pipe or a device.

    Reading stops at the first bytes that start neither a PNG signature
    nor P2/P5, and once more bytes have come than the image its header
    declares may take under the rule of _MAX_FILE_BYTES (5 per pixel and
    1 MiB), or than _MAX_FILE_BYTES if that is less. The header is looked
    for in the first MiB, as a P2/P5 header or a PNG's leading IHDR chunk;
    until it is found the bound is _MAX_FILE_BYTES.
    """
    pieces, n, limit, shape = [], 0, _MAX_FILE_BYTES, None
    while n <= limit:
        try:
            piece = fh.read(min(limit + 1 - n, 1 << 20))
        except OSError as exc:
            raise ImageIOError(path, f"cannot read file: {exc}") from exc
        if not piece:
            return b"".join(pieces)
        pieces.append(piece)
        n += len(piece)
        if shape is None and n - len(piece) < _HEADER_BYTES:
            head = b"".join(pieces)
            if not (_PNG_SIGNATURE.startswith(head[:8]) or head[:2] in (b"P2", b"P5", b"P")):
                raise ImageIOError(path, _UNSUPPORTED)
            shape = _stream_shape(head)
            if shape is not None:
                limit = min(limit, 5 * max(shape[0] * shape[1], 0) + _HEADER_BYTES)
    what = f" for a {shape[0]}x{shape[1]} image" if limit < _MAX_FILE_BYTES else ""
    raise ImageIOError(path, f"file too large: more than {limit} bytes{what}")


def _stream_shape(head: bytes):
    """(width, height) as the header at the start of a file's bytes gives
    them, or None while it is incomplete or does not parse."""
    if head[:8] == _PNG_SIGNATURE:
        if len(head) < 24 or head[12:16] != b"IHDR":
            return None
        return int.from_bytes(head[16:20], "big"), int.from_bytes(head[20:24], "big")
    header = _PGM_HEADER.match(head)  # width and height end in a delimiter
    try:
        return None if header is None else (int(header[1]), int(header[2]))
    except ValueError:
        return None


def _read_into(fh, buf, limit: int):
    """The rest of the file fh: a read-only view of buf when it fits with a
    byte to spare, else (the file grew since its size was read) bytes of
    its own; None, once limit + 1 bytes are read, when it holds more than
    limit bytes."""
    n = 0
    while n < len(buf):
        got = fh.readinto(buf[n:])
        if not got:
            return memoryview(buf)[:n].toreadonly()
        n += got
    pieces = [buf.tobytes()]
    while n <= limit:
        piece = fh.read(min(limit + 1 - n, 1 << 20))
        if not piece:
            return b"".join(pieces)
        pieces.append(piece)
        n += len(piece)
    return None


def write_pgm(path, gray) -> None:
    _write_netpbm(path, b"P5", gray, (), "a 2D gray image")


def write_ppm(path, rgb) -> None:
    _write_netpbm(path, b"P6", rgb, (3,), "an (H, W, 3) RGB image")


def _write_netpbm(path, magic: bytes, image, channels: tuple, what: str) -> None:
    """Write image, of shape (H, W) + channels, as a binary Netpbm file of
    maxval 255. Every sample must fit a byte exactly: booleans write as
    0/1, and any other sample that is not an integer in 0..255 raises
    ValueError, and so does an image without a pixel, which the readers
    refuse. uint8 input is written without a copy of its own."""
    arr = np.asarray(image)
    if arr.ndim < 2 or arr.shape[2:] != channels:
        raise ValueError(f"expected {what}, got shape {arr.shape}")
    if not arr.shape[0] or not arr.shape[1]:
        raise ValueError(f"expected {what} of at least one pixel, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if arr.dtype != bool and not np.array_equal(arr, np.clip(arr, 0, 255).round()):
            raise ValueError("samples must be integers in 0..255")
        arr = arr.astype(np.uint8)
    overwrite(path, magic + b"\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]) + arr.tobytes())


# ---------------------------------------------------------------------------
# portable graymap
# ---------------------------------------------------------------------------

# A Netpbm graymap header (https://netpbm.sourceforge.net/doc/pgm.html): P2
# or P5, then width, height and maxval, tokens of bytes that are neither
# whitespace (\s, as bytes.isspace() counts it) nor "#", each after
# whitespace or # comments; width may follow the magic directly. A comment
# must run to a line end or the file's end, so that a failed match cannot
# backtrack into a comment and read a field out of it.
_PGM_HEADER = re.compile(
    rb"""P[25]
    (?: \s | \#[^\n\r]*(?![^\n\r]) )* ([^\s\#]+)
    (?: \s | \#[^\n\r]*(?![^\n\r]) )+ ([^\s\#]+)
    (?: \s | \#[^\n\r]*(?![^\n\r]) )+ ([^\s\#]+)""",
    re.VERBOSE,
)

# What ends the header after maxval: one whitespace byte, or a comment
# glued to maxval through the \n or \r that ends it, which is then the
# delimiter, as libnetpbm's pm_getuint reads it
# (https://netpbm.sourceforge.net/doc/pbm.html). At the file's end no
# raster follows.
_PGM_RASTER = re.compile(rb"\s|\#[^\n\r]*[\n\r]|\Z")


def _decode_pgm(path, data) -> tuple[np.ndarray, int]:
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ImageIOError(path, "truncated header: needs width, height and maxval")
    fields = []
    for what, token in zip(("width", "height", "maxval"), header.groups()):
        try:
            fields.append(int(token))
        except ValueError:
            raise ImageIOError(path, f"bad {what} {token!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageIOError(path, f"bad dimensions {width}x{height}")
    if width * height > _MAX_PIXELS:
        raise ImageIOError(path, f"dimension overflow: {width}x{height}")
    if not 0 < maxval <= 255:
        raise ImageIOError(path, f"unsupported maxval {maxval} (8-bit only)")
    raster = _PGM_RASTER.match(data, header.end())
    if raster is None:
        raise ImageIOError(path, "truncated header: the comment after maxval has no line end")
    start = raster.end()

    if data[:2] == b"P5":
        count = width * height
        if len(data) - start < count:
            raise ImageIOError(
                path, f"truncated pixel data: {max(len(data) - start, 0)} of {count} bytes"
            )
        arr = np.frombuffer(data, dtype=np.uint8, count=count, offset=start)
        if maxval < 255 and arr.max() > maxval:  # every byte is in range at 255
            raise ImageIOError(path, "sample value out of range")
        return arr.reshape(height, width), maxval

    values = bytes(data[start:]).split()
    if len(values) != width * height:
        raise ImageIOError(path, f"expected {width * height} samples, found {len(values)}")
    try:
        arr = np.array([int(v) for v in values], dtype=np.int64)
    except ValueError as exc:
        raise ImageIOError(path, f"bad sample value: {exc}") from exc
    except OverflowError:
        raise ImageIOError(path, "sample value out of range") from None
    if arr.min() < 0 or arr.max() > maxval:
        raise ImageIOError(path, "sample value out of range")
    return arr.astype(np.uint8).reshape(height, width), maxval


# ---------------------------------------------------------------------------
# grayscale PNG
# ---------------------------------------------------------------------------

# One wavefront step (an anti-diagonal) costs about as much as this many
# units of `_walk` (a row or a pixel visited). Ratios measured on random
# bytes, 16-8192 rows by 64-4096 columns, every row walked: 9-21 for
# Average and 19-32 for Paeth; on 720x1280 lane masks 9-12 and 31-36. Any
# step from 16 to 24 (15 to 30 in a later sweep) decoded each random shape
# within noise of its fastest, so both filters share one: at 40 or more
# the wavefront never took a 32x2048 Average image (13-15 ms against 8),
# at 10 it took a 16x4096 Paeth one too early (54 ms against 21), and lane
# masks never come near the switch.
_WAVEFRONT_STEP = 20

# `_scan` reads this many bytes of whole rows at a time.
_CHUNK = 1 << 16
# A run is sparse when at most 1/_SPARSE of its residuals are nonzero; only
# sparse runs decode from the residuals `_scan` found.
_SPARSE = 16
# Sub runs of fewer rows keep the running sum along the rows. On 720x1280
# lane masks of Sub runs of L rows between one-row Up runs, a fill from
# events took 1.5-2.2x the running sum's time at L = 1-2, 1.4-1.9x at
# 3-4, 1.0-1.2x at 6-8 and 0.7-1.0x from 12 on. The Sub runs of adaptive
# png-720p frames are one row each, and those frames decode 29% slower
# when every Sub run is filled; any bound from 2 to 16 reads the same.
_SHORT_SUB = 8


def _decode_png_gray(path, data, dtype, fill):
    """The (H, W) array of dtype that fill(samples, 255, out) writes for a
    grayscale PNG file's bytes, samples being a view of this thread's
    pooled decode buffer."""
    view = memoryview(data)  # chunk payloads are views, not copies
    pos = len(_PNG_SIGNATURE)
    ihdr = None
    idat = []
    while pos + 8 <= len(data):
        length = int.from_bytes(data[pos : pos + 4], "big")
        ctype = bytes(data[pos + 4 : pos + 8])
        chunk = view[pos + 8 : pos + 8 + length]
        if len(chunk) != length:
            raise ImageIOError(path, "truncated chunk")
        pos += 12 + length  # length + type + data + crc
        if ctype == b"IHDR":
            ihdr = bytes(chunk)
        elif ctype == b"IDAT":
            idat.append(chunk)
        elif ctype == b"IEND":
            break
    if ihdr is None or len(ihdr) != 13:
        raise ImageIOError(path, "missing or malformed IHDR")

    width = int.from_bytes(ihdr[0:4], "big")
    height = int.from_bytes(ihdr[4:8], "big")
    bit_depth, color_type, compression, filt, interlace = ihdr[8:13]
    if width < 1 or height < 1 or width * height > _MAX_PIXELS:
        raise ImageIOError(path, f"bad or oversized dimensions {width}x{height}")
    if bit_depth != 8 or color_type != 0:
        raise ImageIOError(
            path, f"only 8-bit grayscale PNG supported (depth {bit_depth}, color type {color_type})"
        )
    if compression != 0 or filt != 0:
        raise ImageIOError(path, "unsupported compression/filter method")
    if interlace != 0:
        raise ImageIOError(path, "interlaced PNG not supported")

    # buf row 0 is the zero row above the image and column 0 the zero pixel
    # left of each row: the stream, a filter byte and then the row's
    # residuals for each row, inflates into rows 1..height as they are, and
    # once the filter bytes are taken out every filter reads its left, up
    # and up-left neighbours without edge cases.
    out = np.empty((height, width), dtype)
    with borrow((height + 1) * (width + 1)) as flat:
        buf = flat.reshape(height + 1, width + 1)
        _inflate(path, idat, flat[width + 1 :])
        kinds = buf[1:, 0].copy()
        buf[0] = 0
        buf[1:, 0] = 0
        _unfilter(path, kinds, buf)
        fill(buf[1:, 1:], 255, out)
        return out


def _inflate(path, idat, out) -> None:
    """Inflate the zlib stream that the pieces idat hold end to end into
    out, which it must fill exactly. The stream is inflated at most _CHUNK
    bytes at a time, straight into out, and one that inflates past it is
    refused after len(out) + 1 bytes; data after the stream's end is
    ignored."""
    inflater = zlib.decompressobj()
    size, filled = len(out), 0
    try:
        for tail in idat:
            while not inflater.eof:
                room = min(_CHUNK, size + 1 - filled)
                got = inflater.decompress(tail, room)
                if len(got) > size - filled:
                    raise ImageIOError(path, f"image data inflates past the expected {size} bytes")
                out[filled : filled + len(got)] = np.frombuffer(got, np.uint8)
                filled += len(got)
                tail = inflater.unconsumed_tail
                if not tail and len(got) < room:  # the piece is used up and nothing is pending
                    break
            if inflater.eof:
                break
    except zlib.error as exc:
        raise ImageIOError(path, f"corrupt image data: {exc}") from exc
    if filled < size:
        raise ImageIOError(path, f"decompressed size {filled} != expected {size}")
    if not inflater.eof:
        raise ImageIOError(path, "corrupt image data: incomplete or truncated stream")


def _unfilter(path, kinds, buf) -> None:
    """Undo the PNG row filters in place: kinds[r] filters buf[r + 1, 1:].

    The rows fall into runs of one filter type, and `_scan` finds the rows
    with a nonzero residual and, in sparse Sub, Average and Paeth runs, the
    nonzero residuals themselves. A sparse Sub run is filled from its
    residuals (`_fill_sub`); any other Sub run is one in-place running sum
    along the rows. An Up row with a nonzero residual adds the decoded row
    above it, and every other Up row repeats it. Average and Paeth runs go
    to `_walk`, a sparse one with its residuals. Under the zero row above
    the image, Paeth predicts from the left, so a Paeth first row is
    decoded as Sub.
    """
    bad = np.flatnonzero(kinds > 4)
    if len(bad):
        raise ImageIOError(path, f"unknown row filter {kinds[bad[0]]} in row {bad[0]}")
    if kinds[0] == 4:
        kinds[0] = 1
    if not kinds.any():
        return  # every row filtered as None: buf holds the samples
    # run i is buf rows firsts[i]..firsts[i + 1] - 1, of filter type types[i]
    firsts = np.concatenate(([1], np.flatnonzero(kinds[1:] != kinds[:-1]) + 2, [len(kinds) + 1]))
    types = kinds[firsts[:-1] - 1]
    busy, pos, values, bounds, sparse = _scan(buf, firsts, types)
    found = _Residuals(pos, values, buf.shape[1])
    firsts, bounds = firsts.tolist(), bounds.tolist()
    for i, (kind, residuals_found) in enumerate(zip(types.tolist(), sparse.tolist())):
        first, stop = firsts[i], firsts[i + 1]
        if kind == 1:
            if residuals_found:
                _fill_sub(buf, pos[bounds[i] : bounds[i + 1]], values[bounds[i] : bounds[i + 1]])
            else:
                np.cumsum(buf[first:stop], axis=1, dtype=np.uint8, out=buf[first:stop])
        elif kind == 2:
            _add_up(buf, first, stop, busy)
        elif kind > 2:
            _walk(buf, first, stop, kind, busy, found if residuals_found else None)


def _scan(buf, firsts, types):
    """The rows with a nonzero residual, and the nonzero residuals of the
    sparse runs that decode from them.

    Run i is buf rows firsts[i]..firsts[i + 1] - 1, of filter type
    types[i]. Returns (busy, pos, values, bounds, sparse): bytes where, for
    a buf row r of a run other than None, busy[r] is 1 if the row has a
    nonzero residual (a None row's flag means nothing: rows between the
    first and the last other run are flagged from their samples, rows
    outside them are 0); the flat positions in buf of the nonzero
    residuals found, ascending, and their values; the bounds of each run's
    residuals, pos[bounds[i]:bounds[i + 1]] being those in the rows of run
    i; and sparse, sparse[i] telling whether they are all of its nonzero
    residuals. Residuals are found for Sub runs of _SHORT_SUB rows or more
    and for Average and Paeth runs, unless the run is dense: more than
    1/_SPARSE of its residuals nonzero.

    A row's largest residual is one vector step over the rows, so only rows
    with a nonzero residual are read again, _CHUNK bytes of them at a time.
    A run's residuals are dropped, and its rows no longer read, once they
    count past its share: so at most 1/_SPARSE of the image's residuals
    are kept, 9 bytes each (an int64 position and a value).
    """
    pitch = buf.shape[1]
    sizes = np.diff(firsts)
    decoded = np.flatnonzero(types)  # runs other than None
    top, bottom = firsts[decoded[0]], firsts[decoded[-1] + 1]
    busy = np.zeros(len(buf), np.uint8)
    busy[top:bottom] = buf[top:bottom].max(axis=1) != 0
    sparse = (types > 2) | ((types == 1) & (sizes >= _SHORT_SUB))  # while in their share
    limits = sizes * (pitch - 1) // _SPARSE
    counts = np.zeros(len(types), np.intp)
    found = []

    def count(rows, k, end, nz) -> None:
        """Count the nonzero residuals at offsets nz of buf[rows] to their
        runs k..end - 1, and keep those of the runs still in their share."""
        r, nz = np.divmod(nz, pitch)
        nz += rows[r] * pitch
        per_run = np.diff(np.searchsorted(nz, firsts[k : end + 1] * pitch))
        counts[k:end] += per_run
        sparse[k:end] &= counts[k:end] <= limits[k:end]
        if not sparse[k:end].all():
            nz = nz[np.repeat(sparse[k:end], per_run)]
        found.append(nz)

    wanted = np.flatnonzero(busy)  # the busy rows of runs whose residuals are wanted
    wanted_runs = np.searchsorted(firsts, wanted, "right") - 1
    keep = sparse[wanted_runs]
    wanted, wanted_runs = wanted[keep], wanted_runs[keep]
    step = max(_CHUNK // pitch, 1)
    for at in range(0, len(wanted), step):
        chunk, chunk_runs = wanted[at : at + step], wanted_runs[at : at + step].tolist()
        k, end = chunk_runs[0], chunk_runs[-1] + 1
        if not sparse[k:end].any():
            continue
        nonzero = buf[chunk] != 0
        if np.count_nonzero(nonzero) * _SPARSE <= nonzero.size:
            count(chunk, k, end, np.flatnonzero(nonzero))
        else:  # dense: a row at a time, so that no run keeps more than its share
            for i, k in enumerate(chunk_runs):
                if sparse[k]:
                    count(chunk[i : i + 1], k, k + 1, np.flatnonzero(nonzero[i]))
    pos = np.concatenate(found) if found else np.zeros(0, np.intp)
    return busy.tobytes(), pos, buf.reshape(-1)[pos], np.searchsorted(pos, firsts * pitch), sparse


def _fill_sub(buf, pos, values) -> None:
    """Decode a sparse run of Sub rows in place from its nonzero residuals,
    values at the flat positions pos of buf, ascending.

    A Sub row is the running sum mod 256 of its residuals: zero up to its
    first nonzero residual, then each partial sum up to the next one or to
    the row's end. The residuals of a mask row that ends unmarked sum to
    zero, so its last partial sum is zero and can run on through the rows
    below up to the next residual: when every row is such, the run is one
    np.repeat of the running sums. Otherwise the sums restart on each row,
    and a zero is inserted at each row's end. The repeat is made _CHUNK
    bytes of rows at a time.
    """
    if not len(pos):
        return  # all zero, as buf holds it
    flat = buf.reshape(-1)
    pitch = buf.shape[1]
    rows = pos // pitch
    sums = np.cumsum(values, dtype=np.uint8)
    last = np.flatnonzero(rows[1:] != rows[:-1])  # a row's last residual, but the last row's
    if sums[last].any():  # restart the sums on each row, and end each row with a zero
        per_row = np.diff(last, prepend=-1, append=len(pos) - 1)
        sums -= np.repeat(np.insert(sums[last], 0, 0), per_row)
        pos = np.insert(pos, last + 1, (rows[last] + 1) * pitch)
        sums = np.insert(sums, last + 1, 0)
        rows = pos // pitch
    lengths = np.diff(pos)
    step = max(_CHUNK // pitch, 1)
    cuts = np.searchsorted(rows, range(int(rows[0]), int(rows[-1]) + step + 1, step)).tolist()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if lo < hi:
            start, mid, end = int(pos[lo]), int(pos[hi - 1]), (int(rows[hi - 1]) + 1) * pitch
            flat[start:mid] = np.repeat(sums[lo : hi - 1], lengths[lo : hi - 1])
            flat[mid:end] = sums[hi - 1]


def _add_up(buf, first: int, stop: int, busy) -> None:
    """Decode buf rows first..stop-1, one Up run. A row with a nonzero
    residual (busy[r] is 1) adds the decoded row above it (row by row: a
    uint8 cumsum down the columns is about twice as slow); every other row
    repeats it."""
    written = first  # rows written..a-1 repeat row written - 1
    for a in _busy_rows(busy, first, stop):
        if a > written:
            buf[written:a] = buf[written - 1]
        np.add(buf[a], buf[a - 1], out=buf[a])
        written = a + 1
    if written < stop:
        buf[written:stop] = buf[written - 1]


def _busy_rows(busy: bytes, first: int, stop: int):
    """The rows r in first..stop-1 where busy[r] is 1, ascending."""
    r = busy.find(1, first, stop)
    while r >= 0:
        yield r
        r = busy.find(1, r + 1, stop)


def _walk(buf, first: int, stop: int, kind: int, busy, events=None) -> None:
    """Decode buf rows first..stop-1, one Average (3) or Paeth (4) run,
    visiting only the pixels that can differ from the pixel above.

    A pixel is in step when its left and up-left neighbours are equal. In
    step, Paeth predicts up, and so does Average if up equals up-left: a
    zero residual repeats the pixel above and keeps the next one in step.
    So a row copies the row above but for walks from its events (nonzero
    residuals and, for Average, columns where the row above changes), each
    until a pixel equals the one above it. busy[r] is 1 where buf row r has
    a nonzero residual. A sparse run reads its residuals from `events`, a
    `_Residuals`, and an Average one keeps the columns where each row
    changes from its walks; a dense run finds each row's events in it. The
    row is decoded in a bytearray that starts as the row above, and is
    written to buf once. The rest of the run goes to `_wavefront` once
    projected (a unit per row and visit) to cost more here.
    """
    width = buf.shape[1] - 1
    # a Paeth row without residuals repeats the row above
    candidates = _busy_rows(busy, first, stop) if kind == 4 else range(first, stop)
    line = bytearray(buf[first - 1])  # the decoded row above row a, then row a
    decoded = np.frombuffer(line, dtype=np.uint8)  # line, as an array
    # a sparse Average run keeps the columns where the row above differs
    # from its left neighbour (column 0 being zero)
    track = kind == 3 and events is not None
    if track:
        changes = (np.flatnonzero(decoded[1:] != decoded[:-1]) + 1).tolist()
    loaded = 0  # events' lists hold the rows above loaded
    written, visits = first, 0  # rows written..a-1 are copies of row written - 1
    check = first  # the row to project from: skipped rows project no less
    zero_above = track and not changes  # Average: the row above is known to be all zero
    for a in candidates:
        if zero_above and not busy[a]:  # a row of zeros under zeros
            continue
        done, rows_left = check - first, stop - check
        if (done + visits) * rows_left >= max(done, 1) * _WAVEFRONT_STEP * (rows_left + width):
            _wavefront(buf, written, stop, kind)
            return
        check = a + 1
        if a > written:
            buf[written:a] = buf[written - 1]
        written = a
        row = buf[a]
        if events is None:
            prev = buf[a - 1]
            changed = row != 0 if kind == 4 else (row[1:] | (prev[1:] ^ prev[:-1])) != 0
            found = np.flatnonzero(changed) + (kind == 3)  # bool: about 8x faster than uint8
            zero_above = not len(found)
            if zero_above:
                continue
            cols, residuals = found.tolist(), row[found].tolist()
        else:
            if a >= loaded:
                ev_rows, ev_cols, ev_residuals, loaded = events.from_row(a)
                i = bisect_left(ev_rows, a)  # the first residual of row a
            j = bisect_right(ev_rows, a, i)
            cols, residuals, i = ev_cols[i:j], ev_residuals[i:j], j
            if track:  # walk from where the row above changes, too
                at = 0
                for x in changes:
                    at = bisect_left(cols, x, at)
                    if at == len(cols) or cols[at] != x:
                        cols.insert(at, x)
                        residuals.insert(at, 0)
        written = a + 1
        if track:
            # every event is visited, and a pixel that no walk visits equals
            # its left neighbour as the pixels above do: so the row's changes
            # are the visited pixels that differ from their left neighbour
            changes = []
        start = end = 0  # the last walk decoded [start, end), out of step at end
        for x, nxt, r in zip(cols, cols[1:] + [width + 1], residuals):
            if x != end:  # in step: the last walk is over
                visits += end - start
                left = diag = line[x - 1]
                start = x
            while True:
                up = line[x]
                if kind == 3:
                    v = (r + ((left + up) >> 1)) & 0xFF
                elif up == diag or left == up:  # Paeth's pa is 0, or pa = pb = pc / 2
                    v = (r + left) & 0xFF
                elif left == diag:  # pb is 0 < pa
                    v = (r + up) & 0xFF
                else:  # the specification's ties: left, then up, then up-left
                    pa, pb, pc = abs(up - diag), abs(left - diag), abs(left + up - diag - diag)
                    v = (r + (left if pa <= pb and pa <= pc else up if pb <= pc else diag)) & 0xFF
                if track and v != left:
                    changes.append(x)
                line[x] = left = v
                diag, r, x = up, 0, x + 1
                if v == up or x == nxt:
                    break
            end = x
        row[:] = decoded  # out of the walks, line still holds the row above
        visits += end - start
        if track:
            zero_above = not changes
    if written < stop:
        buf[written:stop] = buf[written - 1]


class _Residuals:
    """The nonzero residuals `_scan` found, at the flat positions pos
    (ascending) of buf of that pitch, as Python lists for `_walk`. The
    lists are made for _CHUNK bytes of rows at a time, from the first row
    asked for: so they never hold more than a chunk's residuals, and short
    runs share one conversion. Walking sparse runs from these lists, not
    from each row's own events, decodes png-720p Average frames about 30%
    faster and Paeth frames about 22%."""

    def __init__(self, pos, values, pitch: int):
        self.pos, self.values, self.pitch = pos, values, pitch
        self.lists = [], [], [], 0

    def from_row(self, a: int):
        """(rows, cols, residuals, stop): the buf row, column and value of
        each residual in rows a..stop-1, ascending, and maybe of some rows
        above a; rows are asked for in ascending order."""
        if a >= self.lists[3]:
            stop = a + max(_CHUNK // self.pitch, 1)
            lo, hi = np.searchsorted(self.pos, (a * self.pitch, stop * self.pitch))
            rows, cols = np.divmod(self.pos[lo:hi], self.pitch)
            self.lists = rows.tolist(), cols.tolist(), self.values[lo:hi].tolist(), stop
        return self.lists


def _wavefront(buf, first: int, stop: int, kind: int) -> None:
    """Decode buf rows first..stop-1, one Average (3) or Paeth (4) run, one
    anti-diagonal per numpy step (Lamport's hyperplane method).

    Pixel (a, b) reads only (a, b - 1), (a - 1, b) and (a - 1, b - 1), so
    the pixels of anti-diagonal a + b = t depend only on diagonals t - 1 and
    t - 2: rows + width - 1 vector steps replace rows * width scalar ones.
    In the row-major block of pitch width + 1, diagonal t is a slice of
    stride width, and its left, up and up-left neighbours are the same
    slice shifted back by 1, pitch and pitch + 1. The block is an int16
    copy of the run and the decoded row above it, so scratch is twice the
    run's bytes (int16 steps ran faster than uint8 ones with casts).
    """
    block = buf[first - 1 : stop].astype(np.int16)
    rows, pitch = block.shape[0] - 1, block.shape[1]
    width = pitch - 1
    flat = block.reshape(-1)
    for t in range(2, rows + pitch):
        lo = max(1, t - width)
        hi = min(rows, t - 1)
        s = lo * width + t
        e = hi * width + t + 1
        cur = flat[s:e:width]
        left = flat[s - 1 : e - 1 : width]
        up = flat[s - pitch : e - pitch : width]
        if kind == 3:
            pred = (left + up) >> 1
        else:
            diag = flat[s - pitch - 1 : e - pitch - 1 : width]
            d_up = up - diag  # p - left, with p = left + up - diag
            d_left = left - diag  # p - up
            pa = np.abs(d_up)
            pb = np.abs(d_left)
            pc = np.abs(d_up + d_left)  # p - diag
            # the specification's ties: left, then up, then up-left
            pred = np.where(pb < pa, up, left)
            pred = np.where(pc < np.minimum(pa, pb), diag, pred)
        cur += pred
        cur &= 0xFF
    buf[first:stop] = block[1:]
