"""Mask and overlay file I/O: portable graymaps (P2/P5), portable pixmaps
(P6), and 8-bit grayscale PNG reading. No image library dependency.

Reading the mask is the first step of every frame, and for a large PNG it
is the costliest one, so PNG row filters are undone with array operations
over the whole image (see `_unfilter`), not pixel by pixel.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ImageIOError

__all__ = ["read_gray", "load_mask", "write_pgm", "write_ppm"]

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_MAX_PIXELS = 100_000_000


def read_gray(path) -> np.ndarray:
    """Read a grayscale image as a (H, W) uint8 array of its samples.

    Accepts P2/P5 graymaps and 8-bit grayscale PNG, dispatched on the file
    signature. Samples are returned as stored: a graymap whose maxval is
    below 255 is not rescaled.
    """
    return _read_samples(path)[0]


def load_mask(path, threshold: int = 127) -> np.ndarray:
    """Boolean lane mask: true where the intensity exceeds threshold / 255.

    A sample s of a file with maximum value maxval has intensity
    s / maxval, so the exact test is s * 255 > threshold * maxval, that is
    s > floor(threshold * maxval / 255); for 8-bit files (maxval 255, and
    every PNG) it is s > threshold. Binary graymaps with maxval 1 thus
    read as marked where the sample is 1.
    """
    gray, maxval = _read_samples(path)
    return gray > (threshold * maxval) // 255


def _read_samples(path) -> tuple[np.ndarray, int]:
    """(samples, maxval) of a graymap or grayscale PNG file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ImageIOError(path, f"cannot read file: {exc}") from exc
    if data.startswith(_PNG_SIGNATURE):
        return _decode_png_gray(path, data), 255
    if data[:2] in (b"P2", b"P5"):
        return _decode_pgm(path, data)
    raise ImageIOError(path, "unsupported format (want P2/P5 graymap or grayscale PNG)")


def write_pgm(path, gray) -> None:
    arr = np.ascontiguousarray(gray, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2D gray image, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())


def write_ppm(path, rgb) -> None:
    arr = np.ascontiguousarray(rgb, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"expected an (H, W, 3) RGB image, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())


# ---------------------------------------------------------------------------
# portable graymap
# ---------------------------------------------------------------------------

def _pgm_tokens(data):
    """Yield whitespace-separated header tokens, skipping # comments."""
    i = 0
    n = len(data)
    while i < n:
        ch = data[i : i + 1]
        if ch.isspace():
            i += 1
        elif ch == b"#":
            while i < n and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        else:
            start = i
            while i < n and not data[i : i + 1].isspace() and data[i : i + 1] != b"#":
                i += 1
            yield data[start:i], i
    return


def _decode_pgm(path, data) -> tuple[np.ndarray, int]:
    magic = data[:2]
    tokens = _pgm_tokens(data[2:])

    def next_int(what):
        try:
            token, end = next(tokens)
        except StopIteration:
            raise ImageIOError(path, f"truncated header: missing {what}") from None
        try:
            return int(token), end
        except ValueError:
            raise ImageIOError(path, f"bad {what} {token!r}") from None

    width, _ = next_int("width")
    height, _ = next_int("height")
    maxval, header_end = next_int("maxval")
    if width < 1 or height < 1:
        raise ImageIOError(path, f"bad dimensions {width}x{height}")
    if width * height > _MAX_PIXELS:
        raise ImageIOError(path, f"dimension overflow: {width}x{height}")
    if not 0 < maxval <= 255:
        raise ImageIOError(path, f"unsupported maxval {maxval} (8-bit only)")

    if magic == b"P5":
        start = 2 + header_end + 1  # single whitespace byte after maxval
        raw = data[start : start + width * height]
        if len(raw) != width * height:
            raise ImageIOError(path, f"truncated pixel data: {len(raw)} of {width * height} bytes")
        arr = np.frombuffer(raw, dtype=np.uint8)
        if maxval < 255 and arr.max() > maxval:  # every byte is in range at 255
            raise ImageIOError(path, "sample value out of range")
        return arr.reshape(height, width).copy(), maxval

    values = data[2 + header_end :].split()
    if len(values) != width * height:
        raise ImageIOError(path, f"expected {width * height} samples, found {len(values)}")
    try:
        arr = np.array([int(v) for v in values], dtype=np.int64)
    except ValueError as exc:
        raise ImageIOError(path, f"bad sample value: {exc}") from exc
    if arr.min() < 0 or arr.max() > maxval:
        raise ImageIOError(path, "sample value out of range")
    return arr.astype(np.uint8).reshape(height, width), maxval


# ---------------------------------------------------------------------------
# grayscale PNG
# ---------------------------------------------------------------------------

# One wavefront step (an anti-diagonal) costs about as much as this many
# pixels of the scalar rows, so an Average or Paeth run of rows x width
# pixels takes the wavefront when rows * width > _WAVEFRONT_STEP * (rows +
# width). Ratios measured on runs of 16-256 rows and 64-1280 columns: 28-42
# for Average; 16-30 for Paeth on random bytes, and 31-318 on mask-like
# images, whose scalar rows skip most pixels (see `_paeth_row`).
_WAVEFRONT_STEP = 50


def _decode_png_gray(path, data) -> np.ndarray:
    view = memoryview(data)  # chunk payloads are views, not copies
    pos = len(_PNG_SIGNATURE)
    ihdr = None
    idat = []
    while pos + 8 <= len(data):
        length = int.from_bytes(data[pos : pos + 4], "big")
        ctype = data[pos + 4 : pos + 8]
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

    raw = _inflate(path, idat[0] if len(idat) == 1 else b"".join(idat), height * (width + 1))
    # buf row 0 is the zero row above the image and column 0 the zero pixel
    # left of each row (where the stream has its filter byte), so every
    # filter reads its left, up and up-left neighbours without edge cases.
    stream = np.frombuffer(raw, dtype=np.uint8).reshape(height, width + 1)
    kinds = stream[:, 0].copy()
    buf = np.zeros((height + 1, width + 1), dtype=np.uint8)
    buf[1:, 1:] = stream[:, 1:]
    del raw, stream
    _unfilter(path, kinds, buf)
    return buf[1:, 1:].copy()


def _inflate(path, idat, size: int) -> bytes:
    """The zlib stream inflated to exactly `size` bytes; a stream that
    inflates to more is refused after size + 1 bytes, not allocated whole."""
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, size + 1)
    except zlib.error as exc:
        raise ImageIOError(path, f"corrupt image data: {exc}") from exc
    if len(raw) > size:
        raise ImageIOError(path, f"image data inflates past the expected {size} bytes")
    if len(raw) < size:
        raise ImageIOError(path, f"decompressed size {len(raw)} != expected {size}")
    if not inflater.eof:
        raise ImageIOError(path, "corrupt image data: incomplete or truncated stream")
    return raw


def _unfilter(path, kinds, buf) -> None:
    """Undo the PNG row filters in place: kinds[r] filters buf[r + 1, 1:].

    None and Sub rows read nothing outside their row, so all of them are
    decoded at once (Sub is a cumulative sum that wraps mod 256). An Up row
    adds the decoded row above it, one row at a time; the zero column
    stays zero. Average and Paeth runs go to the wavefront or, when the
    run is too short for it to pay, to the scalar loop.
    """
    bad = np.flatnonzero(kinds > 4)
    if len(bad):
        raise ImageIOError(path, f"unknown row filter {kinds[bad[0]]} in row {bad[0]}")
    sub = np.flatnonzero(kinds == 1) + 1
    buf[sub, 1:] = np.cumsum(buf[sub, 1:], axis=1, dtype=np.uint8)

    edges = np.flatnonzero(kinds[1:] != kinds[:-1]) + 1
    starts = [0, *edges.tolist()]
    stops = [*edges.tolist(), len(kinds)]
    width = buf.shape[1] - 1
    for start, stop in zip(starts, stops):
        kind = int(kinds[start])
        if kind == 2:
            # row by row: a uint8 cumsum down the columns is about twice as slow
            for r in range(start + 1, stop + 1):
                np.add(buf[r], buf[r - 1], out=buf[r])
        elif kind > 2:
            rows = stop - start
            if rows * width > _WAVEFRONT_STEP * (rows + width):
                _wavefront(buf, start + 1, stop + 1, kind)
            else:
                _scalar_rows(buf, start + 1, stop + 1, kind)


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


def _scalar_rows(buf, first: int, stop: int, kind: int) -> None:
    """Decode buf rows first..stop-1, one Average (3) or Paeth (4) run,
    row by row."""
    decode_row = _average_row if kind == 3 else _paeth_row
    for a in range(first, stop):
        decode_row(buf[a], buf[a - 1])


def _average_row(row, prev) -> None:
    """Decode one Average row in place, given the decoded row above it."""
    out = [0]  # the zero column
    left = 0
    for x, up in zip(row[1:].tolist(), prev[1:].tolist()):
        left = (x + ((left + up) >> 1)) & 0xFF
        out.append(left)
    row[:] = out


def _paeth_row(row, prev) -> None:
    """Decode one Paeth row in place, given the decoded row above it.

    Where up equals up-left, |p - left| = 0 and the pixel predicts from
    its left neighbour, whatever that is: a stretch of such pixels is a
    running sum, as in Sub. Only the other pixels are visited one by one;
    each stretch then adds the running sum to the value before it.
    """
    sums = np.cumsum(row, dtype=np.uint8)  # row[0] is the zero column
    cols = np.flatnonzero(prev[1:] != prev[:-1]) + 1
    values = []
    base = 0  # last visited value minus the running sum there
    for x, up, diag, before, here in zip(
        row[cols].tolist(), prev[cols].tolist(), prev[cols - 1].tolist(),
        sums[cols - 1].tolist(), sums[cols].tolist(),
    ):
        left = (base + before) & 0xFF
        pa = abs(up - diag)
        pb = abs(left - diag)
        pc = abs(left + up - diag - diag)
        if pa <= pb and pa <= pc:
            pred = left
        elif pb <= pc:
            pred = up
        else:
            pred = diag
        value = (x + pred) & 0xFF
        base = value - here
        values.append(value)
    offset = np.zeros_like(row)
    offset[cols] = np.array(values, dtype=np.uint8) - sums[cols]
    last = np.zeros(len(row), dtype=np.intp)
    last[cols] = cols
    np.maximum.accumulate(last, out=last)
    row[:] = sums + offset[last]
