import os
import re
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

from lanepost import ImageIOError, SceneParams, default_config, generate_scene
from lanepost import load_mask, read_gray, write_pgm, write_ppm
from lanepost import maskio
from lanepost.cli import main
from oracles import png_unfilter


def png_chunk(ctype: bytes, payload: bytes) -> bytes:
    return (
        len(payload).to_bytes(4, "big")
        + ctype
        + payload
        + zlib.crc32(ctype + payload).to_bytes(4, "big")
    )


def paeth(left, up, diag):
    p = left + up - diag
    pa, pb, pc = abs(p - left), abs(p - up), abs(p - diag)
    if pa <= pb and pa <= pc:
        return left
    if pb <= pc:
        return up
    return diag


def make_gray_png(gray: np.ndarray, row_filters=None) -> bytes:
    """Independent PNG encoder for test fixtures (grayscale, 8-bit)."""
    gray = np.asarray(gray, dtype=np.uint8)
    height, width = gray.shape
    if row_filters is None:
        row_filters = [0] * height
    raw = bytearray()
    prev = [0] * width
    for r, ftype in zip(range(height), row_filters):
        row = [int(v) for v in gray[r]]
        raw.append(ftype)
        for i in range(width):
            left = row[i - 1] if i else 0
            if ftype == 0:
                enc = row[i]
            elif ftype == 1:
                enc = row[i] - left
            elif ftype == 2:
                enc = row[i] - prev[i]
            elif ftype == 3:
                enc = row[i] - ((left + prev[i]) >> 1)
            else:
                enc = row[i] - paeth(left, prev[i], prev[i - 1] if i else 0)
            raw.append(enc & 0xFF)
        prev = row
    return png_file(width, height, zlib.compress(bytes(raw)))


def png_file(width: int, height: int, idat: bytes) -> bytes:
    """8-bit grayscale PNG around an already compressed image stream."""
    ihdr = (
        width.to_bytes(4, "big")
        + height.to_bytes(4, "big")
        + bytes([8, 0, 0, 0, 0])  # depth 8, grayscale, no interlace
    )
    return (
        b"\x89PNG\r\n\x1a\n"
        + png_chunk(b"IHDR", ihdr)
        + png_chunk(b"IDAT", idat)
        + png_chunk(b"IEND", b"")
    )


def stream_png(stream: np.ndarray) -> bytes:
    """PNG whose image stream is `stream`: (H, W + 1) rows of a filter
    type byte followed by the filtered bytes."""
    height, pitch = stream.shape
    return png_file(pitch - 1, height, zlib.compress(stream.astype(np.uint8).tobytes()))


def random_stream(rng, height, width, kinds=(0, 1, 2, 3, 4)):
    stream = rng.integers(0, 256, (height, width + 1), dtype=np.uint8)
    stream[:, 0] = rng.choice(kinds, height)
    return stream


def filtered_stream(gray: np.ndarray, kinds) -> np.ndarray:
    """The image stream of `gray` with row r filtered as kinds[r]; kind 5
    picks per row the type with the least sum of |signed residual|, the
    specification's adaptive heuristic."""
    x = gray.astype(np.int16)
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    left = np.zeros_like(x)
    left[:, 1:] = x[:, :-1]
    diag = np.zeros_like(x)
    diag[1:, 1:] = x[:-1, :-1]
    pa, pb, pc = np.abs(up - diag), np.abs(left - diag), np.abs(left + up - 2 * diag)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, diag))
    residuals = np.stack([(x - pred) & 0xFF for pred in (0, left, up, (left + up) >> 1, paeth)])
    cost = np.abs(residuals.astype(np.uint8).astype(np.int8).astype(np.int32)).sum(axis=2)
    kinds = np.asarray(kinds)
    kinds = np.where(kinds == 5, cost.argmin(axis=0), kinds)
    stream = np.empty((x.shape[0], x.shape[1] + 1), np.uint8)
    stream[:, 0] = kinds
    stream[:, 1:] = residuals[kinds, np.arange(len(kinds))]
    return stream


def lane_image(seed: int, shape=(360, 640)) -> np.ndarray:
    """The lower half of a synthetic lane mask (0/255), upscaled to `shape`
    by repeating rows and columns, as camera-sized masks are."""
    mask = generate_scene(SceneParams(num_lanes=3), seed, default_config()).mask[180:]
    rows = np.arange(shape[0]) * mask.shape[0] // shape[0]
    cols = np.arange(shape[1]) * mask.shape[1] // shape[1]
    return np.where(mask[np.ix_(rows, cols)], 255, 0).astype(np.uint8)


def spy_wavefront(monkeypatch) -> list:
    """Record the (first, stop) rows of every `_wavefront` call."""
    calls = []
    real = maskio._wavefront

    def spy(buf, first, stop, kind):
        calls.append((first, stop))
        real(buf, first, stop, kind)

    monkeypatch.setattr(maskio, "_wavefront", spy)
    return calls


def decode_stream(tmp_path, stream) -> np.ndarray:
    path = tmp_path / "stream.png"
    path.write_bytes(stream_png(stream))
    return read_gray(path)


class TestPgm:
    def test_p5_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        gray = rng.integers(0, 256, (17, 23), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, gray)
        assert np.array_equal(read_gray(path), gray)

    def test_p2_with_comments(self, tmp_path):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n# a comment\n3 2 # trailing\n255\n0 128 255\n10 20 30\n")
        assert read_gray(path).tolist() == [[0, 128, 255], [10, 20, 30]]

    def test_all_zero_mask(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_pgm(path, np.zeros((5, 7), np.uint8))
        assert not load_mask(path, 127).any()

    def test_all_saturated_mask(self, tmp_path):
        path = tmp_path / "full.pgm"
        write_pgm(path, np.full((5, 7), 255, np.uint8))
        assert load_mask(path, 127).all()

    def test_checkerboard_threshold(self, tmp_path):
        board = np.indices((6, 6)).sum(axis=0) % 2
        path = tmp_path / "board.pgm"
        write_pgm(path, (board * 255).astype(np.uint8))
        assert np.array_equal(load_mask(path, 127), board.astype(bool))

    @pytest.mark.parametrize("shape", [(2, 3, 1), (6,), ()])
    def test_write_pgm_refuses_what_is_not_2d(self, tmp_path, shape):
        path = tmp_path / "flat.pgm"
        with pytest.raises(ValueError, match="expected a 2D gray image"):
            write_pgm(path, np.zeros(shape, np.uint8))
        assert not path.exists()

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(ImageIOError):
            read_gray(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ImageIOError):
            read_gray(path)

    def test_unknown_magic_rejected(self, tmp_path):
        path = tmp_path / "weird.img"
        path.write_bytes(b"XY whatever")
        with pytest.raises(ImageIOError):
            read_gray(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ImageIOError):
            read_gray(tmp_path / "nope.pgm")

    @pytest.mark.parametrize(
        "blob, samples, marked",
        [
            (b"P5\n4 1\n1\n\x00\x01\x01\x00", [0, 1, 1, 0], [False, True, True, False]),
            (b"P2\n4 1\n1\n0 1 1 0\n", [0, 1, 1, 0], [False, True, True, False]),
            # 7/15 < 127/255 < 8/15
            (b"P5\n4 1\n15\n\x00\x07\x08\x0f", [0, 7, 8, 15], [False, False, True, True]),
            (b"P2\n4 1\n15\n0 7 8 15\n", [0, 7, 8, 15], [False, False, True, True]),
        ],
    )
    def test_low_maxval_thresholds_on_intensity(self, tmp_path, blob, samples, marked):
        path = tmp_path / "binary.pgm"
        path.write_bytes(blob)
        assert read_gray(path).tolist() == [samples]  # raw samples, not rescaled
        assert load_mask(path, 127).tolist() == [marked]

    @pytest.mark.parametrize("maxval", [1, 3, 15, 100, 255])
    def test_threshold_is_exact_in_intensity(self, tmp_path, maxval):
        samples = np.arange(maxval + 1, dtype=np.uint8)[None, :]
        path = tmp_path / "ramp.pgm"
        path.write_bytes(b"P5\n%d 1\n%d\n" % (maxval + 1, maxval) + samples.tobytes())
        for threshold in range(0, 256):
            want = [[int(s) * 255 > threshold * maxval for s in samples[0]]]
            assert load_mask(path, threshold).tolist() == want

    @pytest.mark.parametrize("threshold", [-5, 256, 300, 127.0, 2.5, "127", None])
    def test_threshold_the_config_refuses_is_refused(self, tmp_path, threshold):
        # -5 used to mark every pixel, zeros included, and 300 none
        path = tmp_path / "four.pgm"
        write_pgm(path, np.array([[0, 255], [128, 10]], np.uint8))
        with pytest.raises(ValueError, match="threshold"):
            load_mask(path, threshold)

    @pytest.mark.parametrize("kind", [np.uint8, np.int64, np.uint16])
    def test_threshold_takes_numpy_integers(self, tmp_path, kind):
        path = tmp_path / "four.pgm"
        write_pgm(path, np.array([[0, 255], [128, 10]], np.uint8))
        assert load_mask(path, kind(127)).tolist() == [[False, True], [True, False]]
        assert load_mask(path, kind(255)).tolist() == [[False, False], [False, False]]

    @pytest.mark.parametrize(
        "blob",
        [
            b"P5\n3 1\n1\n\x00\x01\xff",
            b"P2\n3 1\n1\n0 1 255\n",
            b"P5\n2 2\n15\n\x00\x0f\x10\x00",
            b"P2\n2 2\n15\n0 15 16 0\n",
        ],
    )
    def test_sample_above_maxval_rejected(self, tmp_path, blob):
        path = tmp_path / "over.pgm"
        path.write_bytes(blob)
        with pytest.raises(ImageIOError, match="sample value out of range"):
            read_gray(path)
        with pytest.raises(ImageIOError, match="sample value out of range"):
            load_mask(path, 127)

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"P5\n0 4\n255\n", "bad dimensions 0x4"),
            (b"P2\n3 -1\n255\n", "bad dimensions 3x-1"),
            (b"P5\n100000 1001\n255\n", "dimension overflow: 100000x1001"),
            (b"P2\n3 2\n255\n1 2 3 4 5\n", "expected 6 samples, found 5"),
            (b"P2\n3 2\n255\n1 2 3 4 5 6 7\n", "expected 6 samples, found 7"),
            (b"P2\n2 1\n255\n1 x2\n", "bad sample value"),
            (b"P2\n2 1\n255\n1 99999999999999999999\n", "sample value out of range"),
            (b"P2\n2 1\n255\n-99999999999999999999 1\n", "sample value out of range"),
            (b"P2\n2 1\n255\n1 -1\n", "sample value out of range"),
        ],
    )
    def test_bad_dimensions_and_p2_samples_rejected(self, tmp_path, blob, message):
        path = tmp_path / "bad.pgm"
        path.write_bytes(blob)
        for read in (read_gray, load_mask):
            with pytest.raises(ImageIOError, match=message):
                read(path)

    @pytest.mark.parametrize(
        "blob",
        [b"P5", b"P5\n", b"P2 4", b"P5\n4 4", b"P5\n4 4 # 255\n", b"P5 # 4 4 255", b"P2\n4\n# 4\r255",
         # a comment glued to maxval that the file's end cuts off
         b"P5\n2 1\n255# hi", b"P2\n2 1\n255#", b"P2\n1 1\n1#0 1"],
    )
    def test_truncated_header_rejected(self, tmp_path, blob):
        path = tmp_path / "short.pgm"
        path.write_bytes(blob)
        with pytest.raises(ImageIOError, match="truncated header"):
            read_gray(path)

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"P5 x4 4 255\n" + bytes(16), "bad width b'x4'"),
            (b"P5\n4 4.0 255\n" + bytes(16), "bad height b'4.0'"),
            (b"P5\n4 4 2\xd9\xa35\n" + bytes(16), "bad maxval b'2\\xd9\\xa35'"),
        ],
    )
    def test_non_numeric_header_field_is_named(self, tmp_path, blob, message):
        path = tmp_path / "field.pgm"
        path.write_bytes(blob)
        with pytest.raises(ImageIOError, match=re.escape(message)):
            read_gray(path)

    @pytest.mark.parametrize(
        "blob, samples",
        [
            # a comment glued to maxval runs through its \n or \r, which is
            # the one byte that ends the header, as libnetpbm reads it
            (b"P5\n2 1\n255# hi\n\x00\xff", [[0, 255]]),
            (b"P2\n2 1\n255# hi\n0 255\n", [[0, 255]]),
            (b"P5\n2 1\n255#\r\x00\xff", [[0, 255]]),
            (b"P2\n2 1\n255#c\r0 255", [[0, 255]]),
            (b"P5\n2 1\n255#c\r\n\xff", [[10, 255]]),  # the \n after the \r is a sample
            (b"P5\n2 1\n255 # hi\n", [[35, 32]]),  # whitespace came first: the raster starts at #
        ],
    )
    def test_comment_glued_to_maxval_ends_the_header(self, tmp_path, blob, samples):
        path = tmp_path / "glued.pgm"
        path.write_bytes(blob)
        assert read_gray(path).tolist() == samples


SPACE = b" \t\n\r\x0b\x0c"  # what bytes.isspace() counts as whitespace
HASH = ord("#")


def pgm_tokens(data, i: int):
    """A token-by-token graymap header lexer, the reference for
    `maskio._PGM_HEADER`: yield (token, end) for the whitespace-separated
    header tokens from offset i on, skipping # comments; end is the offset
    just past the token. data is bytes or a byte memoryview."""
    n = len(data)
    while i < n:
        ch = data[i]
        if ch in SPACE:
            i += 1
        elif ch == HASH:
            while i < n and data[i] not in b"\n\r":
                i += 1
        else:
            start = i
            while i < n and data[i] not in SPACE and data[i] != HASH:
                i += 1
            yield bytes(data[start:i]), i


def lexer_header(data):
    """(width, height, maxval, header end) as pgm_tokens reads them, or None
    where a field is missing or not a number."""
    tokens = pgm_tokens(data, 2)
    fields = []
    for _ in range(3):
        token, end = next(tokens, (None, None))
        if token is None:
            return None
        try:
            fields.append(int(token))
        except ValueError:
            return None
    return (*fields, end)


def pattern_header(data: bytes):
    """What `maskio._decode_pgm` reads with its pattern, in lexer_header's
    terms."""
    header = maskio._PGM_HEADER.match(data)
    if header is None:
        return None
    try:
        return (*map(int, header.groups()), header.end())
    except ValueError:
        return None


def random_header(rng) -> bytes:
    """A magic number and a few tokens, each after a run of whitespace
    bytes and comments (maybe empty), sometimes cut short. Tokens are
    mostly numbers, some with signs, underscores, letters or non-ASCII
    bytes; comments end at \\n, \\r or nothing, and may hold any of these."""
    noise = b"# 5+-_xA\x1c\x85\xa0\xd9" + SPACE
    parts = [rng.choice([b"P2", b"P5"])]
    for _ in range(rng.integers(2, 6)):
        for _ in range(rng.integers(0, 4)):
            if rng.random() < 0.6:
                parts.append(bytes([rng.choice(list(SPACE))]))
            else:
                body = bytes(rng.choice(list(noise), rng.integers(0, 6)).tolist())
                parts.append(b"#" + body + rng.choice([b"\n", b"\r", b""], p=[0.45, 0.45, 0.1]))
        token = str(rng.integers(0, 1000)).encode()
        if rng.random() < 0.1:
            at = rng.integers(0, len(token) + 1)
            token = token[:at] + bytes([rng.choice(list(b"+-_x#\x85\xd9"))]) + token[at:]
        parts.append(token)
    data = b"".join(parts)
    if rng.random() < 0.3:
        data = data[: rng.integers(2, len(data) + 1)]
    return data


class TestPgmHeader:
    def test_pattern_reads_what_a_lexer_reads(self):
        rng = np.random.default_rng(25)
        accepted = 0
        for _ in range(12_000):
            data = random_header(rng)
            want = lexer_header(data)
            assert pattern_header(data) == want, data
            assert pattern_header(memoryview(data).toreadonly()) == want, data
            accepted += want is not None
        assert 2_000 < accepted < 10_000  # both outcomes are well sampled

    @pytest.mark.parametrize(
        "data, want",
        [
            (b"P5480 360 255\n", (480, 360, 255, 13)),  # width right after the magic
            (b"P5\r\x0c## c 5\n\x0c12\t\n3\x0b", None),  # a comment holds no field
            (b"P2 1#c\n2#\r+3_0", (1, 2, 30, 14)),
            (b"P5 1 2 3#", (1, 2, 3, 8)),
        ],
    )
    def test_hand_cases(self, data, want):
        assert lexer_header(data) == want
        assert pattern_header(data) == want


class TestSamplesInPlace:
    """P5 samples are read in place and PNG samples decoded into a pooled
    buffer; read_gray still hands out an array of the caller's own."""

    @pytest.mark.parametrize("kind", ["p2", "p5", "png"])
    def test_read_gray_returns_a_writable_array_of_its_own(self, tmp_path, kind):
        gray = np.random.default_rng(4).integers(0, 256, (9, 13), dtype=np.uint8)
        path = tmp_path / f"img.{kind}"
        if kind == "p2":
            rows = "\n".join(" ".join(map(str, row)) for row in gray.tolist())
            path.write_text(f"P2\n13 9\n255\n{rows}\n")
        elif kind == "p5":
            write_pgm(path, gray)
        else:
            path.write_bytes(make_gray_png(gray, [3] * 9))
        first = read_gray(path)
        assert first.flags.writeable and first.flags.c_contiguous
        first[:] = 7
        second = read_gray(path)
        assert not np.shares_memory(first, second)
        assert np.array_equal(second, gray)
        assert np.array_equal(load_mask(path, 127), gray > 127)
        assert (first == 7).all()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("kind", ["p2", "p5", "png"])
    def test_a_file_without_a_size_is_read_whole(self, tmp_path, kind):
        # a FIFO reports size 0, so its bytes overflow the pooled file
        # buffer and are read into bytes of their own
        gray = np.random.default_rng(6).integers(0, 256, (40, 50), dtype=np.uint8)
        if kind == "p2":
            rows = "\n".join(" ".join(map(str, row)) for row in gray.tolist())
            blob = f"P2\n50 40\n255\n{rows}\n".encode()
        elif kind == "p5":
            blob = b"P5\n50 40\n255\n" + gray.tobytes()
        else:
            blob = make_gray_png(gray, [4] * 40)
        fifo = tmp_path / "frame.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        try:
            assert np.array_equal(read_gray(fifo), gray)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()

    def test_p5_samples_are_a_read_only_view_during_use(self, tmp_path):
        gray = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "view.pgm"
        write_pgm(path, gray)
        seen = []
        maskio._read_samples(path, np.uint8, lambda samples, maxval, out: seen.append(
            (samples.tolist(), maxval, samples.flags.writeable, samples.base is not None)
        ))
        assert seen == [(gray.tolist(), 255, False, True)]

    @pytest.mark.parametrize(
        "header",
        [
            b"P5\r\n# " + b"a long comment, " * 6 + b"\r\n3\r\n# between width and height\r\n"
            b"2 # after the height\r\n# before maxval\r\n255\n",
            b"P5 # right after the magic\n3\n2\r\n255\r",  # one whitespace byte ends the header
        ],
    )
    def test_p5_header_comments_and_line_ends(self, tmp_path, header):
        samples = b"\n\r#\x20\x00\xff"  # header-like bytes are samples here
        path = tmp_path / "commented.pgm"
        path.write_bytes(header + samples)
        assert read_gray(path).tolist() == [[10, 13, 35], [32, 0, 255]]
        assert load_mask(path, 127).tolist() == [[False, False, False], [False, False, True]]

    def test_truncated_message_counts_the_bytes_found(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ImageIOError, match="truncated pixel data: 2 of 16 bytes"):
            load_mask(path, 127)
        path.write_bytes(b"P5\n4 4\n255")
        with pytest.raises(ImageIOError, match="truncated pixel data: 0 of 16 bytes"):
            load_mask(path, 127)

    def test_p5_load_mask_memory_is_the_file_and_the_mask(self, tmp_path):
        gray = lane_image(5, (360, 480))
        path = tmp_path / "frame.pgm"
        write_pgm(path, gray)
        load_mask(path, 127)  # first-call set-up stays out of the figure
        tracemalloc.start()
        try:
            mask = load_mask(path, 127)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(mask, gray > 127)
        assert peak < 2.2 * gray.size, peak  # the file's bytes plus the boolean mask

    def test_png_decode_buffer_is_zeroed_between_images(self, tmp_path):
        # a pooled buffer left full of 0xff by a first image must decode a
        # second, smaller image as if it were fresh zeros
        full = tmp_path / "full.png"
        full.write_bytes(make_gray_png(np.full((9, 12), 0xFF, np.uint8)))
        assert (read_gray(full) == 0xFF).all()
        for kind in (1, 2, 3, 4):
            stream = random_stream(np.random.default_rng(kind), 6, 7, kinds=(kind,))
            assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)


class TestFileBound:
    """No file is read past _MAX_FILE_BYTES: one whose size says more is
    refused unread, and a pipe or device without a size is refused once
    one byte more has been read. Such a stream is also refused at once if
    it starts as no supported format, and once it passes its header's
    image's share of the bound (5 bytes per pixel and 1 MiB)."""

    def test_the_bound_covers_the_largest_images_the_decoders_accept(self):
        pixels = maskio._MAX_PIXELS
        # P2 of one column: "255\r\n" for every sample
        assert len(b"P2\n1 100000000\n255\n") + 5 * pixels <= maskio._MAX_FILE_BYTES
        # PNG of one column: a filter byte and a sample per row, stored
        # blocks, zlib framing, 8-byte IDAT chunks, signature, IHDR, IEND
        stream = 2 * pixels + 5 * -(-2 * pixels // 65535) + 6
        png = 8 + 25 + stream + 12 * -(-stream // 8) + 12
        assert png <= maskio._MAX_FILE_BYTES

    def test_a_file_at_the_bound_is_read_and_one_byte_more_is_refused(self, tmp_path, monkeypatch):
        path = tmp_path / "frame.pgm"
        write_pgm(path, np.full((4, 5), 200, np.uint8))
        monkeypatch.setattr(maskio, "_MAX_FILE_BYTES", path.stat().st_size)
        assert (read_gray(path) == 200).all()
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(ImageIOError, match="file too large: 32 bytes, at most 31"):
            read_gray(path)

    def test_an_endless_file_is_read_no_further_than_the_bound(self):
        class Endless:
            """A file object of zeros without end, as /dev/zero."""

            def __init__(self):
                self.given = 0

            def readinto(self, buf):
                buf[:] = 0
                self.given += len(buf)
                return len(buf)

            def read(self, n):
                self.given += n
                return bytes(n)

        endless = Endless()
        assert maskio._read_into(endless, np.empty(3, np.uint8), 1000) is None
        assert endless.given == 1001

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_past_the_bound_is_refused(self, tmp_path, monkeypatch, capsys):
        # a pipe has no size: the bound is found while reading
        monkeypatch.setattr(maskio, "_MAX_FILE_BYTES", 100)
        fifo = tmp_path / "frame.fifo"
        os.mkfifo(fifo)

        def write():
            try:
                fifo.write_bytes(b"P5\n40 40\n255\n" + bytes(1600))
            except BrokenPipeError:  # the reader stopped at the bound
                pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            assert main(["run", "--mask", str(fifo)]) == 3
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert "file too large: more than 100 bytes" in capsys.readouterr().err

    def test_a_stream_of_zeros_is_refused_after_its_first_read(self):
        class Zeros:
            """A file object of zeros without end, as /dev/zero."""

            def __init__(self):
                self.reads = []

            def read(self, n):
                self.reads.append(n)
                return bytes(n)

        zeros = Zeros()
        with pytest.raises(ImageIOError, match="unsupported format"):
            maskio._read_stream("zeros", zeros)
        assert zeros.reads == [1 << 20]

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_dev_zero_exits_3_as_an_unsupported_format(self, capsys):
        assert main(["run", "--mask", "/dev/zero"]) == 3
        assert "unsupported format" in capsys.readouterr().err

    def test_a_stream_is_refused_when_a_short_start_rules_every_format_out(self):
        class Trickle:
            """A pipe that gives one byte a read."""

            def __init__(self, blob):
                self.blob, self.given = blob, 0

            def read(self, n):
                piece = self.blob[self.given : self.given + 1]
                self.given += len(piece)
                return piece

        for blob, given in ((b"PX" + bytes(99), 2), (b"\x89PNGX" + bytes(99), 5), (b"Q", 1)):
            trickle = Trickle(blob)
            with pytest.raises(ImageIOError, match="unsupported format"):
                maskio._read_stream("trickle", trickle)
            assert trickle.given == given

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("kind", ["p5", "png"])
    def test_an_endless_pipe_is_refused_past_its_images_bound(self, tmp_path, kind, capsys):
        # a 4x5 image may take 5 * 20 bytes and 1 MiB, however large the
        # global bound
        if kind == "p5":
            header = b"P5\n4 5\n255\n"
        else:
            header = make_gray_png(np.zeros((5, 4), np.uint8), [0] * 5)[:33]  # signature and IHDR
        fifo = tmp_path / "frame.fifo"
        os.mkfifo(fifo)
        written = []

        def write():
            with open(fifo, "wb", buffering=0) as fh:  # nothing left to flush on close
                try:
                    fh.write(header)
                    while sum(written) < 64 << 20:
                        written.append(fh.write(bytes(1 << 16)))
                except BrokenPipeError:  # the reader stopped at the bound
                    pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            assert main(["run", "--mask", str(fifo)]) == 3
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        bound = 5 * 20 + (1 << 20)
        assert f"file too large: more than {bound} bytes for a 4x5 image" in capsys.readouterr().err
        assert sum(written) < 2 * bound


class TestPng:
    @pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
    def test_each_filter_type(self, tmp_path, ftype):
        rng = np.random.default_rng(ftype)
        gray = rng.integers(0, 256, (9, 13), dtype=np.uint8)
        path = tmp_path / f"f{ftype}.png"
        path.write_bytes(make_gray_png(gray, [ftype] * 9))
        assert np.array_equal(read_gray(path), gray)

    def test_mixed_filters(self, tmp_path):
        rng = np.random.default_rng(99)
        gray = rng.integers(0, 256, (10, 16), dtype=np.uint8)
        filters = [0, 1, 2, 3, 4, 4, 3, 2, 1, 0]
        path = tmp_path / "mixed.png"
        path.write_bytes(make_gray_png(gray, filters))
        assert np.array_equal(read_gray(path), gray)

    def test_split_image_data(self, tmp_path):
        gray = np.random.default_rng(5).integers(0, 256, (6, 7), dtype=np.uint8)
        blob = make_gray_png(gray, [4, 3, 2, 1, 0, 4])
        start = blob.index(b"IDAT") - 4
        length = int.from_bytes(blob[start : start + 4], "big")
        idat = blob[start + 8 : start + 8 + length]
        parts = [png_chunk(b"IDAT", idat[i : i + 5]) for i in range(0, len(idat), 5)]
        path = tmp_path / "split.png"
        path.write_bytes(blob[:start] + b"".join(parts) + blob[start + 12 + length :])
        assert np.array_equal(read_gray(path), gray)

    def test_threshold_applies(self, tmp_path):
        gray = np.array([[0, 127, 128, 255]], dtype=np.uint8)
        path = tmp_path / "thresh.png"
        path.write_bytes(make_gray_png(gray))
        assert load_mask(path, 127).tolist() == [[False, False, True, True]]

    def test_non_grayscale_rejected(self, tmp_path):
        ihdr = (2).to_bytes(4, "big") + (2).to_bytes(4, "big") + bytes([8, 2, 0, 0, 0])
        blob = (
            b"\x89PNG\r\n\x1a\n"
            + png_chunk(b"IHDR", ihdr)
            + png_chunk(b"IDAT", zlib.compress(b"\x00" * 14))
            + png_chunk(b"IEND", b"")
        )
        path = tmp_path / "rgb.png"
        path.write_bytes(blob)
        with pytest.raises(ImageIOError):
            read_gray(path)

    def test_interlaced_rejected(self, tmp_path):
        ihdr = (2).to_bytes(4, "big") + (2).to_bytes(4, "big") + bytes([8, 0, 0, 0, 1])
        blob = b"\x89PNG\r\n\x1a\n" + png_chunk(b"IHDR", ihdr) + png_chunk(b"IEND", b"")
        path = tmp_path / "adam7.png"
        path.write_bytes(blob)
        with pytest.raises(ImageIOError):
            read_gray(path)

    @pytest.mark.parametrize(
        "blob, message",
        [
            (png_file(2, 2, zlib.compress(bytes(6)))[:-20], "truncated chunk"),
            (b"\x89PNG\r\n\x1a\n" + png_chunk(b"IEND", b""), "missing or malformed IHDR"),
            (b"\x89PNG\r\n\x1a\n" + png_chunk(b"IHDR", bytes(12)), "missing or malformed IHDR"),
            (png_file(0, 2, b""), "bad or oversized dimensions 0x2"),
            (png_file(20_000, 5_001, b""), "bad or oversized dimensions 20000x5001"),
            (png_file(2, 2, b"").replace(bytes([8, 0, 0, 0, 0]), bytes([8, 0, 1, 0, 0])), "compression"),
            (png_file(2, 2, b"").replace(bytes([8, 0, 0, 0, 0]), bytes([8, 0, 0, 1, 0])), "filter method"),
        ],
    )
    def test_malformed_header_chunks_rejected(self, tmp_path, blob, message):
        path = tmp_path / "bad.png"
        path.write_bytes(blob)
        for read in (read_gray, load_mask):
            with pytest.raises(ImageIOError, match=message):
                read(path)

    def test_corrupt_data_rejected(self, tmp_path):
        ihdr = (2).to_bytes(4, "big") + (2).to_bytes(4, "big") + bytes([8, 0, 0, 0, 0])
        blob = (
            b"\x89PNG\r\n\x1a\n"
            + png_chunk(b"IHDR", ihdr)
            + png_chunk(b"IDAT", b"not zlib at all")
            + png_chunk(b"IEND", b"")
        )
        path = tmp_path / "corrupt.png"
        path.write_bytes(blob)
        with pytest.raises(ImageIOError):
            read_gray(path)

    def test_inflation_is_bounded(self, tmp_path):
        deflate = zlib.compressobj(1)
        zeros = bytes(1 << 20)
        idat = b"".join(deflate.compress(zeros) for _ in range(64)) + deflate.flush()
        path = tmp_path / "bomb.png"
        path.write_bytes(png_file(1, 1, idat))  # 64 MiB of zeros for a 2-byte image
        tracemalloc.start()
        try:
            with pytest.raises(ImageIOError, match="inflates past"):
                read_gray(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_short_and_truncated_streams_rejected(self, tmp_path):
        path = tmp_path / "short.png"
        path.write_bytes(png_file(3, 2, zlib.compress(bytes(7))))  # 8 bytes expected
        with pytest.raises(ImageIOError, match="decompressed size"):
            read_gray(path)
        path.write_bytes(png_file(3, 2, zlib.compress(bytes(8))[:-4]))  # no checksum
        with pytest.raises(ImageIOError, match="truncated"):
            read_gray(path)


def split_png(width: int, height: int, idat: bytes, cuts) -> bytes:
    """png_file with the compressed stream split into IDAT chunks at the
    given offsets."""
    one = png_file(width, height, idat)
    start = one.index(b"IDAT") - 4
    bounds = [0, *cuts, len(idat)]
    parts = [png_chunk(b"IDAT", idat[a:b]) for a, b in zip(bounds, bounds[1:])]
    return one[:start] + b"".join(parts) + one[start + 12 + len(idat) :]


class TestChunkedInflate:
    """`_inflate` fills the decode buffer _CHUNK bytes at a time: the
    stream must fill it exactly, whatever its IDAT split."""

    # (width, height): a stream within one piece, one of exactly two
    # pieces, and one that ends inside a third
    SHAPES = [(7, 5), (511, 256), (400, 400)]

    @pytest.mark.parametrize("width, height", SHAPES)
    def test_exact_short_and_long_streams(self, tmp_path, width, height):
        stream = random_stream(np.random.default_rng(width), height, width)
        raw = stream.tobytes()
        path = tmp_path / "edge.png"
        path.write_bytes(png_file(width, height, zlib.compress(raw)))
        assert read_gray(path).tolist() == png_unfilter(stream)
        path.write_bytes(png_file(width, height, zlib.compress(raw[:-1])))
        with pytest.raises(ImageIOError, match=f"decompressed size {len(raw) - 1} != expected {len(raw)}"):
            read_gray(path)
        path.write_bytes(png_file(width, height, zlib.compress(raw + b"\x00")))
        with pytest.raises(ImageIOError, match=f"inflates past the expected {len(raw)} bytes"):
            read_gray(path)

    @pytest.mark.parametrize("width, height", SHAPES)
    def test_trailing_data_after_a_full_image_is_ignored(self, tmp_path, width, height):
        stream = random_stream(np.random.default_rng(height), height, width)
        idat = zlib.compress(stream.tobytes())
        path = tmp_path / "trailing.png"
        path.write_bytes(png_file(width, height, idat))
        want = read_gray(path)
        for tail in (b"\x00", b"not a stream at all", zlib.compress(bytes(1000))):
            path.write_bytes(png_file(width, height, idat + tail))  # in the stream's own IDAT
            assert np.array_equal(read_gray(path), want)
            path.write_bytes(split_png(width, height, idat + tail, [len(idat)]))  # in an IDAT of its own
            assert np.array_equal(read_gray(path), want)

    @pytest.mark.parametrize("width, height", SHAPES)
    def test_any_split_of_the_stream_decodes_alike(self, tmp_path, width, height):
        rng = np.random.default_rng([width, height])
        stream = random_stream(rng, height, width)
        stream[:, 1 : width // 2] = 0  # compressible rows: a piece inflates from a short input
        idat = zlib.compress(stream.tobytes())
        path = tmp_path / "split.png"
        path.write_bytes(png_file(width, height, idat))
        want = read_gray(path)
        splits = [[1], [len(idat) - 1], list(range(1, len(idat), max(len(idat) // 7, 1)))]
        splits += [sorted(rng.choice(np.arange(1, len(idat)), k, replace=False).tolist()) for k in (2, 5, 20)]
        if len(idat) < 4096:
            splits.append(range(1, len(idat)))  # a byte per IDAT
        for cuts in splits:
            path.write_bytes(split_png(width, height, idat, cuts))
            assert np.array_equal(read_gray(path), want), cuts

    def test_splits_inside_small_pieces(self, tmp_path, monkeypatch):
        # with 7-byte pieces every IDAT boundary falls inside some piece's
        # input, and the output limit stops zlib mid-block again and again
        monkeypatch.setattr(maskio, "_CHUNK", 7)
        stream = random_stream(np.random.default_rng(9), 6, 10)
        raw = stream.tobytes()
        idat = zlib.compress(raw)
        path = tmp_path / "small.png"
        for cuts in ([], [3], range(1, len(idat), 2), range(1, len(idat))):
            path.write_bytes(split_png(10, 6, idat, cuts))
            assert read_gray(path).tolist() == png_unfilter(stream)
        path.write_bytes(split_png(10, 6, zlib.compress(raw + b"\x01"), [5]))
        with pytest.raises(ImageIOError, match="inflates past"):
            read_gray(path)
        path.write_bytes(split_png(10, 6, zlib.compress(raw[:-1]), [5]))
        with pytest.raises(ImageIOError, match="decompressed size"):
            read_gray(path)
        path.write_bytes(split_png(10, 6, idat[:-4], [5]))
        with pytest.raises(ImageIOError, match="truncated"):
            read_gray(path)


class TestPngUnfilter:
    """read_gray against the scalar oracle on filtered streams."""

    @pytest.mark.parametrize("step", [None, 0, 10**9])  # default, all wavefront, all scalar
    def test_random_streams_match_oracle(self, tmp_path, monkeypatch, step):
        if step is not None:
            monkeypatch.setattr(maskio, "_WAVEFRONT_STEP", step)
        rng = np.random.default_rng(7)
        for _ in range(40):
            height, width = rng.integers(1, 14, 2)
            stream = random_stream(rng, height, width)
            if rng.random() < 0.5:  # long runs of one filter type
                stream[:, 0] = np.sort(stream[:, 0])
            assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)

    @pytest.mark.parametrize("step", [0, 10**9])
    def test_flat_regions_round_trip(self, tmp_path, monkeypatch, step):
        # blocky images make up == up-left common, the Paeth rows' shortcut
        monkeypatch.setattr(maskio, "_WAVEFRONT_STEP", step)
        rng = np.random.default_rng(8)
        for _ in range(20):
            height, width = rng.integers(1, 20, 2)
            gray = np.zeros((height, width), np.uint8)
            for _ in range(3):
                r, c = rng.integers(0, height), rng.integers(0, width)
                gray[r : r + rng.integers(1, 8), c : c + rng.integers(1, 8)] = rng.choice([255, 37])
            filters = rng.choice([0, 1, 2, 3, 4], height)
            path = tmp_path / "flat.png"
            path.write_bytes(make_gray_png(gray, filters))
            assert np.array_equal(read_gray(path), gray)

    @pytest.mark.parametrize("kind", [3, 4])
    def test_both_sides_of_the_wavefront_switch(self, tmp_path, monkeypatch, kind):
        calls = spy_wavefront(monkeypatch)
        # buf row 1 is an Up row, the run takes buf rows 2..
        lanes = filtered_stream(lane_image(kind, (200, 200)), [2] + [kind] * 199)
        dense = random_stream(np.random.default_rng(kind), 200, 200, kinds=(kind,))
        dense[0, 0] = 2
        for step, stream, want in (
            (None, lanes, []),  # sparse: the walker decodes the whole run
            (None, dense, [(3, 201)]),  # dense: the wavefront takes over after one row
            (0, lanes, [(2, 201)]),  # a step of 0: all wavefront
            (10**9, dense, []),  # a huge step: all walker
        ):
            if step is not None:
                monkeypatch.setattr(maskio, "_WAVEFRONT_STEP", step)
            calls.clear()
            assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)
            assert calls == want

    @pytest.mark.parametrize("kind", [3, 4])
    def test_walker_hands_off_mid_run(self, tmp_path, monkeypatch, kind):
        calls = spy_wavefront(monkeypatch)
        gray = lane_image(kind, (160, 320))
        gray[8:] = np.random.default_rng(kind).integers(0, 256, (152, 320), dtype=np.uint8)
        stream = filtered_stream(gray, [kind] * 160)
        assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)
        assert len(calls) == 1 and 9 < calls[0][0] < 20 and calls[0][1] == 161

    @pytest.mark.parametrize("mode", [0, 1, 2, 3, 4, 5])  # 5: adaptive
    def test_lane_masks_match_oracle(self, tmp_path, mode):
        for seed in (1, 2):
            gray = lane_image(seed)
            stream = filtered_stream(gray, [mode] * len(gray))
            if mode == 5:
                assert len(set(stream[:, 0].tolist())) > 2
            decoded = decode_stream(tmp_path, stream)
            assert np.array_equal(decoded, gray)
            assert decoded.tolist() == png_unfilter(stream)

    @pytest.mark.parametrize("step", [None, 0, 10**9])
    def test_sparse_residuals_match_oracle(self, tmp_path, monkeypatch, step):
        # few nonzero residuals under random, constant and zero rows, with
        # runs starting right after a dense random row
        if step is not None:
            monkeypatch.setattr(maskio, "_WAVEFRONT_STEP", step)
        rng = np.random.default_rng(9)
        for _ in range(60):
            height, width = rng.integers(1, 24, 2)
            stream = random_stream(rng, height, width, kinds=(3, 4))
            stream[:, 1:] *= rng.random((height, width)) < rng.choice([0.0, 0.05, 0.3])
            dense = rng.random(height) < 0.2
            stream[dense, 0] = 0  # a random row for the rows below to repeat
            stream[dense, 1:] = rng.integers(0, 256, (dense.sum(), width))
            assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)

    @pytest.mark.parametrize("kind", [3, 4])
    def test_walks_reaching_the_last_column(self, tmp_path, kind):
        width = 40
        stream = np.zeros((6, width + 1), np.uint8)
        stream[:, 0] = (0, kind, kind, kind, kind, kind)
        stream[0, 1:] = 7  # a constant row, then rows off it up to the last column
        stream[1, 1] = 5
        stream[2, width] = 200
        stream[3, width - 1 :] = (3, 9)
        stream[4, 1:] = 1
        assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)

    @pytest.mark.parametrize("kind", [0, 1, 2, 3, 4])
    def test_edge_shapes_and_wrapping(self, tmp_path, kind):
        for shape in ((1, 1), (1, 9), (9, 1)):
            for fill in (0, 255):  # 255 wraps past 255 on every filter but None
                stream = np.full((shape[0], shape[1] + 1), fill, np.uint8)
                stream[:, 0] = kind  # also Up and Paeth on the first row
                assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)

    @pytest.mark.parametrize("bad", [5, 255])
    def test_unknown_filter_rejected(self, tmp_path, bad):
        stream = np.zeros((3, 4), np.uint8)
        stream[:, 0] = (1, bad, 4)
        with pytest.raises(ImageIOError, match="row filter"):
            decode_stream(tmp_path, stream)

    @pytest.mark.parametrize("kind", [3, 4])
    @pytest.mark.parametrize("width, height", [(4096, 16), (64, 8192)])
    def test_scratch_memory_is_bounded(self, tmp_path, kind, width, height):
        stream = random_stream(np.random.default_rng(1), height, width, kinds=(kind,))
        path = tmp_path / "big.png"
        path.write_bytes(stream_png(stream))
        tracemalloc.start()
        try:
            read_gray(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * width * height + (1 << 20)

    def test_scratch_memory_is_bounded_for_one_row_runs(self, tmp_path):
        # every row a dense run of its own: no run keeps its residuals
        width, height = 128, 2048
        stream = random_stream(np.random.default_rng(2), height, width)
        stream[:, 0] = np.resize([1, 4, 3, 4], height)
        path = tmp_path / "rows.png"
        path.write_bytes(stream_png(stream))
        tracemalloc.start()
        try:
            read_gray(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * width * height + (1 << 20)

    @pytest.mark.parametrize("kind", [1, 3, 4])
    @pytest.mark.parametrize("width, height", [(4096, 16), (64, 8192), (1280, 720)])
    def test_scratch_memory_is_bounded_at_the_sparse_limit(self, tmp_path, kind, width, height):
        # every run as many residuals as a sparse run may have: the residuals
        # `_scan` keeps are decoded without image-sized lists of them
        kinds = [2] + [kind] * (height - 1)
        stream, _ = sparse_stream(np.random.default_rng(3), kinds, width)
        path = tmp_path / "sparse.png"
        path.write_bytes(stream_png(stream))
        tracemalloc.start()
        try:
            decoded = read_gray(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decoded.tolist() == png_unfilter(stream)
        assert peak <= 4 * width * height + (1 << 20)

    @pytest.mark.parametrize("kind", [1, 2])
    def test_sub_and_up_decode_in_place(self, tmp_path, kind):
        # inflated stream, buffer and result: no further image-sized block
        gray = lane_image(3, (720, 1280))
        path = tmp_path / "lanes.png"
        path.write_bytes(stream_png(filtered_stream(gray, [kind] * 720)))
        tracemalloc.start()
        try:
            decoded = read_gray(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(decoded, gray)
        assert peak < 2.5 * gray.size

    @pytest.mark.parametrize("mode", [0, 1, 2, 3, 4, 5])  # 5: adaptive
    def test_camera_sized_lane_masks_decode_in_place(self, tmp_path, mode):
        # once the pooled decode buffer exists, the peak is inflating, which
        # holds the stream twice for a moment (zlib's output blocks and the
        # bytes joined from them): neither decoding nor thresholding nor the
        # caller's copy may rise above it
        gray = lane_image(4, (720, 1280))
        stream = filtered_stream(gray, [mode] * 720)
        path = tmp_path / "lanes.png"
        path.write_bytes(stream_png(stream))
        read_gray(path)  # warm-up: the pooled buffer is allocated once per thread
        for read, want in ((read_gray, gray), (load_mask, gray > 127)):
            tracemalloc.start()
            try:
                decoded = read(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.array_equal(decoded, want)
            assert peak < 2.2 * gray.size
        assert read_gray(path).tolist() == png_unfilter(stream)


def spy_scan(monkeypatch) -> list:
    """Record the runs of every `_scan` call, each as (first, stop, kind,
    sparse): buf rows first..stop-1 of filter type kind, sparse when they
    decode from the residuals `_scan` found."""
    calls = []
    real = maskio._scan

    def spy(buf, firsts, types):
        found = real(buf, firsts, types)
        runs = firsts[:-1].tolist(), firsts[1:].tolist(), types.tolist(), found[-1].tolist()
        calls.append(list(zip(*runs)))
        return found

    monkeypatch.setattr(maskio, "_scan", spy)
    return calls


def sparse_stream(rng, kinds, width, extra=0):
    """A stream of filter types kinds whose every run of one type has
    share + extra nonzero residuals, share being the most a sparse run may
    have: 1/_SPARSE of its pixels. Returns it with its runs."""
    kinds = np.asarray(kinds)
    stream = np.zeros((len(kinds), width + 1), np.uint8)
    stream[:, 0] = kinds
    edges = [0, *(np.flatnonzero(kinds[1:] != kinds[:-1]) + 1).tolist(), len(kinds)]
    for start, stop in zip(edges[:-1], edges[1:]):
        pixels = (stop - start) * width
        count = min(pixels // maskio._SPARSE + extra, pixels)
        residuals = np.zeros(pixels, np.uint8)
        residuals[rng.choice(pixels, count, replace=False)] = rng.integers(1, 256, count)
        stream[start:stop, 1:] = residuals.reshape(stop - start, width)
    return stream, list(zip(edges[:-1], edges[1:]))


class TestResidualScan:
    """Sparse runs decode from the nonzero residuals `_scan` finds, dense
    and short ones as before; every case against the scalar oracle."""

    @pytest.mark.parametrize("kind", [1, 2, 3, 4, 5])  # 5: adaptive
    @pytest.mark.parametrize("extra", [0, 1])
    def test_density_straddles_the_sparse_switch(self, tmp_path, monkeypatch, kind, extra):
        calls = spy_scan(monkeypatch)
        rng = np.random.default_rng(kind)
        for _ in range(4):
            height, width = rng.integers(9, 40), rng.integers(16, 80)
            kinds = [kind] * (height - 1)
            if kind == 5:  # runs of 1-12 rows of every type
                kinds = np.repeat(rng.integers(0, 5, height), rng.integers(1, 13, height))
                kinds = kinds[: height - 1]
            kinds = [2, *kinds]  # an Up row on top, so no Paeth row is turned Sub
            stream, runs = sparse_stream(rng, kinds, width, extra)
            calls.clear()
            assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)
            [scanned] = calls
            assert len(scanned) == len(runs)
            for (start, stop), (_, _, run_kind, sparse) in zip(runs, scanned):
                residual_scan = run_kind > 2 or run_kind == 1 and stop - start >= maskio._SHORT_SUB
                assert sparse == (residual_scan and not extra), (run_kind, stop - start)

    @pytest.mark.parametrize("kind", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("chunk", [None, 200])  # default: one 65 KiB chunk is 1008 rows
    def test_runs_longer_than_a_scan_chunk(self, tmp_path, monkeypatch, kind, chunk):
        if chunk is not None:
            monkeypatch.setattr(maskio, "_CHUNK", chunk)
        rng = np.random.default_rng(kind)
        height, width = (2000, 64) if chunk is None else (90, 37)
        kinds = [2] + [kind] * (height - 1)
        if kind == 5:
            kinds = np.repeat(rng.integers(1, 5, height), rng.integers(1, 40, height))[:height]
        stream, _ = sparse_stream(rng, kinds, width)
        stream[rng.random(height) < 0.3, 1:] = 0  # rows without residuals between busy ones
        assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)

    @pytest.mark.parametrize("kind", [1, 2, 3, 4, 5])
    def test_edge_columns_and_wrapping(self, tmp_path, kind):
        rng = np.random.default_rng(10 + kind)
        height, width = 24, 40
        stream = np.zeros((height, width + 1), np.uint8)
        stream[:, 0] = rng.integers(1, 5, height) if kind == 5 else kind
        stream[0, 0] = 2
        rows = rng.choice(np.arange(1, height), 12, replace=False)
        stream[rows, 1] = rng.choice([1, 128, 200, 255], 12)  # column 1
        stream[rows[:6], width] = rng.choice([1, 128, 200, 255], 6)  # the last column
        stream[rows[6:], width - 1 :] = 255  # 255 + 255 wraps, and ends a row on a nonzero sum
        stream[3, 1:] = 0
        stream[3, (1, 2, 3)] = (200, 100, 212)  # partial sums 200, 44, 0: wrap back to zero
        assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)

    def test_one_row_runs_and_a_paeth_first_row(self, tmp_path, monkeypatch):
        calls = spy_scan(monkeypatch)
        rng = np.random.default_rng(12)
        kinds = [4, 2, 4, 1, 4, 3, 4, 0, 4, 4, 1, 2, 3, 4, 1, 1, 1, 1, 1, 1, 1, 1, 4]
        stream, _ = sparse_stream(rng, kinds, 50)
        stream[0, 1:] = 0
        stream[0, (1, 7, 50)] = (9, 250, 3)  # Paeth under the zero row predicts left, as Sub
        assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)
        [runs] = calls
        assert runs[0] == (1, 2, 1, False)  # the first row decodes as a one-row Sub run
        for first, stop, kind, sparse in runs:
            assert sparse == (kind > 2 or kind == 1 and stop - first >= 8)

    @pytest.mark.parametrize("seed", range(8))
    def test_average_walks_from_the_changes_above(self, tmp_path, monkeypatch, seed):
        # rows without residuals under a row of steps: every walk starts
        # where the row above changes, many end in mid-row, and a few
        # residuals start walks between and over those changes
        calls = spy_scan(monkeypatch)
        rng = np.random.default_rng(seed)
        height, width = 40, 60
        stream = np.zeros((height, width + 1), np.uint8)
        stream[:, 0] = 3
        stream[0, 0] = 0
        steps = np.sort(rng.choice(np.arange(1, width), 6, replace=False))
        stream[0, 1:] = np.repeat(rng.integers(0, 256, 7), np.diff(steps, prepend=0, append=width))
        stream[0, width] ^= rng.integers(0, 2) * 85  # a change in the last column
        rows = rng.choice(np.arange(1, height), 10, replace=False)
        stream[rows, rng.integers(1, width + 1, 10)] = rng.integers(1, 256, 10)
        if seed % 2:  # an Up row inside the run starts a new run on a new row
            stream[height // 2, 0] = 2
        assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream)
        [runs] = calls
        assert all(sparse for _, _, kind, sparse in runs if kind == 3)

    def test_small_sparse_average_runs(self, tmp_path):
        # a sparse Average run walks from where the row above changes, and
        # keeps those columns from its own walks: under random, stepped and
        # binary rows, 1/_SPARSE residuals anywhere
        for seed in range(1500):
            rng = np.random.default_rng(seed)
            height, width = rng.integers(2, 12), rng.integers(2, 24)
            stream = np.zeros((height, width + 1), np.uint8)
            stream[:, 0] = 3
            stream[0, 0] = rng.choice([0, 2])
            if seed % 3 == 0:
                stream[0, 1:] = rng.integers(0, 256, width)
            elif seed % 3 == 1:
                thirds = np.diff([0, width // 3, width // 2, width])
                stream[0, 1:] = np.repeat(rng.integers(0, 256, 3), thirds)
            else:
                stream[0, 1:] = rng.choice([0, 255], width)
            count = max(1, (height - 1) * width // maskio._SPARSE)
            spots = rng.integers(1, height, count), rng.integers(1, width + 1, count)
            stream[spots] = rng.integers(1, 256, count)
            assert decode_stream(tmp_path, stream).tolist() == png_unfilter(stream), seed

    @pytest.mark.parametrize("kind", [1, 4])
    def test_lane_rows_sum_to_zero_or_not(self, tmp_path, kind):
        # a mask row that ends marked has residuals of a nonzero sum, and
        # its Sub fill must not run on into the rows below
        gray = lane_image(7, (120, 200))
        gray[40:60, 190:] = 255
        gray[80, 150:] = 255
        stream = filtered_stream(gray, [2] + [kind] * 119)
        decoded = decode_stream(tmp_path, stream)
        assert np.array_equal(decoded, gray)
        assert decoded.tolist() == png_unfilter(stream)


class TestPpm:
    def test_header_and_payload(self, tmp_path):
        rgb = np.zeros((2, 3, 3), np.uint8)
        rgb[0, 0] = (255, 0, 0)
        path = tmp_path / "overlay.ppm"
        write_ppm(path, rgb)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n3 2\n255\n")
        assert blob[len(b"P6\n3 2\n255\n") :] == rgb.tobytes()

    def test_shape_validated(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "bad.ppm", np.zeros((2, 3), np.uint8))


class TestNetpbmWriters:
    @staticmethod
    def as_rgb(gray):
        return np.repeat(np.asarray(gray)[..., None], 3, axis=2)

    @pytest.mark.parametrize(
        "samples",
        [[[256, -1]], [[1.7, 300.2]], [[0.5, 1.0]], [[np.nan, 0.0]], [[np.inf, 0.0]], [[-1.0, 0.0]]],
    )
    def test_samples_that_do_not_fit_a_byte_are_refused(self, tmp_path, samples):
        # [[256, -1]] used to read back as [[0, 255]], and [[1.7, 300.2]] as [[1, 44]]
        for write, image in ((write_pgm, np.array(samples)), (write_ppm, self.as_rgb(samples))):
            path = tmp_path / "out.pnm"
            with pytest.raises(ValueError, match="0..255"):
                write(path, image)
            assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 2, 3)])
    def test_an_image_without_pixels_is_refused_before_any_byte(self, tmp_path, shape):
        # (0, 3) used to be written as P5 "3 0", which read_gray refuses
        path = tmp_path / "empty.pnm"
        path.write_bytes(b"old")
        write = write_ppm if len(shape) == 3 else write_pgm
        with pytest.raises(ValueError, match="at least one pixel"):
            write(path, np.zeros(shape, np.uint8))
        assert path.read_bytes() == b"old"

    @pytest.mark.parametrize(
        "image",
        [
            np.array([[True, False]]),
            np.array([[0, 255]], np.int64),
            np.array([[0.0, 255.0]]),
            [[3, 200]],
            np.arange(12, dtype=np.uint16).reshape(3, 4)[:, ::2],
        ],
    )
    def test_byte_samples_of_any_dtype_are_written_as_bytes(self, tmp_path, image):
        want = np.asarray(image).astype(np.uint8)  # booleans as 0/1
        write_pgm(tmp_path / "g.pgm", image)
        assert np.array_equal(read_gray(tmp_path / "g.pgm"), want)
        write_ppm(tmp_path / "c.ppm", self.as_rgb(image))
        rows, cols = want.shape
        header = b"P6\n%d %d\n255\n" % (cols, rows)
        assert (tmp_path / "c.ppm").read_bytes() == header + self.as_rgb(want).tobytes()

    def test_uint8_is_written_without_a_copy_of_its_own(self, tmp_path):
        gray = np.random.default_rng(3).integers(0, 256, (720, 1280), dtype=np.uint8)
        tracemalloc.start()
        try:
            write_pgm(tmp_path / "big.pgm", gray)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the payload's bytes and the header joined to them; an astype or
        # ascontiguousarray copy would add a third image
        assert peak < 2.2 * gray.nbytes
        assert np.array_equal(read_gray(tmp_path / "big.pgm"), gray)
