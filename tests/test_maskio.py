import tracemalloc
import zlib

import numpy as np
import pytest

from lanepost import ImageIOError, SceneParams, default_config, generate_scene
from lanepost import load_mask, read_gray, write_pgm, write_ppm
from lanepost import maskio
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
