import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from lanepost import (
    BevInstance,
    ConfigError,
    Lane,
    LaneCurve,
    back_project,
    cluster_instances,
    crop_and_resize,
    default_config,
    estimate_homography,
    fit_curve,
    format_lanes,
    label_instances,
    parse_lanes,
    read_lanes,
    run_frame,
    sample_curve,
    transform_instance,
    write_lanes,
)
from lanepost.cli import main

DASH_SPANS = ((20.0, 90.0), (140.0, 210.0), (260.0, 330.0), (380.0, 450.0))
DIVIDERS = ((150.0, 0.02, 1e-4), (240.0, 0.0, 1e-4), (330.0, -0.02, 1e-4))


def rasterize_dashes(cfg, dividers, dash_spans, width=4.0):
    """Test-side rasterizer: known BEV polynomials -> image mask."""
    h_inv = estimate_homography(cfg.calibration).inverse()
    mask = np.zeros((cfg.target_rows, cfg.target_cols), dtype=bool)
    for c0, c1, c2 in dividers:
        for lo, hi in dash_spans:
            ys = np.arange(lo, hi, 0.25)
            offsets = np.arange(-width / 2 + 0.25, width / 2, 0.5)
            xs = c2 * ys**2 + c1 * ys + c0
            gx = (xs[:, None] + offsets[None, :]).ravel()
            gy = np.repeat(ys, len(offsets))
            img = h_inv.apply(np.stack([gx, gy], axis=1))
            pr = np.floor(img[:, 1]).astype(int)
            pc = np.floor(img[:, 0]).astype(int)
            keep = (pr >= 0) & (pr < cfg.target_rows) & (pc >= 0) & (pc < cfg.target_cols)
            mask[pr[keep], pc[keep]] = True
    return mask


class TestCropAndResize:
    def test_identity_at_target_size(self):
        cfg = default_config()
        rng = np.random.default_rng(0)
        mask = rng.random((360, 480)) < 0.2
        assert np.array_equal(crop_and_resize(mask, cfg), mask)

    def test_exact_two_x_decimation(self):
        cfg = default_config()
        rng = np.random.default_rng(1)
        src = rng.random((720, 960)) < 0.5
        out = crop_and_resize(src, cfg)
        assert np.array_equal(out, src[::2, ::2])

    def test_crop_shifts_rows(self):
        cfg = dataclasses.replace(default_config(), crop_top=100)
        src = np.zeros((460, 480), dtype=bool)
        src[100, 5] = True  # first surviving row
        out = crop_and_resize(src, cfg)
        assert out.shape == (360, 480)
        assert out[0, 5]
        assert out.sum() == 1

    def test_margins_and_fractional_scale_match_ix_gather(self):
        rng = np.random.default_rng(2)
        for shape, margins in (
            ((719, 1277), (13, 7, 29, 3)),
            ((500, 333), (1, 2, 3, 4)),
            ((371, 481), (0, 11, 1, 0)),
        ):
            top, bottom, left, right = margins
            cfg = dataclasses.replace(
                default_config(), crop_top=top, crop_bottom=bottom, crop_left=left, crop_right=right
            )
            src = rng.integers(0, 4, shape).astype(np.uint8) * (rng.random(shape) < 0.3)
            cropped = src[top : shape[0] - bottom, left : shape[1] - right] != 0
            ch, cw = cropped.shape
            row_idx = (np.arange(cfg.target_rows) * ch) // cfg.target_rows
            col_idx = (np.arange(cfg.target_cols) * cw) // cfg.target_cols
            want = cropped[np.ix_(row_idx, col_idx)]
            got = crop_and_resize(src, cfg)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (shape, margins)

    def test_whole_and_fractional_scales_match_index_gather(self):
        # a whole scale is taken as a strided slice, which must pick the
        # same pixels as the index formula
        rng = np.random.default_rng(3)
        for shape, margins in (
            ((360, 480), (0, 0, 0, 0)),
            ((740, 1440), (15, 5, 0, 0)),
            ((1090, 965), (7, 3, 2, 3)),
            ((721, 962), (0, 1, 1, 1)),
            ((723, 1001), (2, 1, 20, 1)),
        ):
            top, bottom, left, right = margins
            cfg = dataclasses.replace(
                default_config(), crop_top=top, crop_bottom=bottom, crop_left=left, crop_right=right
            )
            src = rng.integers(0, 3, shape).astype(np.uint8)
            rows = top + (np.arange(360) * (shape[0] - bottom - top)) // 360
            cols = left + (np.arange(480) * (shape[1] - right - left)) // 480
            want = src[rows][:, cols] != 0
            got = crop_and_resize(src, cfg)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (shape, margins)

    @pytest.mark.parametrize("shape, margins", [
        ((590, 1640), (0, 0, 0, 0)),
        ((590, 1640), (230, 0, 0, 0)),  # whole rows, 1640 / 480 columns
        ((590, 1640), (10, 20, 40, 40)),
        ((720, 1280), (0, 0, 0, 0)),
        ((720, 1280), (0, 0, 160, 160)),  # a whole scale both ways
        ((720, 1280), (80, 40, 3, 0)),
    ])
    def test_camera_widths_match_the_index_rule(self, shape, margins):
        # CULane (590x1640) and TuSimple (720x1280) frames: every branch of
        # the crop must pick lo + (i * (hi - lo)) // n on both axes
        top, bottom, left, right = margins
        cfg = dataclasses.replace(
            default_config(), crop_top=top, crop_bottom=bottom, crop_left=left, crop_right=right
        )
        mask = np.random.default_rng(list(shape) + list(margins)).random(shape) < 0.3
        rows = [top + (i * (shape[0] - bottom - top)) // cfg.target_rows for i in range(cfg.target_rows)]
        cols = [left + (i * (shape[1] - right - left)) // cfg.target_cols for i in range(cfg.target_cols)]
        got = crop_and_resize(mask, cfg)
        assert got.dtype == bool
        assert np.array_equal(got, mask[np.ix_(rows, cols)])

    def test_truth_of_every_dtype_and_never_the_input(self):
        # the output is a new boolean array, true where the source pixel is
        # true as astype(bool) reads it: NaN counts as nonzero, -0.0 as
        # zero, an object by its truth value
        cfg = default_config()
        rng = np.random.default_rng(4)
        for shape in ((360, 480), (720, 960), (723, 1001), (720, 1280), (590, 1640)):
            codes = rng.integers(0, 4, shape)
            for src in (
                codes == 1,
                codes.astype(np.uint8) * 85,
                np.choose(codes, [0.0, -0.0, np.nan, 0.5]),
                np.choose(codes, [0j, 1j, -0.0 + 0j, 2.0 + 0j]),
                np.choose(codes, np.array([0, None, "lane", ""], dtype=object)),
            ):
                rows = (np.arange(360) * shape[0]) // 360
                cols = (np.arange(480) * shape[1]) // 480
                want = src[np.ix_(rows, cols)].astype(bool)
                got = crop_and_resize(src, cfg)
                assert got.dtype == bool and np.array_equal(got, want), (shape, src.dtype)
                assert not np.shares_memory(got, src)

    @pytest.mark.parametrize("shape", [(400, 480, 1), (400,), ()])
    def test_mask_that_is_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match="mask must be 2D"):
            crop_and_resize(np.zeros(shape, dtype=bool), default_config())

    def test_degenerate_crop_rejected(self):
        cfg = dataclasses.replace(default_config(), crop_top=300, crop_bottom=300)
        with pytest.raises(ConfigError):
            crop_and_resize(np.zeros((400, 480), dtype=bool), cfg)


class TestRunFrame:
    def test_empty_mask(self):
        cfg = default_config()
        result = run_frame(np.zeros((360, 480), dtype=bool), cfg)
        assert result.instance_count == 0
        assert result.cluster_count == 0
        assert result.lanes == []

    def test_single_solid_marking(self):
        cfg = default_config()
        mask = rasterize_dashes(cfg, [(240.0, 0.0, 0.0)], [(20.0, 460.0)])
        result = run_frame(mask, cfg)
        assert result.instance_count == 1
        assert result.cluster_count == 1
        assert len(result.lanes) == 1

    def test_three_dividers_four_dashes(self):
        cfg = default_config()
        mask = rasterize_dashes(cfg, DIVIDERS, DASH_SPANS)
        result = run_frame(mask, cfg)
        assert result.instance_count == 12
        assert result.cluster_count == 3
        assert len(result.lanes) == 3
        ys = np.linspace(20.0, 450.0, 200)
        for c0, c1, c2 in DIVIDERS:
            truth = c2 * ys**2 + c1 * ys + c0
            best = min(
                float(np.abs(lane.curve.eval(ys) - truth).max()) for lane in result.lanes
            )
            assert best < 2.0

    def test_lane_count_matches_cluster_count(self):
        cfg = default_config()
        mask = rasterize_dashes(cfg, DIVIDERS[:2], DASH_SPANS)
        result = run_frame(mask, cfg)
        assert len(result.lanes) == result.cluster_count

    def test_polyline_invariants(self):
        cfg = default_config()
        mask = rasterize_dashes(cfg, DIVIDERS, DASH_SPANS)
        for lane in run_frame(mask, cfg).lanes:
            assert len(lane.polyline) >= 2
            assert np.all(np.diff(lane.polyline[:, 1]) > 0)

    def test_timings_non_negative(self):
        cfg = default_config()
        t = run_frame(np.zeros((360, 480), dtype=bool), cfg).timings
        assert min(t.instance_detection_ms, t.bev_ms, t.voting_ms, t.fitting_ms) >= 0.0
        assert t.total_ms >= 0.0

    def test_deterministic_lanes(self):
        cfg = default_config()
        mask = rasterize_dashes(cfg, DIVIDERS, DASH_SPANS)
        a = run_frame(mask, cfg)
        b = run_frame(mask, cfg)
        assert len(a.lanes) == len(b.lanes)
        for la, lb in zip(a.lanes, b.lanes):
            assert la.curve == lb.curve
            assert np.array_equal(la.polyline, lb.polyline)
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_equals_manual_stage_chain(self):
        cfg = default_config()
        mask = rasterize_dashes(cfg, DIVIDERS, DASH_SPANS)
        result = run_frame(mask, cfg)

        h = estimate_homography(cfg.calibration)
        instances = label_instances(mask, cfg.connectivity, cfg.min_instance_size)
        bev = [BevInstance.from_points(i.id, transform_instance(h, i)) for i in instances]
        clustering = cluster_instances(bev, cfg.eta)
        assert clustering.assignment == dict(enumerate(result.labels.tolist()))
        by_id = {b.id: b for b in bev}
        h_inv = h.inverse()
        for cluster_id, member_ids in enumerate(clustering.members()):
            pts = np.concatenate([by_id[i].points for i in member_ids])
            curve = fit_curve(pts, cluster_id)
            assert curve == result.lanes[cluster_id].curve
            poly = back_project(h_inv, sample_curve(curve, cfg.sample_count))
            assert np.array_equal(poly, result.lanes[cluster_id].polyline)

    def test_wrong_mask_size_rejected(self):
        with pytest.raises(ValueError):
            run_frame(np.zeros((100, 100), dtype=bool), default_config())

    def test_homography_solved_once_per_calibration(self, monkeypatch):
        # and the pixel map built once: run_frame looks its points up in
        # the map and never maps a frame's pixels itself
        from lanepost import QuadCorrespondence, homography, pipeline

        solved, transformed = [], []
        transform_pixels = homography.transform_pixels

        def counting(corr):
            solved.append(corr)
            return estimate_homography(corr)

        def spy(*args, **kwargs):
            transformed.append(args)
            return transform_pixels(*args, **kwargs)

        monkeypatch.setattr(pipeline, "estimate_homography", counting)
        monkeypatch.setattr(homography, "transform_pixels", spy)
        monkeypatch.setattr(pipeline, "transform_pixels", spy, raising=False)
        pipeline._pixel_map.cache_clear()
        cfg = default_config()
        mask = rasterize_dashes(cfg, DIVIDERS, DASH_SPANS)
        first = run_frame(mask, cfg)
        twin = QuadCorrespondence(cfg.calibration.src, cfg.calibration.dst)  # equal, not identical
        again = run_frame(mask, dataclasses.replace(cfg, calibration=twin))
        assert solved == [cfg.calibration]
        info = pipeline._pixel_map.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert transformed == []
        assert format_lanes(first.lanes) == format_lanes(again.lanes)
        pipeline._pixel_map.cache_clear()

    @pytest.mark.parametrize("noise_rate", [0.03, 0.08, 0.12])
    def test_speckle_clearing_leaves_the_frame_unchanged(self, monkeypatch, noise_rate):
        from lanepost import SceneParams, generate_scene, instances

        cfg = default_config()
        outcomes = {}
        for threshold in (0, np.inf):  # clearing forced on, then off
            monkeypatch.setattr(instances, "_CLEAR_BOUNDARIES", threshold)
            frames = []
            for seed, lanes in enumerate((2, 3, 4, 5)):
                mask = generate_scene(SceneParams(num_lanes=lanes, noise_rate=noise_rate), seed, cfg).mask
                result = run_frame(mask, cfg)
                frames.append((
                    result.segments.pixels.tobytes(),
                    result.segments.sizes.tolist(),
                    result.labels.tobytes(),
                    format_lanes(result.lanes),
                ))
            outcomes[threshold] = frames
        assert outcomes[0] == outcomes[np.inf]
        assert all(lanes for *_, lanes in outcomes[0])


class TestLaneFiles:
    def test_round_trip(self):
        cfg = default_config()
        mask = rasterize_dashes(cfg, DIVIDERS, DASH_SPANS)
        lanes = run_frame(mask, cfg).lanes
        parsed = parse_lanes(format_lanes(lanes))
        assert len(parsed) == len(lanes)
        for orig, back in zip(lanes, parsed):
            assert back.curve.cluster_id == orig.curve.cluster_id
            assert back.curve.c0 == pytest.approx(orig.curve.c0, rel=1e-8)
            assert back.curve.c1 == pytest.approx(orig.curve.c1, rel=1e-8)
            assert back.curve.c2 == pytest.approx(orig.curve.c2, rel=1e-8)
            assert back.curve.y_min == pytest.approx(orig.curve.y_min, rel=1e-8)
            assert back.curve.y_max == pytest.approx(orig.curve.y_max, rel=1e-8)
            assert back.polyline.shape == orig.polyline.shape
            assert np.allclose(back.polyline, orig.polyline, rtol=1e-8, atol=1e-6)

    def test_numbers_print_as_nine_digit_g(self):
        values = [0.0, -0.0, 1e-300, 5e-324, -5e-324, 1e21, np.inf, -np.inf, np.nan, 1 / 3, -2.5e-7]
        poly = np.array(values + values[::-1]).reshape(-1, 2)
        curve = LaneCurve(-0.0, 5e-324, 1e21, np.inf, np.nan, 7)
        text = format_lanes([Lane(curve, poly), Lane(curve, np.empty((0, 2)))])
        head = " ".join(
            ["7"] + [f"{v:.9g}" for v in (curve.c0, curve.c1, curve.c2, curve.y_min, curve.y_max)]
        )
        points = " ".join(f"{x:.9g},{y:.9g}" for x, y in poly)
        assert text == f"{head} {points}\n{head}\n"
        assert head == "7 -0 4.94065646e-324 1e+21 inf nan"

    def test_empty_lane_list(self):
        assert format_lanes([]) == ""
        assert parse_lanes("") == []

    def test_blank_and_comment_lines_skipped(self):
        record = "3 1 0.5 0 10 20 1,2 3,4"
        text = f"# lanes of frame 7\n\n{record}\n   \n  # between records\n\t\n{record}\n"
        lanes = parse_lanes(text)
        assert format_lanes(lanes) == format_lanes(parse_lanes(record)) * 2
        from lanepost import FileFormatError

        with pytest.raises(FileFormatError, match="line 3: expected at least 8 fields"):
            parse_lanes("# c\n\n1 2 3\n")  # skipped lines still count

    def test_malformed_record_rejected(self):
        from lanepost import FileFormatError

        with pytest.raises(FileFormatError):
            parse_lanes("0 1.0 2.0\n")
        with pytest.raises(FileFormatError):
            parse_lanes("0 a b c 0 1 1,2 3,4\n")

    @pytest.mark.parametrize(
        "record",
        [
            "0 nan 0 0 0 10 1,2 3,4",
            "0 240 inf 0 0 10 1,2 3,4",
            "0 240 0 -inf 0 10 1,2 3,4",
            "0 240 0 0 nan 10 1,2 3,4",
            "0 240 0 0 0 inf 1,2 3,4",
            "0 240 0 0 0 10 nan,2 3,4",
            "0 240 0 0 0 10 1,2 3,-inf",
            "0 240 0 0 10 0 1,2 3,4",
        ],
    )
    def test_non_finite_or_inverted_record_rejected(self, record, tmp_path):
        from lanepost import FileFormatError

        text = f"0 240 0 0 0 10 1,2 3,4\n{record}\n"
        with pytest.raises(FileFormatError, match="line 2"):
            parse_lanes(text)
        path = tmp_path / "bad.lanes"
        path.write_text(text)
        with pytest.raises(FileFormatError, match="line 2"):
            read_lanes(path)

    def test_record_without_full_polyline_rejected(self):
        from lanepost import FileFormatError

        for text in ("0 1 2 3 0 1\n", "0 1 2 3 0 1 1,2\n", "0 1 2 3 0 1 1,2 3\n"):
            with pytest.raises(FileFormatError):
                parse_lanes(text)


def three_lanes():
    cfg = default_config()
    return run_frame(rasterize_dashes(cfg, DIVIDERS, DASH_SPANS), cfg).lanes


class TestWriteLanes:
    """write_lanes leaves what open(path, "w") would, without truncating
    the file first."""

    @pytest.mark.parametrize("old_size", [0, 10, 5000, 100_000])
    def test_over_shorter_and_longer_files(self, tmp_path, old_size):
        lanes = three_lanes()
        text = format_lanes(lanes).encode("utf-8")
        assert 10 < len(text) < 5000
        path = tmp_path / "frame.lanes"
        path.write_bytes(b"x" * old_size)
        write_lanes(lanes, path)
        assert path.read_bytes() == text

    def test_empty_lane_list_empties_the_file(self, tmp_path):
        path = tmp_path / "frame.lanes"
        path.write_bytes(b"old lanes\n" * 100)
        write_lanes([], path)
        assert path.read_bytes() == b""

    def test_file_keeps_its_inode(self, tmp_path):
        lanes = three_lanes()
        path = tmp_path / "frame.lanes"
        write_lanes(lanes, path)
        inode = path.stat().st_ino
        write_lanes(lanes[:1], path)
        write_lanes(lanes, path)
        assert path.stat().st_ino == inode

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_new_file_mode_is_that_of_open_w(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            write_lanes(three_lanes(), tmp_path / "frame.lanes")
        finally:
            os.umask(old)
        assert (tmp_path / "frame.lanes").stat().st_mode == (tmp_path / "reference").stat().st_mode

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="no /dev/null")
    def test_dev_null(self):
        write_lanes(three_lanes(), "/dev/null")
        write_lanes([], "/dev/null")

    def test_short_writes_land_whole(self, tmp_path, monkeypatch):
        write = os.write
        calls = []

        def short_write(fd, data):
            calls.append(len(data))
            return write(fd, bytes(data[:7]))

        lanes = three_lanes()
        path = tmp_path / "frame.lanes"
        path.write_bytes(b"x" * 20_000)
        monkeypatch.setattr(os, "write", short_write)
        write_lanes(lanes, path)
        monkeypatch.undo()
        text = format_lanes(lanes).encode("utf-8")
        assert len(calls) == -(-len(text) // 7)
        assert path.read_bytes() == text

    def test_never_truncates_on_open(self, tmp_path, monkeypatch):
        real_open = os.open
        flags = []

        def spy(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        lanes = three_lanes()
        path = tmp_path / "frame.lanes"
        for written in (lanes, [], lanes[:1]):
            write_lanes(written, path)
        monkeypatch.undo()
        assert len(flags) == 3
        assert all(f & os.O_TRUNC == 0 for f in flags)

    def test_missing_directory_raises_like_open(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            write_lanes(three_lanes(), tmp_path / "absent" / "frame.lanes")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    def test_cli_full_device_exits_3(self, tmp_path, capsys):
        mask, truth = str(tmp_path / "scene.pgm"), str(tmp_path / "scene.truth")
        assert main(["synth", "--seed", "3", "--out-mask", mask, "--out-truth", truth]) == 0
        capsys.readouterr()
        assert main(["run", "--mask", mask, "--out-lanes", "/dev/full"]) == 3
        assert "io error" in capsys.readouterr().err
