import dataclasses

import numpy as np
import pytest

from lanepost import (
    ConfigError,
    FrameResult,
    SceneParams,
    StageTimings,
    SyntheticScene,
    default_config,
    evaluate,
    generate_scene,
    label_segments,
    match_dividers,
    match_lanes,
    read_truth_curves,
    run_frame,
    write_truth_curves,
)
from lanepost.synthetic import NOISE_ID

from oracles import cluster_purity, lane_precision
from test_golden import clutter_scenes


class TestGeneration:
    def test_same_seed_bit_identical(self):
        cfg = default_config()
        params = SceneParams(num_lanes=4, noise_rate=0.0004, occlusion_rate=0.15)
        a = generate_scene(params, 123, cfg)
        b = generate_scene(params, 123, cfg)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.truth_assignment, b.truth_assignment)
        assert a.truth_curves == b.truth_curves

    def test_different_seeds_differ(self):
        cfg = default_config()
        a = generate_scene(SceneParams(), 1, cfg)
        b = generate_scene(SceneParams(), 2, cfg)
        assert not np.array_equal(a.mask, b.mask)

    def test_noiseless_assignment_is_total(self):
        cfg = default_config()
        scene = generate_scene(SceneParams(num_lanes=1, curvature_range=0.0), 5, cfg)
        assert np.array_equal(scene.truth_assignment != 0, scene.mask)
        assert scene.mask.any()
        assert len(scene.truth_curves) == 1
        assert NOISE_ID not in np.unique(scene.truth_assignment)

    def test_noise_flip_count_is_binomial(self):
        # expectation 360*480*0.001 = 172.8 flips, sigma ~ 13.1
        cfg = default_config()
        params = SceneParams(num_lanes=2, noise_rate=0.001)
        clean = generate_scene(dataclasses.replace(params, noise_rate=0.0), 77, cfg)
        noisy = generate_scene(params, 77, cfg)
        flipped = int((clean.mask != noisy.mask).sum())
        sigma = np.sqrt(360 * 480 * 0.001 * 0.999)
        assert abs(flipped - 172.8) < 4 * sigma

    def test_noise_pixels_marked(self):
        cfg = default_config()
        scene = generate_scene(SceneParams(num_lanes=1, noise_rate=0.002), 3, cfg)
        on_noise = scene.truth_assignment == NOISE_ID
        assert on_noise.any()
        assert scene.mask[on_noise].all()
        assert np.array_equal(scene.truth_assignment != 0, scene.mask)

    def test_occlusion_reduces_marking(self):
        cfg = default_config()
        full = generate_scene(SceneParams(num_lanes=3), 11, cfg)
        gappy = generate_scene(SceneParams(num_lanes=3, occlusion_rate=0.9), 11, cfg)
        assert gappy.mask.sum() < full.mask.sum()

    def test_visible_extent_bounds_truth_range(self):
        cfg = default_config()
        scene = generate_scene(SceneParams(num_lanes=3, occlusion_rate=0.3), 21, cfg)
        for t in scene.truth_curves:
            assert 0.0 <= t.y_min <= t.y_max <= 480.0

    def test_params_validated(self):
        with pytest.raises(ConfigError):
            SceneParams(num_lanes=0)
        with pytest.raises(ConfigError):
            SceneParams(noise_rate=1.5)
        with pytest.raises(ConfigError):
            SceneParams(occlusion_rate=-0.1)
        with pytest.raises(ConfigError):
            SceneParams(dash_length=0.0)
        with pytest.raises(ConfigError, match="curvature_range must be non-negative"):
            SceneParams(curvature_range=-1e-4)
        with pytest.raises(ConfigError, match="gap_length must be non-negative"):
            SceneParams(gap_length=-1.0)

    @pytest.mark.parametrize("field", ["curvature_range", "dash_length", "gap_length", "dash_width"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_lengths_must_be_finite(self, field, value):
        # inf used to raise OverflowError or ValueError inside generate_scene
        with pytest.raises(ConfigError, match=f"{field.split('_')[0]}.*finite"):
            SceneParams(**{field: value})

    def test_divider_ids_stay_below_noise(self):
        # 255 lanes wrote divider 254 as id 255, NOISE_ID
        with pytest.raises(ConfigError, match="num_lanes"):
            SceneParams(num_lanes=NOISE_ID)
        scene = generate_scene(SceneParams(num_lanes=NOISE_ID - 1), 0, default_config())
        assert not (scene.truth_assignment == NOISE_ID).any()
        assert scene.truth_assignment.max() == NOISE_ID - 1

    @pytest.mark.parametrize("num_lanes", [2.5, 3.0, "3", None])
    def test_num_lanes_must_be_an_integer(self, num_lanes):
        with pytest.raises(ConfigError, match="num_lanes"):
            SceneParams(num_lanes=num_lanes)

    def test_num_lanes_takes_numpy_integers(self):
        cfg = default_config()
        want = generate_scene(SceneParams(num_lanes=3), 7, cfg)
        got = generate_scene(SceneParams(num_lanes=np.int64(3)), 7, cfg)
        assert np.array_equal(got.mask, want.mask)


    @pytest.mark.parametrize(
        "field, value",
        [("noise_rate", "0.1"), ("curvature_range", None), ("dash_length", "4"), ("gap_length", 1j),
         ("dash_width", "4"), ("occlusion_rate", None)],
    )
    def test_float_fields_must_be_numbers(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SceneParams(**{field: value})

    def test_float_fields_take_numpy_numbers(self):
        cfg = default_config()
        want = generate_scene(SceneParams(noise_rate=0.01, dash_length=40.0), 7, cfg)
        got = generate_scene(SceneParams(noise_rate=np.float64(0.01), dash_length=np.int64(40)), 7, cfg)
        assert np.array_equal(got.mask, want.mask)

class TestEvaluate:
    def test_perfect_run_on_noiseless_scene(self):
        cfg = default_config()
        scene = generate_scene(SceneParams(num_lanes=3), 42, cfg)
        metrics = evaluate(run_frame(scene.mask, cfg), scene)
        assert metrics.purity == 1.0
        assert metrics.recall == 1.0
        assert metrics.mean_lateral_error < 2.0
        assert metrics.divider_count == 3

    def test_everything_in_one_cluster_caps_recall(self):
        cfg = default_config()
        scene = generate_scene(SceneParams(num_lanes=3), 42, cfg)
        merged_cfg = dataclasses.replace(cfg, eta=1e9)
        metrics = evaluate(run_frame(scene.mask, merged_cfg), scene)
        assert metrics.cluster_count == 1
        assert metrics.recall <= 1 / 3

    def test_defaults_with_noise_and_occlusion(self):
        cfg = default_config()
        params = SceneParams(num_lanes=3, noise_rate=0.0005, occlusion_rate=0.2)
        scene = generate_scene(params, 7, cfg)
        metrics = evaluate(run_frame(scene.mask, cfg), scene)
        assert metrics.purity == 1.0
        assert metrics.mean_lateral_error < 2.0

    def test_mismatched_frame_rejected(self):
        cfg = default_config()
        scene_a = generate_scene(SceneParams(num_lanes=3), 1, cfg)
        scene_b = generate_scene(SceneParams(num_lanes=3), 2, cfg)
        result = run_frame(scene_a.mask, cfg)
        with pytest.raises(ValueError):
            evaluate(result, scene_b)

    @pytest.mark.parametrize("shape", [(300, 480), (360, 400)])
    def test_result_larger_than_its_scene_rejected(self, shape):
        cfg = default_config()
        scene = generate_scene(SceneParams(num_lanes=3), 1, cfg)
        result = run_frame(scene.mask, cfg)  # it has pixels past either crop
        small = SyntheticScene(
            scene.mask[: shape[0], : shape[1]], scene.truth_curves,
            scene.truth_assignment[: shape[0], : shape[1]],
        )
        with pytest.raises(ValueError, match="instance pixel out of bounds"):
            evaluate(result, small)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0, 0.0, -0.0])
    def test_a_tolerance_that_is_not_finite_and_positive_is_refused(self, tolerance):
        cfg = default_config()
        scene = generate_scene(SceneParams(num_lanes=3), 1, cfg)
        result = run_frame(scene.mask, cfg)
        curves = [lane.curve for lane in result.lanes]
        for match in (match_dividers, match_lanes):
            with pytest.raises(ValueError, match="lateral_tolerance must be finite and positive"):
                match(scene.truth_curves, curves, tolerance)
        with pytest.raises(ValueError, match="lateral_tolerance must be finite and positive"):
            evaluate(result, scene, tolerance)
        assert evaluate(result, scene, 1e-300).recall == 0.0  # a tiny tolerance still scores

    def test_empty_frame_is_pure_and_finds_nothing(self):
        cfg = default_config()
        scene = generate_scene(SceneParams(num_lanes=3), 1, cfg)
        metrics = evaluate(run_frame(np.zeros_like(scene.mask), cfg), scene)
        assert metrics.purity == 1.0
        assert (metrics.instance_count, metrics.cluster_count, metrics.lane_count) == (0, 0, 0)
        assert metrics.recall == 0.0


def oracle_purity(result, scene):
    instances = result.segments.instances()
    return cluster_purity(
        [inst.pixels.tolist() for inst in instances],
        result.labels.tolist(),
        scene.truth_assignment.tolist(),
        NOISE_ID,
    )


def clustered_at_random(mask, min_size, clusters, seed):
    """A FrameResult for mask's instances, put into clusters 0..clusters-1
    at random; a cluster may have no member."""
    segments = label_segments(mask, 8, min_size)
    labels = np.random.default_rng(seed).integers(0, clusters, len(segments.sizes))
    return FrameResult(segments, labels.astype(np.intp), [], StageTimings(0.0, 0.0, 0.0, 0.0))


class TestPurityOracle:
    """evaluate's purity is exactly the pixel-by-pixel oracle's."""

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_noise_only_instances(self, seed):
        cfg = default_config()
        params = SceneParams(num_lanes=4, noise_rate=0.01, occlusion_rate=0.2)
        scene = generate_scene(params, seed, cfg)
        result = clustered_at_random(scene.mask, 0, 5, seed)
        assert evaluate(result, scene).purity == oracle_purity(result, scene)

    @pytest.mark.parametrize("lanes", [2, 3, 5])
    def test_one_cluster(self, lanes):
        cfg = dataclasses.replace(default_config(), eta=1e9)
        scene = generate_scene(SceneParams(num_lanes=lanes, noise_rate=0.0005), 20 + lanes, cfg)
        result = run_frame(scene.mask, cfg)
        assert result.cluster_count == 1
        assert evaluate(result, scene).purity == oracle_purity(result, scene)

    @pytest.mark.parametrize("seed", range(6))
    def test_ties_and_ids_above_255(self, seed):
        # small instances over a few ids, many clusters: majority ties at
        # both levels, and truth ids that do not fit a byte
        rng = np.random.default_rng(seed)
        mask = rng.random((40, 60)) < 0.2
        ids = np.array([0, 1, 2, 256, 300, NOISE_ID], dtype=np.uint16)
        assignment = ids[rng.integers(0, len(ids), mask.shape)]
        scene = SyntheticScene(mask, [], assignment)
        result = clustered_at_random(mask, 0, 40, seed + 1)
        purity = evaluate(result, scene).purity
        assert 0.0 < purity < 1.0
        assert purity == oracle_purity(result, scene)

    def test_clusters_without_members(self):
        # labels need not be dense: spreading the clusters over every third
        # id leaves ids with no member and moves no purity
        rng = np.random.default_rng(11)
        mask = rng.random((40, 60)) < 0.2
        ids = np.array([0, 1, 2, NOISE_ID], dtype=np.uint8)
        scene = SyntheticScene(mask, [], ids[rng.integers(0, len(ids), mask.shape)])
        dense = clustered_at_random(mask, 0, 6, 12)
        sparse = FrameResult(dense.segments, dense.labels * 3 + 2, [], dense.timings)
        purity = evaluate(sparse, scene).purity
        assert 0.0 < purity < 1.0
        assert purity == evaluate(dense, scene).purity == oracle_purity(sparse, scene)

    def test_no_marking_pixel_at_all(self):
        rng = np.random.default_rng(7)
        mask = rng.random((40, 60)) < 0.2
        assignment = np.where(mask, NOISE_ID, 0).astype(np.uint8)
        scene = SyntheticScene(mask, [], assignment)
        result = clustered_at_random(mask, 0, 3, 8)
        assert evaluate(result, scene).purity == oracle_purity(result, scene)


def curve_tuples(curves):
    return [(c.c0, c.c1, c.c2, c.y_min, c.y_max) for c in curves]


def oracle_precision(result, scene, tolerance):
    lanes = curve_tuples(lane.curve for lane in result.lanes)
    return lane_precision(lanes, curve_tuples(scene.truth_curves), tolerance)


class TestPrecisionOracle:
    """evaluate's false lanes and precision are exactly the lane-by-lane
    oracle's."""

    @pytest.mark.parametrize("tolerance", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_noisy_scenes(self, seed, tolerance):
        cfg = default_config()
        params = SceneParams(num_lanes=2 + seed, noise_rate=0.002, occlusion_rate=0.2)
        scene = generate_scene(params, 60 + seed, cfg)
        result = run_frame(scene.mask, cfg)
        metrics = evaluate(result, scene, tolerance)
        assert metrics.lane_count == len(result.lanes)
        assert (metrics.false_lanes, metrics.precision) == oracle_precision(result, scene, tolerance)

    def test_clutter_frames(self):
        cfg = default_config()
        lanes = false_lanes = 0
        for scene in clutter_scenes():
            result = run_frame(scene.mask, cfg)
            metrics = evaluate(result, scene)
            assert (metrics.false_lanes, metrics.precision) == oracle_precision(result, scene, 2.0)
            lanes += metrics.lane_count
            false_lanes += metrics.false_lanes
        assert 0 < false_lanes < lanes  # the frames hold both correct and false lanes

    def test_one_cluster_is_one_false_lane(self):
        cfg = dataclasses.replace(default_config(), eta=1e9)
        scene = generate_scene(SceneParams(num_lanes=3), 42, cfg)
        metrics = evaluate(run_frame(scene.mask, cfg), scene)
        assert (metrics.lane_count, metrics.false_lanes, metrics.precision) == (1, 1, 0.0)

    def test_no_lanes_or_no_truth(self):
        cfg = default_config()
        scene = generate_scene(SceneParams(num_lanes=3), 42, cfg)
        curves = [lane.curve for lane in run_frame(scene.mask, cfg).lanes]
        assert match_lanes(scene.truth_curves, []) == (0, 1.0)
        assert match_lanes([], curves) == (3, 0.0)
        assert match_lanes(scene.truth_curves, curves) == (0, 1.0)


class TestTruthFiles:
    def test_round_trip(self, tmp_path):
        cfg = default_config()
        scene = generate_scene(SceneParams(num_lanes=4, occlusion_rate=0.1), 13, cfg)
        path = tmp_path / "scene.truth"
        write_truth_curves(scene.truth_curves, path)
        back = read_truth_curves(path)
        assert len(back) == len(scene.truth_curves)
        for orig, parsed in zip(scene.truth_curves, back):
            assert parsed.cluster_id == orig.cluster_id
            assert parsed.c0 == pytest.approx(orig.c0, rel=1e-8)
            assert parsed.c1 == pytest.approx(orig.c1, rel=1e-8)
            assert parsed.c2 == pytest.approx(orig.c2, rel=1e-8)
            assert parsed.y_min == pytest.approx(orig.y_min, rel=1e-8)
            assert parsed.y_max == pytest.approx(orig.y_max, rel=1e-8)

    def test_malformed_truth_rejected(self, tmp_path):
        from lanepost import FileFormatError

        path = tmp_path / "bad.truth"
        path.write_text("0 1.0 2.0\n")
        with pytest.raises(FileFormatError):
            read_truth_curves(path)

    def test_record_with_polyline_rejected(self, tmp_path):
        from lanepost import FileFormatError

        path = tmp_path / "lanes.truth"
        path.write_text("0 240 0 0 0 480 1,2 3,4\n")
        with pytest.raises(FileFormatError):
            read_truth_curves(path)

    @pytest.mark.parametrize(
        "record", ["0 nan 0 0 0 480", "0 240 0 inf 0 480", "0 240 0 0 -inf 480", "0 240 0 0 480 0"]
    )
    def test_non_finite_or_inverted_record_rejected(self, record, tmp_path):
        from lanepost import FileFormatError

        path = tmp_path / "bad.truth"
        path.write_text(f"0 240 0 0 0 480\n{record}\n")
        with pytest.raises(FileFormatError, match="line 2"):
            read_truth_curves(path)

    def test_written_like_lane_records_without_polyline(self, tmp_path):
        from lanepost import LaneCurve

        path = tmp_path / "scene.truth"
        write_truth_curves([LaneCurve(240.0, 0.5, 1e-4, 3.25, 480.0, 2)], path)
        assert path.read_text() == "2 240 0.5 0.0001 3.25 480\n"
        assert read_truth_curves(path) == [LaneCurve(240.0, 0.5, 1e-4, 3.25, 480.0, 2)]
