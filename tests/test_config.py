import dataclasses

import numpy as np
import pytest

from lanepost import (
    ConfigError,
    PipelineConfig,
    default_config,
    format_config,
    load_config,
    parse_config,
    save_config,
)


class TestRoundTrip:
    def test_defaults_survive(self):
        cfg = default_config()
        assert parse_config(format_config(cfg)) == cfg

    def test_non_default_values_survive(self):
        cfg = PipelineConfig(
            crop_top=40,
            crop_bottom=12,
            mask_threshold=99,
            connectivity=4,
            min_instance_size=3,
            eta=17.25,
            sample_count=33,
            loss_alpha=0.125,
            loss_epsilon=3e-7,
        )
        assert parse_config(format_config(cfg)) == cfg

    def test_default_text(self):
        assert format_config(default_config()) == (
            "crop.top=0\n"
            "crop.bottom=0\n"
            "crop.left=0\n"
            "crop.right=0\n"
            "resize.rows=360\n"
            "resize.cols=480\n"
            "mask.threshold=127\n"
            "instances.connectivity=8\n"
            "instances.min_size=15\n"
            "calibration.src=100.0,200.0 380.0,200.0 460.0,360.0 20.0,360.0\n"
            "calibration.dst=120.0,0.0 360.0,0.0 360.0,480.0 120.0,480.0\n"
            "cluster.eta=20.0\n"
            "curve.samples=50\n"
            "loss.alpha=0.01\n"
            "loss.epsilon=1e-05\n"
        )

    def test_file_round_trip(self, tmp_path):
        cfg = dataclasses.replace(default_config(), eta=11.5)
        path = tmp_path / "pipeline.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg


class TestParsing:
    def test_partial_override(self):
        cfg = parse_config("cluster.eta=12.5\ninstances.min_size=9\n")
        assert cfg.eta == 12.5
        assert cfg.min_instance_size == 9
        assert cfg.target_rows == 360  # untouched default

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\n  mask.threshold=200  \n")
        assert cfg.mask_threshold == 200

    def test_calibration_pairs(self):
        text = (
            "calibration.src=0,0 10,0 10,10 0,10\n"
            "calibration.dst=0,0 20,0 20,20 0,20\n"
        )
        cfg = parse_config(text)
        assert cfg.calibration.src == ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config("cluster.etaa=3\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("cluster.eta 3\n")

    def test_bad_int(self):
        with pytest.raises(ConfigError):
            parse_config("mask.threshold=very\n")

    def test_bad_quad(self):
        with pytest.raises(ConfigError):
            parse_config("calibration.src=0,0 1,0 1,1\ncalibration.dst=0,0 1,0 1,1 0,1\n")

    @pytest.mark.parametrize("point", ["1,0,5", "a,b", "1,", "0;1"])
    def test_bad_quad_point_named(self, point):
        text = f"calibration.src=0,0 {point} 1,1 0,1\ncalibration.dst=0,0 1,0 1,1 0,1\n"
        with pytest.raises(ConfigError, match=f"calibration.src: bad point '{point}'"):
            parse_config(text)

    def test_lonely_calibration_half(self):
        with pytest.raises(ConfigError):
            parse_config("calibration.src=0,0 1,0 1,1 0,1\n")

    def test_collinear_calibration(self):
        with pytest.raises(ConfigError):
            parse_config(
                "calibration.src=0,0 1,1 2,2 0,1\ncalibration.dst=0,0 1,0 1,1 0,1\n"
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")


class TestValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(crop_top=-1)
        with pytest.raises(ConfigError):
            PipelineConfig(mask_threshold=300)
        with pytest.raises(ConfigError):
            PipelineConfig(connectivity=5)
        with pytest.raises(ConfigError):
            PipelineConfig(eta=0.0)
        with pytest.raises(ConfigError):
            PipelineConfig(sample_count=1)
        with pytest.raises(ConfigError):
            PipelineConfig(loss_alpha=0.0)
        with pytest.raises(ConfigError):
            PipelineConfig(target_rows=0)
        with pytest.raises(ConfigError, match="min instance size must be non-negative"):
            PipelineConfig(min_instance_size=-1)

    @pytest.mark.parametrize("name", ["eta", "loss_alpha", "loss_epsilon"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_float_fields_must_be_finite(self, name, value):
        with pytest.raises(ConfigError, match="finite"):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize("line", ["cluster.eta=inf", "loss.alpha=inf", "loss.epsilon=Infinity"])
    def test_infinite_values_do_not_parse(self, line):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(line + "\n")

    @pytest.mark.parametrize("calibration", [5, None, ((0, 0), (1, 0), (1, 1), (0, 1))])
    def test_calibration_must_be_a_quad_correspondence(self, calibration):
        # 5 used to build, and run_frame then raised AttributeError
        with pytest.raises(ConfigError, match="QuadCorrespondence"):
            PipelineConfig(calibration=calibration)

    INTEGER_FIELDS = (
        "crop_top",
        "crop_bottom",
        "crop_left",
        "crop_right",
        "target_rows",
        "target_cols",
        "mask_threshold",
        "connectivity",
        "min_instance_size",
        "sample_count",
    )

    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    @pytest.mark.parametrize("value", [2.5, 8.0, "8", None])
    def test_integer_fields_refuse_non_integers(self, name, value):
        # format_config would truncate 2.5 to 2, so the file would not read
        # back as the config; an integral float is refused too
        with pytest.raises(ConfigError, match=name):
            PipelineConfig(**{name: value})

    FLOAT_FIELDS = ("eta", "loss_alpha", "loss_epsilon")

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", ["20", "1", None, 1 + 0j])
    def test_float_fields_refuse_non_numbers(self, name, value):
        # these used to raise TypeError from the range checks
        with pytest.raises(ConfigError, match=name):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_float_fields_take_numpy_floats_and_integers(self, name):
        value = getattr(default_config(), name)
        for number in (np.float64(value), np.float32(2.0), np.int64(3), 3):
            cfg = PipelineConfig(**{name: number})
            assert parse_config(format_config(cfg)) == cfg
        assert format_config(PipelineConfig(**{name: np.float64(value)})) == format_config(default_config())

    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    def test_integer_fields_take_numpy_integers(self, name):
        value = getattr(default_config(), name)
        for kind in (np.int64, np.int32, np.uint16):
            cfg = PipelineConfig(**{name: kind(value)})
            assert parse_config(format_config(cfg)) == cfg
            assert format_config(cfg) == format_config(default_config())
