import dataclasses
import json
import sys

import numpy as np
import pytest

from lanepost import (
    BenchReport,
    SceneParams,
    default_config,
    format_config,
    generate_scene,
    read_lanes,
    write_lanes,
    write_pgm,
    write_truth_curves,
)
from lanepost.cli import main


def test_synth_run_eval_flow(tmp_path, capsys):
    mask_path = tmp_path / "scene.pgm"
    truth_path = tmp_path / "scene.truth"
    lanes_path = tmp_path / "scene.lanes"
    overlay_path = tmp_path / "scene.ppm"

    assert (
        main(
            [
                "synth",
                "--seed", "11",
                "--lanes", "3",
                "--out-mask", str(mask_path),
                "--out-truth", str(truth_path),
            ]
        )
        == 0
    )
    assert mask_path.exists()
    assert truth_path.exists()
    assert (tmp_path / "scene.truth.ids.pgm").exists()

    assert (
        main(
            [
                "run",
                "--mask", str(mask_path),
                "--out-lanes", str(lanes_path),
                "--out-overlay", str(overlay_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "clusters=3" in out
    assert overlay_path.read_bytes().startswith(b"P6\n480 360\n255\n")
    assert len(read_lanes(lanes_path)) == 3

    assert main(["eval", "--result", str(lanes_path), "--truth", str(truth_path)]) == 0
    out = capsys.readouterr().out
    assert "recall=1.0000" in out
    assert "lanes=3 false_lanes=0 precision=1.0000" in out

    # purity needs the mask to rebuild per-pixel cluster data
    assert (
        main(
            [
                "eval",
                "--result", str(lanes_path),
                "--truth", str(truth_path),
                "--mask", str(mask_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "purity=1.0000" in out
    assert "mask_accuracy=1.000000" in out  # noiseless scene: mask == truth marking
    assert "mask_dice_loss=-2.000000" in out


class ClosedPipe:
    """A stdout whose reader has gone away, as in `lanepost run | head -0`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_run_writes_outputs_before_closed_stdout(tmp_path, capsys, monkeypatch):
    mask_path = tmp_path / "scene.pgm"
    truth_path = tmp_path / "scene.truth"
    synth = ["synth", "--seed", "5", "--lanes", "4"]
    assert main(synth + ["--out-mask", str(mask_path), "--out-truth", str(truth_path)]) == 0
    run = ["run", "--mask", str(mask_path)]
    assert main(run + ["--out-lanes", str(tmp_path / "normal.lanes")]) == 0
    capsys.readouterr()

    piped = tmp_path / "piped.lanes"
    overlay = tmp_path / "piped.ppm"
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(run + ["--out-lanes", str(piped), "--out-overlay", str(overlay)]) == 3
    assert "Broken pipe" in capsys.readouterr().err
    assert piped.read_bytes() == (tmp_path / "normal.lanes").read_bytes()
    assert len(read_lanes(piped)) == 4
    assert overlay.read_bytes().startswith(b"P6\n480 360\n255\n")


def test_bench_subcommand(tmp_path, capsys):
    assert main(["bench", "--frames", "2", "--reps", "1"]) == 0
    assert "wall_fps=" in capsys.readouterr().out


def test_bench_json(capsys):
    assert main(["bench", "--frames", "2", "--reps", "2", "--json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    assert set(report) == {field.name for field in dataclasses.fields(BenchReport)}
    assert (report["frames"], report["repetitions"]) == (2, 2)
    stages = {"instance_detection", "bev", "voting", "fitting"}
    for key in ("stage_median_ms", "stage_p95_ms"):
        assert set(report[key]) == stages
    assert report["total_median_ms"] <= report["total_p95_ms"]
    assert report["wall_fps"] > 0


def test_bench_mask_dir(tmp_path, capsys):
    for i in range(2):
        write_pgm(tmp_path / f"m{i}.pgm", np.zeros((360, 480), np.uint8))
    assert main(["bench", "--mask-dir", str(tmp_path), "--reps", "1"]) == 0
    assert "wall_fps=" in capsys.readouterr().out


def test_bench_mask_dir_skips_the_divider_id_maps_of_synth(tmp_path, capsys):
    scene = ["--out-mask", str(tmp_path / "a.pgm"), "--out-truth", str(tmp_path / "a.truth")]
    assert main(["synth", *scene]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "a.truth", "a.truth.ids.pgm"]
    capsys.readouterr()
    assert main(["bench", "--mask-dir", str(tmp_path), "--reps", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["frames"] == 1


def test_bench_mask_dir_json_times_the_load_stage(tmp_path, capsys):
    for i in range(2):
        write_pgm(tmp_path / f"m{i}.pgm", np.zeros((360, 480), np.uint8))
    assert main(["bench", "--mask-dir", str(tmp_path), "--reps", "1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    stages = {"load", "instance_detection", "bev", "voting", "fitting"}
    for key in ("stage_median_ms", "stage_p95_ms"):
        assert set(report[key]) == stages
    assert report["stage_median_ms"]["load"] > 0.0


def stop_line_mask():
    """A 360x480 mask holding one 50 px one-row streak, whose BEV points
    share one y: run_frame refuses it with DegenerateGeometryError."""
    mask = np.zeros((360, 480), np.uint8)
    mask[340, 20:70] = 255
    return mask


def test_bench_mask_dir_counts_refused_frames_and_times_the_rest(tmp_path, capsys):
    good = generate_scene(SceneParams(), 0, default_config()).mask.astype(np.uint8) * 255
    write_pgm(tmp_path / "a_good.pgm", good)
    write_pgm(tmp_path / "b_streak.pgm", stop_line_mask())
    argv = ["bench", "--mask-dir", str(tmp_path), "--reps", "2"]
    assert main(argv + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["frames"] == 2
    assert report["refused"] == {"DegenerateGeometryError": 1}
    assert report["stage_median_ms"]["voting"] > 0.0
    assert report["wall_fps"] > 0
    assert main(argv) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[-2].startswith("wall_fps=")
    assert table[-1] == "refused 1 of 2 frames: DegenerateGeometryError=1"


def test_bench_mask_dir_of_refused_frames_only_exits_4(tmp_path, capsys):
    write_pgm(tmp_path / "streak.pgm", stop_line_mask())
    assert main(["bench", "--mask-dir", str(tmp_path), "--reps", "1"]) == 4
    assert "processing error" in capsys.readouterr().err


def test_run_with_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "pipeline.cfg"
    cfg_path.write_text(format_config(default_config()) + "cluster.eta=25.0\n")
    mask_path = tmp_path / "empty.pgm"
    write_pgm(mask_path, np.zeros((360, 480), np.uint8))
    assert main(["run", "--mask", str(mask_path), "--config", str(cfg_path)]) == 0
    assert "lanes=0" in capsys.readouterr().out


def test_missing_mask_exits_3(tmp_path, capsys):
    assert main(["run", "--mask", str(tmp_path / "absent.pgm")]) == 3
    assert "io error" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "broken.cfg"
    cfg_path.write_text("cluster.eta=-3\n")
    mask_path = tmp_path / "empty.pgm"
    write_pgm(mask_path, np.zeros((360, 480), np.uint8))
    assert main(["run", "--mask", str(mask_path), "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_synth_with_more_lanes_than_divider_ids_exits_2(tmp_path, capsys):
    out = ["--out-mask", str(tmp_path / "m.pgm"), "--out-truth", str(tmp_path / "m.truth")]
    assert main(["synth", "--lanes", "300", *out]) == 2
    assert "num_lanes" in capsys.readouterr().err
    assert not (tmp_path / "m.pgm").exists()


def test_negative_synth_seed_exits_2(tmp_path, capsys):
    out = ["--out-mask", str(tmp_path / "m.pgm"), "--out-truth", str(tmp_path / "m.truth")]
    assert main(["synth", "--seed", "-1", *out]) == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "m.pgm").exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0"])
def test_eval_tolerance_that_is_not_finite_and_positive_exits_2(tmp_path, capsys, tolerance):
    truth, lanes = tmp_path / "s.truth", tmp_path / "s.lanes"
    write_truth_curves([], truth)
    write_lanes([], lanes)
    args = ["eval", "--result", str(lanes), "--truth", str(truth)]
    assert main([*args, "--tolerance", tolerance]) == 2
    assert "--tolerance must be finite and positive" in capsys.readouterr().err
    assert main([*args, "--tolerance", "0.5"]) == 0


def test_bad_mask_payload_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\nxx")
    assert main(["run", "--mask", str(bad)]) == 3
    capsys.readouterr()



def test_oversized_p2_sample_exits_3(tmp_path, capsys):
    bad = tmp_path / "huge.pgm"
    bad.write_bytes(b"P2\n2 1\n255\n1 99999999999999999999\n")
    assert main(["run", "--mask", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "io error" in err and "sample value out of range" in err

def test_empty_mask_dir_exits_3(tmp_path, capsys):
    assert main(["bench", "--mask-dir", str(tmp_path), "--reps", "1"]) == 3
    capsys.readouterr()


def test_eval_missing_result_exits_3(tmp_path, capsys):
    truth = tmp_path / "t.truth"
    truth.write_text("0 240 0 0 0 480\n")
    assert main(["eval", "--result", str(tmp_path / "absent"), "--truth", str(truth)]) == 3
    capsys.readouterr()
