import dataclasses
import time
from types import SimpleNamespace

import pytest

from lanepost import (
    BenchReport,
    ConfigError,
    SceneParams,
    StageTimings,
    benchmark,
    default_config,
    format_report,
    generate_scene,
)
from lanepost import bench


def make_masks(n, seed0=0):
    cfg = default_config()
    return [generate_scene(SceneParams(num_lanes=2), seed0 + i, cfg).mask for i in range(n)]


def test_single_frame_single_repetition():
    cfg = default_config()
    report = benchmark(make_masks(1), cfg, repetitions=1)
    assert report.frames == 1
    assert report.repetitions == 1
    assert report.total_median_ms > 0.0


def test_single_frame_median_is_the_p95():
    cfg = default_config()
    report = benchmark(make_masks(1), cfg, repetitions=1)
    # one sample: both statistics are that frame's timing
    assert report.stage_median_ms == report.stage_p95_ms
    assert report.total_median_ms == report.total_p95_ms
    header = format_report(report).splitlines()[1]
    assert header.split() == ["stage", "median", "ms", "p95", "ms"]


def test_report_holds_one_statistic_pair_and_one_throughput():
    assert [f.name for f in dataclasses.fields(BenchReport)] == [
        "frames",
        "repetitions",
        "stage_median_ms",
        "stage_p95_ms",
        "total_median_ms",
        "total_p95_ms",
        "wall_fps",
        "refused",
    ]


def test_wall_fps_reported():
    cfg = default_config()
    report = benchmark(make_masks(4), cfg, repetitions=2)
    assert report.wall_fps > 0.0
    assert f"wall_fps={report.wall_fps:.2f}" in format_report(report)


def test_report_formatting():
    cfg = default_config()
    text = format_report(benchmark(make_masks(1), cfg, repetitions=1))
    assert text.splitlines()[-1].startswith("wall_fps=")
    for stage in ("instance_detection", "bev", "voting", "fitting", "total"):
        assert stage in text


def test_parameter_validation():
    cfg = default_config()
    with pytest.raises(ConfigError):
        benchmark([], cfg)
    with pytest.raises(ConfigError):
        benchmark(make_masks(1), cfg, repetitions=0)


def test_load_stage_is_timed_beside_the_total(monkeypatch):
    # run_frame stubbed to fixed timings: the total is exactly their sum,
    # whatever the load stage costs
    timings = StageTimings(0.5, 0.25, 0.125, 2.0)
    monkeypatch.setattr(bench, "run_frame", lambda mask, cfg: SimpleNamespace(timings=timings))
    loaded = []

    def load(i):
        loaded.append(i)
        time.sleep(0.001)
        return i

    report = benchmark([0, 1], default_config(), repetitions=2, load=load)
    assert loaded == [0, 1] * 3  # the warm-up pass and two measured passes
    assert list(report.stage_median_ms) == ["load", "instance_detection", "bev", "voting", "fitting"]
    assert list(report.stage_p95_ms) == list(report.stage_median_ms)
    assert report.stage_median_ms["load"] >= 1.0
    assert report.total_median_ms == report.total_p95_ms == timings.total_ms == 2.875
    names = [line.split()[0] for line in format_report(report).splitlines()[2:-1]]
    assert names == ["instance_detection", "bev", "voting", "fitting", "total", "load"]
