import pytest

from lanepost import ConfigError, SceneParams, benchmark, default_config, format_report, generate_scene


def make_masks(n, seed0=0):
    cfg = default_config()
    return [generate_scene(SceneParams(num_lanes=2), seed0 + i, cfg).mask for i in range(n)]


def test_single_frame_single_repetition():
    cfg = default_config()
    report = benchmark(make_masks(1), cfg, repetitions=1)
    assert report.frames == 1
    assert report.repetitions == 1
    # one sample: stds collapse to zero and the mean is that frame's timing
    assert all(v == 0.0 for v in report.stage_std_ms.values())
    assert report.total_std_ms == 0.0
    assert report.total_mean_ms > 0.0


def test_single_frame_median_and_p95_are_the_mean():
    cfg = default_config()
    report = benchmark(make_masks(1), cfg, repetitions=1)
    assert report.stage_median_ms == report.stage_mean_ms
    assert report.stage_p95_ms == report.stage_mean_ms
    assert report.total_median_ms == report.total_p95_ms == report.total_mean_ms
    header = format_report(report).splitlines()[1]
    assert "median ms" in header and "p95 ms" in header


def test_fps_identity():
    cfg = default_config()
    report = benchmark(make_masks(3), cfg, repetitions=2)
    assert report.fps == pytest.approx(1000.0 / report.total_mean_ms, rel=1e-12)
    assert report.total_mean_ms == pytest.approx(
        sum(report.stage_mean_ms.values()), rel=1e-9
    )


def test_wall_fps_reported():
    cfg = default_config()
    report = benchmark(make_masks(4), cfg, repetitions=2)
    assert report.wall_fps > 0.0
    assert f"wall_fps={report.wall_fps:.2f}" in format_report(report)


def test_report_formatting():
    cfg = default_config()
    text = format_report(benchmark(make_masks(1), cfg, repetitions=1))
    assert "fps=" in text
    for stage in ("instance_detection", "bev", "voting", "fitting", "total"):
        assert stage in text


def test_parameter_validation():
    cfg = default_config()
    with pytest.raises(ConfigError):
        benchmark([], cfg)
    with pytest.raises(ConfigError):
        benchmark(make_masks(1), cfg, repetitions=0)


def test_load_stage_is_timed_beside_the_total():
    cfg = default_config()
    masks = make_masks(2)
    loaded = []

    def load(i):
        loaded.append(i)
        return masks[i]

    report = benchmark([0, 1], cfg, repetitions=2, load=load)
    assert loaded == [0, 1] * 3  # the warm-up pass and two measured passes
    assert list(report.stage_mean_ms) == ["load", "instance_detection", "bev", "voting", "fitting"]
    assert report.stage_mean_ms["load"] > 0.0
    run_stages = sum(v for k, v in report.stage_mean_ms.items() if k != "load")
    assert report.total_mean_ms == pytest.approx(run_stages, rel=1e-9)
    assert report.fps == pytest.approx(1000.0 / report.total_mean_ms, rel=1e-12)
    names = [line.split()[0] for line in format_report(report).splitlines()[2:-1]]
    assert names == ["instance_detection", "bev", "voting", "fitting", "total", "load"]
