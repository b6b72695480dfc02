"""Throughput measurement for the post-segmentation pipeline.

One untimed warm-up pass over all frames precedes the measured
repetitions, so cold caches and lazy allocations do not pollute the
statistics. Each stage, and the total, is reported as median and p95 over
every frame of every measured pass; wall_fps, the one throughput figure,
is frames processed over the wall-clock time of the measured passes.
Frames run one after another in the calling thread.

Frames given as sources with a `load` call (mask files, say) are loaded
in every pass, and that call is timed as one more stage, `load`. The
total covers the four run_frame stages only, with or without it, so it
compares across both kinds of input; wall_fps includes loading.

A frame that run_frame refuses with a ProcessingError in the warm-up pass
is counted by exception class in `refused` and left out of the measured
passes, so the statistics are those of the frames that completed. Only
when every frame is refused does the benchmark raise, with the first
frame's error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .errors import ConfigError, ProcessingError
from .pipeline import run_frame

__all__ = ["BenchReport", "benchmark", "format_report"]

_STAGES = ("instance_detection", "bev", "voting", "fitting")


@dataclass(frozen=True)
class BenchReport:
    frames: int
    repetitions: int
    stage_median_ms: dict
    stage_p95_ms: dict
    total_median_ms: float
    total_p95_ms: float
    wall_fps: float
    refused: dict


def benchmark(masks, cfg: PipelineConfig, repetitions: int = 1, load=None) -> BenchReport:
    """Time run_frame over the frames. With `load`, the frames are sources
    and load(source) gives each one's mask at target size, timed as the
    `load` stage."""
    masks = list(masks)
    if not masks:
        raise ConfigError("benchmark needs at least one frame")
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")

    def frame(source):
        """(load ms, run_frame timings) of one frame."""
        if load is None:
            return 0.0, run_frame(source, cfg).timings
        t0 = time.perf_counter()
        mask = load(source)
        load_ms = (time.perf_counter() - t0) * 1e3
        return load_ms, run_frame(mask, cfg).timings

    refused, completed, first_refusal = {}, [], None
    for source in masks:  # warm-up, excluded from statistics
        try:
            frame(source)
        except ProcessingError as exc:
            refused[type(exc).__name__] = refused.get(type(exc).__name__, 0) + 1
            first_refusal = first_refusal or exc
        else:
            completed.append(source)
    if not completed:
        raise first_refusal
    start = time.perf_counter()
    samples = [frame(source) for _ in range(repetitions) for source in completed]
    elapsed = time.perf_counter() - start

    per_stage = {
        stage: np.array([getattr(t, f"{stage}_ms") for _, t in samples]) for stage in _STAGES
    }
    totals = sum(per_stage.values())
    if load is not None:
        per_stage = {"load": np.array([load_ms for load_ms, _ in samples]), **per_stage}
    return BenchReport(
        frames=len(masks),
        repetitions=repetitions,
        stage_median_ms={k: float(np.median(v)) for k, v in per_stage.items()},
        stage_p95_ms={k: float(np.percentile(v, 95)) for k, v in per_stage.items()},
        total_median_ms=float(np.median(totals)),
        total_p95_ms=float(np.percentile(totals, 95)),
        wall_fps=len(samples) / elapsed,
        refused=refused,
    )


def format_report(report: BenchReport) -> str:
    lines = [
        f"frames={report.frames} repetitions={report.repetitions}",
        f"{'stage':<20}{'median ms':>12}{'p95 ms':>12}",
    ]
    rows = [(stage, report.stage_median_ms[stage], report.stage_p95_ms[stage]) for stage in _STAGES]
    rows.append(("total", report.total_median_ms, report.total_p95_ms))
    if "load" in report.stage_median_ms:  # after the total, which does not include it
        rows.append(("load", report.stage_median_ms["load"], report.stage_p95_ms["load"]))
    for name, median, p95 in rows:
        lines.append(f"{name:<20}{median:>12.4f}{p95:>12.4f}")
    lines.append(f"wall_fps={report.wall_fps:.2f}")
    if report.refused:
        counts = " ".join(f"{name}={count}" for name, count in sorted(report.refused.items()))
        lines.append(f"refused {sum(report.refused.values())} of {report.frames} frames: {counts}")
    return "\n".join(lines)
