"""Command-line front end.

The segmentation network itself is out of scope here: `run` ingests an
already-segmented binary mask (graymap or grayscale PNG) and executes the
post-processing stages. Subcommands:

  run    process one mask, optionally writing a lane file and an overlay
  synth  generate a seeded synthetic scene with ground truth
  bench  time the pipeline over synthetic or on-disk frames
  eval   score a lane file against a truth file

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 processing
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bench import benchmark, format_report
from .config import default_config, load_config
from .errors import ConfigError, FileFormatError, ImageIOError, ProcessingError
from .losses import LossParams, penalized_dice_loss, pixel_accuracy
from .maskio import load_mask, read_gray, write_pgm, write_ppm
from .pipeline import crop_and_resize, read_lanes, run_frame, write_lanes
from .render import render_overlay
from .synthetic import (
    NOISE_ID,
    SceneParams,
    SyntheticScene,
    evaluate,
    generate_scene,
    match_dividers,
    match_lanes,
    read_truth_curves,
    write_truth_curves,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_PROCESSING = 4


def _ids_path(truth_path) -> str:
    return str(truth_path) + ".ids.pgm"


def _load_cfg(path):
    return load_config(path) if path else default_config()


def _cmd_run(args) -> int:
    cfg = _load_cfg(args.config)
    mask = load_mask(args.mask, cfg.mask_threshold)
    mask = crop_and_resize(mask, cfg)
    result = run_frame(mask, cfg)
    # files first: a summary reader that closes stdout early must not cost them
    if args.out_lanes:
        write_lanes(result.lanes, args.out_lanes)
    if args.out_overlay:
        write_ppm(args.out_overlay, render_overlay(mask, result.lanes))
    t = result.timings
    print(
        f"instances={result.instance_count} clusters={result.cluster_count} "
        f"lanes={len(result.lanes)}"
    )
    print(
        f"timings ms: detect={t.instance_detection_ms:.3f} bev={t.bev_ms:.3f} "
        f"vote={t.voting_ms:.3f} fit={t.fitting_ms:.3f} total={t.total_ms:.3f}"
    )
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    cfg = _load_cfg(args.config)
    params = SceneParams(
        num_lanes=args.lanes,
        noise_rate=args.noise_rate,
        occlusion_rate=args.occlusion_rate,
    )
    scene = generate_scene(params, args.seed, cfg)
    write_pgm(args.out_mask, scene.mask.astype(np.uint8) * 255)
    write_truth_curves(scene.truth_curves, args.out_truth)
    write_pgm(_ids_path(args.out_truth), scene.truth_assignment)
    print(
        f"seed={args.seed} dividers={len(scene.truth_curves)} "
        f"marking_pixels={int(scene.mask.sum())}"
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _load_cfg(args.config)
    if args.mask_dir:
        paths = sorted(
            p
            for p in Path(args.mask_dir).iterdir()
            if p.suffix.lower() in (".pgm", ".png") and not p.name.endswith(_ids_path(""))
        )
        if not paths:
            raise ImageIOError(args.mask_dir, "no .pgm or .png masks found")
        report = benchmark(
            paths,
            cfg,
            repetitions=args.reps,
            load=lambda path: crop_and_resize(load_mask(path, cfg.mask_threshold), cfg),
        )
    else:
        masks = [
            generate_scene(SceneParams(), seed, cfg).mask for seed in range(args.frames)
        ]
        report = benchmark(masks, cfg, repetitions=args.reps)
    print(json.dumps(dataclasses.asdict(report)) if args.json else format_report(report))
    return EXIT_OK


def _cmd_eval(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigError(f"--tolerance must be finite and positive, got {args.tolerance}")
    lanes = read_lanes(args.result)
    truth = read_truth_curves(args.truth)
    curves = [lane.curve for lane in lanes]
    matched, recall, mean_err = match_dividers(truth, curves, args.tolerance)
    false_lanes, precision = match_lanes(truth, curves, args.tolerance)
    print(f"dividers={len(truth)} matched={matched} recall={recall:.4f}")
    print(f"lanes={len(curves)} false_lanes={false_lanes} precision={precision:.4f}")
    print(f"mean_lateral_error={mean_err:.4f}")
    if args.mask:
        # purity needs per-pixel cluster data, so rerun the pipeline on the mask
        cfg = _load_cfg(args.config)
        mask = crop_and_resize(load_mask(args.mask, cfg.mask_threshold), cfg)
        assignment = read_gray(_ids_path(args.truth))
        scene = SyntheticScene(mask, truth, assignment)
        metrics = evaluate(run_frame(mask, cfg), scene, lateral_tolerance=args.tolerance)
        print(f"purity={metrics.purity:.4f} (recomputed from mask)")

        # segmentation-quality numbers for the ingested mask itself
        marking = (assignment != 0) & (assignment != NOISE_ID)
        gt_vol = np.stack([~marking, marking], axis=2).astype(float)
        pred_vol = np.stack([~mask, mask], axis=2).astype(float)
        seg_params = LossParams(cfg.loss_alpha, cfg.loss_epsilon)
        print(
            f"mask_accuracy={pixel_accuracy(gt_vol, pred_vol):.6f} "
            f"mask_dice_loss={penalized_dice_loss(gt_vol, pred_vol, seg_params):.6f}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lanepost", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="process one segmentation mask")
    p_run.add_argument("--mask", required=True, help="P2/P5 graymap or grayscale PNG")
    p_run.add_argument("--config", help="config file (defaults apply when omitted)")
    p_run.add_argument("--out-lanes", help="write the lane text file here")
    p_run.add_argument("--out-overlay", help="write a P6 overlay image here")
    p_run.set_defaults(func=_cmd_run)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--lanes", type=int, default=3)
    p_synth.add_argument("--noise-rate", type=float, default=0.0)
    p_synth.add_argument("--occlusion-rate", type=float, default=0.0)
    p_synth.add_argument("--config", help="config file (defaults apply when omitted)")
    p_synth.add_argument("--out-mask", required=True, help="P5 mask output path")
    p_synth.add_argument(
        "--out-truth",
        required=True,
        help="truth curve file; the divider-id graymap lands at <path>.ids.pgm",
    )
    p_synth.set_defaults(func=_cmd_synth)

    p_bench = sub.add_parser("bench", help="measure pipeline throughput")
    group = p_bench.add_mutually_exclusive_group(required=True)
    group.add_argument("--frames", type=int, help="number of synthetic frames")
    group.add_argument(
        "--mask-dir",
        help="directory of mask files, read, decoded and resized in every pass (the load stage)",
    )
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--config", help="config file (defaults apply when omitted)")
    p_bench.add_argument(
        "--json", action="store_true", help="print the report as one JSON object, not a table"
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_eval = sub.add_parser("eval", help="score a lane file against a truth file")
    p_eval.add_argument("--result", required=True, help="lane file from `run`")
    p_eval.add_argument("--truth", required=True, help="truth curve file from `synth`")
    p_eval.add_argument("--tolerance", type=float, default=2.0, help="BEV px match tolerance")
    p_eval.add_argument("--mask", help="original mask; enables the purity metric")
    p_eval.add_argument("--config", help="config file (defaults apply when omitted)")
    p_eval.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ImageIOError, FileFormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ProcessingError, ValueError) as exc:
        print(f"processing error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING


if __name__ == "__main__":
    sys.exit(main())
