"""Benchmark of lanepost's mask file -> lane file path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark writes a seeded corpus of
mask files and their truth under .bench_work/, measures lanepost on it in
fresh interpreters (perfbench/worker.py), checks the outputs and prints a
report. Its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are its per-layer ones, from a traced run that also
writes its spans to .bench_work/traces/.

`attempted` counts the timed frames. `failed` counts frames that crashed
with an exception other than lanepost's ProcessingError. A frame the
program refuses with a ProcessingError is a measured outcome: it lowers
frame_ok_ratio and is listed by class under the output checks.
`correct` is false when a lane file or a refusal differs between passes,
or a traced frame's lanes differ from run_frame's.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_RUNS = 9  # setup-only interpreters, five before the measuring one and four after
WORKLOADS = ("synth-stream", "instance-clutter", "png-720p")

QUALITY = ("lane_recall", "lane_precision", "cluster_purity")


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def python(*args, timeout):
    """Run a fresh interpreter on the worker script; return its stdout."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} exited with code {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lanepost", "__init__.py")):
        print(f"no lanepost sources under {SRC}; run from a lanepost checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    sys.path.insert(0, SRC)
    import lanepost

    import calibrate
    import corpus  # imports lanepost from SRC

    if os.path.dirname(os.path.abspath(lanepost.__file__)) != os.path.join(SRC, "lanepost"):
        print(f"lanepost imported from {lanepost.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        cfg = lanepost.default_config()
        frames = corpus.write_workload(args.workload, args.seed, work_dir, cfg)
        manifest = {"work_dir": work_dir, "frames": frames}
        if args.trace:
            manifest["probes"] = corpus.write_probes(args.seed, work_dir, cfg)
        manifest_path = os.path.join(work_dir, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)

        def setups(n):
            return [json.loads(python("setup", timeout=60))["setup_s"] for _ in range(n)]

        setup = setups(SETUP_RUNS - SETUP_RUNS // 2)
        result_path = os.path.join(work_dir, "result.json")
        run_args = ["run", manifest_path, result_path, "--seconds", str(args.seconds)]
        spans_path = None
        if args.trace:
            spans_path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json")
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            run_args += ["--trace", spans_path]
        # the timed passes take --seconds, or one whole pass if that is
        # longer; scoring the first pass and the probes come on top
        python(*run_args, timeout=2 * args.seconds + 110)
        setup += setups(SETUP_RUNS // 2)
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    measured = dict(result["metrics"], setup_s=statistics.median(setup))
    failed = sum(n for k, n in result["outcomes"].items() if k.startswith("crash:"))
    correct = not result["problems"] and failed == 0

    print(f"workload {args.workload} seed {args.seed}: {len(frames)} frames, closed loop, 1 client; "
          f"{result['timed']} timed frames"
          + (" (and as many traced)" if args.trace else "")
          + f" in {result['elapsed_s']:.1f} s ({result['passes']} whole passes); each frame's time "
          f"is the median of its passes, {result['frames_beyond_p90']} frames beyond p90")
    print(f"  times at reference machine speed: calibration kernel {result['calibration_ms']:.4g} ms "
          f"here, {calibrate.REFERENCE_MS:.4g} ms reference (unscaled latency_p50 "
          f"{result['raw_latency_p50_ms']:.4g} ms)")
    print(f"  generator {json.dumps(corpus.WORKLOAD_PARAMS[args.workload])}")
    if not args.trace:
        for name, unit in end_to_end.items():
            if name not in QUALITY:
                print(f"  {name:<18} {measured[name]:>12.6g} {unit}")
    refused = {k: n for k, n in result["reference_outcomes"].items() if k != "ok"}
    n_frames = len(frames)
    print("output checks:")
    for name in QUALITY:
        print(f"  {name:<18} {measured[name]:>12.6g} ratio")
    print(f"  lateral_error_px   {measured['lateral_error_px']:>12.6g} px (reported, not gated)")
    print(f"  frame_error_ratio  {sum(refused.values()) / n_frames:>12.6g} ratio ("
          + (", ".join(f"{k}: {n}/{n_frames}" for k, n in sorted(refused.items())) or "none")
          + ")")
    print(f"  lanes sha256       {result['lanes_sha256']}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  correct            {correct}")

    if args.trace:
        print(f"traced run (spans in {os.path.relpath(spans_path, ROOT)}):")
        for name, outcome in result["probe_outcomes"].items():
            print(f"  probe.{name} outcome: {outcome}")
        for name, unit in per_layer.items():
            print(f"  {name:<34} {result['layers'][name]:>12.6g} {unit}")
        metrics = {k: {"value": result["layers"][k], "unit": unit} for k, unit in per_layer.items()}
    else:
        metrics = {k: {"value": measured[k], "unit": unit} for k, unit in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
