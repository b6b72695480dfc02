"""One measured run of the lanepost frame path, in a fresh interpreter.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run MANIFEST RESULT --seconds S [--trace SPANS]

`setup` prints the set-up time: importing lanepost from this checkout's
`src/` and building the default config, counted from the first line of
this file and read before any import that only the harness needs. It is
scaled to reference machine speed like the frame times below. `run`
reads a corpus manifest written by run.py and writes a JSON result.

Load model: one process, one client, closed loop. The next frame starts
only after the previous frame's lane file is written. A frame is the full
user path: `load_mask` (read, decode, threshold) -> `crop_and_resize` ->
`run_frame` -> `write_lanes`.

A run times passes over the corpus until the requested seconds have
passed (at least one whole pass). Between the frames of the first pass,
outside the timing, it scores every frame against its truth and keeps
each frame's lane text (or error class) as the reference; later passes
must give the same. One untimed frame before the passes warms up.

Times are given at reference machine speed. On a shared machine other
tenants slow a process down, by up to about 1.9x, for stretches from a
second to minutes. So after every timed frame the run also times a fixed
calibration kernel (calibrate.py), and each frame's time is scaled by the
kernel's reference time over its typical time in the nine calibrations
around the frame. A frame's time is then the median of its passes.
Latency percentiles are taken over these per-frame times, and throughput
is the corpus size over the sum of each frame's interval, the wall-clock
time of one pass at reference speed.

With --trace, the timed passes alternate between the plain user path and
a traced frame composed from the public calls of each module, with a span
around each call. Every traced frame's lane text must equal the
reference from `run_frame`. Named stress probes follow the timed passes.
"""

import time

_STARTED = time.perf_counter()  # setup_s counts from here, before lanepost is imported

import os  # noqa: E402
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import lanepost as lp  # noqa: E402

CFG = lp.default_config()
SETUP_S = time.perf_counter() - _STARTED  # import lanepost + build the config, nothing else

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402

LATERAL_TOLERANCE = 2.0  # BEV px, the synthetic.evaluate recall tolerance
PROBE_REPS = 3

# a span named "<layer>.<call>" counts toward its layer's share
LAYERS = ("maskio", "pipeline", "instances", "homography", "voting", "curves")


def percentile(values, q):
    return float(np.percentile(values, q))


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def user_frame(frame, cfg):
    """The full user path for one frame: mask file -> lane file."""
    mask = lp.crop_and_resize(lp.load_mask(frame["mask"], cfg.mask_threshold), cfg)
    result = lp.run_frame(mask, cfg)
    lp.write_lanes(result.lanes, frame["lanes"])
    return mask, result


class Tracer:
    """Spans kept in memory: [frame_id, span_id, parent_id, name, start, end]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, frame_id, name):
        record = [frame_id, len(self.spans), self._open[-1] if self._open else None, name,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._open.append(record[1])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._open.pop()


def traced_frame(frame, cfg, tracer, frame_id, state):
    """The user path composed from public module calls, one span per call.

    Mirrors `run_frame` step for step; `state` receives each intermediate
    result so the first pass can count the work of every layer. Returns
    the lane text written.
    """
    def span(name):
        return tracer.span(frame_id, name)

    with span("frame"):
        with span("maskio.load_mask"):
            raw = lp.load_mask(frame["mask"], cfg.mask_threshold)
        with span("pipeline.crop_and_resize"):
            state["mask"] = mask = lp.crop_and_resize(raw, cfg)
        with span("instances.label_instances"):
            state["instances"] = instances = lp.label_instances(
                mask, cfg.connectivity, cfg.min_instance_size
            )
        with span("homography.estimate_homography"):
            h = lp.estimate_homography(cfg.calibration)
        with span("homography.transform_instance"):
            state["bev"] = bev = [
                lp.BevInstance.from_points(i.id, lp.transform_instance(h, i)) for i in instances
            ]
        with span("voting.cluster_instances"):
            state["clustering"] = clustering = lp.cluster_instances(bev, cfg.eta)
        with span("curves.fit_sample_back_project"):
            lanes = []
            if clustering.num_clusters:
                h_inv = h.inverse()
                by_id = {b.id: b for b in bev}
                for cluster_id, member_ids in enumerate(clustering.members()):
                    points = np.concatenate([by_id[i].points for i in member_ids])
                    curve = lp.fit_curve(points, cluster_id)
                    samples = lp.sample_curve(curve, cfg.sample_count)
                    lanes.append(lp.Lane(curve, lp.back_project(h_inv, samples)))
            state["lanes"] = lanes
        with span("pipeline.write_lanes"):
            text = lp.format_lanes(lanes)
            with open(frame["lanes"], "w", encoding="utf-8") as fh:
                fh.write(text)
    return text


def outcome_of(call):
    """Run call(); return (value, outcome). The outcome is "ok", the class
    name of a lanepost ProcessingError (the program refused the frame), or
    "crash:<class>" for any other exception."""
    try:
        return call(), "ok"
    except lp.ProcessingError as exc:
        return None, type(exc).__name__
    except Exception as exc:  # a crash is recorded and counted as failed
        return None, f"crash:{type(exc).__name__}"


# ---------------------------------------------------------------------------
# scoring (first pass, between timed frames)
# ---------------------------------------------------------------------------

def nearest_truth_distance(curve, truth_curves, grid=100):
    """Mean |x_lane - x_truth| over the lane's own y extent, for the
    nearest truth divider; inf when there is none."""
    ys = np.linspace(curve.y_min, curve.y_max, grid)
    xs = curve.eval(ys)
    return min((float(np.abs(xs - t.eval(ys)).mean()) for t in truth_curves), default=np.inf)


def score_frame(frame, mask, result):
    truth = lp.read_truth_curves(frame["truth"])
    score = {"dividers": len(truth), "matched": 0, "error_sum": 0.0, "lanes": 0, "precise": 0,
             "purity": None}
    if result is None:  # a refused frame's dividers count as unmatched
        return score
    scene = lp.SyntheticScene(mask, truth, lp.read_gray(frame["ids"]))
    ev = lp.evaluate(result, scene, LATERAL_TOLERANCE)
    score.update(
        matched=ev.matched_dividers,
        error_sum=ev.mean_lateral_error * ev.matched_dividers if ev.matched_dividers else 0.0,
        lanes=len(result.lanes),
        precise=sum(
            nearest_truth_distance(lane.curve, truth) < LATERAL_TOLERANCE for lane in result.lanes
        ),
        purity=ev.purity,
    )
    return score


def quality(scores):
    total = {k: sum(s[k] for s in scores) for k in ("dividers", "matched", "error_sum", "lanes", "precise")}
    purities = [s["purity"] for s in scores if s["purity"] is not None]
    return {
        "lane_recall": total["matched"] / total["dividers"] if total["dividers"] else 1.0,
        "lane_precision": total["precise"] / total["lanes"] if total["lanes"] else 1.0,
        "cluster_purity": statistics.fmean(purities) if purities else 0.0,
        "lateral_error_px": total["error_sum"] / total["matched"] if total["matched"] else float("inf"),
    }


def layer_counts(frame, state):
    """Work done per layer on one frame, from the traced frame's state."""
    n = len(state.get("instances", []))
    points = sum(len(b.points) for b in state.get("bev", []))
    clustering = state.get("clustering")
    lanes = state.get("lanes")
    return {
        "bytes_in": os.path.getsize(frame["mask"]),
        "marking_pixels": int(state["mask"].sum()) if "mask" in state else 0,
        "kept": n,
        "points": points,
        "pairs": n * (n - 1) // 2 if clustering else 0,
        "merged": n - clustering.num_clusters if clustering else 0,
        "points_fitted": points if lanes is not None else 0,
        "lanes": len(lanes) if lanes is not None else 0,
        "lane_bytes": len(lp.format_lanes(lanes)) if lanes is not None else 0,
    }


def reference(i, frame, plain, traced, state):
    """The reference for one frame, from its first timed pass: outcome,
    lane text, quality score and, when traced, per-layer work counts.
    `plain` and `traced` are (value, outcome) of the two kinds of frame;
    traced is None in an untraced run. Returns the reference and a list
    of problems found."""
    (value, outcome), problems = plain, []
    mask, result = value if value else (None, None)
    text = lp.format_lanes(result.lanes) if result else None
    if text is not None:
        with open(frame["lanes"], "r", encoding="utf-8") as fh:
            if fh.read() != text:
                problems.append(f"frame {i}: write_lanes file differs from format_lanes")
    ref = {"outcome": outcome, "text": text, "score": score_frame(frame, mask, result)}
    if traced is not None:
        traced_text, traced_outcome = traced
        if (traced_outcome, traced_text) != (outcome, text):
            problems.append(f"frame {i}: traced frame differs from run_frame")
        ref["counts"] = layer_counts(frame, state)
    return ref, problems


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

class Series:
    """Timed frames of one kind. Each sample keeps its corpus frame
    index, its latency, its interval and the index of the calibration
    timed right after it. An interval runs from the end of the harness
    work before the frame (scoring, the previous calibration) to the end
    of the frame, so the intervals of a pass add up to its wall-clock
    time without that work."""

    def __init__(self):
        self.samples = []
        self.outcomes = Counter()
        self.mismatches = 0

    def time(self, i, call, since, cal_index):
        t0 = time.perf_counter()
        value, outcome = outcome_of(call)
        t1 = time.perf_counter()
        self.samples.append((i, (t1 - t0) * 1e3, (t1 - (since or t0)) * 1e3, cal_index))
        self.outcomes[outcome] += 1
        return value, outcome

    def per_frame(self, n, factors):
        """Each corpus frame's median latency and median interval over
        its passes, every sample scaled by its calibration's factor."""
        latency, interval = [[] for _ in range(n)], [[] for _ in range(n)]
        for i, ms, interval_ms, k in self.samples:
            latency[i].append(ms * factors[k])
            interval[i].append(interval_ms * factors[k])
        return ([statistics.median(v) for v in latency],
                [statistics.median(v) for v in interval])


def timed_passes(frames, cfg, seconds, tracer=None):
    """Passes over the corpus until `seconds` have passed, and at least
    one whole pass. The first pass also makes each frame's reference:
    it is scored between frames, outside the timed spans and intervals.
    Later passes must give the reference outcome and lanes. The pass cut
    off at the deadline only adds one more sample to its frames: every
    frame counts once in the results, so every run sees the same frame
    mix. After every frame the calibration kernel is timed, outside the
    intervals. With a tracer, every frame runs plain and traced back to
    back, in alternating order from pass to pass, so both see the same
    machine conditions; the second of the two has no harness work before
    it, and its interval is its latency.
    Returns (plain, traced, refs, problems, whole passes, wall-clock
    seconds, calibration times in ms)."""
    warm_up = frames[0]  # lazy set-up and first-touch costs stay out of the timing
    outcome_of(lambda: user_frame(warm_up, cfg))
    if tracer is not None:
        outcome_of(lambda: traced_frame(warm_up, cfg, Tracer(), 0, {}))
    calibrate.time_kernel()
    start = time.perf_counter()
    deadline = start + seconds
    plain = Series()
    traced = Series()
    refs, problems, cal_ms = [], [], []
    passes = 0
    since = time.perf_counter()
    while True:
        for i, frame in enumerate(frames):
            now = time.perf_counter()
            if passes and now >= deadline:
                return plain, traced, refs, problems, passes, now - start, cal_ms
            state = {}
            frame_id = len(traced.samples)
            runs = [(plain, lambda: user_frame(frame, cfg))]
            if tracer is not None:
                runs.append((traced, lambda: traced_frame(frame, cfg, tracer, frame_id, state)))
                if passes % 2:
                    runs.reverse()
            got = {}
            for series, call in runs:
                got[series] = series.time(i, call, since, len(cal_ms))
                since = None
            if passes == 0:
                ref, ref_problems = reference(i, frame, got[plain], got.get(traced), state)
                refs.append(ref)
                problems += ref_problems
            else:
                for series, (value, outcome) in got.items():
                    if outcome != refs[i]["outcome"] or (isinstance(value, str) and value != refs[i]["text"]):
                        series.mismatches += 1
            cal_ms.append(calibrate.time_kernel())
            since = time.perf_counter()
        passes += 1


def check_lane_files(frames, refs):
    """After the timed passes: each frame's lane file holds the reference
    text. Returns the SHA-256 of the concatenated lane files and problems."""
    digest = hashlib.sha256()
    problems = []
    for i, (frame, ref) in enumerate(zip(frames, refs)):
        if ref["text"] is None:
            continue
        with open(frame["lanes"], "rb") as fh:
            data = fh.read()
        digest.update(data)
        if data != ref["text"].encode("utf-8"):
            problems.append(f"frame {i}: lane file changed between passes")
    return digest.hexdigest(), problems


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per frame id: {span name: self time ms}, where self time is the
    span's duration minus the part its child spans cover."""
    child_ms = Counter()
    for frame_id, span_id, parent, name, start, end in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1e3
    frames = {}
    for frame_id, span_id, parent, name, start, end in spans:
        own = (end - start) * 1e3 - child_ms[span_id]
        per = frames.setdefault(frame_id, {})
        per[name] = per.get(name, 0.0) + own
    return frames


def layer_metrics(spans, refs, plain, traced, factors):
    """Per-layer metrics; span times are scaled to reference speed by
    the calibration that followed their frame."""
    frames = [
        {name: ms * factors[traced.samples[frame_id][3]] for name, ms in own.items()}
        for frame_id, own in self_times(spans).items()
    ]

    def ms(name):
        return [f[name] for f in frames if name in f]

    frame_total = sum(sum(f.values()) for f in frames)
    m = {}
    for name, key in (("maskio.load_mask", "maskio.decode_ms"),
                      ("instances.label_instances", "instances.label_ms"),
                      ("voting.cluster_instances", "voting.cluster_ms")):
        m[f"{key}.p50"] = statistics.median(ms(name))
        m[f"{key}.p90"] = percentile(ms(name), 90)
    m["pipeline.crop_and_resize_ms.p50"] = statistics.median(ms("pipeline.crop_and_resize"))
    m["pipeline.write_lanes_ms.p50"] = statistics.median(ms("pipeline.write_lanes") or [0.0])
    m["homography.estimate_ms.p50"] = statistics.median(ms("homography.estimate_homography"))
    m["homography.bev_ms.p50"] = statistics.median(ms("homography.transform_instance"))
    m["curves.fit_ms.p50"] = statistics.median(ms("curves.fit_sample_back_project") or [0.0])
    for layer in LAYERS:
        own = sum(v for f in frames for k, v in f.items() if k.startswith(layer + "."))
        m[f"{layer}.share"] = own / frame_total

    counts = [r["counts"] for r in refs]

    def mean(key):
        return statistics.fmean(c[key] for c in counts)

    pairs = sum(c["pairs"] for c in counts)
    m.update({
        "maskio.bytes_in": mean("bytes_in"),
        "pipeline.lane_bytes": mean("lane_bytes"),
        "instances.marking_pixels": mean("marking_pixels"),
        "instances.kept": mean("kept"),
        "homography.points": mean("points"),
        "voting.pairs": mean("pairs"),
        "voting.union_ratio": sum(c["merged"] for c in counts) / pairs if pairs else 0.0,
        "curves.points_fitted": mean("points_fitted"),
        "curves.lanes": mean("lanes"),
        "trace.overhead_ratio": statistics.median(traced.per_frame(len(refs), factors)[0])
        / statistics.median(plain.per_frame(len(refs), factors)[0]) - 1.0,
    })
    return m


def run_probes(probes, cfg, work_dir):
    """Named stress masks, each timed PROBE_REPS times (median) and
    scaled by calibrations timed right after. Returns the probe metrics
    and the streak probe's outcome."""
    def traced_probe(name, span_names):
        frame = {"mask": probes[name], "lanes": os.path.join(work_dir, f"probe-{name}.lanes")}
        times = {key: [] for key in span_names}
        for rep in range(PROBE_REPS):
            tracer = Tracer()
            outcome_of(lambda: traced_frame(frame, cfg, tracer, rep, {}))
            own = self_times(tracer.spans)[rep]
            for key, span_name in span_names.items():
                times[key].append(sum(own.values()) if span_name == "frame" else own.get(span_name, 0.0))
        factor = calibrate.factor_now(warm=0)
        return {f"probe.{name}.{key}": statistics.median(v) * factor for key, v in times.items()}

    m = traced_probe("all_ones", {"label_ms": "instances.label_instances"})
    m.update(traced_probe("blob_grid_1200", {"frame_ms": "frame", "vote_ms": "voting.cluster_instances"}))
    frame = {"mask": probes["streak"], "lanes": os.path.join(work_dir, "probe-streak.lanes")}
    _, outcome = outcome_of(lambda: user_frame(frame, cfg))
    m["probe.streak.refused"] = 0 if outcome == "ok" else 1
    for name, path in probes.items():
        if name.startswith("png_"):
            mode = name.split("_")[1]
            decode_ms = []
            for _ in range(PROBE_REPS):
                t0 = time.perf_counter()
                lp.load_mask(path, cfg.mask_threshold)
                decode_ms.append((time.perf_counter() - t0) * 1e3)
            m[f"maskio.decode_ms.{mode}"] = statistics.median(decode_ms) * calibrate.factor_now(warm=0)
    return m, {"streak": outcome}


# ---------------------------------------------------------------------------

def main(argv=None):
    cfg = CFG
    if os.path.dirname(os.path.abspath(lp.__file__)) != os.path.join(SRC, "lanepost"):
        print(f"lanepost imported from {lp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("setup")
    run = sub.add_parser("run")
    run.add_argument("manifest")
    run.add_argument("result")
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", metavar="SPANS", help="traced run; write spans to this file")
    args = parser.parse_args(argv)
    if args.command == "setup":
        factor = calibrate.factor_now()
        print(json.dumps({"setup_s": SETUP_S * factor, "raw_setup_s": SETUP_S}))
        return 0

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    frames = manifest["frames"]
    traced = args.trace is not None
    tracer = Tracer() if traced else None
    plain, traced_pass, refs, problems, passes, elapsed_s, cal_ms = timed_passes(
        frames, cfg, args.seconds, tracer
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest, file_problems = check_lane_files(frames, refs)
    problems += file_problems
    mismatches = plain.mismatches + traced_pass.mismatches
    if mismatches:
        problems.append(f"{mismatches} timed frames differ from the reference outcome or lanes")

    factors = calibrate.factors(cal_ms)
    frame_ms, interval_ms = plain.per_frame(len(frames), factors)
    raw_ms, _ = plain.per_frame(len(frames), [1.0] * len(cal_ms))
    p90 = percentile(frame_ms, 90)
    result = {
        "problems": problems,
        "attempted": len(plain.samples) + len(traced_pass.samples),
        "outcomes": dict(plain.outcomes + traced_pass.outcomes),
        "reference_outcomes": dict(Counter(r["outcome"] for r in refs)),
        "timed": len(plain.samples),
        "passes": passes,
        "frames_beyond_p90": sum(v > p90 for v in frame_ms),
        "elapsed_s": elapsed_s,
        "calibration_ms": statistics.median(cal_ms),
        "raw_latency_p50_ms": statistics.median(raw_ms),
        "lanes_sha256": digest,
        "metrics": {
            "latency_p50_ms": statistics.median(frame_ms),
            "latency_p90_ms": p90,
            "throughput_fps": len(frames) / (sum(interval_ms) / 1e3),
            "frame_ok_ratio": sum(r["outcome"] == "ok" for r in refs) / len(refs),
            **quality([r["score"] for r in refs]),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if traced:
        layers = layer_metrics(tracer.spans, refs, plain, traced_pass, factors)
        probe_metrics, result["probe_outcomes"] = run_probes(manifest["probes"], cfg, manifest["work_dir"])
        result["layers"] = {**layers, **probe_metrics}
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["frame", "span", "parent", "name", "start_s", "end_s"],
                       "spans": tracer.spans}, fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
