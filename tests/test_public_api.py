"""The lanepost names that the benchmark harness in perfbench/ uses.

The harness is read as text, so a rename or deletion in lanepost shows up
here, in the tier-1 suite, rather than as a failed benchmark run. The text
scan cannot see attribute reads on returned objects (`.members()`,
`.pixels`, `.matched_dividers`), so the harness's frame functions are also
run on one small frame and one frame that the library refuses.

README.md is checked the same way: every backticked `lanepost.<module>`
and `<module>._<name>` it names must resolve, so a change that renames or
deletes a helper the README describes has to fix the README too. So is
the source of every lanepost module: a backticked name that starts with
an underscore must be one of its module's names or a lanepost submodule.
"""

import functools
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

import lanepost as lp
from test_golden import clutter_scenes, streak_mask

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))
README = PERFBENCH.parent / "README.md"
MODULES = sorted((PERFBENCH.parent / "src" / "lanepost").glob("*.py"))

_LP_CHAIN = re.compile(r"\blp((?:\.[A-Za-z_]\w*)+)")
_FROM_IMPORT = re.compile(r"^\s*from (lanepost(?:\.\w+)*) import ([\w, ]+)$", re.MULTILINE)
_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_CODE_SPAN = re.compile(r"`([^`]+)`")
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
_PRIVATE = re.compile(r"(?<![\w.])_[A-Za-z]\w*")


def references():
    """(file, dotted chain) for every `lp.a.b` chain and every name taken
    with `from lanepost... import`."""
    refs = set()
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for chain in _LP_CHAIN.findall(text):
            refs.add((path.name, "lanepost" + chain))
        for module, names in _FROM_IMPORT.findall(text):
            for name in names.split(","):
                refs.add((path.name, f"{module}.{name.strip()}"))
    return sorted(refs)


def resolve(dotted):
    head, *attrs = dotted.split(".")
    return functools.reduce(getattr, attrs, importlib.import_module(head))


def test_harness_found():
    assert SOURCES, f"no harness sources under {PERFBENCH}"
    chains = {chain for _, chain in references()}
    assert "lanepost.BevInstance.from_points" in chains
    assert "lanepost.synthetic.NOISE_ID" in chains
    assert "lanepost.run_frame" in chains


@pytest.mark.parametrize("source,dotted", references())
def test_reference_resolves(source, dotted):
    resolve(dotted)


def readme_references():
    """The dotted names in README.md's inline code spans (fenced blocks
    left out) that name lanepost: chains that start with `lanepost.`, and
    `<module>._<name>` chains, taken as `lanepost.<module>._<name>`."""
    text = _FENCE.sub("", README.read_text(encoding="utf-8"))
    refs = set()
    for span in _CODE_SPAN.findall(text):
        for chain in _DOTTED.findall(span):
            if chain.startswith("lanepost."):
                refs.add(chain)
            elif chain.split(".")[1].startswith("_"):
                refs.add("lanepost." + chain)
    return sorted(refs)


def test_readme_references_found():
    refs = readme_references()
    assert "lanepost.voting" in refs
    assert "lanepost.voting._pair_votes" in refs


@pytest.mark.parametrize("dotted", readme_references())
def test_readme_reference_resolves(dotted):
    resolve(dotted)


def source_references():
    """(module, name) for every name that starts with an underscore, and is
    not an attribute, in the inline code spans of a lanepost module's
    source."""
    refs = set()
    for path in MODULES:
        for span in _CODE_SPAN.findall(path.read_text(encoding="utf-8")):
            for name in _PRIVATE.findall(span):
                refs.add((f"lanepost.{path.stem}", name))
    return sorted(refs)


def test_source_references_found():
    refs = source_references()
    assert ("lanepost.voting", "_pair_votes") in refs
    assert ("lanepost.instances", "_scratch") in refs


@pytest.mark.parametrize("module,name", source_references())
def test_source_reference_resolves(module, name):
    found = hasattr(importlib.import_module(module), name)
    assert found or importlib.util.find_spec(f"lanepost.{name}"), f"{module} names a missing `{name}`"


def load_worker(monkeypatch):
    """perfbench/worker.py as a module, loaded by path; sys.path, which the
    worker and its `import calibrate` extend, is restored after the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def write_frame(directory, name, mask, truth=None, ids=None):
    """A frame as the harness's corpus lays it out: a P5 mask, and for a
    scored frame its truth-curve file and divider-id graymap."""
    stem = str(directory / name)
    frame = {"mask": stem + ".pgm", "lanes": stem + ".lanes"}
    lp.write_pgm(frame["mask"], np.where(mask, 255, 0).astype(np.uint8))
    if truth is not None:
        frame["truth"], frame["ids"] = stem + ".truth", stem + ".ids.pgm"
        lp.write_truth_curves(truth, frame["truth"])
        lp.write_pgm(frame["ids"], ids)
    return frame


def test_harness_frames_run_on_the_library(tmp_path, monkeypatch):
    worker = load_worker(monkeypatch)
    cfg = lp.default_config()
    scene = lp.generate_scene(lp.SceneParams(num_lanes=3), 7, cfg)
    frame = write_frame(tmp_path, "scene", scene.mask, scene.truth_curves, scene.truth_assignment)

    state = {}
    text = worker.traced_frame(frame, cfg, worker.Tracer(), 0, state)
    mask, result = worker.user_frame(frame, cfg)
    assert result.lanes and text == lp.format_lanes(result.lanes)
    counts = worker.layer_counts(frame, state)
    assert counts["kept"] == result.instance_count
    assert counts["points"] == counts["points_fitted"] == result.segments.sizes.sum()
    assert counts["merged"] == result.instance_count - result.cluster_count
    assert counts["lanes"] == len(result.lanes)
    score = worker.score_frame(frame, mask, result)
    assert score["dividers"] == score["matched"] == len(scene.truth_curves)
    assert score["lanes"] == len(result.lanes)

    streak = write_frame(tmp_path, "streak", streak_mask())
    _, plain = worker.outcome_of(lambda: worker.user_frame(streak, cfg))
    _, traced = worker.outcome_of(lambda: worker.traced_frame(streak, cfg, worker.Tracer(), 1, {}))
    assert plain == traced == "DegenerateGeometryError"


def test_harness_overwrites_a_longer_lane_file(tmp_path, monkeypatch):
    # every pass after the first writes a frame's lanes over the file of the
    # pass before; the lane-file check needs exactly the newest text there
    worker = load_worker(monkeypatch)
    cfg = lp.default_config()
    wide = lp.generate_scene(lp.SceneParams(num_lanes=5), 3, cfg)
    narrow = lp.generate_scene(lp.SceneParams(num_lanes=2), 4, cfg)
    frame = write_frame(tmp_path, "wide", wide.mask)
    _, first = worker.user_frame(frame, cfg)
    lp.write_pgm(frame["mask"], np.where(narrow.mask, 255, 0).astype(np.uint8))
    _, second = worker.user_frame(frame, cfg)
    assert (len(first.lanes), len(second.lanes)) == (5, 2)
    with open(frame["lanes"], "rb") as fh:
        assert fh.read() == lp.format_lanes(second.lanes).encode("utf-8")


def test_precision_is_the_harness_rule(monkeypatch):
    worker = load_worker(monkeypatch)
    cfg = lp.default_config()
    for scene in clutter_scenes():
        result = lp.run_frame(scene.mask, cfg)
        curves = [lane.curve for lane in result.lanes]
        distances = [worker.nearest_truth_distance(c, scene.truth_curves) for c in curves]
        assert lp.best_lateral_errors(curves, scene.truth_curves) == distances
        precise = sum(d < worker.LATERAL_TOLERANCE for d in distances)
        metrics = lp.evaluate(result, scene, worker.LATERAL_TOLERANCE)
        assert metrics.lane_count - metrics.false_lanes == precise
