"""Seeded synthetic scenes with exact ground truth, plus pipeline scoring.

A scene starts from known quadratic lane dividers in BEV space. Dashes are
rasterized into the image-plane mask through the inverse calibration, some
dashes are deleted to mimic occlusion, and a fraction of pixels is flipped
as segmentation noise. Only what survives into the mask counts as truth:
each divider's recorded y extent covers its visible dashes, never occluded
road a detector could not possibly report.

Assignment map encoding: 0 = background, divider_id + 1 = marking pixel,
255 = noise pixel.

Scoring reads a FrameResult as arrays: the truth id under every instance
pixel of its segmented record, and its cluster label array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig, _check_integer, _check_real
from .curves import LaneCurve
from .errors import ConfigError
from .homography import estimate_homography
from .pipeline import FrameResult, Lane, _read_records, write_lanes

__all__ = [
    "SceneParams",
    "SyntheticScene",
    "EvalMetrics",
    "generate_scene",
    "evaluate",
    "best_lateral_errors",
    "match_dividers",
    "match_lanes",
    "write_truth_curves",
    "read_truth_curves",
]

NOISE_ID = 255

_RASTER_Y_STEP = 0.25
_RASTER_X_STEP = 0.5


@dataclass(frozen=True)
class SceneParams:
    num_lanes: int = 3
    curvature_range: float = 2e-4
    dash_length: float = 40.0
    gap_length: float = 20.0
    dash_width: float = 4.0
    noise_rate: float = 0.0
    occlusion_rate: float = 0.0

    def __post_init__(self):
        _check_integer("num_lanes", self.num_lanes)
        for name in (
            "curvature_range", "dash_length", "gap_length", "dash_width", "noise_rate", "occlusion_rate"
        ):
            _check_real(name, getattr(self, name))
        if not 1 <= self.num_lanes < NOISE_ID:  # divider ids 1..num_lanes stay below NOISE_ID
            raise ConfigError(f"num_lanes must be in 1..{NOISE_ID - 1}, got {self.num_lanes}")
        if not 0 <= self.curvature_range < math.inf:
            raise ConfigError("curvature_range must be non-negative and finite")
        if not (0 < self.dash_length < math.inf and 0 < self.dash_width < math.inf):
            raise ConfigError("dash dimensions must be positive and finite")
        if not 0 <= self.gap_length < math.inf:
            raise ConfigError("gap_length must be non-negative and finite")
        if not (0.0 <= self.noise_rate <= 1.0 and 0.0 <= self.occlusion_rate <= 1.0):
            raise ConfigError("noise_rate and occlusion_rate must lie in [0, 1]")


@dataclass(eq=False)
class SyntheticScene:
    mask: np.ndarray
    truth_curves: list[LaneCurve]  # cluster_id is the divider id; y spans the visible dashes
    truth_assignment: np.ndarray


def generate_scene(params: SceneParams, seed: int, cfg: PipelineConfig) -> SyntheticScene:
    """Deterministic scene for a seed: same seed, bit-identical output."""
    rng = np.random.default_rng(seed)
    rows, cols = cfg.target_rows, cfg.target_cols
    h_inv = estimate_homography(cfg.calibration).inverse()

    dst_x = [p[0] for p in cfg.calibration.dst]
    dst_y = [p[1] for p in cfg.calibration.dst]
    x_lo, x_hi = min(dst_x), max(dst_x)
    y_lo, y_hi = min(dst_y), max(dst_y)

    margin = 0.08 * (x_hi - x_lo)
    centers = np.linspace(x_lo + margin, x_hi - margin, params.num_lanes)
    spacing = (x_hi - x_lo - 2 * margin) / max(params.num_lanes - 1, 1)

    # one road curvature/heading shared by all dividers so they stay parallel
    road_c2 = rng.uniform(-params.curvature_range, params.curvature_range)
    road_c1 = rng.uniform(-0.05, 0.05)
    y_ref = (y_lo + y_hi) / 2.0

    mask = np.zeros((rows, cols), dtype=bool)
    assignment = np.zeros((rows, cols), dtype=np.uint8)
    curves = []
    period = params.dash_length + params.gap_length

    for divider in range(params.num_lanes):
        base = float(centers[divider] + rng.uniform(-0.1, 0.1) * spacing)
        c2 = float(road_c2 * rng.uniform(0.9, 1.1))
        c1_local = float(road_c1 + rng.uniform(-0.01, 0.01))
        # expand x = base + c1_local*(y - y_ref) + c2*(y - y_ref)^2 in powers of y
        c1 = c1_local - 2.0 * c2 * y_ref
        c0 = base - c1_local * y_ref + c2 * y_ref * y_ref

        phase = float(rng.uniform(0.0, period))
        visible_lo = np.inf
        visible_hi = -np.inf
        start = y_lo + phase - period
        while start < y_hi:
            dash_lo = max(start, y_lo)
            dash_hi = min(start + params.dash_length, y_hi)
            start += period
            if dash_hi <= dash_lo:
                continue
            if rng.random() < params.occlusion_rate:
                continue
            ys = np.arange(dash_lo, dash_hi, _RASTER_Y_STEP)
            offsets = np.arange(
                -params.dash_width / 2.0 + _RASTER_X_STEP / 2.0,
                params.dash_width / 2.0,
                _RASTER_X_STEP,
            )
            xs = (c2 * ys + c1) * ys + c0
            grid_x = (xs[:, None] + offsets[None, :]).ravel()
            grid_y = np.repeat(ys, len(offsets))
            img = h_inv.apply(np.stack([grid_x, grid_y], axis=1))
            pr = np.floor(img[:, 1]).astype(np.int64)
            pc = np.floor(img[:, 0]).astype(np.int64)
            keep = (pr >= 0) & (pr < rows) & (pc >= 0) & (pc < cols)
            if not keep.any():
                continue
            mask[pr[keep], pc[keep]] = True
            assignment[pr[keep], pc[keep]] = divider + 1
            visible_lo = min(visible_lo, float(grid_y[keep].min()))
            visible_hi = max(visible_hi, float(grid_y[keep].max()))
        if np.isfinite(visible_lo):
            curves.append(LaneCurve(c0, c1, c2, visible_lo, visible_hi, divider))

    if params.noise_rate > 0.0:
        flips = rng.random((rows, cols)) < params.noise_rate
        turned_on = flips & ~mask
        turned_off = flips & mask
        mask ^= flips
        assignment[turned_off] = 0
        assignment[turned_on] = NOISE_ID

    return SyntheticScene(mask, curves, assignment)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalMetrics:
    purity: float
    recall: float
    mean_lateral_error: float
    instance_count: int
    cluster_count: int
    divider_count: int
    matched_dividers: int
    lane_count: int
    false_lanes: int
    precision: float


def best_lateral_errors(truth_curves, lane_curves, grid: int = 100) -> list[float]:
    """Per truth divider: the best (smallest) mean |x_fit - x_truth| over
    the divider's visible y range, across all fitted curves. inf when there
    are no fitted curves. With the arguments swapped, per fitted curve: the
    mean distance over its own y range to the nearest divider."""
    errors = []
    for truth in truth_curves:
        ys = np.linspace(truth.y_min, truth.y_max, grid)
        tx = truth.eval(ys)
        best = np.inf
        for curve in lane_curves:
            best = min(best, float(np.abs(curve.eval(ys) - tx).mean()))
        errors.append(best)
    return errors


def _check_tolerance(lateral_tolerance) -> None:
    """Refuse a lateral tolerance that is not a finite positive number: no
    error is below a NaN, negative or zero tolerance, and every finite
    error is below an infinite one."""
    if not (math.isfinite(lateral_tolerance) and lateral_tolerance > 0):
        raise ValueError(f"lateral_tolerance must be finite and positive, got {lateral_tolerance!r}")


def match_dividers(
    truth_curves, lane_curves, lateral_tolerance: float = 2.0
) -> tuple[int, float, float]:
    """(matched dividers, recall, mean lateral error) of lane curves against
    truth curves. A divider counts as found when some curve tracks it
    within lateral_tolerance BEV pixels on average; the mean lateral error
    averages the best errors of the matched dividers (inf when none).
    lateral_tolerance must be finite and positive."""
    _check_tolerance(lateral_tolerance)
    errors = best_lateral_errors(truth_curves, lane_curves)
    matched = [e for e in errors if e < lateral_tolerance]
    recall = len(matched) / len(errors) if errors else 1.0
    mean_err = float(np.mean(matched)) if matched else float("inf")
    return len(matched), recall, mean_err


def match_lanes(truth_curves, lane_curves, lateral_tolerance: float = 2.0) -> tuple[int, float]:
    """(false lanes, precision) of lane curves against truth curves. A lane
    is correct when it stays within lateral_tolerance BEV pixels on average
    of its nearest divider over the lane's own y extent; precision is the
    share of correct lanes (1.0 when there are no lanes). lateral_tolerance
    must be finite and positive."""
    _check_tolerance(lateral_tolerance)
    errors = best_lateral_errors(lane_curves, truth_curves)
    correct = sum(e < lateral_tolerance for e in errors)
    return len(errors) - correct, correct / len(errors) if errors else 1.0


def evaluate(result: FrameResult, scene: SyntheticScene, lateral_tolerance: float = 2.0) -> EvalMetrics:
    """Score a pipeline result against its scene.

    Purity: an instance is pure when its majority truth divider equals its
    cluster's (pixel-weighted) majority divider. Recall and mean lateral
    error are those of match_dividers over the fitted curves, and false
    lanes and precision those of match_lanes.
    """
    rows, cols = scene.truth_assignment.shape
    r, c = result.segments.pixels[:, 0], result.segments.pixels[:, 1]
    if len(r) and (r.min() < 0 or r.max() >= rows or c.min() < 0 or c.max() >= cols):
        raise ValueError("result does not match scene: instance pixel out of bounds")
    if not scene.mask[r, c].all():
        raise ValueError("result does not match scene: instance pixel not in mask")
    purity = _purity(result.segments.sizes, result.labels, scene.truth_assignment[r, c])

    curves = [lane.curve for lane in result.lanes]
    matched, recall, mean_err = match_dividers(scene.truth_curves, curves, lateral_tolerance)
    false_lanes, precision = match_lanes(scene.truth_curves, curves, lateral_tolerance)

    return EvalMetrics(
        purity=purity,
        recall=recall,
        mean_lateral_error=mean_err,
        instance_count=result.instance_count,
        cluster_count=result.cluster_count,
        divider_count=len(scene.truth_curves),
        matched_dividers=matched,
        lane_count=len(curves),
        false_lanes=false_lanes,
        precision=precision,
    )


def _purity(sizes, clusters, truth) -> float:
    """Share of instances whose label is their cluster's, given each
    instance's pixel count and cluster, and the truth id of every pixel,
    the instances' pixels laid end to end.

    An instance's label is the marking id most of its pixels carry, ties
    going to the smallest id, weighted by that pixel count; an instance
    with no marking pixel is labelled NOISE_ID, weighted by its size. A
    cluster's label is the label of largest total weight among its
    instances, ties going to the smallest label.
    """
    count = len(sizes)
    if not count:
        return 1.0
    instance = np.repeat(np.arange(count), sizes)
    marking = (truth != 0) & (truth != NOISE_ID)
    ids, id_code = np.unique(truth[marking], return_inverse=True)
    owner, code, votes = _majority(instance[marking], id_code, None, len(ids))
    label = np.full(count, NOISE_ID, dtype=np.int64)
    label[owner] = ids[code]  # int64 truncates like int() would
    weight = sizes.astype(np.float64)
    weight[owner] = votes

    _, cluster_code = np.unique(clusters, return_inverse=True)
    labels, label_code = np.unique(label, return_inverse=True)
    _, majority, _ = _majority(cluster_code, label_code, weight, len(labels))
    return int((label_code == majority[cluster_code]).sum()) / count


def _majority(group, member, weight, width: int):
    """(groups, members, totals): for each group present, the member code
    in [0, width) of largest summed weight, ties going to the smallest
    code, and that sum. weight None counts each item once."""
    cells, cell = np.unique(group * width + member, return_inverse=True)
    totals = np.bincount(cell, weight, len(cells))
    owner = cells // width
    order = np.lexsort((cells, -totals, owner))
    first = order[np.diff(owner[order], prepend=-1) != 0]  # the heaviest cell of each group
    return owner[first], cells[first] % width, totals[first]


# ---------------------------------------------------------------------------
# truth text files: lane records without a polyline
# ---------------------------------------------------------------------------

def write_truth_curves(curves, path) -> None:
    write_lanes([Lane(curve, np.empty((0, 2))) for curve in curves], path)


def read_truth_curves(path) -> list[LaneCurve]:
    return [lane.curve for lane in _read_records(path, polyline=False)]
