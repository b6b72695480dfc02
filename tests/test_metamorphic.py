"""Metamorphic gates: the lanes must not depend on handedness or on BEV units.

Two relations, each run on the 40 golden scenes, the 12 clutter frames and
the stop-line streak frame of `test_golden`:

- Mirror. Flip the mask left to right and mirror both quads of the
  calibration: x -> W - x in the image, x -> (BEV width) - x in BEV, with
  TL <-> TR and BL <-> BR so the quads keep their corner order. Instances
  are then labeled in another scan order, so their ids change, but every
  pixel must land in the mirror of its cluster, and every lane's polyline
  must be the mirror of its counterpart's within 1e-9 px. No bits are
  compared: the two frames round differently in fitting and projection.
- BEV scale. Multiply the BEV quad and eta by 2. Votes scale with the BEV,
  so every instance must keep its cluster.

A frame the pipeline refuses must be refused with the same exception class
under both relations. Under the default calibration that is the streak
frame.

The default quads are symmetric about the image's and the BEV's middle, so
mirroring leaves them as they are. A second, skewed calibration (a tilted
horizon over an off-center road) makes the mirror move every corner.
"""

import dataclasses

import numpy as np
import pytest

import lanepost as lp
from test_golden import clutter_masks, corpus_scenes, streak_mask

BEV_WIDTH = 480.0  # the BEV strip the default calibration maps to is 480 px wide
STREAK_FRAME = 52  # its index in frames()
CALIBRATIONS = {
    "default": lp.default_config().calibration,
    "skewed": lp.QuadCorrespondence(
        src=((120, 205), (375, 195), (470, 360), (10, 350)),
        dst=((100, 0), (350, 0), (350, 470), (100, 470)),
    ),
}


def frames():
    return [
        *(scene.mask for scene in corpus_scenes()),
        *clutter_masks(),
        streak_mask(),
    ]


def outcome(mask, cfg):
    """run_frame's result, or the class name of its refusal."""
    try:
        return lp.run_frame(mask, cfg)
    except lp.ProcessingError as exc:
        return type(exc).__name__


def mirrored_quad(quad, width):
    tl, tr, br, bl = [(width - x, y) for x, y in quad]
    return (tr, tl, bl, br)


def pixel_labels(result, shape):
    """Each pixel's cluster, -1 where no kept instance lies."""
    image = np.full(shape, -1, dtype=np.intp)
    rows, cols = result.segments.pixels.T
    image[rows, cols] = np.repeat(result.labels, result.segments.sizes)
    return image


def cluster_map(image, other):
    """{cluster in image: cluster in other} when the two label images hold
    the same partition of the same pixels, else None."""
    if not np.array_equal(image >= 0, other >= 0):
        return None
    kept = image >= 0
    pairs = set(zip(image[kept].tolist(), other[kept].tolist()))
    mapping = dict(pairs)
    if len(mapping) != len(pairs) or len(set(mapping.values())) != len(pairs):
        return None
    return mapping


def check_refusals(name, refusals):
    assert all(plain == changed for _, plain, changed in refusals), refusals
    if name == "default":
        assert [i for i, *_ in refusals] == [STREAK_FRAME]


@pytest.mark.parametrize("name", CALIBRATIONS)
def test_mirrored_frames_give_mirrored_lanes(name):
    cfg = dataclasses.replace(lp.default_config(), calibration=CALIBRATIONS[name])
    width = cfg.target_cols
    calibration = lp.QuadCorrespondence(
        src=mirrored_quad(cfg.calibration.src, width),
        dst=mirrored_quad(cfg.calibration.dst, BEV_WIDTH),
    )
    mirror_cfg = dataclasses.replace(cfg, calibration=calibration)
    partitions, polylines, refusals = [], [], []
    for i, mask in enumerate(frames()):
        plain = outcome(mask, cfg)
        mirrored = outcome(np.ascontiguousarray(mask[:, ::-1]), mirror_cfg)
        if isinstance(plain, str) or isinstance(mirrored, str):
            refusals.append((i, plain if isinstance(plain, str) else "ok", mirrored))
            continue
        mapping = cluster_map(
            pixel_labels(plain, mask.shape), pixel_labels(mirrored, mask.shape)[:, ::-1]
        )
        if mapping is None:
            partitions.append(i)
            continue
        for k, lane in enumerate(plain.lanes):
            want = np.stack([width - lane.polyline[:, 0], lane.polyline[:, 1]], axis=1)
            got = mirrored.lanes[mapping[k]].polyline
            if got.shape != want.shape or not np.abs(got - want).max() <= 1e-9:
                polylines.append((i, k))
    assert partitions == [] and polylines == []
    check_refusals(name, refusals)


@pytest.mark.parametrize("name", CALIBRATIONS)
def test_bev_scale_keeps_every_cluster(name):
    cfg = dataclasses.replace(lp.default_config(), calibration=CALIBRATIONS[name])
    calibration = lp.QuadCorrespondence(
        src=cfg.calibration.src, dst=tuple((2 * x, 2 * y) for x, y in cfg.calibration.dst)
    )
    scaled_cfg = dataclasses.replace(cfg, calibration=calibration, eta=2 * cfg.eta)
    partitions, refusals = [], []
    for i, mask in enumerate(frames()):
        plain, scaled = outcome(mask, cfg), outcome(mask, scaled_cfg)
        if isinstance(plain, str) or isinstance(scaled, str):
            refusals.append((i, plain if isinstance(plain, str) else "ok", scaled))
        elif not np.array_equal(plain.labels, scaled.labels):
            partitions.append(i)
    assert partitions == []
    check_refusals(name, refusals)
