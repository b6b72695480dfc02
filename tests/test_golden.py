"""Golden digests of the lane and truth files over a fixed synthetic corpus.

Refactors of the frame path promise byte-identical lane files; this pins
that promise. The digest covers the `format_lanes` text of 40 seeded
scenes spanning lane count, pixel noise and dash occlusion, with a refused
frame recorded by its exception class. A change that moves any printed
digit of any lane changes the digest. Update it only for a change that is
meant to alter lane output, and say so where the change is described.

The truth files of the same 40 scenes, as `write_truth_curves` writes
them, are pinned the same way: lanes and truth share one record format,
and a change to that format must not move a byte of either.

The 40 scenes hold at most about 40 instances each, so they barely
exercise voting. A third digest covers 12 seeded clutter frames: a scene
plus 150-500 4x4 blobs on an 8 px pitch below image row 200, where the
vote matrix has hundreds of rows and many pairs fall near eta.

Nine printed digits hide a change in the last bits of a coefficient, so
the same frames, plus one with a stop-line streak that the frame refuses,
are also run through the per-instance public chain (label_instances,
transform_instance, BevInstance.from_points, cluster_instances, then
fit_curve, sample_curve and back_project per cluster), and run_frame must
give bitwise the same instances, clusters and lanes, or the same refusal.
LANE_BITS_SHA256 pins those bits themselves: every coefficient and extent
by float.hex() and every polyline by its bytes, over the 40 scenes and the
12 clutter frames, so a refactor that moves the last bit of a lane shows
even when both paths move together. The clutter frames also pin the
blocked vote matrix: their clusters must not depend on the block size.
"""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import lanepost as lp
from lanepost import voting
from lanepost.homography import transform_pixels

GOLDEN_SHA256 = "5f36ffc908749b0166a1ee72ed3cfbb0dcc12d057b47158e93234ea2b00cb446"
TRUTH_SHA256 = "d90f617d2946d86ddb4562f39f80527da97d7523a41bff637b309fb422980b8c"
CLUTTER_SHA256 = "6be717dd0d61631e30104b2af1cb1d1fb6e54ab17c3cfe18d1787dc42a07262a"
LANE_BITS_SHA256 = "7a5b407c03f8a5bcdbb87607b05357b8d45ea9b3460763344ff802e206e1f7d6"

_NOISE = (0.0, 0.0005, 0.002, 0.01)
_OCCLUSION = (0.0, 0.2, 0.5)


def corpus_scenes():
    cfg = lp.default_config()
    for i in range(40):
        params = lp.SceneParams(
            num_lanes=1 + i % 5,
            noise_rate=_NOISE[i % len(_NOISE)],
            occlusion_rate=_OCCLUSION[i % len(_OCCLUSION)],
        )
        yield lp.generate_scene(params, 500 + i, cfg)


def clutter_masks():
    return (scene.mask for scene in clutter_scenes())


def clutter_scenes():
    """Scenes with a grid of 4x4 blobs on an 8 px pitch added to the mask
    below image row 200, placed at a seeded offset. The truth curves and
    the id map are the scene's: no divider runs through the blobs."""
    cfg = lp.default_config()
    height, width = cfg.target_rows, cfg.target_cols
    for i in range(12):
        rng = np.random.default_rng([700 + i, 1])
        params = lp.SceneParams(num_lanes=2 + i % 4, noise_rate=_NOISE[i % len(_NOISE)])
        scene = lp.generate_scene(params, 700 + i, cfg)
        mask = scene.mask.copy()
        count = int(rng.integers(150, 501))
        cols = int(np.ceil(np.sqrt(count * 1.6)))
        rows = -(-count // cols)
        r0 = 200 + int(rng.integers(0, max(height - 200 - rows * 8, 0) + 1))
        c0 = int(rng.integers(0, max(width - cols * 8, 0) + 1))
        for k in range(count):
            r = r0 + (k // cols) * 8
            c = c0 + (k % cols) * 8
            mask[r : r + 4, c : c + 4] = True
        yield lp.SyntheticScene(mask, scene.truth_curves, scene.truth_assignment)


def streak_mask():
    """The first scene plus an isolated one-row 40 px run below the
    horizon: a stop line, whose points share one BEV y."""
    mask = next(corpus_scenes()).mask.copy()
    r, c = 340, 20
    assert not mask[r - 1 : r + 2, c - 1 : c + 41].any()
    mask[r, c : c + 40] = True
    return mask


def lane_text(masks) -> str:
    cfg = lp.default_config()
    chunks = []
    for i, mask in enumerate(masks):
        try:
            text = lp.format_lanes(lp.run_frame(mask, cfg).lanes)
        except lp.ProcessingError as exc:
            text = f"refused {type(exc).__name__}\n"
        chunks.append(f"# scene {i}\n{text}")
    return "".join(chunks)


def corpus_text() -> str:
    return lane_text(scene.mask for scene in corpus_scenes())


def truth_corpus_bytes(directory) -> bytes:
    chunks = []
    for i, scene in enumerate(corpus_scenes()):
        path = directory / f"scene{i}.truth"
        lp.write_truth_curves(scene.truth_curves, path)
        chunks.append(f"# scene {i}\n".encode("utf-8") + path.read_bytes())
    return b"".join(chunks)


def test_lane_files_match_golden_digest():
    digest = hashlib.sha256(corpus_text().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256


def test_clutter_lane_files_match_golden_digest():
    digest = hashlib.sha256(lane_text(clutter_masks()).encode("utf-8")).hexdigest()
    assert digest == CLUTTER_SHA256


def test_truth_files_match_golden_digest(tmp_path):
    digest = hashlib.sha256(truth_corpus_bytes(tmp_path)).hexdigest()
    assert digest == TRUTH_SHA256


def public_chain(mask, cfg):
    """run_frame composed from the per-instance public calls: (instances,
    clustering, lanes)."""
    h = lp.estimate_homography(cfg.calibration)
    instances = lp.label_instances(mask, cfg.connectivity, cfg.min_instance_size)
    bev = [lp.BevInstance.from_points(inst.id, lp.transform_instance(h, inst)) for inst in instances]
    clustering = lp.cluster_instances(bev, cfg.eta)
    h_inv = h.inverse()
    lanes = []
    for cluster_id, member_ids in enumerate(clustering.members()):
        curve = lp.fit_curve(np.concatenate([bev[i].points for i in member_ids]), cluster_id)
        lanes.append(lp.Lane(curve, lp.back_project(h_inv, lp.sample_curve(curve, cfg.sample_count))))
    return instances, clustering, lanes


def refusal(call):
    """(call(), None), or (None, (class, message)) when the frame is refused."""
    try:
        return call(), None
    except lp.ProcessingError as exc:
        return None, (type(exc), str(exc))


def instance_bits(instances):
    return [
        (inst.id, inst.pixels.dtype.str, inst.pixels.tobytes())
        for inst in instances
    ]


def label_bits(labels, count):
    return labels.dtype.str, labels.tobytes(), count


def lane_bits(lanes):
    return [
        (
            lane.curve.cluster_id,
            [float(v).hex() for v in (lane.curve.c0, lane.curve.c1, lane.curve.c2)],
            [float(v).hex() for v in (lane.curve.y_min, lane.curve.y_max)],
            lane.polyline.shape,
            lane.polyline.tobytes(),
        )
        for lane in lanes
    ]


def test_run_frame_is_bitwise_the_per_instance_chain():
    cfg = lp.default_config()
    masks = [scene.mask for scene in corpus_scenes()] + list(clutter_masks()) + [streak_mask()]
    refused = []
    for i, mask in enumerate(masks):
        got, got_refusal = refusal(lambda: lp.run_frame(mask, cfg))
        want, want_refusal = refusal(lambda: public_chain(mask, cfg))
        assert got_refusal == want_refusal, i
        if got_refusal:
            refused.append(i)
            continue
        instances, clustering, lanes = want
        assert got.instance_count == len(instances), i
        assert instance_bits(got.segments.instances()) == instance_bits(instances), i
        labels = np.array([clustering.assignment[inst.id] for inst in instances], dtype=np.intp)
        assert label_bits(got.labels, got.cluster_count) == label_bits(
            labels, clustering.num_clusters
        ), i
        assert lane_bits(got.lanes) == lane_bits(lanes), i
    assert refused[-1] == len(masks) - 1  # the streak


def test_lane_bits_match_golden_digest():
    cfg = lp.default_config()
    digest = hashlib.sha256()
    masks = [scene.mask for scene in corpus_scenes()] + list(clutter_masks())
    for i, mask in enumerate(masks):
        lanes, why = refusal(lambda: lp.run_frame(mask, cfg).lanes)
        bits = lane_bits(lanes) if why is None else why[0].__name__
        digest.update(f"# frame {i}\n{bits!r}\n".encode("utf-8"))
    assert digest.hexdigest() == LANE_BITS_SHA256


def test_frame_labels_are_the_cluster_segments_labels():
    """run_frame keeps cluster_segments' labels as they come, one cluster
    per lane."""
    cfg = lp.default_config()
    h = lp.estimate_homography(cfg.calibration)
    masks = [scene.mask for scene in corpus_scenes()] + list(clutter_masks())
    for i, mask in enumerate(masks):
        result = lp.run_frame(mask, cfg)
        segments = lp.label_segments(mask, cfg.connectivity, cfg.min_instance_size)
        labels, count = lp.cluster_segments(transform_pixels(h, segments.pixels), segments.sizes, cfg.eta)
        assert result.labels.dtype == np.intp, i
        assert label_bits(result.labels, result.cluster_count) == label_bits(labels, count), i
        assert result.cluster_count == len(result.lanes), i


def test_clutter_clusters_do_not_depend_on_the_vote_block_size(monkeypatch):
    """The clutter frames put hundreds of instances and many near-eta pairs
    into the vote matrix: cluster_segments labels them alike at any block
    size, and as cluster_instances does."""
    cfg = lp.default_config()
    h = lp.estimate_homography(cfg.calibration)
    frames = []
    for mask in clutter_masks():
        segments = lp.label_segments(mask, cfg.connectivity, cfg.min_instance_size)
        points = transform_pixels(h, segments.pixels)
        bev = [
            lp.BevInstance.from_points(k, pts)
            for k, pts in enumerate(np.split(points, np.cumsum(segments.sizes)[:-1]))
        ]
        frames.append((points, segments.sizes, refusal(lambda: lp.cluster_instances(bev, cfg.eta))))
    for block in (1, 500, 1 << 14):
        monkeypatch.setattr(voting, "_BLOCK_ELEMENTS", block)
        for i, (points, sizes, (want, want_refusal)) in enumerate(frames):
            got, got_refusal = refusal(lambda: lp.cluster_segments(points, sizes, cfg.eta))
            assert got_refusal == want_refusal, (block, i)
            if want_refusal is None:
                labels, count = got
                assert dict(enumerate(labels.tolist())) == want.assignment, (block, i)
                assert count == want.num_clusters, (block, i)


def test_run_frame_on_two_threads_is_bitwise_the_sequential_result():
    """The labeler and the vote matrix borrow per-thread scratch buffers, so
    frames running at once on two threads must not see each other's."""
    cfg = lp.default_config()
    masks = list(clutter_masks())

    def frame_bits(mask):
        result = lp.run_frame(mask, cfg)
        return (
            instance_bits(result.segments.instances()),
            label_bits(result.labels, result.cluster_count),
            lane_bits(result.lanes),
        )

    want = [frame_bits(mask) for mask in masks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(frame_bits, masks * 3, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 3
