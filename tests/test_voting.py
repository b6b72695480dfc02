import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from lanepost import (
    BevInstance,
    DegenerateGeometryError,
    cluster_instances,
    cluster_segments,
    default_config,
    estimate_homography,
    generate_scene,
    label_segments,
    SceneParams,
    vote,
)
from lanepost import voting
from lanepost.graph import component_labels
from lanepost.homography import transform_pixels
from oracles import (
    line_fit_normal_eq,
    scalar_extremes,
    scalar_facing_point,
    scalar_fit_line,
    scalar_vote,
    threshold_graph_components,
)
from test_acceptance import synthetic_gate_scenes
from test_golden import clutter_masks, corpus_scenes


def vertical(instance_id, x, ys):
    return BevInstance.from_points(instance_id, [(float(x), float(y)) for y in ys])


def random_dash(rng, instance_id):
    base_x = rng.uniform(0.0, 120.0)
    y0 = rng.uniform(0.0, 150.0)
    length = rng.uniform(5.0, 40.0)
    slope = rng.uniform(-0.5, 0.5)
    ys = np.linspace(y0, y0 + length, int(rng.integers(2, 15)))
    xs = base_x + slope * (ys - y0) + rng.normal(0.0, 0.2, len(ys))
    return BevInstance.from_points(instance_id, np.stack([xs, ys], axis=1))


def oracle_vote(a, b):
    """The scalar rule's vote of two BevInstances."""
    return scalar_vote(a.id, a.points.tolist(), b.id, b.points.tolist())


def fit_segments(points, sizes):
    """voting._fit_segments with the y spreads from voting._extreme_arrays,
    as the vote matrix calls it."""
    _, bottom_y, _, top_y = voting._extreme_arrays(points, np.cumsum(sizes) - sizes)
    return voting._fit_segments(points, sizes, bottom_y - top_y)


def batched_line(points):
    """(a, b) of voting._fit_segments for one point segment, as floats."""
    pts = np.asarray(points, dtype=np.float64)
    (a,), (b,) = fit_segments(pts, np.array([len(pts)]))
    return float(a), float(b)


def same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestFitLine:
    """The batched fit of one segment, and the scalar oracle it must equal."""

    def test_exact_recovery(self):
        ys = np.array([0.0, 1.0, 2.0, 5.0, 9.0])
        pts = np.stack([2 * ys + 1, ys], axis=1)
        a, b = batched_line(pts)
        assert a == pytest.approx(2.0, abs=1e-9)
        assert b == pytest.approx(1.0, abs=1e-9)
        assert (a, b) == scalar_fit_line(pts.tolist())

    def test_single_point_vertical_fallback(self):
        assert batched_line([(5.0, 7.0)]) == scalar_fit_line([(5.0, 7.0)]) == (0.0, 5.0)

    def test_matches_normal_equation_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            ys = rng.uniform(0.0, 30.0, 20)
            xs = -0.5 * ys + 40.0 + rng.normal(0.0, 0.4, 20)
            pts = list(zip(xs.tolist(), ys.tolist()))
            a, b = batched_line(pts)
            oa, ob = line_fit_normal_eq(pts)
            assert abs(a - oa) < 1e-12
            assert abs(b - ob) < 1e-12
            sa, sb = scalar_fit_line(pts)
            assert same_bits(a, sa) and same_bits(b, sb)

    def test_horizontal_multi_point_rejected(self):
        flat = [(0.0, 5.0), (3.0, 5.0), (9.0, 5.0)]
        with pytest.raises(DegenerateGeometryError):
            batched_line(flat)
        with pytest.raises(DegenerateGeometryError):
            scalar_fit_line(flat)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BevInstance.from_points(0, np.empty((0, 2)))


class TestFacingPoint:
    """The scalar oracle's facing point, which the vote matrix takes in
    facing order without a per-pair selection."""

    def facing(self, a, b):
        return scalar_facing_point(a.id, a.points.tolist(), b.id, b.points.tolist())

    def test_stacked_instances(self):
        low = vertical(0, 0.0, (20, 25, 30))
        high = vertical(1, 0.0, (0, 5, 10))
        assert self.facing(low, high) == (0.0, 15.0)
        assert vote(low, high) == 0.0

    def test_offset_instances(self):
        low = vertical(0, 0.0, (20, 25, 30))
        high = vertical(1, 4.0, (0, 5, 10))
        assert self.facing(low, high) == (2.0, 15.0)
        assert vote(low, high) == 4.0

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        for i in range(30):
            a = random_dash(rng, 2 * i)
            b = random_dash(rng, 2 * i + 1)
            assert self.facing(a, b) == self.facing(b, a)

    def test_same_id_rejected(self):
        a = vertical(3, 0.0, (0, 5))
        b = vertical(3, 2.0, (10, 15))
        with pytest.raises(ValueError):
            self.facing(a, b)
        with pytest.raises(ValueError, match="both have id 3"):
            vote(a, b)


class TestVote:
    def test_vertical_hand_case(self):
        low = vertical(0, 0.0, (20, 22, 25, 28, 30))
        high = vertical(1, 4.0, (0, 3, 6, 10))
        assert vote(low, high) == pytest.approx(4.0, abs=1e-12)
        assert same_bits(vote(low, high), oracle_vote(low, high))

    def test_collinear_segments_vote_zero(self):
        a = BevInstance.from_points(0, [(y + 3.0, y) for y in (0.0, 2.0, 4.0)])
        b = BevInstance.from_points(1, [(y + 3.0, y) for y in (10.0, 12.0, 14.0)])
        assert vote(a, b) < 1e-9
        assert same_bits(vote(a, b), oracle_vote(a, b))

    def test_symmetric_and_non_negative(self):
        rng = np.random.default_rng(1)
        for i in range(40):
            a = random_dash(rng, 2 * i)
            b = random_dash(rng, 2 * i + 1)
            v = vote(a, b)
            assert v >= 0.0
            assert v == vote(b, a)
            assert same_bits(v, oracle_vote(a, b))

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        a = random_dash(rng, 0)
        b = random_dash(rng, 1)
        base = vote(a, b)
        for dx, dy in ((13.5, -40.0), (-250.0, 97.25), (1e4, 1e4)):
            at = BevInstance.from_points(0, a.points + (dx, dy))
            bt = BevInstance.from_points(1, b.points + (dx, dy))
            assert vote(at, bt) == pytest.approx(base, abs=1e-9)
            assert same_bits(vote(at, bt), oracle_vote(at, bt))

    def test_tied_bottoms_break_by_id_in_either_argument_order(self):
        instances = tied_bottom_cases(np.random.default_rng(4))
        for a in instances:
            for b in instances:
                if a.id < b.id:
                    assert same_bits(vote(b, a), oracle_vote(a, b)), (a.id, b.id)
                    assert same_bits(vote(a, b), oracle_vote(a, b)), (a.id, b.id)

    def test_bitwise_the_scalar_oracle_on_the_acceptance_frames(self):
        # the acceptance gate's voting frames: its generator, its seeds
        def acceptance_dash(rng, instance_id):
            base_x = rng.uniform(0.0, 120.0)
            y0 = rng.uniform(0.0, 150.0)
            ys = np.linspace(y0, y0 + rng.uniform(5.0, 40.0), int(rng.integers(2, 15)))
            xs = base_x + rng.uniform(-0.5, 0.5) * (ys - y0) + rng.normal(0.0, 0.2, len(ys))
            return BevInstance.from_points(instance_id, np.stack([xs, ys], axis=1))

        pairs = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            instances = [acceptance_dash(rng, i) for i in range(int(rng.integers(1, 11)))]
            for a in instances:
                with pytest.raises(ValueError):
                    vote(a, BevInstance(a.id, a.points))
                for b in instances:
                    if a.id < b.id:
                        v = vote(a, b)
                        assert v == vote(b, a), (seed, a.id, b.id)
                        assert same_bits(v, oracle_vote(a, b)), (seed, a.id, b.id)
                        pairs += 1
        assert pairs == 3610  # every pair of the 200 frames


class TestClusterInstances:
    def test_single_instance(self):
        clustering = cluster_instances([vertical(0, 5.0, (0, 10))], eta=20.0)
        assert clustering.assignment == {0: 0}
        assert clustering.num_clusters == 1

    def test_dashes_cluster_offset_instance_does_not(self):
        dashes = [
            vertical(0, 100.0, (0, 10, 20, 30)),
            vertical(1, 100.0, (50, 60, 70, 80)),
            vertical(2, 100.0, (100, 110, 120, 130)),
        ]
        offset = vertical(3, 200.0, (40, 60, 80))
        clustering = cluster_instances(dashes + [offset], eta=20.0)
        assert clustering.num_clusters == 2
        assert clustering.assignment == {0: 0, 1: 0, 2: 0, 3: 1}

    def test_chain_merging_is_transitive(self):
        a = vertical(0, 0.0, (0, 5, 10))
        b = vertical(1, 3.0, (20, 25, 30))
        c = vertical(2, 6.0, (40, 45, 50))
        assert vote(a, b) < 5.0 and vote(b, c) < 5.0 and vote(a, c) >= 5.0
        clustering = cluster_instances([a, b, c], eta=5.0)
        assert clustering.num_clusters == 1

    def test_collinear_split_always_merges(self):
        a = BevInstance.from_points(0, [(y + 3.0, y) for y in (0.0, 2.0, 4.0)])
        b = BevInstance.from_points(1, [(y + 3.0, y) for y in (30.0, 32.0, 34.0)])
        for eta in (1e-6, 0.5, 20.0):
            assert cluster_instances([a, b], eta).num_clusters == 1

    def test_matches_graph_oracle(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 11))
            instances = [random_dash(rng, i) for i in range(n)]
            eta = float(rng.uniform(1.0, 30.0))
            clustering = cluster_instances(instances, eta)
            by_id = {inst.id: inst for inst in instances}
            expected = threshold_graph_components(
                list(by_id), lambda i, j: oracle_vote(by_id[i], by_id[j]), eta
            )
            assert clustering.assignment == expected, f"seed {seed}"

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        instances = [random_dash(rng, i) for i in range(8)]
        base = cluster_instances(instances, eta=12.0)
        for _ in range(5):
            shuffled = list(instances)
            rng.shuffle(shuffled)
            again = cluster_instances(shuffled, eta=12.0)
            assert again.assignment == base.assignment
            assert again.num_clusters == base.num_clusters

    def test_members_listing(self):
        a = vertical(0, 0.0, (0, 10))
        b = vertical(1, 200.0, (0, 10))
        c = vertical(2, 0.5, (20, 30))
        clustering = cluster_instances([a, b, c], eta=10.0)
        assert clustering.members() == [[0, 2], [1]]

    def test_bad_inputs(self):
        a = vertical(0, 0.0, (0, 10))
        with pytest.raises(ValueError):
            cluster_instances([a], eta=0.0)
        twin = vertical(0, 5.0, (20, 30))
        with pytest.raises(ValueError):
            cluster_instances([a, twin], eta=1.0)


def vote_matrix_cases(rng):
    """Id-sorted instances mixing random dashes, slanted dashes that tie on
    bottom y (the facing point falls back to ids) and single points (the
    vertical fallback line)."""
    instances = [random_dash(rng, i) for i in range(40)]
    for k in range(12):
        ys = np.linspace(rng.uniform(0.0, 90.0), 100.0, 4)
        xs = rng.uniform(0.0, 120.0) + rng.uniform(-0.5, 0.5) * ys
        instances.append(BevInstance.from_points(40 + k, np.stack([xs, ys], axis=1)))
    for k in range(8):
        x, y = rng.uniform(0.0, 120.0), float(rng.choice([100.0, rng.uniform(0.0, 150.0)]))
        instances.append(BevInstance.from_points(52 + k, [(x, y)]))
    return instances


def tied_bottom_cases(rng):
    """Id-sorted instances whose bottoms all share one y, so the facing
    point decides every pair by id: slanted dashes of random length and
    single points, all ending at y = 100."""
    instances = []
    for k in range(30):
        if k % 5 == 4:
            instances.append(BevInstance.from_points(k, [(rng.uniform(0.0, 120.0), 100.0)]))
            continue
        ys = np.linspace(rng.uniform(0.0, 95.0), 100.0, int(rng.integers(2, 9)))
        xs = rng.uniform(0.0, 120.0) + rng.uniform(-0.5, 0.5) * ys + rng.normal(0.0, 0.2, len(ys))
        instances.append(BevInstance.from_points(k, np.stack([xs, ys], axis=1)))
    return instances


def non_finite_cases(rng):
    """vote_matrix_cases plus instances holding a NaN or infinite point,
    whose votes are NaN or infinite, never below any eta."""
    instances = vote_matrix_cases(rng)
    bad = [
        [(5.0, 0.0), (np.nan, 10.0), (6.0, 20.0)],
        [(5.0, 0.0), (6.0, np.inf)],
        [(-np.inf, 40.0), (7.0, 60.0)],
        [(30.0, np.inf)],
        [(np.inf, 50.0)],
        [(30.0, -np.inf)],
    ]
    first = len(instances)
    return instances + [BevInstance.from_points(first + k, pts) for k, pts in enumerate(bad)]


def laid_end_to_end(instances):
    """(points, sizes) of id-sorted instances, as cluster_instances lays
    them out for the voting core."""
    points = np.concatenate([inst.points for inst in instances])
    return points, np.array([len(inst.points) for inst in instances])


def facing_blocks(points, sizes):
    """The exact vote matrix of point segments in facing order, a block of
    rows of its strict upper triangle at a time, as cluster_segments takes
    it: (row_ids, col_ids, votes) per block, where votes[k, c] is the vote
    of segments row_ids[k] and col_ids[c] for c >= k. votes is a view of
    one scratch buffer that the next block overwrites."""
    order, lines = voting._facing_lines(points, sizes)
    n = len(order)
    scratch = np.empty(3 * voting._block_entries(n))
    for p0, rows in voting._block_rows(n):
        yield order[p0 : p0 + rows], order[p0 + 1 :], voting._block_votes(lines, p0, rows, scratch)


def facing_vote_matrix(instances):
    """The symmetric vote matrix that facing_blocks yields, and how many
    times each entry came up."""
    n = len(instances)
    matrix = np.full((n, n), np.nan)
    seen = np.zeros((n, n), dtype=int)
    for row_ids, col_ids, votes in facing_blocks(*laid_end_to_end(instances)):
        for k, i in enumerate(row_ids):
            matrix[i, col_ids[k:]] = matrix[col_ids[k:], i] = votes[k, k:]
            seen[i, col_ids[k:]] += 1
            seen[col_ids[k:], i] += 1
    return matrix, seen


def pairs_below(points, sizes, eta):
    """The reference edge list: index pairs (i, j), i < j, of point
    segments whose vote in facing_blocks is below eta, as two arrays.

    Each entry found in facing order is mapped back to (min id, max id). A
    NaN vote, from an instance with a NaN or infinite point, is not below
    eta, as in vote, and the arithmetic that makes it warns nothing.
    """
    upper, lower = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    with np.errstate(all="ignore"):
        for row_ids, col_ids, votes in facing_blocks(points, sizes):
            k, c = divmod(np.flatnonzero(votes < eta), votes.shape[1])
            facing = c >= k
            i, j = row_ids[k[facing]], col_ids[c[facing]]
            upper.append(np.minimum(i, j))
            lower.append(np.maximum(i, j))
    return np.concatenate(upper), np.concatenate(lower)


def blob_grid_frame(pitch):
    """(points, sizes) of a 360x480 mask tiled with 4x4 blobs on the given
    pitch, labeled and mapped to BEV as run_frame does: a dense frame where
    about 8% of all pairs vote below eta and the blobs form one cluster."""
    cfg = default_config()
    mask = np.zeros((cfg.target_rows, cfg.target_cols), dtype=bool)
    for r in range(0, cfg.target_rows - 3, pitch):
        for c in range(0, cfg.target_cols - 3, pitch):
            mask[r : r + 4, c : c + 4] = True
    segments = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
    return transform_pixels(estimate_homography(cfg.calibration), segments.pixels), segments.sizes


def scalar_pairs_below(instances, eta):
    """The scalar rule: id pairs i < j whose oracle vote is below eta."""
    n = len(instances)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [(i, j) for i, j in pairs if oracle_vote(instances[i], instances[j]) < eta]


class TestVoteMatrix:
    @pytest.mark.parametrize("block", [1, 500, 1 << 14])
    def test_bitwise_equal_to_scalar_vote(self, monkeypatch, block):
        monkeypatch.setattr(voting, "_BLOCK_ELEMENTS", block)
        for cases in (vote_matrix_cases, tied_bottom_cases):
            instances = cases(np.random.default_rng(block))
            n = len(instances)
            matrix, seen = facing_vote_matrix(instances)
            assert (seen == 1 - np.eye(n, dtype=int)).all(), cases.__name__
            for i in range(n):
                for j in range(i + 1, n):
                    scalar = np.float64(oracle_vote(instances[i], instances[j]))
                    assert matrix[i, j].tobytes() == scalar.tobytes(), (cases.__name__, i, j)

    @pytest.mark.parametrize("block", [1, 500, 1 << 14])
    def test_non_finite_points_vote_like_the_scalar_rule_without_warnings(self, monkeypatch, block):
        monkeypatch.setattr(voting, "_BLOCK_ELEMENTS", block)
        instances = non_finite_cases(np.random.default_rng(block))
        points, sizes = laid_end_to_end(instances)
        for eta in (0.5, 5.0, 50.0, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                upper, lower = pairs_below(points, sizes, eta)
                labels, count = cluster_segments(points, sizes, eta)
            assert sorted(zip(upper.tolist(), lower.tolist())) == scalar_pairs_below(instances, eta)
            want, want_count = component_labels(len(sizes), upper, lower)
            assert (labels.tolist(), count) == (want.tolist(), want_count)
        first_bad = len(vote_matrix_cases(np.random.default_rng(block)))
        assert not any(j >= first_bad for _, j in scalar_pairs_below(instances, 1e300))

    def test_same_edges_as_scalar_vote(self):
        rng = np.random.default_rng(5)
        instances = vote_matrix_cases(rng)
        n = len(instances)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        votes = {(i, j): oracle_vote(instances[i], instances[j]) for i, j in pairs}
        # thresholds on exact vote values: the pair voting exactly eta
        # stays out, and one ulp more lets it in
        picked = rng.choice(sorted(votes.values()), 6, replace=False)
        for eta in [float(v) for v in picked] + [float(np.nextafter(v, np.inf)) for v in picked]:
            upper, lower = pairs_below(*laid_end_to_end(instances), eta)
            assert sorted(zip(upper.tolist(), lower.tolist())) == sorted(
                pair for pair, v in votes.items() if v < eta
            ), f"eta {eta!r}"

    @pytest.mark.parametrize("block", [1, 500, 1 << 14])
    def test_clutter_labels_lose_no_pair_below_eta(self, monkeypatch, block):
        cfg = default_config()
        h = estimate_homography(cfg.calibration)
        monkeypatch.setattr(voting, "_BLOCK_ELEMENTS", block)
        for i, mask in enumerate(clutter_masks()):
            segments = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
            points, sizes = transform_pixels(h, segments.pixels), segments.sizes
            want, want_count = component_labels(len(sizes), *pairs_below(points, sizes, cfg.eta))
            labels, count = cluster_segments(points, sizes, cfg.eta)
            assert (labels.tolist(), count) == (want.tolist(), want_count), (block, i)

    @pytest.mark.parametrize("block", [500, 1 << 14])
    @pytest.mark.parametrize("pitch", [8, 6, 5])
    def test_dense_grid_labels_lose_no_pair_below_eta(self, monkeypatch, pitch, block):
        points, sizes = blob_grid_frame(pitch)
        want, want_count = component_labels(len(sizes), *pairs_below(points, sizes, 20.0))
        monkeypatch.setattr(voting, "_BLOCK_ELEMENTS", block)
        labels, count = cluster_segments(points, sizes, 20.0)
        assert (labels.tolist(), count) == (want.tolist(), want_count)

    def test_segment_core_clusters_like_cluster_instances(self):
        instances = vote_matrix_cases(np.random.default_rng(9))
        points, sizes = laid_end_to_end(instances)
        for eta in (0.5, 5.0, 50.0):
            labels, count = cluster_segments(points, sizes, eta)
            clustering = cluster_instances(instances[::-1], eta)
            assert dict(enumerate(labels.tolist())) == clustering.assignment
            assert count == clustering.num_clusters

    def test_segment_core_rejects_sizes_that_do_not_split_the_points(self):
        points, sizes = laid_end_to_end(vote_matrix_cases(np.random.default_rng(9)))
        for bad_sizes in (sizes[:-1], np.append(sizes, 1)):
            with pytest.raises(ValueError, match="sizes summing to n"):
                cluster_segments(points, bad_sizes, 20.0)
        with pytest.raises(ValueError, match="sizes summing to n"):
            cluster_segments(points[:, :1], sizes, 20.0)
        labels, count = cluster_segments(np.empty((0, 2)), np.empty(0, dtype=int), 20.0)
        assert (labels.tolist(), count) == ([], 0)

    def test_segment_core_refuses_sizes_that_are_not_positive_integers(self):
        points = np.array([(0.0, 0.0), (0.0, 5.0), (1.0, 1.0), (1.0, 9.0)])
        # [3, -1, 2] sums to the point count, but is a caller's error, not a
        # degenerate frame
        for bad_sizes in ([3, -1, 2], [0, 4], [2.0, 2.0], [2.5, 1.5], [True] * 4, [[2, 2]]):
            with pytest.raises(ValueError, match="positive integers"):
                cluster_segments(points, bad_sizes, 20.0)

    def test_segment_core_accepts_any_integer_dtype(self):
        points, sizes = laid_end_to_end(vote_matrix_cases(np.random.default_rng(9)))
        labels, count = cluster_segments(points, sizes, 20.0)
        for dtype in (np.uint8, np.int16, np.uint32, np.int64, np.uint64):
            again, again_count = cluster_segments(points, sizes.astype(dtype), 20.0)
            assert (again.tolist(), again_count) == (labels.tolist(), count), dtype

    def test_scratch_stays_bounded(self):
        # 3000 two-point dashes 100 BEV px apart: no pair votes below eta,
        # and a whole vote matrix would take 3000**2 * 8 bytes = 72 MB
        n = 3000
        xs = np.repeat(100.0 * np.arange(n), 2)
        points = np.stack([xs, np.tile([0.0, 10.0], n)], axis=1)
        sizes = np.full(n, 2)
        tracemalloc.start()
        try:
            labels, count = cluster_segments(points, sizes, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (count, labels.tolist()) == (n, list(range(n)))
        assert peak < 2 << 20, peak

    def test_dense_grid_stays_bounded(self):
        # 6912 blobs on a 5 px pitch: 1.94M of the 23.9M pairs vote below
        # eta, so a frame-wide edge list alone would take tens of MB
        points, sizes = blob_grid_frame(5)
        tracemalloc.start()
        try:
            labels, count = cluster_segments(points, sizes, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sizes) == 6912
        assert (count, labels.max()) == (1, 0)
        assert peak < 8 << 20, peak

    def test_streak_still_raises(self):
        streak = BevInstance.from_points(1, [(x, 50.0) for x in (0.0, 1.0, 2.0)])
        with pytest.raises(DegenerateGeometryError):
            cluster_instances([vertical(0, 5.0, (0, 10)), streak], eta=20.0)


class TestBevInstances:
    def test_extreme_ties_break_to_min_x(self):
        points = [(3.0, 9.0), (1.0, 9.0), (2.0, 0.0), (-1.0, 0.0), (5.0, 4.0)]
        assert scalar_extremes(points) == ((1.0, 9.0), (-1.0, 0.0))
        bottom_x, bottom_y, top_x, top_y = voting._extreme_arrays(np.array(points), [0])
        assert [bottom_x[0], bottom_y[0], top_x[0], top_y[0]] == [1.0, 9.0, -1.0, 0.0]


class TestBatchedFit:
    def random_segments(self, rng):
        """Point segments of 1-3000 points, single points mixed in, on
        noisy slanted lines far from the origin."""
        sizes = rng.integers(1, 3001, 24)
        sizes[rng.choice(24, 8, replace=False)] = 1
        segments = []
        for size in sizes:
            ys = rng.uniform(-50.0, 400.0) + rng.uniform(0.5, 300.0) * rng.random(size)
            xs = rng.uniform(-1e3, 1e3) + rng.uniform(-2.0, 2.0) * ys + rng.normal(0.0, 0.5, size)
            segments.append(np.stack([xs, ys], axis=1))
        return sizes, segments

    def test_each_segment_bitwise_equal_to_fit_line(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            sizes, segments = self.random_segments(rng)
            a, b = fit_segments(np.concatenate(segments), sizes)
            for k, segment in enumerate(segments):
                line_a, line_b = scalar_fit_line(segment.tolist())
                assert np.float64(line_a).tobytes() == a[k].tobytes(), (seed, k)
                assert np.float64(line_b).tobytes() == b[k].tobytes(), (seed, k)
                if len(segment) == 1:
                    assert (line_a, line_b) == (0.0, segment[0, 0])

    def test_within_index_order_rounding_of_exact_sums(self):
        # an index-order fold of n terms errs by at most about n*eps relative
        # to the terms' scale; math.fsum gives the correctly rounded sums
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(11)
        _, segments = self.random_segments(rng)
        for segment in segments[:12]:
            n = len(segment)
            if n == 1:
                continue
            (a,), (b,) = fit_segments(segment, np.array([n]))
            xs, ys = segment[:, 0].tolist(), segment[:, 1].tolist()
            x_mean, y_mean = math.fsum(xs) / n, math.fsum(ys) / n
            syy = math.fsum((y - y_mean) ** 2 for y in ys)
            sxx = math.fsum((x - x_mean) ** 2 for x in xs)
            want_a = math.fsum((y - y_mean) * (x - x_mean) for x, y in zip(xs, ys)) / syy
            want_b = x_mean - want_a * y_mean
            scale = math.sqrt(sxx / syy)
            assert abs(a - want_a) <= 4 * n * eps * scale
            assert abs(b - want_b) <= 4 * n * eps * (abs(x_mean) + abs(y_mean) * scale)

    def test_first_degenerate_instance_in_id_order_raises(self):
        dashes = [vertical(i, 10.0 * i, (0, 5, 10)) for i in (0, 2, 4)]
        flat_late = BevInstance.from_points(3, [(0.0, 70.0), (3.0, 70.0)])
        flat_early = BevInstance.from_points(1, [(9.0, 31.5), (1.0, 31.5 + 1e-10), (4.0, 31.5)])
        single = BevInstance.from_points(5, [(7.0, 7.0)])
        shuffled = [flat_late, dashes[2], single, flat_early, dashes[0], dashes[1]]
        message = "all 3 points share y ~ 31.5; cannot fit x = f(y)"
        with pytest.raises(DegenerateGeometryError, match=re.escape(message)):
            cluster_instances(shuffled, eta=20.0)
        with pytest.raises(DegenerateGeometryError):
            scalar_fit_line(flat_early.points.tolist())

    def test_empty_point_set_raises_value_error(self):
        with pytest.raises(ValueError):
            BevInstance.from_points(1, np.empty((0, 2)))
        with pytest.raises(ValueError):
            BevInstance.from_points(1, [])
        empty = BevInstance(1, np.empty((0, 2)))
        with pytest.raises(ValueError):
            cluster_instances([vertical(0, 5.0, (0, 10)), empty], eta=20.0)
        with pytest.raises(ValueError):
            vote(vertical(0, 5.0, (0, 10)), empty)

    def test_separate_instances_cluster_like_batched_slices(self):
        def outcome(instances):
            try:
                clustering = cluster_instances(instances, cfg.eta)
            except DegenerateGeometryError as exc:
                return str(exc)
            return clustering.assignment, clustering.num_clusters

        cfg = default_config()
        h = estimate_homography(cfg.calibration)
        seen = set()
        for seed in range(8):
            mask = generate_scene(SceneParams(num_lanes=4, noise_rate=0.002), seed, cfg).mask
            segments = label_segments(mask, 8, 0)  # keeps single pixels
            points = transform_pixels(h, segments.pixels)
            batched = [
                BevInstance.from_points(i, p)
                for i, p in enumerate(np.split(points, np.cumsum(segments.sizes)[:-1]))
            ]
            separate = [BevInstance.from_points(b.id, b.points.copy()) for b in batched]
            want = outcome(batched)
            assert outcome(separate) == want, seed
            seen.add(type(want))
        assert seen == {str, tuple}  # both a refused and a clustered frame


def count_calls(monkeypatch, name):
    """Wrap voting.<name>; returns the list of each call's (p0, rows)."""
    calls = []
    real = getattr(voting, name)

    def counted(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(voting, name, counted)
    return calls


def score_errors(points, sizes):
    """(largest |score - exact vote| over every pair, delta) of a frame's
    scored vote matrix."""
    _, lines = voting._facing_lines(points, sizes)
    factors, delta = voting._score_factors(lines)
    n = len(sizes)
    scratch = np.empty(3 * voting._block_entries(n))
    worst = 0.0
    for p0, rows in voting._block_rows(n):
        scores = voting._block_scores(factors, p0, rows, scratch).copy()
        votes = voting._block_votes(lines, p0, rows, scratch)
        upper = np.triu(np.ones(votes.shape, dtype=bool))
        worst = max(worst, float(np.abs(scores - votes)[upper].max()))
    return worst, delta


def far_frame(rng):
    """(points, sizes) of 40 instances far from the origin: dashes, fits
    close to horizontal (|a| up to about 1e6) and single points, with
    coordinates up to about 1e6."""
    origin = rng.uniform(-1e6, 1e6, 2) * rng.choice([1e-6, 1e-3, 1.0])
    segments = []
    for k in range(40):
        kind = k % 4
        center = origin + rng.uniform(-300.0, 300.0, 2)
        if kind == 3:
            segments.append(center[None, :])
            continue
        count = int(rng.integers(2, 9))
        if kind == 2:  # near horizontal: a tiny y spread under a wide x spread
            dy = 10.0 ** rng.uniform(-3.0, 0.0)
            ys = center[1] + dy * rng.random(count)
            ys[:2] = center[1], center[1] + dy
            xs = center[0] + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(2.0, 3.0) * (ys - center[1]) / dy
        else:
            ys = center[1] + rng.uniform(0.0, 40.0, count)
            xs = center[0] + rng.uniform(-2.0, 2.0) * (ys - center[1]) + rng.normal(0.0, 0.3, count)
        segments.append(np.stack([xs, ys], axis=1))
    return np.concatenate(segments), np.array([len(s) for s in segments])


class TestScoredBlocks:
    """cluster_segments decides pairs from two matrix products of inner
    size 3 and takes exact votes only in a rounding band around eta."""

    def test_scores_lie_within_delta_of_the_exact_votes(self):
        slopes, spans = [], []
        for seed in range(60):
            rng = np.random.default_rng(seed)
            points, sizes = far_frame(rng)
            worst, delta = score_errors(points, sizes)
            assert worst <= delta, (seed, worst, delta)
            a, _ = fit_segments(points, sizes)
            slopes.append(np.abs(a).max())
            spans.append(np.abs(points).max())
        # the frames reach what the bound must hold for
        assert max(slopes) > 1e5 and max(spans) > 5e5

    def test_scores_lie_within_delta_on_the_clutter_and_grid_frames(self):
        cfg = default_config()
        h = estimate_homography(cfg.calibration)
        frames = [blob_grid_frame(12)]
        for mask in list(clutter_masks())[:4]:
            segments = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
            frames.append((transform_pixels(h, segments.pixels), segments.sizes))
        for points, sizes in frames:
            worst, delta = score_errors(points, sizes)
            assert worst <= delta < 1e-9, (worst, delta)

    @pytest.mark.parametrize("block", [1, 500, 1 << 14])
    def test_eta_on_exact_votes_is_decided_by_the_exact_votes(self, monkeypatch, block):
        # as in test_same_edges_as_scalar_vote, through cluster_segments: the
        # pair voting exactly eta stays out, and one ulp more lets it in
        monkeypatch.setattr(voting, "_BLOCK_ELEMENTS", block)
        fallbacks = count_calls(monkeypatch, "_block_votes")
        rng = np.random.default_rng(5)
        instances = vote_matrix_cases(rng)
        points, sizes = laid_end_to_end(instances)
        n = len(instances)
        votes = sorted(oracle_vote(instances[i], instances[j]) for i in range(n) for j in range(i + 1, n))
        # from the lower votes, where most pairs still join distinct labels
        picked = rng.choice(votes[: len(votes) // 5], 6, replace=False)
        decided_exactly = 0
        for eta in [float(v) for v in picked] + [float(np.nextafter(v, np.inf)) for v in picked]:
            fallbacks.clear()
            labels, count = cluster_segments(points, sizes, eta)
            want, want_count = component_labels(n, *zip(*scalar_pairs_below(instances, eta)))
            assert (labels.tolist(), count) == (want.tolist(), want_count), f"eta {eta!r}"
            decided_exactly += bool(fallbacks)
        # a pair voting eta whose instances already share a label needs no
        # exact vote; the others fall in the band
        assert decided_exactly >= 6

    def test_clutter_frames_are_decided_from_scores_alone(self, monkeypatch):
        cfg = default_config()
        h = estimate_homography(cfg.calibration)
        fallbacks = count_calls(monkeypatch, "_block_votes")
        for mask in clutter_masks():
            segments = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
            cluster_segments(transform_pixels(h, segments.pixels), segments.sizes, cfg.eta)
        assert fallbacks == []

    def test_golden_and_gate_frames_are_decided_from_scores_alone(self, monkeypatch):
        # small frames are scored too: the 40 golden scenes and the 200
        # scenes of the end-to-end gate hold 2 to 44 instances each
        cfg = default_config()
        h = estimate_homography(cfg.calibration)
        fallbacks = count_calls(monkeypatch, "_block_votes")
        scenes = [*corpus_scenes(), *synthetic_gate_scenes(cfg)]
        counts = []
        for scene in scenes:
            segments = label_segments(scene.mask, cfg.connectivity, cfg.min_instance_size)
            cluster_segments(transform_pixels(h, segments.pixels), segments.sizes, cfg.eta)
            counts.append(len(segments.sizes))
        assert len(scenes) == 240 and max(counts) > 30
        assert fallbacks == []

    def test_frames_that_could_overflow_take_exact_votes(self):
        # a = 5e9 against a facing y of 5e299: the exact vote overflows to
        # NaN, while the factors of its score are all finite
        steep = [(0.0, 0.0), (10.0, 2e-9)]
        far = [(0.0, 1e300)]
        points, sizes = np.array(steep + far), np.array([2, 1])
        _, lines = voting._facing_lines(points, sizes)
        assert voting._score_factors(lines) is None
        for eta in (1.0, 1e300, np.inf):
            upper, lower = pairs_below(points, sizes, eta)
            labels, count = cluster_segments(points, sizes, eta)
            want, want_count = component_labels(2, upper, lower)
            assert (labels.tolist(), count) == (want.tolist(), want_count), eta
