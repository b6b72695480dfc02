import hashlib
import tracemalloc

import numpy as np
import pytest

from lanepost import SceneParams, default_config, generate_scene, instances, label_instances, label_segments
from oracles import union_find_components


def pixel_sets(instances):
    return {frozenset(map(tuple, inst.pixels.tolist())) for inst in instances}


class TestLabelInstances:
    def test_empty_mask(self):
        assert label_instances(np.zeros((10, 10), bool), 4, 0) == []
        assert label_instances(np.zeros((10, 10), bool), 8, 0) == []

    def test_single_pixel(self):
        mask = np.zeros((10, 10), bool)
        mask[3, 4] = True
        (inst,) = label_instances(mask, 8, min_size=1)
        assert inst.id == 0
        assert inst.pixels.tolist() == [[3, 4]]

    def test_diagonal_touch_depends_on_connectivity(self):
        mask = np.zeros((4, 6), bool)
        mask[0, 0] = mask[0, 1] = True
        mask[1, 2] = mask[1, 3] = True  # touches (0,1) diagonally only
        eight = label_instances(mask, 8, 0)
        assert [len(i.pixels) for i in eight] == [4]
        four = label_instances(mask, 4, 0)
        assert sorted(len(i.pixels) for i in four) == [2, 2]

    def test_min_size_filter_and_dense_ids(self):
        mask = np.zeros((6, 10), bool)
        mask[0, 0:4] = True  # size 4
        mask[2, 0] = True  # size 1, filtered out
        mask[4, 0:5] = True  # size 5
        kept = label_instances(mask, 8, min_size=2)
        assert [len(i.pixels) for i in kept] == [4, 5]
        assert [i.id for i in kept] == [0, 1]

    def test_ids_follow_row_major_first_pixel(self):
        mask = np.zeros((5, 5), bool)
        mask[4, 0] = True  # scanned last
        mask[0, 4] = True  # scanned first
        mask[2, 2] = True
        ids = {tuple(inst.pixels[0]): inst.id for inst in label_instances(mask, 8, 0)}
        assert ids == {(0, 4): 0, (2, 2): 1, (4, 0): 2}

    def test_partition_of_true_pixels(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            mask = rng.random((24, 24)) < 0.4
            instances = label_instances(mask, 8, 0)
            sets = pixel_sets(instances)
            assert sum(len(s) for s in sets) == int(mask.sum())
            assert len(set().union(*sets) if sets else set()) == int(mask.sum())

    def test_deterministic_relabeling(self):
        rng = np.random.default_rng(7)
        mask = rng.random((30, 30)) < 0.3
        a = label_instances(mask, 8, 3)
        b = label_instances(mask, 8, 3)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.id == y.id
            assert np.array_equal(x.pixels, y.pixels)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_union_find_oracle(self, connectivity):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            mask = rng.random((32, 32)) < rng.uniform(0.15, 0.6)
            mine = pixel_sets(label_instances(mask, connectivity, 0))
            assert mine == union_find_components(mask.tolist(), connectivity), f"seed {seed}"

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_components_are_maximal(self, connectivity):
        if connectivity == 4:
            offsets = ((-1, 0), (0, -1), (0, 1), (1, 0))
        else:
            offsets = tuple((dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if dr or dc)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            mask = rng.random((24, 24)) < 0.4
            instances = label_instances(mask, connectivity, 0)
            owner = {}
            for inst in instances:
                for r, c in inst.pixels.tolist():
                    owner[(r, c)] = inst.id
            for (r, c), inst_id in owner.items():
                for dr, dc in offsets:
                    neighbor = owner.get((r + dr, c + dc))
                    assert neighbor is None or neighbor == inst_id

    def test_accepts_integer_masks(self):
        mask = np.zeros((4, 4), np.uint8)
        mask[1, 1] = 255
        assert len(label_instances(mask, 4, 0)) == 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            label_instances(np.zeros((0, 4), bool), 8, 0)
        with pytest.raises(ValueError):
            label_instances(np.zeros((4, 4), bool), 6, 0)
        with pytest.raises(ValueError):
            label_instances(np.zeros((4, 4), bool), 8, -1)


def shaped_masks():
    u_shape = np.zeros((6, 7), bool)
    u_shape[:, 1] = u_shape[:, 5] = True
    u_shape[5, 1:6] = True  # the arms join only on the last row
    staircase = np.eye(8, dtype=bool)
    thick_staircase = staircase | np.eye(8, k=1, dtype=bool)
    corners = (np.add.outer(np.arange(5), np.arange(6)) % 2) == 0  # diagonal contacts only
    full_rows = np.zeros((5, 9), bool)
    full_rows[[0, 2, 3], :] = True
    one_row = np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], bool)
    return {
        "u_shape": u_shape,
        "staircase": staircase,
        "thick_staircase": thick_staircase,
        "corners": corners,
        "full_rows": full_rows,
        "one_row": one_row,
        "one_column": one_row.T.copy(),
        "all_ones": np.ones((6, 9), bool),
    }


class TestRunLabelerShapes:
    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("name", sorted(shaped_masks()))
    def test_matches_oracle_and_pixel_contract(self, name, connectivity):
        mask = shaped_masks()[name]
        instances = label_instances(mask, connectivity, 0)
        assert pixel_sets(instances) == union_find_components(mask.tolist(), connectivity)
        first_pixels = []
        for inst in instances:
            rows, cols = inst.pixels[:, 0], inst.pixels[:, 1]
            flat = rows.astype(np.int64) * mask.shape[1] + cols
            assert np.all(np.diff(flat) > 0), "pixels must be row-major"
            first_pixels.append(flat[0])
        assert [inst.id for inst in instances] == list(range(len(instances)))
        assert first_pixels == sorted(first_pixels), "ids follow scan order of first pixels"

    def test_u_shape_is_one_instance_under_both_connectivities(self):
        mask = shaped_masks()["u_shape"]
        for connectivity in (4, 8):
            (inst,) = label_instances(mask, connectivity, 0)
            assert inst.pixels[0].tolist() == [0, 1]

    def test_diagonal_contacts_depend_on_connectivity(self):
        masks = shaped_masks()
        assert len(label_instances(masks["staircase"], 8, 0)) == 1
        assert len(label_instances(masks["staircase"], 4, 0)) == 8
        assert len(label_instances(masks["thick_staircase"], 4, 0)) == 1
        assert len(label_instances(masks["corners"], 8, 0)) == 1
        assert len(label_instances(masks["corners"], 4, 0)) == int(masks["corners"].sum())

    def test_min_size_keeps_scan_order_among_survivors(self):
        mask = np.zeros((4, 8), bool)
        mask[0, 6] = True  # dropped
        mask[0, 0:3] = True
        mask[2, 4:8] = True
        mask[3, 0] = True  # dropped
        kept = label_instances(mask, 8, min_size=2)
        summary = [(i.id, i.pixels[0].tolist(), len(i.pixels)) for i in kept]
        assert summary == [(0, [0, 0], 3), (1, [2, 4], 4)]


class TestSegmentedRecord:
    @pytest.mark.parametrize("min_size", [0, 3])
    def test_instances_are_views_of_the_record_end_to_end(self, min_size):
        for seed in range(10):
            mask = np.random.default_rng(seed).random((24, 30)) < 0.35
            record = label_segments(mask, 8, min_size)
            instances = label_instances(mask, 8, min_size)
            assert record.pixels.dtype == np.int32
            assert record.sizes.tolist() == [len(inst.pixels) for inst in instances]
            assert record.pixels.tobytes() == np.concatenate([i.pixels for i in instances]).tobytes()
            for inst, view in zip(instances, record.instances()):
                assert np.shares_memory(view.pixels, record.pixels)
                assert (view.id, view.pixels.tobytes()) == (inst.id, inst.pixels.tobytes())

    def test_empty_record(self):
        for min_size in (0, 10):
            mask = np.zeros((5, 6), bool)
            mask[2, 2:4] = min_size > 0  # one instance, dropped as speckle
            record = label_segments(mask, 8, min_size)
            assert record.pixels.shape == (0, 2)
            assert len(record.sizes) == 0
            assert record.instances() == []


def test_steady_state_labeling_memory_is_bounded():
    # the padded grid and boundary flags (173 KB each at 360x480) are
    # pooled per thread: a second frame allocates only what scales with
    # its runs and pixels
    cfg = default_config()
    mask = generate_scene(SceneParams(num_lanes=5), 504, cfg).mask
    want = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
    tracemalloc.start()
    try:
        got = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.pixels.tobytes() == want.pixels.tobytes()
    assert got.sizes.tolist() == want.sizes.tolist()
    assert peak < 128 << 10, peak


def cleared_pixels_left(mask, connectivity, min_size):
    """The pixels of the runs _runs cuts from `mask` with clearing forced on."""
    pitch = mask.shape[1] + 1
    starts, stops = instances._runs(mask, pitch, connectivity, min_size)
    return {divmod(p, pitch) for a, b in zip(starts.tolist(), stops.tolist()) for p in range(a, b)}


class TestIsolatedPixelClearing:
    """On a speckle-dense mask the labeler clears one-pixel components
    (min_size > 1) and two-pixel ones (min_size > 2) before cutting runs;
    that must not change the result."""

    @pytest.fixture
    def cleared(self, monkeypatch):
        calls = []
        clear = instances._clear_specks

        def counting(*args):
            calls.append(args[3:])  # (connectivity, pairs)
            clear(*args)

        monkeypatch.setattr(instances, "_clear_specks", counting)
        return calls

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("min_size", [0, 1, 2, 3, 4, 15])
    def test_forced_clearing_matches_union_find_oracle(self, monkeypatch, cleared, connectivity, min_size):
        monkeypatch.setattr(instances, "_CLEAR_BOUNDARIES", 0)
        for seed in range(40):
            rng = np.random.default_rng([seed, connectivity, min_size])
            shape = (int(rng.integers(1, 25)), int(rng.integers(1, 31)))
            mask = rng.random(shape) < rng.uniform(0.01, 0.9)
            record = label_segments(mask, connectivity, min_size)
            want = {c for c in union_find_components(mask.tolist(), connectivity) if len(c) >= min_size}
            assert pixel_sets(record.instances()) == want, f"seed {seed}"
            with monkeypatch.context() as m:
                m.setattr(instances, "_CLEAR_BOUNDARIES", np.inf)
                plain = label_segments(mask, connectivity, min_size)
            assert record.pixels.tobytes() == plain.pixels.tobytes(), f"seed {seed}"
            assert record.sizes.tolist() == plain.sizes.tolist(), f"seed {seed}"
        if min_size > 1:
            assert cleared and set(cleared) == {(connectivity, min_size > 2)}
        else:
            assert cleared == []

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("min_size", [2, 3])
    def test_clears_exactly_the_small_components(self, monkeypatch, connectivity, min_size):
        monkeypatch.setattr(instances, "_CLEAR_BOUNDARIES", 0)
        for seed in range(20):
            rng = np.random.default_rng([seed, connectivity, min_size, 1])
            mask = rng.random((int(rng.integers(1, 20)), int(rng.integers(1, 20)))) < rng.uniform(0.05, 0.5)
            big = [c for c in union_find_components(mask.tolist(), connectivity) if len(c) >= min_size]
            assert cleared_pixels_left(mask, connectivity, min_size) == set().union(*big), f"seed {seed}"

    def test_diagonal_pair_depends_on_connectivity(self, monkeypatch):
        monkeypatch.setattr(instances, "_CLEAR_BOUNDARIES", 0)
        mask = np.zeros((4, 4), bool)
        mask[1, 1] = mask[2, 2] = True
        assert cleared_pixels_left(mask, 8, 3) == set()  # one pair
        assert cleared_pixels_left(mask, 8, 2) == {(1, 1), (2, 2)}
        assert cleared_pixels_left(mask, 4, 2) == set()  # two single pixels
        assert label_instances(mask, 4, 2) == []
        (pair,) = label_instances(mask, 8, 2)
        assert pair.pixels.tolist() == [[1, 1], [2, 2]]
        anti = np.fliplr(mask)
        assert cleared_pixels_left(anti, 8, 3) == set()
        assert cleared_pixels_left(anti, 8, 2) == {(1, 2), (2, 1)}

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_row_ends_do_not_neighbour_each_other(self, monkeypatch, connectivity):
        monkeypatch.setattr(instances, "_CLEAR_BOUNDARIES", 0)
        mask = np.zeros((4, 5), bool)
        mask[0, 4] = mask[1, 0] = True  # adjacent in row-major order only
        mask[2, 4] = mask[3, 4] = True  # one pixel under the other
        (kept,) = label_instances(mask, connectivity, min_size=2)
        assert kept.pixels.tolist() == [[2, 4], [3, 4]]
        assert cleared_pixels_left(mask, connectivity, 3) == set()

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_pair_split_by_a_row_end(self, monkeypatch, connectivity):
        # (0, 3)-(0, 4) is a pair at a row end; (1, 0) follows it in
        # row-major order but touches neither, and the pair (2, 4)-(3, 0)
        # exists only across the row end
        monkeypatch.setattr(instances, "_CLEAR_BOUNDARIES", 0)
        mask = np.zeros((4, 5), bool)
        mask[0, 3] = mask[0, 4] = mask[1, 0] = True
        mask[2, 4] = mask[3, 0] = True
        assert cleared_pixels_left(mask, connectivity, 2) == {(0, 3), (0, 4)}
        assert cleared_pixels_left(mask, connectivity, 3) == set()
        (pair,) = label_instances(mask, connectivity, min_size=2)
        assert pair.pixels.tolist() == [[0, 3], [0, 4]]

    def test_pair_touching_a_third_pixel_diagonally(self, monkeypatch):
        monkeypatch.setattr(instances, "_CLEAR_BOUNDARIES", 0)
        mask = np.zeros((4, 5), bool)
        mask[1, 1] = mask[1, 2] = mask[2, 3] = True
        trio = {(1, 1), (1, 2), (2, 3)}
        assert cleared_pixels_left(mask, 8, 3) == trio  # one 3-pixel component
        (kept,) = label_instances(mask, 8, 3)
        assert kept.pixels.tolist() == [[1, 1], [1, 2], [2, 3]]
        assert cleared_pixels_left(mask, 4, 3) == set()  # a pair and a single pixel
        assert cleared_pixels_left(mask, 4, 2) == {(1, 1), (1, 2)}
        assert label_instances(mask, 4, 3) == []

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_min_size_two_keeps_every_pair(self, monkeypatch, connectivity):
        # pairs in all four directions, apart from each other and from a
        # single pixel
        monkeypatch.setattr(instances, "_CLEAR_BOUNDARIES", 0)
        mask = np.zeros((9, 12), bool)
        pairs = [((1, 1), (1, 2)), ((1, 5), (2, 5)), ((4, 1), (5, 2)), ((4, 6), (5, 5))]
        for a, b in pairs:
            mask[a] = mask[b] = True
        mask[7, 9] = True
        kept = [p for a, b in pairs for p in (a, b) if connectivity == 8 or a[0] == b[0] or a[1] == b[1]]
        assert cleared_pixels_left(mask, connectivity, 2) == set(kept)
        assert sum(len(i.pixels) for i in label_instances(mask, connectivity, 2)) == len(kept)
        assert cleared_pixels_left(mask, connectivity, 3) == set()

    def test_fires_on_a_speckle_scene_at_the_default_threshold(self, monkeypatch, cleared):
        cfg = default_config()
        mask = generate_scene(SceneParams(noise_rate=0.08), 17, cfg).mask
        assert mask.shape == (360, 480)
        record = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
        assert cleared == [(cfg.connectivity, True)]
        monkeypatch.setattr(instances, "_CLEAR_BOUNDARIES", np.inf)
        plain = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
        assert cleared == [(cfg.connectivity, True)]
        assert record.pixels.tobytes() == plain.pixels.tobytes()
        assert record.sizes.tolist() == plain.sizes.tolist()

    def test_lane_scene_without_speckle_is_not_cleared(self, cleared):
        cfg = default_config()
        mask = generate_scene(SceneParams(num_lanes=5, noise_rate=0.002), 504, cfg).mask
        label_segments(mask, cfg.connectivity, cfg.min_instance_size)
        assert cleared == []


def test_speckle_scene_cuts_only_the_runs_of_three_pixel_components(monkeypatch):
    # every one- and two-pixel component is cleared before runs are cut,
    # so the run graph holds only runs of components of 3 pixels or more:
    # 3,018 runs, where clearing single pixels alone leaves 5,978
    cfg = default_config()
    mask = generate_scene(SceneParams(noise_rate=0.08), 504, cfg).mask
    seen = []
    touching = instances._touching_runs

    def spy(starts, *args):
        seen.append(len(starts))
        return touching(starts, *args)

    monkeypatch.setattr(instances, "_touching_runs", spy)
    label_segments(mask, cfg.connectivity, cfg.min_instance_size)
    # a run starts at each pixel whose left neighbour is false
    big = [c for c in union_find_components(mask.tolist(), cfg.connectivity) if len(c) >= 3]
    runs = sum(1 for c in big for r, col in c if col == 0 or not mask[r, col - 1])
    assert seen == [runs] == [3018]


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_steady_state_speckle_labeling_memory_is_bounded():
    # on a speckle-dense frame the one- and two-pixel components are
    # cleared inside the pooled grid before runs are cut, so the run arrays
    # scale with the runs that can survive, not with all the speckle:
    # labeling peaks at 208 KB (364 KB when only single pixels are
    # cleared), and cutting the runs at 51 KB, their boundaries, where an
    # image-sized temporary of one byte per cell would add 173 KB
    cfg = default_config()
    mask = generate_scene(SceneParams(noise_rate=0.08), 504, cfg).mask
    want = label_segments(mask, cfg.connectivity, cfg.min_instance_size)
    got, peak = traced_peak(label_segments, mask, cfg.connectivity, cfg.min_instance_size)
    assert got.pixels.tobytes() == want.pixels.tobytes()
    assert got.sizes.tolist() == want.sizes.tolist()
    assert peak < 256 << 10, peak
    (starts, _), peak = traced_peak(instances._runs, mask, mask.shape[1] + 1, cfg.connectivity, cfg.min_instance_size)
    assert len(starts) == 3018
    assert peak < 96 << 10, peak


# label_segments of SceneParams(noise_rate=0.08) scene 11 at (min_size,
# connectivity): SHA-256 of pixels.tobytes() + sizes.tobytes(), as the
# labeler gave them when it sorted every run before dropping speckle
SPECKLE_RECORDS = {
    (0, 4): "6682164e1cdc01e537fd87cb7ed3a933d7436eafdf5792a7702d0adbd722ca56",
    (0, 8): "fb77d4deffcc16933acfcf4eefac061e9e319eaabb07b44bba156804850c084a",
    (15, 4): "1a00d852bdd1f02f3f318d1b424d168731a9ba4c9e1423912b1c8ec94afe6a5a",
    (15, 8): "ffcbcb836d6a4d988e1ce2a40688c4b8048517cc81f1eaedd9b43702bf137438",
}


@pytest.mark.parametrize("min_size, connectivity", sorted(SPECKLE_RECORDS))
def test_speckle_record_matches_union_find_bit_for_bit(min_size, connectivity):
    # only the kept components' runs are sorted: thousands of speckle runs
    # are dropped first, and the record must not move a bit
    mask = generate_scene(SceneParams(noise_rate=0.08), 11, default_config()).mask
    record = label_segments(mask, connectivity, min_size)
    components = [c for c in union_find_components(mask.tolist(), connectivity) if len(c) >= min_size]
    components.sort(key=min)  # ids in the scan order of each first pixel
    want = np.array([p for c in components for p in sorted(c)], dtype=np.int32).reshape(-1, 2)
    assert record.pixels.tobytes() == want.tobytes()
    assert record.sizes.tolist() == [len(c) for c in components]
    digest = hashlib.sha256(record.pixels.tobytes() + record.sizes.tobytes()).hexdigest()
    assert digest == SPECKLE_RECORDS[min_size, connectivity]
