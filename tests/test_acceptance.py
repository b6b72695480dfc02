"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np

import lanepost as lp
from oracles import (
    central_diff_gradient,
    poly_fit_normal_eq,
    scalar_dice_loss,
    threshold_graph_components,
    union_find_components,
)


def _report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[ACCEPTANCE] {name}: {status}{suffix}", flush=True)
    assert passed, f"{name}: {detail}"


def encoder_stack():
    return [lp.LayerSpec("conv", 3, 2, c) for c in (32, 64, 128, 256, 512)]


def test_receptive_field_is_63():
    receptive = lp.receptive_field(encoder_stack())  # warm call
    t0 = time.perf_counter()
    receptive = lp.receptive_field(encoder_stack())
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    _report(
        "receptive-field",
        receptive == 63 and elapsed_ms < 1.0,
        f"value={receptive}, runtime={elapsed_ms:.4f} ms",
    )


def test_shape_fidelity():
    encoder = lp.propagate_shapes(encoder_stack(), lp.TensorShape(360, 480, 3))
    encoder_ok = encoder == [
        lp.TensorShape(179, 239, 32),
        lp.TensorShape(89, 119, 64),
        lp.TensorShape(44, 59, 128),
        lp.TensorShape(21, 29, 256),
        lp.TensorShape(10, 14, 512),
    ]
    # documented assumption: output padding (0,0),(1,0),(0,0),(0,0),(1,1),
    # because (in-1)*2+3 misses every even target dimension by one
    paddings = [(0, 0), (1, 0), (0, 0), (0, 0), (1, 1)]
    decoder_stack = [
        lp.LayerSpec("conv_transpose", 3, 2, c, output_padding=p)
        for c, p in zip((256, 128, 64, 32, 2), paddings)
    ]
    decoder = lp.propagate_shapes(decoder_stack, lp.TensorShape(10, 14, 512))
    decoder_ok = decoder == [
        lp.TensorShape(21, 29, 256),
        lp.TensorShape(44, 59, 128),
        lp.TensorShape(89, 119, 64),
        lp.TensorShape(179, 239, 32),
        lp.TensorShape(360, 480, 2),
    ]
    _report(
        "shape-fidelity",
        encoder_ok and decoder_ok,
        f"encoder_ok={encoder_ok}, decoder_ok={decoder_ok}",
    )


def test_loss_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        lane = rng.random((16, 16)) < rng.uniform(0.02, 0.5)
        gt = np.stack([~lane, lane], axis=2).astype(float)
        worst = max(worst, abs(lp.penalized_dice_loss(gt, gt.copy()) + 2.0))
    _report("loss-identity", worst <= 1e-9, f"max |loss + 2| = {worst:.3e} over 100 volumes")


def test_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    params = lp.LossParams(alpha=1e-2, epsilon=1e-5)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        lane = rng.random((8, 8)) < rng.uniform(0.05, 0.5)
        gt = np.stack([~lane, lane], axis=2).astype(float)
        pred = rng.uniform(0.0, 1.0, gt.shape)
        grad = lp.penalized_dice_loss_gradient(gt, pred, params)
        fd = central_diff_gradient(
            lambda q: scalar_dice_loss(gt.tolist(), q.tolist(), params.alpha, params.epsilon), pred, h=1e-6
        )
        # absolute floor 1e-4 covers entries whose true derivative is ~0,
        # where central differences return only cancellation noise (~1e-10)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-4)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    _report(
        "gradient-correctness",
        worst < 1e-5 and elapsed < 10.0,
        f"max rel error = {worst:.3e} over 100 instances, runtime = {elapsed:.2f} s",
    )


def test_instance_labeler_oracle_equivalence():
    mismatches = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        mask = rng.random((32, 32)) < rng.uniform(0.1, 0.6)
        for connectivity in (4, 8):
            mine = {
                frozenset(map(tuple, inst.pixels.tolist()))
                for inst in lp.label_instances(mask, connectivity, 0)
            }
            if mine != union_find_components(mask.tolist(), connectivity):
                mismatches += 1
    _report(
        "instance-labeler-oracle",
        mismatches == 0,
        f"{mismatches} mismatches over 500 masks x 2 connectivities",
    )


def test_homography_round_trip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    produced = 0
    while produced < 100:
        m = np.eye(3) + rng.normal(0, 0.2, (3, 3))
        m[2, :2] = rng.normal(0, 1e-3, 2)
        m[2, 2] = 1.0
        if abs(np.linalg.det(m)) < 1e-3 or np.linalg.cond(m) > 1e6:
            continue
        produced += 1
        h = lp.Homography(m)
        pts = rng.uniform(-100.0, 100.0, (10, 2))
        back = h.inverse().apply(h.apply(pts))
        worst = max(worst, float(np.abs(back - pts).max()))
    _report(
        "homography-round-trip",
        worst < 1e-9,
        f"max error = {worst:.3e} over 100 maps x 10 points",
    )


def _random_dash(rng, instance_id):
    base_x = rng.uniform(0.0, 120.0)
    y0 = rng.uniform(0.0, 150.0)
    ys = np.linspace(y0, y0 + rng.uniform(5.0, 40.0), int(rng.integers(2, 15)))
    xs = base_x + rng.uniform(-0.5, 0.5) * (ys - y0) + rng.normal(0.0, 0.2, len(ys))
    return lp.BevInstance.from_points(instance_id, np.stack([xs, ys], axis=1))


def test_voting_hand_cases_and_oracle():
    low = lp.BevInstance.from_points(0, [(0.0, y) for y in (20.0, 22.0, 25.0, 28.0, 30.0)])
    high = lp.BevInstance.from_points(1, [(4.0, y) for y in (0.0, 3.0, 6.0, 10.0)])
    hand_vote = lp.vote(low, high)
    hand_ok = abs(hand_vote - 4.0) <= 1e-12

    seg_a = lp.BevInstance.from_points(0, [(y + 3.0, y) for y in (0.0, 2.0, 4.0)])
    seg_b = lp.BevInstance.from_points(1, [(y + 3.0, y) for y in (10.0, 12.0, 14.0)])
    collinear_vote = lp.vote(seg_a, seg_b)
    collinear_ok = collinear_vote < 1e-9

    mismatches = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        instances = [_random_dash(rng, i) for i in range(int(rng.integers(1, 11)))]
        eta = float(rng.uniform(1.0, 30.0))
        clustering = lp.cluster_instances(instances, eta)
        by_id = {inst.id: inst for inst in instances}
        expected = threshold_graph_components(
            list(by_id), lambda i, j: lp.vote(by_id[i], by_id[j]), eta
        )
        if clustering.assignment != expected:
            mismatches += 1
    _report(
        "voting-hand-cases",
        hand_ok and collinear_ok and mismatches == 0,
        f"vote={hand_vote!r}, collinear={collinear_vote:.3e}, "
        f"oracle mismatches={mismatches}/200",
    )


def test_curve_fit_oracle():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 200))
        lo = rng.uniform(0.0, 150.0)
        hi = lo + rng.uniform(150.0, 480.0 - lo)
        ys = rng.uniform(lo, hi, n)
        xs = (
            rng.uniform(100.0, 400.0)
            + rng.uniform(-0.3, 0.3) * ys
            + rng.uniform(-5e-4, 5e-4) * ys**2
            + rng.normal(0.0, 0.5, n)
        )
        curve = lp.fit_curve(np.stack([xs, ys], axis=1), 0)
        ref = poly_fit_normal_eq(ys.tolist(), xs.tolist(), 2)
        worst = max(
            worst, abs(curve.c0 - ref[0]), abs(curve.c1 - ref[1]), abs(curve.c2 - ref[2])
        )
    _report("curve-fit-oracle", worst < 1e-10, f"max coefficient deviation = {worst:.3e}")


def synthetic_gate_scenes(cfg):
    """The 200 seeded scenes of the end-to-end synthetic gate, generated
    one at a time."""
    for seed in range(200):
        rng = np.random.default_rng(seed + 10_000)
        params = lp.SceneParams(
            num_lanes=int(rng.integers(1, 6)),
            noise_rate=float(rng.uniform(0.0, 0.0005)),
            occlusion_rate=float(rng.uniform(0.0, 0.2)),
        )
        yield lp.generate_scene(params, seed, cfg)


def test_end_to_end_synthetic():
    cfg = lp.default_config()
    t0 = time.perf_counter()
    total_dividers = total_matched = total_instances = total_pure = 0
    matched_errors = []
    for scene in synthetic_gate_scenes(cfg):
        metrics = lp.evaluate(lp.run_frame(scene.mask, cfg), scene)
        total_dividers += metrics.divider_count
        total_matched += metrics.matched_dividers
        total_instances += metrics.instance_count
        total_pure += round(metrics.purity * metrics.instance_count)
        if metrics.matched_dividers:
            matched_errors.append(metrics.mean_lateral_error)
    elapsed = time.perf_counter() - t0
    recall = total_matched / total_dividers
    purity = total_pure / total_instances
    mean_error = float(np.mean(matched_errors))
    _report(
        "end-to-end-synthetic",
        recall >= 0.95 and purity >= 0.95 and mean_error < 2.0 and elapsed < 60.0,
        f"recall={recall:.4f}, purity={purity:.4f}, "
        f"mean lateral error={mean_error:.3f} px, runtime={elapsed:.1f} s over 200 scenes",
    )


def test_throughput():
    cfg = lp.default_config()
    masks = [
        lp.generate_scene(lp.SceneParams(num_lanes=3), seed, cfg).mask for seed in range(100)
    ]
    report = lp.benchmark(masks, cfg, repetitions=1)
    _report(
        "throughput",
        report.wall_fps >= 20.0,
        f"{report.wall_fps:.1f} fps single-threaded over 100 frames "
        f"(target 50, hard gate 20; total median {report.total_median_ms:.2f} ms/frame)",
    )
