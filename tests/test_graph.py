import numpy as np
import pytest

from lanepost.graph import component_labels
from oracles import threshold_graph_components


def oracle_labels(n, edges):
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}

    def score(i, j):
        return 0.0 if (i, j) in edge_set else 1.0

    mapping = threshold_graph_components(range(n), score, 0.5)
    return [mapping[i] for i in range(n)]


def check(n, edges):
    u = [e[0] for e in edges]
    v = [e[1] for e in edges]
    labels, count = component_labels(n, u, v)
    expected = oracle_labels(n, edges)
    assert labels.tolist() == expected
    assert count == (max(expected) + 1 if n else 0)


@pytest.mark.parametrize("seed", range(30))
def test_random_graphs_match_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    m = int(rng.integers(0, 2 * n))
    edges = [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(m)]
    check(n, edges)


def test_long_paths_with_shuffled_labels():
    # diameter n - 1, with labels that defeat any scan order
    rng = np.random.default_rng(0)
    for n in (2, 3, 17, 500):
        order = rng.permutation(n).tolist()
        check(n, list(zip(order[:-1], order[1:])))


def test_stars_and_alternating_path():
    n = 40
    check(n, [(n - 1, k) for k in range(n - 1)])  # high centre, low leaves
    check(n, [(0, k) for k in range(1, n)])
    zigzag = [k // 2 if k % 2 == 0 else n - 1 - k // 2 for k in range(n)]  # 0, 39, 1, 38, ...
    check(n, list(zip(zigzag[:-1], zigzag[1:])))


def test_no_edges_self_loops_and_duplicates():
    check(0, [])
    check(5, [])
    check(4, [(2, 2), (1, 3), (3, 1), (1, 3)])
    labels, count = component_labels(3, np.array([], dtype=np.intp), np.array([], dtype=np.intp))
    assert labels.tolist() == [0, 1, 2] and count == 3


def test_numbering_follows_smallest_node():
    labels, count = component_labels(6, [5, 4, 1], [3, 0, 2])
    # components {0, 4}, {1, 2}, {3, 5}
    assert labels.tolist() == [0, 1, 1, 2, 0, 2]
    assert count == 3


def test_strictly_decreasing_path():
    # every node hooks onto the next smaller one: a hook chain of depth n
    for n in (2, 3, 64, 1000):
        check(n, [(k + 1, k) for k in range(n - 2, -1, -1)])


def test_complete_graphs():
    n = 50
    check(n, [(i, j) for i in range(n) for j in range(i + 1, n)])  # K_50
    check(n, [(i, j) for i in range(1, n, 2) for j in range(0, n, 2)])  # K_25,25, odd to even
    check(n, [(i, j) for i in range(20, n) for j in range(20)])  # K_30,20, high to low


def test_caterpillar_with_reversed_labels():
    # a spine with three legs per node, numbered from the far end of the
    # spine: the smallest labels are leaves and the spine hooks leafward
    spine, legs = 40, 3
    n = spine * (1 + legs)
    edges = [(k, k + 1) for k in range(spine - 1)]
    edges += [(k, spine + legs * k + leg) for k in range(spine) for leg in range(legs)]
    check(n, [(n - 1 - a, n - 1 - b) for a, b in edges])


@pytest.mark.parametrize("seed", range(4))
def test_large_random_graphs_match_oracle(seed):
    # about one edge per node: many components, some of them long and thin
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(500, 2001))
    m = int(rng.integers(n // 2, n + 1))
    check(n, [tuple(int(x) for x in rng.integers(0, n, 2)) for _ in range(m)])
