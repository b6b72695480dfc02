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
