"""Connected components of an undirected graph given as an edge list.

Shared by instance labeling (nodes are pixel runs) and voting (nodes are
instances). The graph is contracted in rounds of min-hooking, all in array
operations (Shiloach & Vishkin, "An O(log n) parallel connectivity
algorithm", J. Algorithms 1982): over the edges between distinct trees,
each edge's larger root hooks onto the smallest root it is joined to.
Roots only ever point to smaller ones, so hooks form no cycle, and pointer
jumping flattens them back into stars. A tree with an edge that neither
hooks nor is hooked onto in a round is smaller than all its neighbours,
each of which hooked onto a still smaller root; in the next round it is
the larger end of an edge and hooks. So every two rounds at least halve
the trees that still have an edge: rounds are bounded by 2 log2 of the
node count, and jumps per round by log2 of it, whatever the shape or
diameter of the components. Every final root is its component's smallest
node, so numbering components in order of their smallest node is a count
of the roots before each node's root, with no scatter.
"""

from __future__ import annotations

import numpy as np

__all__ = ["component_labels"]


def component_labels(n: int, u, v) -> tuple[np.ndarray, int]:
    """Label the components of the graph on nodes 0..n-1 with edges (u[k], v[k]).

    Returns (labels, count): labels[i] in 0..count-1, and components are
    numbered in order of their smallest node.
    """
    u = np.asarray(u, dtype=np.intp)
    v = np.asarray(v, dtype=np.intp)
    root = np.arange(n)
    keep = u != v
    u, v = u[keep], v[keep]
    while len(u):
        np.minimum.at(root, np.maximum(u, v), np.minimum(u, v))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        u, v = root[u], root[v]
        keep = u != v
        u, v = u[keep], v[keep]

    is_root = root == np.arange(n)
    return (np.cumsum(is_root) - 1)[root], int(is_root.sum())
