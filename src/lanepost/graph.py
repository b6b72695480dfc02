"""Connected components of an undirected graph given as an edge list.

Shared by instance labeling (nodes are pixel runs) and voting (nodes are
instances). The graph is contracted in Borůvka rounds, all in array
operations: every tree that still has an edge leaving it hooks onto its
smallest-labelled neighbour tree. The only cycles such hooks can form are
mutual pairs, which are broken toward the smaller label, so each hooked
group holds at least two trees and the tree count at least halves per
round. Pointer jumping then flattens the hooks back into stars. Rounds and
jumps are both bounded by log2 of the node count, whatever the shape or
diameter of the components.
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
        best = np.full(n, n)
        np.minimum.at(best, u, v)
        np.minimum.at(best, v, u)
        hooked = np.flatnonzero(best < n)
        target = best[hooked]
        mutual = (best[target] == hooked) & (hooked < target)
        root[hooked] = np.where(mutual, hooked, target)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
        u, v = root[u], root[v]
        keep = u != v
        u, v = u[keep], v[keep]

    nodes = np.arange(n)
    smallest = np.full(n, n)
    np.minimum.at(smallest, root, nodes)
    smallest = smallest[root]
    is_first = smallest == nodes
    labels = (np.cumsum(is_first) - 1)[smallest]
    return labels, int(is_first.sum())
