"""
Maximum bipartite matching by augmenting paths.

Vertices may be arbitrary hashable values.  Adjacency lists are consumed in
the order given, so results are deterministic across runs.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple


def maximum_matching(graph: Dict[Hashable, List[Hashable]]) -> Tuple[int, Dict[Hashable, Hashable]]:
    """
    ``graph`` maps each left vertex to its list of right neighbours.
    Returns (size, matching) with matching keyed by left vertices.

    Each left vertex takes its first free neighbour, or else one augmenting
    path is searched from it: O(V E) at worst, but on the small graphs the
    link sets give (at most 15 left vertices at k = 6) it does far less work
    than a Hopcroft-Karp layering.
    """
    pair_right: dict = {}

    def augment(u, seen: set) -> bool:
        for v in graph[u]:
            if v not in seen:
                seen.add(v)
                w = pair_right.get(v)
                if w is None or augment(w, seen):
                    pair_right[v] = u
                    return True
        return False

    size = 0
    for u, nbrs in graph.items():
        for v in nbrs:
            if v not in pair_right:
                pair_right[v] = u
                break
        else:
            if not augment(u, set()):
                continue
        size += 1
    return size, {u: v for v, u in pair_right.items()}
