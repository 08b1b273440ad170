import random

from squareirr.matching import maximum_matching


def _max_by_search(graph, lefts, used=frozenset()):
    if not lefts:
        return 0
    u, rest = lefts[0], lefts[1:]
    best = _max_by_search(graph, rest, used)
    for v in graph[u]:
        if v not in used:
            best = max(best, 1 + _max_by_search(graph, rest, used | {v}))
    return best


def test_maximum_matching_matches_exhaustive_search():
    rng = random.Random(71)
    deficient = 0
    for _ in range(400):
        n_left, n_right = rng.randint(0, 7), rng.randint(0, 7)
        graph = {("l", i): [("r", j) for j in range(n_right) if rng.random() < 0.35] for i in range(n_left)}
        size, match = maximum_matching(graph)
        assert size == _max_by_search(graph, list(graph)), graph
        assert len(match) == size and len(set(match.values())) == size, graph
        assert all(match[u] in graph[u] for u in match), graph
        deficient += size < n_left
    assert 0 < deficient < 400


def test_maximum_matching_needs_augmenting_paths():
    # greedy takes b for 1, so 2 is matched only by moving 1 to a
    size, match = maximum_matching({1: ["b", "a"], 2: ["b"]})
    assert size == 2 and match == {1: "a", 2: "b"}
    assert maximum_matching({}) == (0, {})
