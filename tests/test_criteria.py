import itertools
import random

import pytest

from squareirr import biseq as B
from squareirr import criteria as C
from squareirr import multiseg as M
from squareirr import perm as P
from squareirr.multiseg import Multisegment, Segment, parse_multisegment as parse

import reference as R


def lecm():
    return parse("[4,5]+[2,4]+[3]+[1,2]")


def regular_instances(kmax):
    for k in range(1, kmax + 1):
        for A in B.normalized_bisequences(k):
            s0 = B.sigma0(A)
            for sigma in P.all_perms(k):
                if P.bruhat_leq(s0, sigma):
                    yield B.multisegment_of(A, sigma)


# ---------------------------------------------------------------------------
# complexity and depth


def test_complexity_examples():
    assert C.complexity(parse("[1,5]+[2,4]")) == 0
    assert C.complexity(lecm()) == 4
    ladder = parse("[4,6]+[3,5]+[2,4]+[1,3]")
    assert C.complexity(ladder) == 4 * 3 // 2


def test_depth_examples():
    assert C.depth(parse("[1,5]+[2,4]")) == 0
    assert C.depth(lecm()) == 5


def test_depth_and_complexity_match_brute_force():
    rng = random.Random(12)
    seen = 0
    while seen < 60:
        m = M.random_multisegment(rng, max_segments=4, lo=0, hi=5, max_len=3)
        if m.deg > 10:
            continue
        seen += 1
        assert C.complexity_by_chains(m) >= 0
        if m.is_regular:
            assert C.complexity(m) == C.complexity_by_chains(m)
            assert C.depth(m) == C.depth_by_apu(m)


def test_depth_at_least_complexity():
    for m in regular_instances(4):
        assert C.depth(m) >= C.complexity(m)


# ---------------------------------------------------------------------------
# balanced and forbidden shapes


def test_balanced_examples():
    assert C.is_balanced(parse("[3,5]+[2,4]+[1,3]"))  # ladder
    assert not C.is_balanced(lecm())
    assert C.is_balanced(parse("[1,5]+[2,4]"))  # pairwise unlinked
    with pytest.raises(ValueError):
        C.is_balanced(parse("[1,2]+[1,2]"))


def test_forbidden_type_examples():
    kind, idx = C.has_forbidden_type(lecm())
    assert kind == "4231" and idx == (1, 2, 3, 4)
    kind, _ = C.has_forbidden_type(C.basic_family("3412", 5, 3))
    assert kind == "3412"
    assert C.has_forbidden_type(parse("[3,5]+[2,4]+[1,3]")) is None
    with pytest.raises(ValueError):
        C.has_forbidden_type(parse("[1,2]+[1,2]"))


def test_forbidden_type_iff_unbalanced():
    for m in regular_instances(4):
        assert (C.has_forbidden_type(m) is None) == C.is_balanced(m)


def test_balanced_closed_under_submultisegments():
    for m in regular_instances(4):
        if not C.is_balanced(m) or len(m) == 0:
            continue
        for i in range(1, len(m) + 1):
            assert C.is_balanced(m.remove_at(i))


def test_balanced_preserved_by_begin_raises():
    # raising one begin while keeping the order pattern and all ends
    count = 0
    for m in regular_instances(4):
        if not C.is_balanced(m):
            continue
        for i, d in enumerate(m.segments):
            begins = [x.a for x in m.segments]
            raised = d.a + 1
            if raised > d.b or raised in begins:
                continue
            if sorted(range(len(begins)), key=lambda t: begins[t]) != sorted(
                range(len(begins)),
                key=lambda t: begins[t] if t != i else raised,
            ):
                continue
            segs = list(m.segments)
            segs[i] = Segment(raised, d.b)
            count += 1
            assert C.is_balanced(Multisegment(segs)), (m, i)
    assert count > 50


def test_balanced_invariant_under_contraction():
    rng = random.Random(14)
    hits = 0
    while hits < 60:
        m = M.random_multisegment(rng, max_segments=4, lo=0, hi=6, max_len=4)
        if not m.is_regular:
            continue
        for c in range(-1, 8):
            mc = M.contract(m, c)
            if mc is None or not mc.is_regular:
                continue
            hits += 1
            assert C.is_balanced(m) == C.is_balanced(mc)


# ---------------------------------------------------------------------------
# the open-orbit check


def test_gls_ladder_by_strong_matching():
    ok, rep = C.gls_check(parse("[3,5]+[2,4]+[1,3]"))
    assert ok and rep.method == "strong-matching"
    ok, rep = C.gls_check(parse("[1,5]+[2,4]"))
    assert ok and rep.method == "strong-matching"  # empty link set


def test_gls_certificates():
    ok, rep = C.gls_check(parse("[3,4]+[1,3]+[2,2]+[0,1]"))
    assert not ok and rep.method == "certificate"
    assert "irreducible pairs" in rep.certificate
    assert C.irreducible_pairs(parse("[3,4]+[1,3]+[2,2]+[0,1]")) == [
        (2, 1),
        (3, 1),
        (4, 2),
        (4, 3),
    ]
    ok, rep = C.gls_check(parse("[4,6]+[1,5]+[2,4]+[3,3]+[0,2]"))
    assert not ok and rep.method == "certificate"
    assert "matching" in rep.certificate


def test_gls_big_ladder_shape():
    # the thick-top shape: one doubled segment over a long ladder
    k = 6
    segs = [Segment(k - 1, 2 * k - 2), Segment(k, 2 * k - 3)]
    segs += [Segment(k - 1 - i, 2 * k - 3 - i) for i in range(1, k - 1)]
    ok, _ = C.gls_check(Multisegment(segs))
    assert ok


def test_gls_rank_path_on_nonregular():
    # doubled segments: [2]+[2]+[1]+[1] satisfies the condition
    ok, rep = C.gls_check(parse("[2]+[2]+[1]+[1]"))
    assert ok
    assert rep.method in ("strong-matching", "rank")


def test_gls_invariance_mini_sweep():
    rng = random.Random(15)
    for _ in range(120):
        m = M.random_multisegment(rng, max_segments=4, lo=0, hi=6, max_len=4)
        base, _ = C.gls_check(m)
        assert C.gls_check(M.involution(m))[0] == base
        assert C.gls_check(M.dual(m))[0] == base
        if base:
            for c in set(m.supp):
                res = M.left_derivative(m, c)
                if res is not None:
                    assert C.gls_check(res[0])[0]


def _edge_label(m, x, y):
    """Label of the neighbour edge x -> y, itself a link pair of m."""
    (i1, j1), (i2, j2) = x, y
    if i1 == i2 and M.precedes(m.seg(j2), m.seg(j1)):
        return (j2, j1)
    if j1 == j2 and M.precedes(m.seg(i1), m.seg(i2)):
        return (i1, i2)
    return None


def _strong_by_all_pairs(m, f, labels):
    """The leaf rule by definition: label every ordered pair, then look for a cycle."""
    used_labels = {labels[(x, f[x])] for x in f}
    after = {x: [] for x in f}
    for rp in f:
        for r in f:
            if r != rp and _edge_label(m, r, f[rp]) in used_labels:
                after[rp].append(r)
    state = {}

    def dfs(u):
        state[u] = 1
        for v in after[u]:
            if state.get(v) == 1 or (v not in state and not dfs(v)):
                return False
        state[u] = 2
        return True

    return all(state.get(u) == 2 or dfs(u) for u in f)


def _injections(adj):
    """Every complete neighbour-respecting injection of the link set."""
    X = sorted(adj)
    f, used = {}, set()

    def rec(pos):
        if pos == len(X):
            yield dict(f)
            return
        for y in adj[X[pos]]:
            if y not in used:
                f[X[pos]] = y
                used.add(y)
                yield from rec(pos + 1)
                del f[X[pos]]
                used.discard(y)

    yield from rec(0)


def test_strong_check_by_label_index_matches_all_pairs():
    rng = random.Random(1)
    outcomes = {True: 0, False: 0}
    instances = 0
    while instances < 20:
        m = M.random_multisegment(rng, max_segments=6)
        adj = C.neighbor_map(m)
        if not 0 < len(adj) <= 8:
            continue
        instances += 1
        labels = {(x, y): _edge_label(m, x, y) for x in adj for y in adj[x]}
        for f in _injections(adj):
            by_first = [[] for _ in range(len(m) + 1)]
            by_second = [[] for _ in range(len(m) + 1)]
            for x, y in f.items():
                a, b = labels[(x, y)]
                by_first[a].append(b)
                by_second[b].append(a)
            got = C._matching_is_strong(f, by_first, by_second)
            assert got == _strong_by_all_pairs(m, f, labels), (m, f)
            outcomes[got] += 1
    assert outcomes[True] and outcomes[False]


def test_find_strong_matching_builds_its_own_tables():
    rng = random.Random(3)
    found = 0
    for _ in range(300):
        m = M.random_multisegment(rng, max_segments=6)
        t = M.link_tables(m)
        f = C.find_strong_matching(m)
        assert f == C.find_strong_matching(m, adj=t.adj, labels=t.labels), m
        if f is None:
            continue
        found += 1
        assert sorted(f) == sorted(t.adj) and len(set(f.values())) == len(f), m
        assert all(f[x] in t.adj[x] for x in f), m
        labels = {(x, y): _edge_label(m, x, y) for x in t.adj for y in t.adj[x]}
        assert _strong_by_all_pairs(m, f, labels), (m, f)
    assert found


def test_gls_strong_matching_budget():
    # the search uses up its budget, so the rank test proves the condition
    m = parse("[5,6]+[5]+[4,5]+[4]+[4]+[4]+[3,4]+[3]+[3]+[3]+[3]+[2,3]+[2]+[2]+[2]+[1,2]+[1]+[1]+[0]+[0]")
    ok, rep = C.gls_check(m)
    assert (ok, rep.method) == (True, "rank") and rep.rank_achieved == 66
    ok, rep = C.gls_check(parse("[12]+[10,11]+[9,10]+[6,9]+[8]+[8]+[5,8]+[7]+[7]+[6]+[6]+[4,6]+[5]+[3,5]+[2,3]+[1]"))
    assert (ok, rep.method) == (True, "strong-matching")


# the two gls-stability instances whose search uses up the budget
BUDGET_EXHAUSTING = (
    "[5]+[4]+[4]+[3,4]+[3]+[3]+[2,3]+[2]+[2]+[2]+[1,2]+[1]+[1]+[0,1]+[0,1]+[0]+[0]",
    "[5,6]+[5]+[4,5]+[4]+[4]+[4]+[3,4]+[3]+[3]+[3]+[3]+[2,3]+[2]+[2]+[2]+[1,2]+[1]+[1]+[0]+[0]",
)


def _strong_matching_leaf_by_leaf(m, budget):
    """The search as it was before cyclic prefixes were skipped: every complete assignment is checked."""
    _, _, adj, labels = M.link_tables(m)
    X = sorted(adj, key=lambda x: (len(adj[x]), x))
    by_first = [[] for _ in range(len(m) + 1)]
    by_second = [[] for _ in range(len(m) + 1)]
    used, assign, steps = set(), {}, 0

    def backtrack(pos):
        nonlocal steps
        if pos == len(X):
            return dict(assign) if C._matching_is_strong(assign, by_first, by_second) else None
        x = X[pos]
        for y, (a, b) in zip(adj[x], labels[x]):
            if y in used:
                continue
            steps += 1
            if steps > budget:
                return None
            used.add(y)
            assign[x] = y
            by_first[a].append(b)
            by_second[b].append(a)
            got = backtrack(pos + 1)
            if got is not None:
                return got
            used.discard(y)
            del assign[x]
            by_first[a].pop()
            by_second[b].pop()
        return None

    if any(not nbrs for nbrs in adj.values()):
        return None
    return backtrack(0)


def test_strong_matching_search_matches_leaf_by_leaf_search():
    # the leaf-by-leaf search first finds a matching here after 1,000 or more
    # steps, many of them below cyclic prefixes: the budget must cut both at once
    m = parse("[8,11]+[6,9]+[6,8]+[6,7]+[3,7]+[2,5]+[1,5]+[0,4]")
    lo, hi = 0, C.STRONG_MATCHING_BUDGET
    assert _strong_matching_leaf_by_leaf(m, hi) is not None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _strong_matching_leaf_by_leaf(m, mid) is None:
            lo = mid
        else:
            hi = mid
    assert hi >= 1000
    assert C.find_strong_matching(m, hi - 1) is None
    assert C.find_strong_matching(m, hi) == _strong_matching_leaf_by_leaf(m, hi)
    # 300 seeded instances at six budgets
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        m = M.random_multisegment(rng, max_segments=8)
        for budget in (1, 2, 7, 50, 500, 20_000):
            want = _strong_matching_leaf_by_leaf(m, budget)
            assert C.find_strong_matching(m, budget) == want, (m, budget)
            found += want is not None
    assert found
    # both searches use up the budget on these: the two gls-stability instances
    # that do, the second also the 20-segment instance above
    for text in BUDGET_EXHAUSTING:
        m = parse(text)
        assert _strong_matching_leaf_by_leaf(m, C.STRONG_MATCHING_BUDGET) is None
        assert C.find_strong_matching(m) is None
    # a gls-stability instance whose first matching, after three cyclic leaves,
    # costs 7,970 steps: most of them repeat states that the search adds from
    # its table, and the budget must still cut at the same step
    m = parse("[12]+[10,11]+[9,10]+[6,9]+[8]+[8]+[5,8]+[7]+[7]+[6]+[6]+[4,6]+[5]+[3,5]+[2,3]+[1]")
    assert _strong_matching_leaf_by_leaf(m, 7_969) is None
    want = _strong_matching_leaf_by_leaf(m, 7_970)
    assert want is not None
    assert C.find_strong_matching(m, 7_969) is None
    assert C.find_strong_matching(m, 7_970) == want


def _rank_dense(rows, p):
    """Gauss-Jordan elimination mod p on dense rows, as the rank test did before its rows were sparse."""
    rows = [row[:] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for c in range(cols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][c] % p), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        inv = pow(rows[pivot_row][c], -1, p)
        rows[pivot_row] = [(v * inv) % p for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [(v - factor * u) % p for v, u in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


def _sparse(rows, p, rng):
    """The rows as {column: value}, some entries that vanish mod p kept."""
    return [{c: v for c, v in enumerate(row) if v % p or rng.random() < 0.2} for row in rows]


def test_rank_mod_matches_dense_elimination():
    rng = random.Random(17)
    seen = set()  # (p, full rank or not) over the nonzero ranks
    for p in (2, 3, 5, C.GLS_PRIME):
        for r in range(10):
            for c in range(10):
                for _ in range(6):
                    density = rng.random()
                    rows = [
                        [rng.randrange(-p, 2 * p) if rng.random() < density else 0 for _ in range(c)]
                        for _ in range(r)
                    ]
                    for t in range(r):
                        kind = rng.randrange(4)
                        if kind == 0:
                            rows[t] = [0] * c
                        elif kind == 1 and t:
                            f = rng.randrange(p)
                            rows[t] = [f * v for v in rows[rng.randrange(t)]]
                    want = _rank_dense(rows, p)
                    assert C._rank_mod(_sparse(rows, p, rng), p) == want, (p, rows)
                    if want:
                        seen.add((p, want == min(r, c)))
    assert len(seen) == 8
    # the rank rows of the two budget-exhausting gls-stability instances
    for text, full in zip(BUDGET_EXHAUSTING, (47, 66)):
        m = parse(text)
        X, Xt, _, _ = M.link_tables(m)
        assert len(X) == full
        for p in (2, 3, C.GLS_PRIME):
            lam = {x: rng.randrange(1, p) for x in sorted(X)}
            rows = C._gls_vectors_mod(m, X, Xt, lam, p)
            dense = [[row.get(c, 0) for c in range(len(Xt))] for row in rows]
            assert C._rank_mod(rows, p) == _rank_dense(dense, p), (text, p)


# ---------------------------------------------------------------------------
# the combined verdict


def test_decide_leclerc():
    v = C.decide_square_irreducible(lecm())
    assert v.regular and v.agree
    assert v.square_irreducible is False
    assert v.balanced is False and v.pattern_free is False and v.kl_one is False
    assert v.gls.value is False


def test_decide_ladder():
    v = C.decide_square_irreducible(parse("[3,5]+[2,4]+[1,3]"))
    assert v.square_irreducible is True and v.agree


@pytest.mark.parametrize("text", ["[4,5]+[2,4]+[3]+[1,2]", "[2]+[2]+[1]+[1]"])
def test_decide_factorizes_once(monkeypatch, text):
    m = parse(text)
    pair = C.attached_pair(m)
    calls = []
    real = B.factorize
    monkeypatch.setattr(B, "factorize", lambda x: calls.append(x) or real(x))
    v = C.decide_square_irreducible(m)
    if m.is_regular:
        assert calls == [m]
        assert v.kl_one == C.kl_criterion(m) == C.kl_criterion(m, pair=pair)
        assert v.balanced == C.is_balanced(m) == C.is_balanced(m, pair=pair)
    else:
        # neither kl_one nor balanced is defined, so nothing is factorized
        assert calls == [] and v.kl_one is None


def test_decide_nonregular_reports_raw_criteria():
    v = C.decide_square_irreducible(parse("[2]+[2]+[1]+[1]"))
    assert v.regular is False
    assert v.square_irreducible is None
    assert v.balanced is None and v.pattern_free is None and v.agree is None
    assert isinstance(v.gls.value, bool) and v.kl_one is None


def test_pairwise_unlinked_nonregular_input_has_no_kl_one_and_gls_true():
    # products of pairwise unlinked segments are irreducible (Zelevinsky 1980,
    # Thm. 9.7), so all of these are square-irreducible; P(1) of the
    # factorization said False on 35 of them, [1]+[1]+[0,1]+[0,1] first
    segs = [Segment(a, b) for a in range(5) for b in range(a, 5)]
    cases = [
        Multisegment(combo)
        for r in (2, 3, 4)
        for combo in itertools.combinations_with_replacement(segs, r)
        if not any(M.linked(d1, d2) for d1, d2 in itertools.combinations(combo, 2))
        and not Multisegment(combo).is_regular
    ]
    assert len(cases) == 1116
    assert not C.kl_criterion(parse("[1]+[1]+[0,1]+[0,1]"))
    for m in cases:
        v = C.decide_square_irreducible(m)
        assert v.kl_one is None and v.gls.value is True, str(m)
        assert v.to_json()["kl_one"] is None


def test_verdict_json_schema():
    v = C.decide_square_irreducible(lecm()).to_json()
    assert set(v) == {
        "input",
        "regular",
        "balanced",
        "gls",
        "kl_one",
        "pattern_free",
        "agree",
        "square_irreducible",
    }
    assert set(v["gls"]) == {"value", "method", "trials"}
    assert parse(v["input"]) == lecm()


def test_equivalence_mini_sweep():
    for m in regular_instances(4):
        v = C.decide_square_irreducible(m)
        assert v.agree, m


# ---------------------------------------------------------------------------
# minimal unbalanced


def test_unbalanced_removal_names_the_witness():
    m = parse("[6,9]+[5,8]+[3,7]+[4,6]+[2,5]")
    assert C.unbalanced_removal(m) == Segment(6, 9)
    assert not C.is_balanced(m) and not C.is_balanced(parse("[5,8]+[3,7]+[4,6]+[2,5]"))
    assert not C.minimal_unbalanced_brute(m)
    for m in (C.basic_family("4231", 5), C.basic_family("3412", 5, 3), C.basic_family("3412b", 5)):
        assert C.unbalanced_removal(m) is None and C.minimal_unbalanced_brute(m), str(m)


def test_classify_examples():
    assert C.classify_minimal_unbalanced(C.basic_family("4231", 5)) == ("4*23*1", 2)
    assert C.classify_minimal_unbalanced(C.basic_family("3412", 5, 3)) == ("3*41*2", 2)
    assert C.classify_minimal_unbalanced(C.basic_family("3412b", 5)) == ("34*12", None)
    assert C.classify_minimal_unbalanced(parse("[3,5]+[2,4]+[1,3]")) is None
    with pytest.raises(ValueError):
        C.classify_minimal_unbalanced(parse("[1]+[1]"))


def test_classify_matches_brute_force():
    for m in regular_instances(4):
        assert (C.classify_minimal_unbalanced(m) is not None) == C.minimal_unbalanced_brute(m)


def test_basic_family_displays():
    assert C.basic_family("4231", 4) == lecm()
    assert C.basic_family("4231", 5) == parse("[5,6]+[2,5]+[4]+[3]+[1,2]")
    assert C.basic_family("3412", 5, 3) == parse("[3,7]+[5,6]+[1,5]+[4]+[2,3]")
    assert C.basic_family("3412b", 5) == parse("[4,8]+[5,7]+[3,6]+[1,5]+[2,4]")
    with pytest.raises(ValueError):
        C.basic_family("4231", 3)
    with pytest.raises(ValueError):
        C.basic_family("3412", 4, 2)
    with pytest.raises(ValueError):
        C.basic_family("3412b", 4)


def test_family_fixture_permutations():
    # display permutations: self-inverse with the stated ascent sets
    for k in (4, 5, 6):
        m = C.basic_family("4231", k)
        _, sigma1 = B.factorize(m)
        assert sigma1 == P.inverse(sigma1)
        assert R.ascent_set(sigma1) == frozenset({2, k})
    for k, l in ((5, 3), (6, 4), (7, 3)):
        m = C.basic_family("3412", k, l)
        _, sigma1 = B.factorize(m)
        assert sigma1 == P.inverse(sigma1)
        assert R.ascent_set(sigma1) == frozenset({l - 2, l, k})
    for k in (5, 6, 7):
        m = C.basic_family("3412b", k)
        _, sigma1 = B.factorize(m)
        assert sigma1 == P.inverse(sigma1)
        assert R.ascent_set(sigma1) == frozenset({1, k - 1, k})


def test_transpose_fixed_point():
    # the doubled-staircase member with parameters (4, 2) is transpose-fixed
    m = C.basic_family("4231", 4)
    assert M.involution(m) == m


# ---------------------------------------------------------------------------
# expansion


def test_expansion_single_term():
    A = B.akl(4, 2)
    s0 = B.sigma0(A)
    assert C.grothendieck_expansion(A, s0) == {s0: 1}


def test_expansion_smooth_pair_is_sign_alternating():
    A = B.akl(3, 1)
    s0 = B.sigma0(A)
    for sigma in P.all_perms(3):
        if not P.bruhat_leq(s0, sigma):
            continue
        if not P.smooth_pair_data(s0, sigma).is_smooth:
            continue
        exp = C.grothendieck_expansion(A, sigma)
        interval = [
            sp
            for sp in P.all_perms(3)
            if P.bruhat_leq(s0, sp) and P.bruhat_leq(sp, sigma)
        ]
        assert len(exp) == len(interval)
        assert all(v in (1, -1) for v in exp.values())
        assert exp[sigma] == 1


def test_expansion_nonsmooth_has_nonunit_coefficient():
    A = B.akl(4, 2)
    exp = C.grothendieck_expansion(A, (4, 2, 3, 1))
    assert abs(exp[(1, 2, 4, 3)]) != 1


def test_expansion_preconditions():
    with pytest.raises(ValueError):
        C.grothendieck_expansion(B.akl(4, 2), (1, 2, 3, 4))
    with pytest.raises(ValueError):
        C.grothendieck_expansion(B.bi_sequence((1, 1), (2, 2)), (2, 1))


# ---------------------------------------------------------------------------
# the shape search on its precedence table, against the segment-tuple search


def _is_type_4231_by_segments(segs):
    k = len(segs)
    if not all(M.precedes(segs[i], segs[i - 1]) for i in range(3, k)):
        return False
    if not M.precedes(segs[2], segs[0]):
        return False
    return segs[k - 1].a < segs[1].a < segs[k - 2].a


def _is_type_3412_by_segments(segs):
    k = len(segs)
    if not all(M.precedes(segs[i], segs[i - 1]) for i in range(4, k)):
        return False
    if not M.precedes(segs[3], segs[1]):
        return False
    l = 1 if k == 4 else k - 2
    return segs[2].a < segs[k - 1].a < segs[0].a < segs[l].a


def _forbidden_type_by_segments(m):
    k = len(m)
    for size in range(4, k + 1):
        for idx in itertools.combinations(range(1, k + 1), size):
            segs = tuple(m.seg(i) for i in idx)
            if _is_type_4231_by_segments(segs):
                return ("4231", idx)
            if _is_type_3412_by_segments(segs):
                return ("3412", idx)
    return None


def _random_regular(rng, k):
    """Distinct ends, and for each end from the lowest up an unused begin at or below it."""
    ends = sorted(rng.sample(range(2 * k), k))
    begins = []
    for b in ends:
        begins.append(rng.choice([a for a in range(b + 1) if a not in begins]))
    return Multisegment(zip(begins, ends))


def test_forbidden_type_matches_segment_search():
    kinds = {None: 0, "4231": 0, "3412": 0}
    for m in regular_instances(6):
        got = C.has_forbidden_type(m)
        assert got == _forbidden_type_by_segments(m), m
        kinds[got and got[0]] += 1
    rng = random.Random(63)
    for k in (7, 8):
        for _ in range(1000):
            m = _random_regular(rng, k)
            got = C.has_forbidden_type(m)
            assert got == _forbidden_type_by_segments(m), m
            kinds[got and got[0]] += 1
    assert min(kinds.values()) > 500, kinds


@pytest.mark.parametrize("trials", [0, -1])
def test_gls_check_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        C.gls_check(parse("[4,5]+[2,4]+[3]+[1,2]"), trials=trials)
    assert C.gls_check(parse("[4,5]+[2,4]+[3]+[1,2]"), trials=1)[0] is False
