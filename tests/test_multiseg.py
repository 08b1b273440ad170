import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from squareirr import biseq as B
from squareirr import multiseg as M
from squareirr import perm as P
from squareirr.multiseg import Multisegment, Segment, parse_multisegment as parse

import reference as R


def lecm():
    return parse("[4,5]+[2,4]+[3]+[1,2]")


def clause_precedes(d1, d2):
    """The three-clause definition, as an independent oracle."""
    covers1 = set(range(d1.a, d1.b + 1))
    covers2 = set(range(d2.a, d2.b + 1))
    return (
        d1.a not in covers2
        and (d2.a - 1) in covers1
        and d2.b not in covers1
    )


def test_precedes_examples():
    assert M.precedes(Segment(1, 2), Segment(2, 4))
    assert not M.precedes(Segment(1, 3), Segment(1, 4))
    assert M.precedes(Segment(2, 4), Segment(4, 5))


def test_precedes_matches_clause_form():
    rng = range(-2, 5)
    for a1, b1, a2, b2 in itertools.product(rng, repeat=4):
        if a1 > b1 or a2 > b2:
            continue
        d1, d2 = Segment(a1, b1), Segment(a2, b2)
        assert M.precedes(d1, d2) == clause_precedes(d1, d2)


def test_parse_print_roundtrip():
    for text in ("[4,5]+[2,4]+[3]+[1,2]", "[-3,-1]+[0]", "0", "[1,1]"):
        m = parse(text)
        assert parse(str(m)) == m
    assert str(parse(" [1,2] + [3] ")) == "[3]+[1,2]"


def test_parse_errors_carry_positions():
    with pytest.raises(M.ParseError) as err:
        parse("[1,2]+(3)")
    assert err.value.pos == 6
    with pytest.raises(M.ParseError):
        parse("[2,1]")
    with pytest.raises(M.ParseError):
        parse("[1,2]+")


def test_canonical_order_and_deg():
    m = parse("[1,2]+[3]+[2,4]+[4,5]")
    assert [str(d) for d in m] == ["[4,5]", "[2,4]", "[3]", "[1,2]"]
    assert m.deg == 2 + 3 + 1 + 2
    assert (m + parse("[1,1]")).deg == m.deg + 1


def test_elementary_moves_examples():
    assert M.elementary_moves(parse("[1,5]+[2,4]")) == []
    assert M.elementary_moves(parse("[1]+[2]")) == [parse("[1,2]")]


def test_leclerc_neighbours_table():
    # the five one-step-from-unlinked multisegments below the running example
    A = B.akl(4, 2)
    table = {
        (1, 3, 4, 2): "[1,5]+[4,4]+[2,3]",
        (3, 2, 4, 1): "[4,5]+[2,4]+[1,3]",
        (1, 4, 2, 3): "[1,5]+[3,4]+[2,2]",
        (4, 2, 1, 3): "[3,5]+[2,4]+[1,2]",
        (2, 1, 4, 3): "[2,5]+[1,4]",
    }
    bottom = B.multisegment_of(A, B.sigma0(A))
    for sigma, text in table.items():
        m = B.multisegment_of(A, sigma)
        assert m == parse(text)
        assert bottom in M.elementary_moves(m)
        assert any(c.is_pairwise_unlinked for c in M.elementary_moves(m))
        assert M.obt_leq(m, lecm())


def test_obt_leq_examples():
    m = lecm()
    assert M.obt_leq(m, m)
    assert M.obt_leq(parse("[1,5]+[2,4]"), parse("[2,5]+[1,4]"))
    assert not M.obt_leq(parse("[2,5]+[1,4]"), parse("[1,5]+[2,4]"))
    assert not M.obt_leq(parse("[1,2]"), parse("[1]+[3]"))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_obt_leq_matches_bruhat_on_regular_families(k):
    for A in B.normalized_bisequences(k):
        s0 = B.sigma0(A)
        admissible = [s for s in P.all_perms(k) if P.bruhat_leq(s0, s)]
        ms = {s: B.multisegment_of(A, s) for s in admissible}
        for s1 in admissible:
            for s2 in admissible:
                assert M.obt_leq(ms[s1], ms[s2]) == P.bruhat_leq(s1, s2), (A, s1, s2)


def test_link_data_examples():
    assert len(M.link_data(lecm()).X) == 4
    ladder = parse("[3,5]+[2,4]+[1,3]")
    assert M.link_data(ladder).X == frozenset({(2, 1), (3, 1), (3, 2)})
    m = parse("[3,4]+[1,3]+[2,2]+[0,1]")
    assert M.link_data(m).X == frozenset({(2, 1), (3, 1), (4, 2), (4, 3)})


def test_lc_condition_examples():
    assert M.lc_condition(parse("[1,5]+[2,4]"), parse("[1,5]+[2,4]"))  # empty X
    assert not M.lc_condition(parse("[1]"), parse("[2]"))


def test_lc_condition_cross_check_against_socle_recipe():
    # a one-point left factor is a ladder, so the matching criterion and the
    # independent socle recipe must agree for arbitrary partners
    rng = random.Random(5)
    for _ in range(800):
        m = M.random_multisegment(rng, max_segments=5, lo=0, hi=7, max_len=5)
        for c in range(-1, 9):
            point = Multisegment([Segment(c, c)])
            by_matching = M.lc_condition(point, m)
            by_socle = M.soc_with_cuspidal(c, m) == m + point
            assert by_matching == by_socle, (m, c)


def test_lc_condition_true_on_ladder_self_pairs():
    # ladder self-products stay irreducible, so the matching never fails
    rng = random.Random(21)
    for _ in range(200):
        k = rng.randint(1, 5)
        start = rng.randint(0, 4)
        segs = []
        a, b = start, start + rng.randint(0, 4)
        for _ in range(k):
            segs.append(Segment(a, b))
            b -= rng.randint(1, 2)
            a = min(a - rng.randint(1, 2), b)
        lad = Multisegment(segs)
        assert lad.is_ladder
        assert M.lc_condition(lad, lad)


def test_involution_examples():
    assert M.involution(Multisegment()) == Multisegment()
    assert M.involution(parse("[1,3]")) == parse("[1]+[2]+[3]")
    assert M.involution(lecm()) == lecm()


def test_involution_is_involutive_on_randoms():
    rng = random.Random(11)
    for _ in range(400):
        m = M.random_multisegment(rng, max_segments=5, lo=0, hi=8, max_len=5)
        mm = M.involution(m)
        assert M.involution(mm) == m
        assert mm.deg == m.deg
        assert mm.supp == m.supp


def test_dual_examples():
    assert M.dual(parse("[1,2]+[3,4]")) == parse("[-2,-1]+[-4,-3]")
    rng = random.Random(3)
    for _ in range(200):
        m = M.random_multisegment(rng)
        assert M.dual(M.dual(m)) == m
        assert M.dual(m).is_regular == m.is_regular
        assert len(M.link_data(M.dual(m)).X) == len(M.link_data(m).X)


def test_contract_examples():
    assert M.contract(parse("[1,5]+[2,4]"), 3) == parse("[1,4]+[2,3]")
    assert M.contract(parse("[1,5]+[2,4]"), 1) is None
    assert M.contract(parse("[3,4]"), 3) == parse("[3]")


def test_expand_examples_and_roundtrip():
    assert M.expand_at(parse("[0,1]"), 0) == parse("[0,2]")
    rng = random.Random(9)
    for _ in range(300):
        m = M.random_multisegment(rng)
        for c in range(-1, 10):
            assert M.contract(M.expand_at(m, c), c) == m


def test_detachable_examples():
    m = lecm()
    idx = M.detachable_segments(m)
    assert 1 in idx  # [4,5]
    assert 2 not in idx  # [2,4]
    unlinked = parse("[1,2]+[5,7]+[10]")
    shifted_free = all(
        not M.precedes(M.shift_down(d1), d2)
        for d1 in unlinked
        for d2 in unlinked
        if d1 != d2
    )
    assert shifted_free
    assert M.detachable_segments(unlinked) == [1, 2, 3]


def test_left_derivative_examples():
    assert M.left_derivative(parse("[1,3]+[5,6]"), 1) == (parse("[2,3]+[5,6]"), 1)
    assert M.left_derivative(parse("[1,3]+[2,4]"), 1) is None
    assert M.left_derivative(parse("[1,5]+[1,3]+[2,6]"), 1) == (
        parse("[1,5]+[2,3]+[2,6]"),
        1,
    )


def test_right_derivative_mirrors_left():
    assert M.right_derivative(parse("[1,3]"), 3) == (parse("[1,2]"), 1)
    # the end point 4 is blocked by [1,3] linking into [2,4]
    assert M.right_derivative(parse("[1,3]+[2,4]"), 4) is None
    assert M.right_derivative(parse("[2,4]+[1,2]"), 4) == (parse("[2,3]+[1,2]"), 1)
    rng = random.Random(17)
    for _ in range(150):
        m = M.random_multisegment(rng)
        for c in set(m.supp):
            got = M.right_derivative(m, c)
            mirrored = M.left_derivative(M.dual(m), -c)
            want = None if mirrored is None else (M.dual(mirrored[0]), mirrored[1])
            assert got == want


def test_derivative_witness_independence():
    rng = random.Random(23)
    for _ in range(200):
        m = M.random_multisegment(rng, max_segments=5, lo=0, hi=6, max_len=4)
        for c in set(m.supp):
            results = set()
            j_sizes = set()
            for I, f, J in M.derivative_witnesses(m, c):
                j_sizes.add(len(J))
                segs = [
                    M.minus_begin(d) if i in J else d
                    for i, d in enumerate(m.segments)
                ]
                results.add(Multisegment(s for s in segs if not M.is_empty(s)))
            assert len(j_sizes) <= 1
            assert len(results) <= 1
            assert results or j_sizes  # the witness always exists


def test_ascent_set_law():
    # removable begin points of the staircase instances are the ascents
    for k in (2, 3, 4):
        for l in (1, 2, 3):
            A = B.akl(k, l)
            s0 = B.sigma0(A)
            for sigma in P.all_perms(k):
                if not P.bruhat_leq(s0, sigma):
                    continue
                m = B.multisegment_of(A, sigma)
                if len(m) < k:
                    continue  # a dropped empty entry changes the begin set
                removable = {
                    c for c in set(m.supp) if M.left_derivative(m, c) is not None
                }
                assert removable == set(R.ascent_set(sigma)), (A, sigma)


def test_soc_with_cuspidal_examples():
    assert M.soc_with_cuspidal(1, parse("[2,4]")) == parse("[1,4]")
    assert M.soc_with_cuspidal(1, parse("[2,4]+[1,2]")) == parse("[2,4]+[1,2]+[1]")
    assert M.soc_with_cuspidal(1, parse("[2,5]+[2,3]")) == parse("[1,5]+[2,3]")


def test_speh():
    assert M.speh(Segment(3, 3), 3) == parse("[3]+[2]+[1]")
    assert M.speh(Segment(2, 4), 2) == parse("[2,4]+[1,3]")
    assert M.speh(Segment(1, 1), 0) == Multisegment()


# ---------------------------------------------------------------------------
# link_tables against the pairwise construction it replaced


def _link_data_by_pairs(m, n):
    X, Xt = set(), set()
    for i, di in enumerate(m.segments, start=1):
        for j, dj in enumerate(n.segments, start=1):
            if M.precedes(di, dj):
                X.add((i, j))
            if M.precedes(M.shift_down(di), dj):
                Xt.add((i, j))
    return frozenset(X), frozenset(Xt)


def _rel_adjacency_by_scan(m, n, X, Xt):
    adj = {}
    for i1, j1 in sorted(X):
        adj[i1, j1] = [
            (i2, j2)
            for i2, j2 in sorted(Xt)
            if (i1 == i2 and M.precedes(n.seg(j2), n.seg(j1)))
            or (j1 == j2 and M.precedes(m.seg(i1), m.seg(i2)))
        ]
    return adj


def _edge_label_by_precedes(m, x, y):
    (i1, j1), (i2, j2) = x, y
    if i1 == i2 and M.precedes(m.seg(j2), m.seg(j1)):
        return (j2, j1)
    if j1 == j2 and M.precedes(m.seg(i1), m.seg(i2)):
        return (i1, i2)
    return None


def _assert_tables_match(m, n=None):
    X, Xt, adj, labels = M.link_tables(m, n)
    ref_X, ref_Xt = _link_data_by_pairs(m, m if n is None else n)
    assert (X, Xt) == (ref_X, ref_Xt), (m, n)
    assert M.link_data(m, n) == (ref_X, ref_Xt)
    ref_adj = _rel_adjacency_by_scan(m, m if n is None else n, ref_X, ref_Xt)
    assert list(adj.items()) == list(ref_adj.items()), (m, n)  # key and list order too
    if n is None:
        for x, nbrs in adj.items():
            assert labels[x] == [_edge_label_by_precedes(m, x, y) for y in nbrs], (m, x)
    return ref_adj


def test_link_tables_formula_matches_precedes():
    # link_tables tests both relations on the ints; one segment each side
    segs = [Segment(a, b) for a in range(-3, 4) for b in range(a, 4)]
    for d1 in segs:
        for d2 in segs:
            X, Xt, _, _ = M.link_tables(Multisegment([d1]), Multisegment([d2]))
            assert (X == {(1, 1)}) == M.precedes(d1, d2), (d1, d2)
            assert (Xt == {(1, 1)}) == M.precedes(M.shift_down(d1), d2), (d1, d2)


def test_link_tables_match_pairwise_construction_on_sweep_instances():
    count = 0
    for k in range(1, 7):
        for A in B.normalized_bisequences(k):
            s0 = B.sigma0(A)
            for sigma in P.all_perms(k):
                if P.bruhat_leq(s0, sigma):
                    _assert_tables_match(B.multisegment_of(A, sigma))
                    count += 1
    assert count == 11464


def test_link_tables_match_pairwise_construction_on_randoms():
    rng = random.Random(61)
    regular = 0
    for _ in range(2000):
        m = M.random_multisegment(rng, max_segments=8, lo=0, hi=7, max_len=5)
        _assert_tables_match(m)
        regular += m.is_regular
    assert 0 < regular < 2000


def test_link_tables_match_pairwise_construction_on_pairs():
    rng = random.Random(62)
    for _ in range(500):
        m = M.random_multisegment(rng, max_segments=5, lo=0, hi=6, max_len=4)
        n = M.random_multisegment(rng, max_segments=5, lo=0, hi=6, max_len=4)
        ref_adj = _assert_tables_match(m, n)
        saturated = M.maximum_matching(ref_adj)[0] == len(ref_adj)
        assert M.lc_condition(m, n) == saturated, (m, n)


def _detachable_by_pairs(m):
    segs = m.segments

    def links(d1, d2):
        return M.precedes(d1, d2) or M.precedes(M.shift_down(d1), d2)

    return [
        i + 1
        for i, di in enumerate(segs)
        if not any(links(di, dj) for j, dj in enumerate(segs) if j != i)
        or not any(links(dj, di) for j, dj in enumerate(segs) if j != i)
    ]


def test_detachable_segments_match_pairwise_scan():
    rng = random.Random(63)
    for _ in range(2000):
        m = M.random_multisegment(rng, max_segments=8, lo=0, hi=7, max_len=5)
        assert M.detachable_segments(m) == _detachable_by_pairs(m), m
    for k in range(1, 6):
        for A in B.normalized_bisequences(k):
            s0 = B.sigma0(A)
            for sigma in P.all_perms(k):
                if P.bruhat_leq(s0, sigma):
                    m = B.multisegment_of(A, sigma)
                    assert M.detachable_segments(m) == _detachable_by_pairs(m), m


segments = st.tuples(st.integers(-20, 20), st.integers(0, 6)).map(lambda t: (t[0], t[0] + t[1]))


@settings(deadline=None)
@given(st.lists(segments, max_size=8))
def test_parse_multisegment_reads_str(segs):
    m = Multisegment(segs)
    assert parse(str(m)) == m
