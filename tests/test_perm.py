import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from squareirr import perm as P

import reference as R

# permutations of 1..n for n in 0..12, past the largest indexed S_n
perms_upto_12 = st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)


def brute_bruhat_table(k):
    """Independent Bruhat order: reflexive-transitive closure of covers."""
    perms = list(P.all_perms(k))
    idx = {w: i for i, w in enumerate(perms)}
    n = len(perms)
    leq = [[False] * n for _ in range(n)]
    for i in range(n):
        leq[i][i] = True
    # covers: w -> w*t with length + 1
    by_len = sorted(range(n), key=lambda i: P.length(perms[i]))
    for wi in by_len:
        w = perms[wi]
        for i, j in R.transpositions(k):
            up = R.apply_transposition(w, i, j)
            if P.length(up) == P.length(w) + 1:
                ui = idx[up]
                for lo in range(n):
                    if leq[lo][wi]:
                        leq[lo][ui] = True
    return perms, idx, leq


def test_length_examples():
    assert P.length((1, 2, 3, 4)) == 0
    assert P.length((4, 2, 3, 1)) == 5
    assert P.length((1, 2, 4, 3)) == 1


def test_length_matches_sign():
    for w in P.all_perms(4):
        assert P.sign(w) == (-1) ** P.length(w)


def test_bruhat_identity_is_minimum():
    e = P.identity(4)
    for w in P.all_perms(4):
        assert P.bruhat_leq(e, w)


def test_bruhat_examples():
    assert P.bruhat_leq((1, 2, 4, 3), (4, 2, 3, 1))
    assert not P.bruhat_leq((2, 1, 3, 4), (1, 3, 2, 4))


def test_bruhat_size_mismatch():
    with pytest.raises(ValueError):
        P.bruhat_leq((1, 2), (1, 2, 3))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bruhat_rank_criterion_vs_cover_closure(k):
    perms, idx, leq = brute_bruhat_table(k)
    for x in perms:
        for w in perms:
            assert P.bruhat_leq(x, w) == leq[idx[x]][idx[w]]


def test_bruhat_partial_order_and_length_monotone():
    perms = list(P.all_perms(4))
    for x in perms:
        for w in perms:
            if P.bruhat_leq(x, w):
                assert P.length(x) <= P.length(w)
                if P.length(x) == P.length(w):
                    assert x == w
                if P.bruhat_leq(w, x):
                    assert x == w


def test_smooth_pair_trivial_and_examples():
    for w in P.all_perms(4):
        data = P.smooth_pair_data(w, w)
        assert data.j_count == P.length(w) and data.is_smooth
    assert not P.smooth_pair_data((1, 2, 4, 3), (4, 2, 3, 1)).is_smooth
    assert not P.smooth_pair_data((2, 1, 4, 3), (4, 2, 3, 1)).is_smooth


def test_smooth_pair_requires_leq():
    with pytest.raises(ValueError):
        P.smooth_pair_data((2, 1, 3), (1, 3, 2))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_smooth_pair_counts(k):
    # j = i + length(sigma0); j >= length(sigma)
    perms = list(P.all_perms(k))
    for sigma in perms:
        for sigma0 in perms:
            if not P.bruhat_leq(sigma0, sigma):
                continue
            d = P.smooth_pair_data(sigma0, sigma)
            assert d.j_count == d.i_count + P.length(sigma0)
            assert d.j_count >= P.length(sigma)


def test_smooth_pair_propagates_up_the_interval():
    # equality of the count forces it on the whole upper interval
    for k in (3, 4, 5):
        perms = list(P.all_perms(k))
        for sigma in perms:
            smooth_lows = [
                s0
                for s0 in perms
                if P.bruhat_leq(s0, sigma) and P.smooth_pair_data(s0, sigma).is_smooth
            ]
            for s0 in smooth_lows:
                for s1 in perms:
                    if P.bruhat_leq(s0, s1) and P.bruhat_leq(s1, sigma):
                        assert P.smooth_pair_data(s1, sigma).is_smooth


def test_smooth_pair_count_law_k6():
    # vectorized version of the two previous tests at k = 6:
    # j-count >= length, and equality propagates to the whole upper interval
    import numpy as np

    k = 6
    perms = P.sn(k)
    index = {w: i for i, w in enumerate(perms)}
    leq = R.leq_table(k)
    lengths = np.array([P.length(w) for w in perms])
    tmult = np.array(
        [
            [index[R.apply_transposition(w, i, j)] for w in perms]
            for i, j in R.transpositions(k)
        ]
    )
    for si in range(len(perms)):
        below = leq[:, si]
        jc = leq[tmult, si].sum(axis=0)
        assert (jc[below] >= lengths[si]).all()
        smooth = below & (jc == lengths[si])
        not_smooth = below & ~smooth
        if smooth.any() and not_smooth.any():
            # no smooth lower element may sit below a non-smooth one
            assert not leq[np.ix_(np.nonzero(smooth)[0], np.nonzero(not_smooth)[0])].any()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_lakshmibai_sandhya(k):
    e = P.identity(k)
    for w in P.all_perms(k):
        assert P.smooth_pair_data(e, w).is_smooth == P.is_smooth(w)


def test_avoids_patterns_examples():
    assert P.avoids_patterns((1, 2, 3, 4), P.SINGULAR_PATTERNS)
    assert not P.avoids_patterns((3, 4, 1, 2), P.SINGULAR_PATTERNS)
    # (4,2,3,1) realizes 231 through the subsequence (2,3,1) but avoids 213
    assert not P.avoids_patterns((4, 2, 3, 1), [(2, 3, 1)])
    assert P.avoids_patterns((4, 2, 3, 1), [(2, 1, 3)])


def test_pattern_containment_brute():
    # independent brute check of containment for every length-3 pattern
    w = (4, 2, 3, 1)
    present = {
        P.pattern_of([w[a], w[b], w[c]])
        for a, b, c in itertools.combinations(range(4), 3)
    }
    for p in itertools.permutations((1, 2, 3)):
        assert P.avoids_patterns(w, [p]) == (p not in present)


def test_flatten_examples():
    w = (4, 2, 3, 1)
    assert P.flatten(w, []) == w
    assert P.flatten(w, [2]) == (3, 2, 1)


def test_flatten_preserves_smooth_pairs_at_fixed_points():
    for w in P.all_perms(4):
        for s0 in P.all_perms(4):
            if not P.bruhat_leq(s0, w):
                continue
            for i in range(1, 5):
                if w[i - 1] != s0[i - 1]:
                    continue
                fw, fs0 = P.flatten(w, [i]), P.flatten(s0, [i])
                # order is preserved and reflected at a common fixed entry
                assert P.bruhat_leq(fs0, fw)
                if P.smooth_pair_data(s0, w).is_smooth:
                    assert P.smooth_pair_data(fs0, fw).is_smooth


def test_flatten_reflects_bruhat_at_fixed_points():
    for w in P.all_perms(4):
        for s0 in P.all_perms(4):
            for i in range(1, 5):
                if w[i - 1] == s0[i - 1]:
                    assert P.bruhat_leq(s0, w) == P.bruhat_leq(
                        P.flatten(s0, [i]), P.flatten(w, [i])
                    )


def test_tau_delta_examples():
    assert P.tau_delta(2, 2, 1) == ((4, 2, 3, 1), (2, 1, 4, 3))
    assert P.tau_delta(2, 2, 2) == P.tau_delta(2, 2, 3)
    tau, delta = P.tau_delta(3, 2, 3)
    assert tau == (4, 5, 3, 1, 2)
    assert delta == (1, 4, 3, 2, 5)


def test_tau_delta_validity_and_errors():
    for r in range(2, 6):
        for s in range(2, 6):
            for t in (1, 2):
                tau, delta = P.tau_delta(r, s, t)
                assert P.is_permutation(tau) and P.is_permutation(delta)
                assert P.bruhat_leq(delta, tau)
        tau, delta = P.tau_delta(r, 2, 3)
        assert P.is_permutation(tau) and P.is_permutation(delta)
    with pytest.raises(ValueError):
        P.tau_delta(1, 2, 1)
    with pytest.raises(ValueError):
        P.tau_delta(3, 3, 3)


def test_inflate():
    assert P.inflate((2, 1), 2) == (3, 4, 1, 2)
    assert P.inflate((1, 2), 3) == (1, 2, 3, 4, 5, 6)
    for w in P.all_perms(3):
        assert P.length(P.inflate(w, 2)) == 4 * P.length(w)


def test_parse_and_format():
    assert P.parse_perm("4,2,3,1") == (4, 2, 3, 1)
    assert P.parse_perm("4231") == (4, 2, 3, 1)
    assert P.parse_perm(P.format_perm((4, 2, 3, 1))) == (4, 2, 3, 1)
    assert P.format_perm((4, 2, 3, 1), compact=True) == "4231"
    with pytest.raises(ValueError):
        P.parse_perm("4,4,1")
    with pytest.raises(ValueError):
        P.parse_perm("abc")


@settings(deadline=None)
@given(perms_upto_12)
def test_lehmer_index_round_trips(p):
    n = len(p)
    w = P.lehmer_index(p)
    assert 0 <= w < math.factorial(n)
    assert P.from_lehmer(n, w) == p


def test_from_lehmer_rejects_an_index_outside_the_group():
    for n, w in ((0, 1), (3, -1), (3, 6), (4, 24)):
        with pytest.raises(ValueError, match="index out of range"):
            P.from_lehmer(n, w)


@settings(deadline=None)
@given(perms_upto_12.filter(len), st.booleans())
def test_parse_perm_reads_format_perm(p, compact):
    assert P.parse_perm(P.format_perm(p, compact=compact)) == p


def test_is_smooth_matches_the_pattern_matcher():
    # the direct 4231/3412 scan against the general matcher, on all of S_0..S_7
    for k in range(8):
        for w in P.all_perms(k):
            assert P.is_smooth(w) == P.avoids_patterns(w, P.SINGULAR_PATTERNS), w


def test_inverse_involutive_and_length_preserving():
    for w in P.all_perms(5):
        assert P.inverse(P.inverse(w)) == w
        assert P.length(w) == P.length(P.inverse(w))


def test_ascent_set():
    assert R.ascent_set((4, 2, 3, 1)) == frozenset({2, 4})
    assert R.ascent_set((1, 2, 3)) == frozenset({1, 2, 3})


# ---------------------------------------------------------------------------
# differential checks of the one-pass rank-difference code against the
# rank-matrix rules it replaced


def _rank_matrix_leq(t, s):
    """Reference Bruhat test: build both tuple rank matrices, compare all cells."""
    if len(t) != len(s):
        raise ValueError("permutations live in different symmetric groups")
    rt = R.rank_matrix(t)
    rs = R.rank_matrix(s)
    return all(rs[i][j] <= rt[i][j] for i in range(len(t)) for j in range(len(t)))


def _smooth_pair_by_transpositions(sigma0, sigma):
    """Reference tangent count: one Bruhat test per transposition."""
    if not _rank_matrix_leq(sigma0, sigma):
        raise ValueError("smooth_pair_data requires sigma0 <= sigma")
    j_count = i_count = 0
    for i, j in R.transpositions(len(sigma)):
        if _rank_matrix_leq(R.apply_transposition(sigma0, i, j), sigma):
            j_count += 1
            if sigma0[i - 1] < sigma0[j - 1]:
                i_count += 1
    return P.SmoothPairData(j_count, i_count, j_count == P.length(sigma))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _batched_tangent_counts(lows, highs):
    """
    The reference rule vectorized over pairs: (leq, j_count, i_count) per row,
    with rank matrices from cumulative sums of permutation matrices.
    """
    import numpy as np

    lows = np.asarray(lows)
    k = lows.shape[1]
    values = np.arange(1, k + 1)

    def ranks(words):
        return np.cumsum(words[:, :, None] <= values, axis=1, dtype=np.int8)

    r_high = ranks(np.asarray(highs))
    leq = (ranks(lows) >= r_high).all(axis=(1, 2))
    j_count = np.zeros(len(lows), dtype=int)
    i_count = np.zeros(len(lows), dtype=int)
    for a, b in itertools.combinations(range(k), 2):
        swapped = lows.copy()
        swapped[:, [a, b]] = swapped[:, [b, a]]
        below = (ranks(swapped) >= r_high).all(axis=(1, 2))
        j_count += below
        i_count += below & (lows[:, a] < lows[:, b])
    return leq, j_count, i_count


def test_smooth_pair_data_matches_transposition_loop_small():
    for k in range(1, 6):
        perms = list(P.all_perms(k))
        for sigma in perms:
            for sigma0 in perms:
                assert _outcome(P.smooth_pair_data, sigma0, sigma) == _outcome(
                    _smooth_pair_by_transpositions, sigma0, sigma
                ), (sigma0, sigma)
    assert _outcome(P.smooth_pair_data, (1, 2), (1, 2, 3)) == _outcome(
        _smooth_pair_by_transpositions, (1, 2), (1, 2, 3)
    )


def test_smooth_pair_data_matches_transposition_loop_s6():
    # the reference loop with Bruhat order read off the rank-matrix table
    import numpy as np

    perms = P.sn(6)
    index = {w: i for i, w in enumerate(perms)}
    leq = R.leq_table(6)
    tmult = np.array([[index[R.apply_transposition(w, i, j)] for w in perms] for i, j in R.transpositions(6)])
    up = np.array([[w[i - 1] < w[j - 1] for w in perms] for i, j in R.transpositions(6)])
    refused = ("ValueError", "smooth_pair_data requires sigma0 <= sigma")
    for si, sigma in enumerate(perms):
        below = leq[tmult, si]
        j_count = below.sum(axis=0).tolist()
        i_count = (below & up).sum(axis=0).tolist()
        lsigma = P.length(sigma)
        for xi, sigma0 in enumerate(perms):
            jc = j_count[xi]
            want = (jc, i_count[xi], jc == lsigma) if leq[xi, si] else refused
            assert _outcome(P.smooth_pair_data, sigma0, sigma) == want, (sigma0, sigma)


@pytest.mark.parametrize("k", [7, 8, 9])
def test_smooth_pair_data_matches_transposition_loop_sampled(k):
    # comparable pairs: random down-swaps from a random sigma
    rng = random.Random(k)
    lows, highs = [], []
    while len(lows) < 3000:
        sigma = tuple(rng.sample(range(1, k + 1), k))
        low = list(sigma)
        for _ in range(rng.randrange(k * (k - 1) // 2)):
            a, b = sorted(rng.sample(range(k), 2))
            if low[a] > low[b]:
                low[a], low[b] = low[b], low[a]
        lows.append(tuple(low))
        highs.append(sigma)
    leq, j_count, i_count = _batched_tangent_counts(lows, highs)
    assert leq.all()
    for sigma0, sigma, jc, ic in zip(lows, highs, j_count, i_count):
        assert P.smooth_pair_data(sigma0, sigma) == (jc, ic, jc == P.length(sigma)), (sigma0, sigma)


def test_bruhat_leq_matches_rank_matrices():
    perms = list(P.all_perms(5))
    for t in perms:
        for s in perms:
            assert P.bruhat_leq(t, s) == _rank_matrix_leq(t, s)
    rng = random.Random(8)
    hits = 0
    for _ in range(4000):
        t = tuple(rng.sample(range(1, 9), 8))
        s = list(t)
        for _ in range(rng.randrange(12)):
            a, b = rng.sample(range(8), 2)
            s[a], s[b] = s[b], s[a]
        s = tuple(s)
        got = P.bruhat_leq(t, s)
        assert got == _rank_matrix_leq(t, s), (t, s)
        hits += got
    assert 0 < hits < 4000


def test_length_matches_combinations_count():
    for k in range(8):
        for w in P.all_perms(k):
            assert P.length(w) == sum(
                1 for i, j in itertools.combinations(range(k), 2) if w[i] > w[j]
            ), w
