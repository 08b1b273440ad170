import math
import random

import pytest

from squareirr import biseq as B
from squareirr import multiseg as M
from squareirr import perm as P
from squareirr.multiseg import parse_multisegment as parse


def random_bisequence(rng, k, lo=-6, hi=14, allow_ties=True):
    while True:
        if allow_ties:
            a = sorted(rng.randint(lo, hi) for _ in range(k))
            b = sorted((rng.randint(lo, hi) for _ in range(k)), reverse=True)
        else:
            a = sorted(rng.sample(range(lo, hi), k))
            b = sorted(rng.sample(range(lo, hi), k), reverse=True)
        try:
            return B.bi_sequence(a, b)
        except ValueError:
            continue


def test_constructor_validation():
    with pytest.raises(ValueError):
        B.bi_sequence((2, 1), (3, 2))
    with pytest.raises(ValueError):
        B.bi_sequence((1, 2), (2, 3))
    with pytest.raises(ValueError):
        B.bi_sequence((1, 5), (3, 2))  # a_2 > b_1 + 1


def test_parse_and_print():
    A = B.akl(4, 2)
    assert str(A) == "(1,2,3,4 ; 5,4,3,2)"
    assert B.parse_bisequence(str(A)) == A
    assert B.parse_bisequence("1,2 ; 3,2") == B.bi_sequence((1, 2), (3, 2))


def test_sigma0_examples():
    assert B.sigma0(B.akl(4, 2)) == (1, 2, 4, 3)
    assert B.sigma0(B.bi_sequence((2, 3), (3, 2))) == (1, 2)
    for k in range(1, 7):
        for l in range(0, 6):
            want = tuple(i if i <= l else k + l + 1 - i for i in range(1, k + 1))
            assert B.sigma0(B.akl(k, l)) == want


def _sigma0_by_generator_max(A):
    """Reference rule: scan every unused index for the largest admissible one."""
    k = A.k
    used = [False] * (k + 1)
    inv = [0] * k
    for i in range(k, 0, -1):
        j = max(
            (j for j in range(1, k + 1) if not used[j] and A.a[j - 1] <= A.b[i - 1] + 1),
            default=None,
        )
        if j is None:
            raise ValueError(f"invalid bi-sequence {A}")
        inv[i - 1] = j
        used[j] = True
    return P.inverse(tuple(inv))


def _sigma0_outcome(fn, A):
    try:
        return fn(A)
    except ValueError as exc:
        return str(exc)


def test_sigma0_matches_generator_max_rule():
    for k in range(1, 8):
        for A in B.normalized_bisequences(k):
            assert B.sigma0(A) == _sigma0_by_generator_max(A), A
    # monotone rows with ties, not checked against a_{k+1-i} <= b_i + 1
    rng = random.Random(7)
    invalid = 0
    for _ in range(3000):
        k = rng.randint(1, 8)
        a = tuple(sorted(rng.randint(0, 9) for _ in range(k)))
        b = tuple(sorted((rng.randint(-1, 8) for _ in range(k)), reverse=True))
        A = B.BiSequence(a, b)
        want = _sigma0_outcome(_sigma0_by_generator_max, A)
        assert _sigma0_outcome(B.sigma0, A) == want, A
        invalid += isinstance(want, str)
    assert 0 < invalid < 3000


def test_sigma0_is_213_avoiding():
    rng = random.Random(2)
    for _ in range(400):
        A = random_bisequence(rng, rng.randint(1, 6))
        assert P.is_213_avoiding(B.sigma0(A))


def test_sigma0_tie_monotonicity():
    rng = random.Random(4)
    for _ in range(400):
        A = random_bisequence(rng, rng.randint(2, 6))
        s0 = B.sigma0(A)
        inv = P.inverse(s0)
        for i in range(len(A.a) - 1):
            if A.a[i] == A.a[i + 1]:
                assert s0[i] < s0[i + 1]
            if A.b[i] == A.b[i + 1]:
                assert inv[i] < inv[i + 1]


def test_multisegment_of_examples():
    A = B.akl(4, 2)
    assert B.multisegment_of(A, (4, 2, 3, 1)) == parse("[4,5]+[2,4]+[3]+[1,2]")
    m0 = B.multisegment_of(A, B.sigma0(A))
    assert m0 == parse("[1,5]+[2,4]")
    assert m0.is_pairwise_unlinked
    assert B.multisegment_of(A, (1, 2, 3, 4)) is None


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_admissibility_matches_bruhat(k):
    for A in B.normalized_bisequences(k):
        s0 = B.sigma0(A)
        for sigma in P.all_perms(k):
            assert (B.multisegment_of(A, sigma) is not None) == P.bruhat_leq(s0, sigma)


def test_factorize_examples():
    A, sigma = B.factorize(parse("[4,5]+[2,4]+[3]+[1,2]"))
    assert A == B.akl(4, 2)
    assert sigma == (4, 2, 3, 1)
    A2, s2 = B.factorize(parse("[2,3]+[1,2]"))
    assert A2 == B.bi_sequence((1, 2), (3, 2))
    assert s2 == (2, 1)


def test_factorize_roundtrip_and_admissibility():
    rng = random.Random(6)
    for _ in range(500):
        m = M.random_multisegment(rng, max_segments=6)
        A, sigma = B.factorize(m)
        assert B.multisegment_of(A, sigma) == m
        assert P.bruhat_leq(B.sigma0(A), sigma)


def test_dyck_examples():
    t = B.dyck_bijections("XYXY")
    assert t.biseq == B.bi_sequence((2, 4), (3, 1))
    assert t.perm == (2, 1)
    t = B.dyck_bijections("XXYY")
    assert t.biseq == B.bi_sequence((2, 3), (3, 2))
    assert t.perm == (1, 2)


def test_catalan_counts():
    for k in range(1, 9):
        catalan = math.comb(2 * k, k) - math.comb(2 * k, k + 1)
        assert sum(1 for _ in B.all_dyck_words(k)) == catalan
        assert sum(1 for w in P.all_perms(k) if P.is_213_avoiding(w)) == catalan


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_dyck_roundtrips(k):
    for word in B.all_dyck_words(k):
        t = B.dyck_bijections(word)
        assert B.dyck_bijections(t.biseq) == t
        assert B.dyck_bijections(t.perm) == t
    for w in P.all_perms(k):
        if P.is_213_avoiding(w):
            assert B.dyck_bijections(w).perm == w


def test_dyck_input_validation():
    with pytest.raises(ValueError):
        B.dyck_bijections("XYYX")
    with pytest.raises(ValueError):
        B.dyck_bijections(B.akl(3, 1))  # not in the normalized window
    with pytest.raises(ValueError):
        B.dyck_bijections((2, 1, 3))  # contains 213


def test_normalize_preserves_sigma0():
    rng = random.Random(8)
    for _ in range(300):
        A = random_bisequence(rng, rng.randint(1, 6), allow_ties=False)
        N = B.normalize(A)
        assert B.is_normalized(N)
        assert B.sigma0(N) == B.sigma0(A)


def test_duplicate_examples():
    assert P.inflate((2, 1), 2) == (3, 4, 1, 2)
    A = B.akl(3, 1)
    At, st = B.duplicate(A, (3, 1, 2), 2)
    assert At.a == (1, 1, 2, 2, 3, 3)
    assert B.multisegment_of(At, st) == (
        B.multisegment_of(A, (3, 1, 2)) + B.multisegment_of(A, (3, 1, 2))
    )


def test_duplicate_sigma0_commutes():
    rng = random.Random(10)
    for _ in range(200):
        A = random_bisequence(rng, rng.randint(1, 5))
        for mult in (2, 3):
            At, _ = B.duplicate(A, B.sigma0(A), mult)
            assert B.sigma0(At) == P.inflate(B.sigma0(A), mult)


def test_contragredient_shift_identity():
    # reversing the line and shifting realizes the inverse permutation
    for k in (2, 3, 4):
        for l in (1, 2, 3):
            A = B.akl(k, l)
            s0 = B.sigma0(A)
            for sigma in P.all_perms(k):
                if not P.bruhat_leq(s0, sigma):
                    continue
                m = B.multisegment_of(A, sigma)
                shifted = M.Multisegment(
                    M.Segment(d.a + k + l, d.b + k + l) for d in M.dual(m)
                )
                assert shifted == B.multisegment_of(A, P.inverse(sigma))
