"""
Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every expected value is exact; runtime bounds are asserted where stated.
Seeded randomness only, so runs are reproducible.
"""

import itertools
import math
import random
import time

import numpy as np

from squareirr import biseq as B
from squareirr import criteria as C
from squareirr import klidentity as KI
from squareirr import klpoly as K
from squareirr import multiseg as M
from squareirr import perm as P
from squareirr.multiseg import parse_multisegment as parse

import reference as R


def report(num: int, text: str, elapsed: float) -> None:
    print(f"[criterion {num:02d}] {text}: PASS ({elapsed:.2f}s)")


def sweep_instances(k):
    for A in B.normalized_bisequences(k):
        s0 = B.sigma0(A)
        for sigma in P.all_perms(k):
            if P.bruhat_leq(s0, sigma):
                yield A, s0, sigma, B.multisegment_of(A, sigma)


def test_criterion_01_running_example():
    t0 = time.perf_counter()
    m = parse("[4,5]+[2,4]+[3]+[1,2]")
    assert C.depth(m) == 5
    assert C.complexity(m) == 4
    assert C.is_balanced(m) is False
    gls_value, gls_report = C.gls_check(m)
    assert gls_value is False
    v = C.decide_square_irreducible(m)
    assert v.square_irreducible is False and v.agree is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "running example: depth 5, complexity 4, all criteria false, agree", elapsed)


def test_criterion_02_pattern_avoidance_is_smoothness():
    t0 = time.perf_counter()
    for n in range(1, 8):
        perms = P.sn(n)
        leq = R.leq_table(n)
        index = {w: i for i, w in enumerate(perms)}
        lengths = np.array([P.length(w) for w in perms])
        e = P.identity(n)
        tidx = [index[R.apply_transposition(e, i, j)] for i, j in R.transpositions(n)]
        # j-count at the identity: transpositions below sigma
        jc = (
            leq[np.array(tidx), :].sum(axis=0)
            if tidx
            else np.zeros(len(perms), dtype=int)
        )
        for wi, w in enumerate(perms):
            assert (jc[wi] == lengths[wi]) == P.is_smooth(w), w
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, "smoothness count equals 4231/3412 avoidance for n <= 7", elapsed)


def test_criterion_03_equivalence_sweep():
    t0 = time.perf_counter()
    total = 0
    for k in range(1, 6):
        for A, s0, sigma, m in sweep_instances(k):
            v = C.decide_square_irreducible(m, trials=3)
            assert v.agree, (str(A), sigma)
            # the sweep pair gives the same KL criterion as the factorization
            assert (K.kl_at_one(s0, sigma) == 1) == v.kl_one, (str(A), sigma)
            total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(3, f"four-way equivalence on {total} instances with k <= 5", elapsed)


def test_criterion_04_coset_identity():
    t0 = time.perf_counter()
    pairs = 0
    checks = 0
    for k in (3, 4):
        tk = time.perf_counter()
        for sigma in P.all_perms(k):
            for sigma0 in P.all_perms(k):
                if not P.is_213_avoiding(sigma0):
                    continue
                if not P.bruhat_leq(sigma0, sigma):
                    continue
                if not P.smooth_pair_data(sigma0, sigma).is_smooth:
                    continue
                rep = KI.verify_klidnt(sigma0, sigma)
                assert rep.passed, (sigma0, sigma)
                pairs += 1
                checks += len(rep.cosets) + len(rep.parabolic)
        elapsed_k = time.perf_counter() - tk
        assert elapsed_k < (60.0 if k == 3 else 1800.0)
    elapsed = time.perf_counter() - t0
    report(4, f"signed coset identity on {pairs} pairs / {checks} checks (k = 3, 4)", elapsed)


def test_criterion_05_involution_suite():
    t0 = time.perf_counter()
    for i in range(10_000):
        rng = random.Random((99 << 32) + i)
        m = M.random_multisegment(rng, max_segments=5, lo=0, hi=9, max_len=4)
        assert m.deg <= 20
        mm = M.involution(m)
        assert M.involution(mm) == m
        assert mm.deg == m.deg and mm.supp == m.supp
    fixed = parse("[4,5]+[2,4]+[3]+[1,2]")
    assert M.involution(fixed) == fixed
    elapsed = time.perf_counter() - t0
    report(5, "transpose is an involution on 10^4 instances; (4,2) member is fixed", elapsed)


def test_criterion_06_gls_stability():
    t0 = time.perf_counter()
    for i in range(1000):
        rng = random.Random((7 << 32) + i)
        m = M.random_multisegment(rng, max_segments=6)
        base, _ = C.gls_check(m)
        assert C.gls_check(M.involution(m))[0] == base, m
        assert C.gls_check(M.dual(m))[0] == base, m
        if base:
            for c in set(m.supp):
                for fn in (M.left_derivative, M.right_derivative):
                    res = fn(m, c)
                    if res is not None:
                        assert C.gls_check(res[0])[0], (m, c)
    elapsed = time.perf_counter() - t0
    report(6, "open-orbit condition stable under transpose/dual/derivatives (10^3)", elapsed)


def test_criterion_07_depth_dominates_complexity():
    t0 = time.perf_counter()
    total = 0
    for k in range(1, 6):
        for _, _, _, m in sweep_instances(k):
            assert C.depth(m) >= C.complexity(m), m
            total += 1
    elapsed = time.perf_counter() - t0
    report(7, f"depth >= complexity on all {total} regular sweep instances", elapsed)


def test_criterion_08_fixture_pairs_not_smooth():
    t0 = time.perf_counter()
    count = 0
    for r in range(2, 6):
        for s in range(2, 6):
            shapes = (1, 2, 3) if s == 2 else (1, 2)
            for t in shapes:
                tau, delta = P.tau_delta(r, s, t)
                assert not P.smooth_pair_data(delta, tau).is_smooth, (r, s, t)
                count += 1
    elapsed = time.perf_counter() - t0
    report(8, f"all {count} interval-pattern pairs with r, s <= 5 are non-smooth", elapsed)


def test_criterion_09_basic_families():
    t0 = time.perf_counter()
    cases = []
    for k in range(4, 9):
        cases.append((C.basic_family("4231", k), "4*23*1"))
        for l in range(3, k):
            cases.append((C.basic_family("3412", k, l), "3*41*2"))
        if k >= 5:
            cases.append((C.basic_family("3412b", k), "34*12"))
    for m, want in cases:
        got = C.classify_minimal_unbalanced(m)
        assert got is not None and got[0] == want, (m, want, got)
        assert not C.gls_check(m)[0], m
        if len(m) <= 5:
            assert C.minimal_unbalanced_brute(m), m
    # classifier agrees with the direct definition across the k <= 5 sweep
    checked = 0
    for k in range(1, 6):
        for _, _, _, m in sweep_instances(k):
            if m.deg > 14:
                continue
            assert (C.classify_minimal_unbalanced(m) is not None) == C.minimal_unbalanced_brute(m), m
            checked += 1
    elapsed = time.perf_counter() - t0
    report(9, f"{len(cases)} family members classified and non-GLS; {checked} brute checks", elapsed)


def test_criterion_10_catalan_bijections():
    t0 = time.perf_counter()
    for k in range(1, 9):
        catalan = math.comb(2 * k, k) - math.comb(2 * k, k + 1)
        assert sum(1 for w in P.all_perms(k) if P.is_213_avoiding(w)) == catalan
    for k in range(1, 7):
        for word in B.all_dyck_words(k):
            triple = B.dyck_bijections(word)
            assert B.dyck_bijections(triple.biseq) == triple
            assert B.dyck_bijections(triple.perm) == triple
    elapsed = time.perf_counter() - t0
    report(10, "213-avoiding counts are Catalan (k <= 8); roundtrips exact (k <= 6)", elapsed)


def test_criterion_11_derivative_independence():
    t0 = time.perf_counter()
    for i in range(500):
        rng = random.Random((13 << 32) + i)
        m = M.random_multisegment(rng, max_segments=6)
        for c in set(m.supp):
            outcomes = set()
            for _, _, J in M.derivative_witnesses(m, c):
                segs = [
                    M.minus_begin(d) if t in J else d
                    for t, d in enumerate(m.segments)
                ]
                cleaned = M.Multisegment(s for s in segs if not M.is_empty(s))
                outcomes.add((cleaned, len(J)))
            assert len(outcomes) == 1, (m, c, outcomes)
    elapsed = time.perf_counter() - t0
    report(11, "all removal witnesses give one derivative (500 instances)", elapsed)


def test_criterion_12_kl_oracle():
    t0 = time.perf_counter()
    for x in P.all_perms(5):
        for w in P.all_perms(5):
            assert K.kl_polynomial(x, w) == K.kl_oracle(x, w), (x, w)
    rng = random.Random(42)
    perms6 = P.sn(6)
    tops = [rng.choice(perms6) for _ in range(50)]
    pairs = 0
    for w in tops:
        for _ in range(10):
            x = rng.choice(perms6)
            assert K.kl_polynomial(x, w) == K.kl_oracle(x, w), (x, w)
            pairs += 1
    elapsed = time.perf_counter() - t0
    report(12, f"recursion equals bar-invariance oracle on S_5 and {pairs} S_6 pairs", elapsed)


def test_criterion_13_decomposition_counts():
    t0 = time.perf_counter()
    total = 0
    for k in range(1, 5):
        for Mx in R.all_coset_matrices(k, 2):
            decs = KI.birkhoff_decompositions(Mx)
            r = sum(1 for c in KI._row_classes(Mx) if len(c) > 1)
            assert len(decs) == 2**r, Mx
            assert len({P.sign(s1) * P.sign(s2) for s1, s2 in decs}) == 1, Mx
            total += 1
    assert KI.latin_square_delta(3) == 0
    elapsed = time.perf_counter() - t0
    report(13, f"2^r decomposition counts and class constancy on {total} matrices", elapsed)


def test_criterion_14_rank_agreement_predicate():
    t0 = time.perf_counter()
    for k in range(2, 7):
        assert KI.tight_violations(k) == [], k
    elapsed = time.perf_counter() - t0
    report(14, "rank-agreement predicate exhaustive for k <= 6", elapsed)
