import itertools
import json
import os
import random
import struct
import subprocess
import sys

import pytest

from squareirr import klidentity as KI
from squareirr import klpoly as K
from squareirr import perm as P
from squareirr.klidentity import CosetMatrix, _latin_squares, min_rep
from squareirr.perm import Perm

import reference as R


def double_coset_leq(M1: CosetMatrix, M2: CosetMatrix) -> bool:
    """Order on double cosets through minimal-length representatives."""
    return P.bruhat_leq(min_rep(M1), min_rep(M2))


def latin_square_count(m: int) -> int:
    """Number of Latin squares of order m (same enumeration, unsigned)."""
    return sum(1 for _ in _latin_squares(m))


def tight_predicate(sigma0: Perm, sigma: Perm, tau: Perm) -> bool:
    """
    If tau matches the rank function of sigma wherever sigma0 does, then
    tau <= sigma; this function evaluates the implication for one tau.
    """
    r0 = R.rank_matrix(sigma0)
    rs = R.rank_matrix(sigma)
    rt = R.rank_matrix(tau)
    k = len(sigma)
    agrees = all(
        rt[i][j] == rs[i][j]
        for i in range(k)
        for j in range(k)
        if r0[i][j] == rs[i][j]
    )
    if not agrees:
        return True
    return P.bruhat_leq(tau, sigma)


def _compose(u, v):
    """(u * v)(i) = u(v(i))."""
    return tuple(u[x - 1] for x in v)


def _block_subgroup(k, m):
    """All elements of the block-diagonal subgroup of S_{mk}, with signs."""
    blocks = list(itertools.permutations(range(1, m + 1)))
    out = []
    for combo in itertools.product(blocks, repeat=k):
        word = []
        sgn = 1
        for i, pi in enumerate(combo):
            base = m * i
            word.extend(base + v for v in pi)
            sgn *= P.sign(pi)
        out.append((tuple(word), sgn))
    return out


def test_coset_matrix_examples():
    assert KI.coset_matrix((1, 2, 3, 4), 2).entries == ((2, 0), (0, 2))
    st = P.inflate((2, 1), 2)
    assert KI.coset_matrix(st, 2).entries == ((0, 2), (2, 0))
    w = KI.iota(((1, 2), (2, 1)))
    assert w == (1, 4, 3, 2)
    assert KI.coset_matrix(w, 2).entries == ((1, 1), (1, 1))
    with pytest.raises(ValueError):
        KI.coset_matrix((1, 2, 3), 2)


@pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3)])
def test_coset_matrix_classifies_double_cosets(n, m):
    # constant on each double coset, and different cosets get different matrices
    k = n // m
    subgroup = [h for h, _ in _block_subgroup(k, m)]
    buckets = {}
    for w in P.all_perms(n):
        buckets.setdefault(KI.coset_matrix(w, m), set()).add(w)
    for M, members in buckets.items():
        w = next(iter(members))
        coset = {
            _compose(h1, _compose(w, h2)) for h1 in subgroup for h2 in subgroup
        }
        assert coset == members


@pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3)])
def test_min_rep_is_bruhat_minimum(n, m):
    buckets = {}
    for w in P.all_perms(n):
        buckets.setdefault(KI.coset_matrix(w, m), []).append(w)
    for M, members in buckets.items():
        rep = KI.min_rep(M)
        assert rep in members
        for w in members:
            assert P.bruhat_leq(rep, w)


def test_min_rep_spot_check_s8():
    rng = random.Random(0)
    perms8 = list(itertools.permutations(range(1, 9)))
    for _ in range(300):
        w = rng.choice(perms8)
        M = KI.coset_matrix(w, 2)
        assert P.bruhat_leq(KI.min_rep(M), w)


def test_all_coset_matrices_counts():
    assert sum(1 for _ in R.all_coset_matrices(2, 2)) == 3
    assert sum(1 for _ in R.all_coset_matrices(3, 2)) == 21
    assert sum(1 for _ in R.all_coset_matrices(4, 2)) == 282
    ms = set(R.all_coset_matrices(3, 3))
    assert all(
        all(sum(row) == 3 for row in M.entries)
        and all(sum(col) == 3 for col in zip(*M.entries))
        for M in ms
    )


def test_birkhoff_examples():
    eye = CosetMatrix(((2, 0), (0, 2)), 2)
    assert KI.birkhoff_decompositions(eye) == [((1, 2), (1, 2))]
    J = CosetMatrix(((1, 1), (1, 1)), 2)
    decs = KI.birkhoff_decompositions(J)
    assert sorted(decs) == [((1, 2), (2, 1)), ((2, 1), (1, 2))]


@pytest.mark.parametrize("k", [2, 3])
def test_birkhoff_count_and_class_constancy(k):
    for M in R.all_coset_matrices(k, 2):
        decs = KI.birkhoff_decompositions(M)
        r = sum(1 for c in KI._row_classes(M) if len(c) > 1)
        assert len(decs) == 2**r
        signs = {P.sign(s1) * P.sign(s2) for s1, s2 in decs}
        assert len(signs) == 1
        assert KI.class_value(M) == sum(P.sign(KI.iota(d)) for d in decs)


def test_class_value_examples():
    assert KI.class_value(CosetMatrix(((2, 0), (0, 2)), 2)) == 1
    assert KI.class_value(CosetMatrix(((1, 1), (1, 1)), 2)) == -2
    M3 = KI.coset_matrix(KI.iota(((1, 2, 3), (2, 3, 1))), 2)
    assert KI.class_value(M3) == 2
    with pytest.raises(ValueError):
        KI.class_value(CosetMatrix(((3, 0), (0, 3)), 3))


def test_verify_klidnt_k2():
    rep = KI.verify_klidnt((1, 2), (2, 1))
    assert rep.passed
    by_matrix = {c.matrix.entries: (c.lhs, c.rhs) for c in rep.cosets}
    assert by_matrix[((0, 2), (2, 0))] == (1, 1)
    assert by_matrix[((1, 1), (1, 1))] == (-2, -2)
    assert all(p.total == 1 for p in rep.parabolic)


def test_verify_klidnt_k3_all_pairs():
    count = 0
    for sigma in P.all_perms(3):
        for sigma0 in P.all_perms(3):
            if not P.bruhat_leq(sigma0, sigma):
                continue
            if not P.is_213_avoiding(sigma0):
                continue
            if not P.smooth_pair_data(sigma0, sigma).is_smooth:
                continue
            rep = KI.verify_klidnt(sigma0, sigma)
            count += 1
            assert rep.passed, (sigma0, sigma)
    assert count == 15


def test_verify_klidnt_hypotheses():
    with pytest.raises(ValueError):
        KI.verify_klidnt((2, 1, 4, 3), (4, 2, 3, 1))  # pair is not smooth
    with pytest.raises(ValueError):
        KI.verify_klidnt((1, 3, 2, 4), (4, 2, 3, 1))  # also not smooth
    with pytest.raises(ValueError):
        KI.verify_klidnt((1, 2), (2, 1, 3))


def test_verify_higher_matches_klidnt_at_width_two():
    a = KI.verify_klidnt((1, 2, 3), (3, 2, 1))
    b = KI.verify_higher((1, 2, 3), (3, 2, 1), 2)
    assert [c.to_json() for c in a.cosets] == [c.to_json() for c in b.cosets]


def test_verify_higher_k2_m3():
    rep = KI.verify_higher((1, 2), (2, 1), 3)
    assert rep.passed
    assert rep.m == 3
    rep = KI.verify_higher((1, 2), (1, 2), 3)
    assert rep.passed


def test_verify_higher_k2_m4():
    rep = KI.verify_higher((1, 2), (2, 1), 4)
    assert rep.passed


def test_verify_higher_bounds():
    with pytest.raises(ValueError):
        KI.verify_higher((1, 2), (2, 1), 5)
    with pytest.raises(ValueError):
        KI.verify_higher((1, 2, 3), (1, 2, 3), 3)  # 9 letters needs the opt-in


def test_sign_not_constant_on_width3_intersections():
    # for width 3 the sign varies inside some block-coset meet with the grid
    found = False
    for M in R.all_coset_matrices(3, 3):
        signs = {P.sign(KI.iota(d)) for d in KI.birkhoff_decompositions(M)}
        if len(signs) == 2:
            found = True
            break
    assert found


def test_latin_squares():
    assert KI.latin_square_delta(1) == 1
    assert KI.latin_square_delta(2) == 2
    assert KI.latin_square_delta(3) == 0
    assert KI.latin_square_delta(4) == 576
    assert latin_square_count(3) == 12
    assert latin_square_count(4) == 576
    with pytest.raises(ValueError):
        KI.latin_square_delta(5)


def test_latin_delta_matches_signed_decompositions():
    for m in (2, 3):
        J = CosetMatrix(tuple(tuple(1 for _ in range(m)) for _ in range(m)), m)
        signed = sum(P.sign(KI.iota(d)) for d in KI.birkhoff_decompositions(J))
        assert signed == (-1) ** (m * (m - 1) // 2) * KI.latin_square_delta(m)


def test_report_json_shape():
    rep = KI.verify_klidnt((1, 2), (2, 1)).to_json()
    assert rep["pass"] is True
    assert all(set(c) == {"coset_matrix", "lhs", "rhs", "pass"} for c in rep["cosets"])
    assert all(set(p) == {"sigma_prime", "sum", "pass"} for p in rep["parabolic_sums"])


@pytest.mark.parametrize("k", [2, 3])
def test_double_coset_order_consistency(k):
    # the rank-sum characterization agrees with minimal representatives
    n = 2 * k
    for s1 in P.all_perms(k):
        for s2 in P.all_perms(k):
            M = KI.coset_matrix(KI.iota((s1, s2)), 2)
            for sigma in P.all_perms(k):
                st = P.inflate(sigma, 2)
                by_minrep = double_coset_leq(M, KI.coset_matrix(st, 2))
                r1, r2, rs = (
                    R.rank_matrix(s1),
                    R.rank_matrix(s2),
                    R.rank_matrix(sigma),
                )
                by_ranks = all(
                    r1[i][j] + r2[i][j] >= 2 * rs[i][j]
                    for i in range(k)
                    for j in range(k)
                )
                assert by_minrep == by_ranks, (s1, s2, sigma)


def test_dblsame_property():
    # smooth pair plus coset domination forces both factors below
    for k in (2, 3):
        for sigma in P.all_perms(k):
            for sigma0 in P.all_perms(k):
                if not P.bruhat_leq(sigma0, sigma):
                    continue
                if not P.smooth_pair_data(sigma0, sigma).is_smooth:
                    continue
                Mtop = KI.coset_matrix(P.inflate(sigma, 2), 2)
                for s1 in P.all_perms(k):
                    if not P.bruhat_leq(sigma0, s1):
                        continue
                    for s2 in P.all_perms(k):
                        if not P.bruhat_leq(sigma0, s2):
                            continue
                        M = KI.coset_matrix(KI.iota((s1, s2)), 2)
                        if double_coset_leq(M, Mtop):
                            assert P.bruhat_leq(s1, sigma)
                            assert P.bruhat_leq(s2, sigma)


def test_dblsame_property_k4():
    # k = 4 exhaustively through the rank-sum form of coset domination
    # (proved equivalent to the minimal-representative order at k <= 3 above),
    # plus random cross-checks of that equivalence at k = 4
    import numpy as np

    k = 4
    perms = list(P.all_perms(k))
    ranks = {w: np.array(R.rank_matrix(w), dtype=np.int16) for w in perms}
    rng = random.Random(3)
    cross_checked = 0
    for sigma in perms:
        below = [s0 for s0 in perms if P.bruhat_leq(s0, sigma)]
        smooth_lows = [
            s0 for s0 in below if P.smooth_pair_data(s0, sigma).is_smooth
        ]
        if not smooth_lows:
            continue
        rs2 = 2 * ranks[sigma]
        for sigma0 in smooth_lows:
            above0 = [s for s in perms if P.bruhat_leq(sigma0, s)]
            for s1 in above0:
                for s2 in above0:
                    dominated = bool(((ranks[s1] + ranks[s2]) >= rs2).all())
                    if dominated:
                        assert P.bruhat_leq(s1, sigma) and P.bruhat_leq(s2, sigma)
                    if rng.random() < 0.002:
                        M = KI.coset_matrix(KI.iota((s1, s2)), 2)
                        Mtop = KI.coset_matrix(P.inflate(sigma, 2), 2)
                        assert double_coset_leq(M, Mtop) == dominated
                        cross_checked += 1
    assert cross_checked > 20


def test_identity_fails_without_213_avoidance():
    # negative control: a smooth pair whose lower element contains 213 breaks
    # the closed form on some cosets, so the hypothesis is doing real work
    s, s0 = (4, 2, 3, 1), (1, 3, 2, 4)
    assert P.smooth_pair_data(s0, s).is_smooth and not P.is_213_avoiding(s0)
    checks = KI._coset_sums(s0, s, 2)
    assert any(not c.ok for c in checks)


def test_tight_predicate_small():
    assert tight_predicate((1, 2, 4, 3), (4, 2, 3, 1), (3, 4, 1, 2)) in (True, False)
    for k in (2, 3, 4):
        assert KI.tight_violations(k) == []


def _every_pair_smooth(monkeypatch):
    """Drop the smoothness filter of tight_violations: violations then exist."""
    monkeypatch.setattr(P, "smooth_pair_data", lambda sigma0, sigma: P.SmoothPairData(0, 0, True))


@pytest.mark.parametrize("k,count", [(2, 0), (3, 0), (4, 16), (5, 2896)])
def test_tight_scan_without_smoothness_equals_the_tables(k, count, monkeypatch):
    # the pruned scan over masks against numpy's scan of every sigma0 <= sigma
    _every_pair_smooth(monkeypatch)
    got = KI.tight_violations(k)
    assert len(got) == count
    assert got == R.tight_violations_by_tables(k)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tight_scan_without_smoothness_equals_the_predicate(k, monkeypatch):
    _every_pair_smooth(monkeypatch)
    perms = P.sn(k)
    want = [
        (sigma0, sigma, tau)
        for sigma in perms
        for sigma0 in perms
        if P.bruhat_leq(sigma0, sigma)
        for tau in perms
        if not tight_predicate(sigma0, sigma, tau)
    ]
    assert KI.tight_violations(k) == want


def _packed_at_one_by_loop(packed):
    val = 0
    while packed:
        val += packed & 0xFFFF
        packed >>= 16
    return val


_reference_buckets = {}


def _coset_sums_by_kl_packed(sigma0, sigma, m):
    """The kl_packed route _coset_sums replaced, kept as the reference."""
    n = m * len(sigma)
    ctx = K._ctx(n)
    if (n, m) not in _reference_buckets:
        buckets = {}
        for idx, w in enumerate(P.all_perms(n)):
            buckets.setdefault(KI.coset_matrix(w, m), []).append(idx)
        _reference_buckets[(n, m)] = buckets
    st_idx = P.lehmer_index(P.inflate(sigma, m))
    st0_idx = P.lehmer_index(P.inflate(sigma0, m))
    checks = []
    for M, members in sorted(_reference_buckets[(n, m)].items()):
        rep_idx = P.lehmer_index(KI.min_rep(M))
        if not (ctx.leq(st0_idx, rep_idx) and ctx.leq(rep_idx, st_idx)):
            continue
        lhs = 0
        for w_idx in members:
            if ctx.leq(w_idx, st_idx):
                val = _packed_at_one_by_loop(ctx.kl_packed(w_idx, st_idx))
                lhs += -val if ctx.length[w_idx] % 2 else val
        if m == 2:
            rhs = KI.class_value(M)
        else:
            rhs = sum(P.sign(KI.iota(d)) for d in KI.birkhoff_decompositions(M))
        checks.append(KI.CosetCheck(M, lhs, rhs))
    return checks


def _parabolic_sums_by_kl_packed(sigma0, sigma, m):
    """The kl_packed route _parabolic_sums replaced, kept as the reference."""
    k = len(sigma)
    ctx = K._ctx(m * k)
    st_idx = P.lehmer_index(P.inflate(sigma, m))
    out = []
    for sp in P.all_perms(k):
        if not (P.bruhat_leq(sigma0, sp) and P.bruhat_leq(sp, sigma)):
            continue
        spt = P.inflate(sp, m)
        total = 0
        for h, sgn in _block_subgroup(k, m):
            w_idx = P.lehmer_index(_compose(spt, h))
            total += sgn * _packed_at_one_by_loop(ctx.kl_packed(w_idx, st_idx))
        out.append(KI.ParityCheck(sp, total))
    return out


def _identity_pairs(ks):
    """Smooth pairs (sigma0, sigma) with 213-avoiding sigma0."""
    return [
        (s0, s)
        for k in ks
        for s0 in P.all_perms(k)
        if P.is_213_avoiding(s0)
        for s in P.all_perms(k)
        if P.bruhat_leq(s0, s) and P.smooth_pair_data(s0, s).is_smooth
    ]


def test_coset_sums_read_off_one_column_match_kl_packed_route():
    pairs = _identity_pairs((3, 4))
    assert len(pairs) == 117
    for s0, s in pairs:
        got = KI.verify_klidnt(s0, s)
        want = KI.IdentityReport(
            s, s0, 2, _coset_sums_by_kl_packed(s0, s, 2), _parabolic_sums_by_kl_packed(s0, s, 2)
        )
        assert got.to_json() == want.to_json(), (s0, s)
    for m in (3, 4):
        for s0, s in _identity_pairs((2,)):
            got = KI.verify_higher(s0, s, m)
            want = KI.IdentityReport(
                s, s0, m, _coset_sums_by_kl_packed(s0, s, m), _parabolic_sums_by_kl_packed(s0, s, m)
            )
            assert got.to_json() == want.to_json(), (m, s0, s)


def _weight(x):
    """A value at 1 for the element of index x: one 16-bit limb, not linear in the Lehmer digits."""
    return x * x % 65521


class _IndexWeights(dict):
    """A stand-in column whose entry at x has the value _weight(x) at 1."""

    def get(self, x, default=None):
        return _weight(x)


@pytest.mark.parametrize("k,m", [(2, 2), (3, 2), (4, 2), (2, 3), (2, 4)])
def test_parabolic_sums_walk_each_coset_of_the_block_subgroup(k, m, monkeypatch):
    # the identity reports stay right with some elements of a coset missing
    # (at k = 2, m = 4 a coset grown from s0 s1 s2 s0 s1 in each block gives
    # the same sums), so weight every element by its own index and compare
    # with the signed sum over _block_subgroup (a weight linear in the digits
    # sums to 0 over both)
    ctx = K._ctx(m * k)
    # tag 0 and a lift that keeps every key: the stand-in is read at x itself
    monkeypatch.setattr(ctx, "col", lambda w: (0, range(ctx.N), _IndexWeights()))
    sigma0, sigma = P.identity(k), R.longest_element(k)
    st_idx = P.lehmer_index(P.inflate(sigma, m))
    want = []
    for sp in P.all_perms(k):
        spt = P.inflate(sp, m)
        total = 0
        for h, sgn in _block_subgroup(k, m):
            w_idx = P.lehmer_index(_compose(spt, h))
            if ctx.leq(w_idx, st_idx):
                total += sgn * _weight(w_idx)
        want.append(KI.ParityCheck(sp, total))
    assert KI._parabolic_sums(sigma0, sigma, m) == want


@pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3), (8, 2)])
def test_group_buckets_hold_min_rep_index(n, m):
    ctx = K._ctx(n)
    buckets = KI._group_buckets(n, m)
    assert [M for M, _, _ in buckets] == sorted(M for M, _, _ in buckets)
    assert sorted(i for _, _, members in buckets for i in members) == list(range(ctx.N))
    for M, rep_idx, members in buckets:
        assert rep_idx == P.lehmer_index(KI.min_rep(M))
        assert all(KI.coset_matrix(P.from_lehmer(n, i), m) == M for i in members)


@pytest.mark.parametrize("n,m", [(6, 2), (8, 2)])
def test_group_buckets_match_per_permutation_grouping(n, m, monkeypatch):
    # the coset_matrix call per permutation _group_buckets replaced, as the
    # reference; a fresh bucket cache forces a rebuild
    monkeypatch.setattr(KI, "_buckets_cache", {})
    members = {}
    for idx, w in enumerate(P.all_perms(n)):
        members.setdefault(KI.coset_matrix(w, m), []).append(idx)
    want = [(M, P.lehmer_index(KI.min_rep(M)), ws) for M, ws in sorted(members.items())]
    assert KI._group_buckets(n, m) == want


def _fresh_stores(monkeypatch):
    """Empty the bucket cache, the signed-sum memo and the S_n contexts."""
    monkeypatch.setattr(KI, "_buckets_cache", {})
    monkeypatch.setattr(KI, "_sums_cache", {})
    monkeypatch.setattr(K, "_contexts", {})


def test_signed_sum_memo_does_not_depend_on_the_order_of_pairs(monkeypatch):
    pairs = _identity_pairs((3, 4))
    _fresh_stores(monkeypatch)
    forward = {pair: KI.verify_klidnt(*pair).to_json() for pair in pairs}
    _fresh_stores(monkeypatch)
    backward = {pair: KI.verify_klidnt(*pair).to_json() for pair in reversed(pairs)}
    assert backward == forward
    # where the identity holds every coset sum is its closed form, whatever st
    # is; on all comparable pairs a sum kept for the wrong st would show
    pairs = [(s0, s) for k in (3, 4) for s in P.all_perms(k) for s0 in P.all_perms(k) if P.bruhat_leq(s0, s)]
    _fresh_stores(monkeypatch)
    forward = {pair: (KI._coset_sums(*pair, 2), KI._parabolic_sums(*pair, 2)) for pair in pairs}
    _fresh_stores(monkeypatch)
    backward = {pair: (KI._coset_sums(*pair, 2), KI._parabolic_sums(*pair, 2)) for pair in reversed(pairs)}
    assert backward == forward


_VERIFY_AFTER_LOAD = """
import json, sys
from squareirr import klidentity, klpoly
klpoly.load_cache(sys.argv[1])
print(json.dumps(klidentity.verify_klidnt((1, 2, 3, 4), (2, 3, 1, 4)).to_json()))
"""


def test_signed_sum_memo_follows_a_column_replaced_by_load_cache(tmp_path, monkeypatch):
    # the memo holds the sums of st's column; a file with that column, one
    # entry raised by q, replaces it, and the report must read the new column
    # as a fresh process that loads the file first does
    _fresh_stores(monkeypatch)
    s0, s = (1, 2, 3, 4), (2, 3, 1, 4)
    before = KI.verify_klidnt(s0, s).to_json()
    ctx = K._ctx(8)
    wc, _ = ctx._canon(P.lehmer_index(P.inflate(s, 2)))
    entries = sorted(ctx.col(wc)[2].items())
    entries[0] = (entries[0][0], entries[0][1] + (1 << 16))
    record = struct.pack("<BII", 8, wc, len(entries))
    for x, packed in entries:
        blob = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
        record += struct.pack("<IH", x, len(blob)) + blob
    path = tmp_path / "kl.bin"
    path.write_bytes(b"SQKL" + struct.pack("<H", 1) + record)
    assert K.load_cache(os.fspath(path)) == 1
    after = KI.verify_klidnt(s0, s).to_json()
    assert after != before
    src = os.path.dirname(os.path.dirname(KI.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _VERIFY_AFTER_LOAD, os.fspath(path)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == after
