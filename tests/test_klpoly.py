import itertools
import os
import random
import struct

import pytest

from squareirr import klpoly as K
from squareirr import perm as P


def test_polynomial_value_type():
    p = K.KLPolynomial((1, 1, 2))
    assert str(p) == "1 + q + 2q^2"
    assert p(1) == 4
    assert p.to_json() == [1, 1, 2]
    assert K.KLPolynomial((1, 0, 0)) == K.KLPolynomial((1,))
    assert str(K.ZERO) == "0"


def test_trivial_values():
    for w in P.all_perms(4):
        assert K.kl_polynomial(w, w) == K.ONE
    assert K.kl_polynomial((1, 2, 3), (1, 3, 2)) == K.ONE  # simple reflection
    assert K.kl_polynomial((2, 1, 3), (1, 3, 2)) == K.ZERO  # incomparable


def test_leclerc_pair_value():
    p = K.kl_polynomial((1, 2, 4, 3), (4, 2, 3, 1))
    assert p(1) != 1
    assert p == K.KLPolynomial((1, 1))
    assert K.kl_at_one((1, 2, 4, 3), (4, 2, 3, 1)) == 2


def test_size_mismatch():
    with pytest.raises(ValueError):
        K.kl_polynomial((1, 2), (1, 2, 3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_recursion_matches_oracle_exhaustively(n):
    for x in P.all_perms(n):
        for w in P.all_perms(n):
            assert K.kl_polynomial(x, w) == K.kl_oracle(x, w), (x, w)


def test_oracle_trivial_cases():
    assert K.kl_oracle((2, 1, 4, 3), (1, 2, 4, 3)) == K.ZERO
    assert K.kl_oracle((1, 2, 3, 4), (3, 4, 1, 2)) == K.kl_polynomial(
        (1, 2, 3, 4), (3, 4, 1, 2)
    )
    with pytest.raises(ValueError):
        K.kl_oracle(tuple(range(1, 8)), tuple(range(1, 8)))


def test_smooth_pairs_have_unit_polynomials():
    for k in (3, 4, 5):
        perms = list(P.all_perms(k))
        for sigma in perms:
            for sigma0 in perms:
                if not P.bruhat_leq(sigma0, sigma):
                    continue
                if P.smooth_pair_data(sigma0, sigma).is_smooth:
                    assert K.kl_at_one(sigma0, sigma) == 1
                    # and the whole upper interval is unit
                    for sp in perms:
                        if P.bruhat_leq(sigma0, sp) and P.bruhat_leq(sp, sigma):
                            assert K.kl_at_one(sp, sigma) == 1


def test_coefficients_nonnegative_and_degree_bounded():
    rng = random.Random(0)
    perms = list(P.all_perms(5))
    for _ in range(500):
        x = rng.choice(perms)
        w = rng.choice(perms)
        p = K.kl_polynomial(x, w)
        assert all(c >= 0 for c in p.coeffs)
        if p.coeffs:
            assert p.coeffs[0] == 1
            if x != w:
                assert 2 * p.degree <= P.length(w) - P.length(x) - 1


def test_symmetries():
    perms = list(P.all_perms(5))
    rng = random.Random(1)
    w0 = P.longest_element(5)
    for _ in range(200):
        x = rng.choice(perms)
        w = rng.choice(perms)
        p = K.kl_polynomial(x, w)
        assert p == K.kl_polynomial(P.inverse(x), P.inverse(w))
        conj = lambda u: P.compose(w0, P.compose(u, w0))
        assert p == K.kl_polynomial(conj(x), conj(w))


def test_full_table_mode():
    table = K.kl_table(4)
    for (x, w), poly in table.items():
        assert P.bruhat_leq(x, w)
        assert poly == K.kl_polynomial(x, w)
    comparable = sum(
        1 for x in P.all_perms(4) for w in P.all_perms(4) if P.bruhat_leq(x, w)
    )
    assert len(table) == comparable
    with pytest.raises(ValueError):
        K.kl_table(7)


def test_cache_roundtrip(tmp_path):
    # populate a few nontrivial columns, save, wipe, reload
    K.kl_polynomial((1, 2, 3, 4, 5), (5, 3, 4, 2, 1))
    path = os.fspath(tmp_path / "kl.cache")
    saved = K.save_cache(path)
    assert saved >= 1
    ctx = K._ctx(5)
    before = dict(ctx._cols)
    ctx._cols.clear()
    loaded = K.load_cache(path)
    assert loaded == saved
    for w, col in before.items():
        assert ctx._cols.get(w) == col

    with pytest.raises(ValueError):
        bad = tmp_path / "bad.cache"
        bad.write_bytes(b"nope")
        K.load_cache(os.fspath(bad))


def test_truncated_cache_never_loads_a_different_column(tmp_path, monkeypatch):
    # a small real cache: only the S_4 columns these two pairs need
    monkeypatch.setattr(K, "_contexts", {})
    K.kl_polynomial((1, 3, 2, 4), (3, 4, 1, 2))
    K.kl_polynomial((1, 2, 4, 3), (4, 2, 3, 1))
    path = tmp_path / "kl.cache"
    saved = K.save_cache(os.fspath(path))
    ctx = K._ctx(4)
    original = dict(ctx._cols)
    assert any(original.values())
    data = path.read_bytes()
    cut = tmp_path / "cut.cache"
    outcomes = {"ValueError": 0, "loaded": 0}
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        ctx._cols.clear()
        try:
            loaded = K.load_cache(os.fspath(cut))
        except ValueError:
            assert not ctx._cols, size
            outcomes["ValueError"] += 1
            continue
        assert loaded < saved
        for w, col in ctx._cols.items():
            assert col == original[w], size
        outcomes["loaded"] += 1
    assert outcomes["ValueError"] and outcomes["loaded"]


def test_cache_record_without_constant_term_one_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(K, "_contexts", {})
    w = K._ctx(4).index[(3, 4, 1, 2)]
    x = K._ctx(4).index[(1, 3, 2, 4)]
    head = b"SQKL" + struct.pack("<H", 1) + struct.pack("<BII", 4, w, 1)
    for packed in (b"\x00", b"\x02", b"\x00\x00\x01"):
        path = tmp_path / "forged.cache"
        path.write_bytes(head + struct.pack("<IH", x, len(packed)) + packed)
        with pytest.raises(ValueError, match="corrupt KL cache record"):
            K.load_cache(os.fspath(path))
    assert w not in K._ctx(4)._cols


def _interval_below_by_scan(ctx, w):
    """The O(n!) scan interval_below replaced, kept as the reference."""
    rw = ctx.rank[w]
    lw = ctx.length[w]
    out = [
        x
        for x in range(ctx.N)
        if ctx.length[x] <= lw and ((ctx.rank[x] | ctx.HI) - rw) & ctx.HI == ctx.HI
    ]
    out.sort(key=ctx.length.__getitem__, reverse=True)
    return out


def test_interval_below_matches_scan():
    # every w in S_1..S_6, then 500 seeded w each in S_7 and S_8; order included
    for n in range(1, 7):
        ctx = K._ctx(n)
        for w in range(ctx.N):
            assert ctx.interval_below(w) == _interval_below_by_scan(ctx, w), (n, w)
    rng = random.Random(4)
    for n in (7, 8):
        ctx = K._ctx(n)
        for w in rng.sample(range(ctx.N), 500):
            assert ctx.interval_below(w) == _interval_below_by_scan(ctx, w), (n, w)


def _per_permutation_entries(n, index, p):
    """
    length, rmul, lmul, inv, conj and rank at p, by the per-permutation
    construction the tables replaced, kept as the reference.
    """
    length = sum(1 for i, j in itertools.combinations(range(n), 2) if p[i] > p[j])
    rmul = []
    lmul = []
    for i in range(n - 1):
        q = list(p)
        q[i], q[i + 1] = q[i + 1], q[i]
        rmul.append(index[tuple(q)])
        q = [i + 2 if v == i + 1 else i + 1 if v == i + 2 else v for v in p]
        lmul.append(index[tuple(q)])
    inv = index[tuple(sorted(range(1, n + 1), key=lambda v: p[v - 1]))]
    conj = index[tuple(n + 1 - p[n - 1 - j] for j in range(n))]
    rank = 0
    counts = [0] * n
    for i in range(n):
        for j in range(p[i] - 1, n):
            counts[j] += 1
        for j in range(n):
            rank |= counts[j] << (8 * (n * i + j))
    return length, rmul, lmul, inv, conj, rank


def test_symcontext_tables_match_per_permutation_build():
    # every entry for n = 0..7 (`decide 0` reaches S_0; S_1 has rank [1]),
    # then 2,000 seeded w in S_8
    rng = random.Random(5)
    for n in range(9):
        perms = list(itertools.permutations(range(1, n + 1)))
        index = {p: i for i, p in enumerate(perms)}
        ctx = K._SymContext(n)
        assert ctx.perms == perms and ctx.index == index and ctx.N == len(perms)
        assert ctx.HI == int.from_bytes(b"\x80" * (n * n), "little")
        assert len(ctx.rmul) == len(ctx.lmul) == max(n - 1, 0)
        tables = [ctx.length, ctx.inv, ctx.conj, ctx.rank, *ctx.rmul, *ctx.lmul]
        assert all(len(t) == ctx.N for t in tables)
        for w in range(ctx.N) if n < 8 else rng.sample(range(ctx.N), 2000):
            got = (
                ctx.length[w],
                [r[w] for r in ctx.rmul],
                [l[w] for l in ctx.lmul],
                ctx.inv[w],
                ctx.conj[w],
                ctx.rank[w],
            )
            assert got == _per_permutation_entries(n, index, perms[w]), (n, w)
    assert K._SymContext(1).rank == [1]


def _refuse_to_build(n):
    pytest.fail(f"built the S_{n} context")


def test_table_rank_bound_is_checked_before_building(monkeypatch):
    monkeypatch.setattr(K, "_contexts", {})
    monkeypatch.setattr(K, "_SymContext", _refuse_to_build)
    n = K.MAX_TABLE_RANK + 1
    with pytest.raises(ValueError, match=rf"S_{n} .*MAX_TABLE_RANK = {K.MAX_TABLE_RANK}"):
        K._ctx(n)
    with pytest.raises(ValueError, match="MAX_TABLE_RANK"):
        K.kl_at_one(P.identity(n), P.longest_element(n))
    assert K._contexts == {}


def test_cache_record_beyond_table_rank_is_rejected(tmp_path, monkeypatch):
    monkeypatch.setattr(K, "_contexts", {})
    w = K._ctx(4).index[(3, 4, 1, 2)]
    monkeypatch.setattr(K, "_SymContext", _refuse_to_build)
    good = struct.pack("<BII", 4, w, 0)
    big = struct.pack("<BII", K.MAX_TABLE_RANK + 1, 0, 0)
    path = tmp_path / "big.cache"
    path.write_bytes(b"SQKL" + struct.pack("<H", 1) + good + big)
    with pytest.raises(ValueError, match="exceeds MAX_TABLE_RANK"):
        K.load_cache(os.fspath(path))
    assert w not in K._ctx(4)._cols
    assert set(K._contexts) == {4}
