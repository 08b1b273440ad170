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
        conj = lambda u: tuple(w0[v - 1] for v in u[::-1])  # w0 u w0: reverse u, complement its values
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
    w = P.lehmer_index((3, 4, 1, 2))
    x = P.lehmer_index((1, 3, 2, 4))
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
        assert ctx.N == len(perms)
        for w, p in enumerate(perms):
            assert P.from_lehmer(n, w) == p and P.lehmer_index(p) == w, (n, w)
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


def test_covers_by_two_digits_match_the_swapped_permutation():
    # every v of S_0..S_7: encode each cover in full and compare, order included
    for n in range(8):
        ctx = K._SymContext(n)
        for v in range(ctx.N):
            p = P.from_lehmer(n, v)
            want = [
                P.lehmer_index(P.apply_transposition(p, i + 1, j + 1))
                for i, j in itertools.combinations(range(n), 2)
                if p[i] > p[j] and not any(p[j] < p[l] < p[i] for l in range(i + 1, j))
            ]
            got = ctx.covers(v)
            assert got == want, (n, v)
            assert all(ctx.length[u] == ctx.length[v] - 1 for u in got), (n, v)


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
    K._ctx(4)
    w = P.lehmer_index((3, 4, 1, 2))
    monkeypatch.setattr(K, "_SymContext", _refuse_to_build)
    good = struct.pack("<BII", 4, w, 0)
    big = struct.pack("<BII", K.MAX_TABLE_RANK + 1, 0, 0)
    path = tmp_path / "big.cache"
    path.write_bytes(b"SQKL" + struct.pack("<H", 1) + good + big)
    with pytest.raises(ValueError, match="exceeds MAX_TABLE_RANK"):
        K.load_cache(os.fspath(path))
    assert w not in K._ctx(4)._cols
    assert set(K._contexts) == {4}


def test_recursion_matches_oracle_on_every_comparable_pair_of_s5():
    perms = list(P.all_perms(5))
    pairs = [(x, w) for w in perms for x in perms if P.bruhat_leq(x, w)]
    assert len(pairs) == 3781
    for x, w in pairs:
        assert K.kl_polynomial(x, w) == K.kl_oracle(x, w), (x, w)


def _build_by_element_scan(ctx, w):
    """
    The element-by-element column build _build replaced, kept as the
    reference: walks the sorted [e, w] and tests Bruhat order per term.
    """
    if ctx.length[w] <= 2 or ctx.smooth(w):
        return {}
    word = P.from_lehmer(ctx.n, w)
    s = next(i for i in range(ctx.n - 1) if word[i] > word[i + 1])
    v = ctx.rmul[s][w]
    colv = ctx.col(v)
    lw = ctx.length[w]

    def getp(x):
        if x == v:
            return 1
        return colv.get(x, 1) if ctx.leq(x, v) else 0

    terms = []
    for z, mu in ctx.mu_list(v):
        pz = P.from_lehmer(ctx.n, z)
        if pz[s] > pz[s + 1]:
            terms.append((z, mu << (16 * ((lw - ctx.length[z]) // 2)), ctx.length[z], ctx.col(z)))
    out = {}
    for x in ctx.interval_below(w):
        lx = ctx.length[x]
        if lw - lx <= 2:
            continue
        xs = ctx.rmul[s][x]
        if ctx.length[xs] > lx:
            if out.get(xs, 1) != 1:
                out[x] = out[xs]
            continue
        acc = getp(xs) + (getp(x) << 16)
        for z, shifted_mu, lz, colz in terms:
            if lz < lx:
                break
            if x == z:
                acc -= shifted_mu
            elif ctx.leq(x, z):
                acc -= shifted_mu * colz.get(x, 1)
        if acc != 1:
            out[x] = acc
    return out


def _reference_context(n):
    ctx = K._SymContext(n)
    ctx._build = lambda w: _build_by_element_scan(ctx, w)
    return ctx


def test_build_over_lower_interval_matches_element_scan():
    # every column of S_6, then 200 seeded columns of S_7 and 30 of S_8; each
    # side builds its own sub-columns, and every column either side built is
    # compared
    rng = random.Random(6)
    for n, ws in ((6, range(720)), (7, rng.sample(range(5040), 200)), (8, rng.sample(range(40320), 30))):
        ref, ctx = _reference_context(n), K._SymContext(n)
        for w in ws:
            assert ctx.col(w) == ref.col(w), (n, w)
        assert ctx._cols == ref._cols, n


def _forged_cache(path, n, w, x, packed):
    blob = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    path.write_bytes(
        b"SQKL" + struct.pack("<H", 1) + struct.pack("<BII", n, w, 1) + struct.pack("<IH", x, len(blob)) + blob
    )
    return os.fspath(path)


def test_cache_index_length_is_the_factorial_digit_sum():
    for n in range(8):
        ctx = K._ctx(n)
        assert [sum(P.lehmer_code(n, w)) for w in range(ctx.N)] == ctx.length


def test_cache_record_beyond_degree_bound_or_group_is_rejected(tmp_path, monkeypatch):
    x = P.lehmer_index((1, 3, 2, 4))  # length 1
    w = P.lehmer_index((3, 4, 1, 2))  # length 4
    # checked from the indices alone: no S_n context is built
    monkeypatch.setattr(K, "_contexts", {})
    monkeypatch.setattr(K, "_SymContext", _refuse_to_build)
    q = 1 << 16
    # 1 + q + q^2 has degree 2 > (4 - 1 - 1)/2; x = w and x above w fail the
    # same bound; then indices of 4! or more, as x and as w
    for n, ww, xx, packed in (
        (4, w, x, 1 + q + q * q),
        (4, w, w, 1 + q),
        (4, x, w, 1),
        (4, w, 24, 1),
        (4, 24, x, 1),
        (4, 2**32 - 1, 0, 1),
    ):
        path = _forged_cache(tmp_path / "forged.cache", n, ww, xx, packed)
        with pytest.raises(ValueError, match="corrupt KL cache record"):
            K.load_cache(path)
    assert K._contexts == {}
