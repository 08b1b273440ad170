import itertools
import math
import os
import random
import struct

import pytest

from squareirr import klpoly as K
from squareirr import perm as P

import reference as R


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
    w0 = R.longest_element(5)
    for _ in range(200):
        x = rng.choice(perms)
        w = rng.choice(perms)
        p = K.kl_polynomial(x, w)
        assert p == K.kl_polynomial(P.inverse(x), P.inverse(w))
        conj = lambda u: tuple(w0[v - 1] for v in u[::-1])  # w0 u w0: reverse u, complement its values
        assert p == K.kl_polynomial(conj(x), conj(w))


def kl_table(n):
    """Full table: every comparable pair of S_n (small ranks)."""
    if n > 6:
        raise ValueError("full tables are supported for rank up to S_6")
    ctx = K._ctx(n)
    out = {}
    for wi, w in enumerate(itertools.permutations(range(1, n + 1))):
        for xi in ctx.interval_below(wi):
            poly = K.KLPolynomial(K._packed_to_tuple(ctx.kl_packed(xi, wi)))
            out[(P.from_lehmer(n, xi), w)] = poly
    return out


def test_full_table_mode():
    table = kl_table(4)
    for (x, w), poly in table.items():
        assert P.bruhat_leq(x, w)
        assert poly == K.kl_polynomial(x, w)
    comparable = sum(
        1 for x in P.all_perms(4) for w in P.all_perms(4) if P.bruhat_leq(x, w)
    )
    assert len(table) == comparable
    with pytest.raises(ValueError):
        kl_table(7)


def _read(ctx, x, w):
    """P_{x,w} off the stored column as _SymContext.col says, with no other lifting."""
    tag, lift, entries = ctx.col(w)
    if tag & 1:
        x = ctx.inv[x]
    if tag & 2:
        x = ctx.conj[x]
    return entries.get(max(x, lift[x]), 1)


def _reads(ctx, ws):
    """
    Every P_{x,u} with x <= u, for u each of the four symmetry variants of
    each w, by kl_packed and by _read.
    """
    out = {}
    for w in ws:
        iw = ctx.inv[w]
        for u in (w, iw, ctx.conj[w], ctx.conj[iw]):
            below = ctx.interval_below(u)
            out[u] = [ctx.kl_packed(x, u) for x in below], [_read(ctx, x, u) for x in below]
    return out


def _refuse_to_build_a_column(w):
    pytest.fail(f"built the column of {w}")


def test_cache_roundtrip(tmp_path, monkeypatch):
    # populate nontrivial columns of S_5 and S_6 (canonical and not), save,
    # wipe, reload; every read of every stored class comes back from the file
    monkeypatch.setattr(K, "_contexts", {})
    K.kl_polynomial((1, 2, 3, 4, 5), (5, 3, 4, 2, 1))
    K.kl_polynomial((1, 2, 3, 4, 5, 6), (4, 6, 5, 2, 3, 1))
    K.kl_polynomial((1, 2, 3, 4, 5, 6), (3, 6, 4, 5, 1, 2))
    path = os.fspath(tmp_path / "kl.cache")
    saved = K.save_cache(path)
    ctxs = {n: K._ctx(n) for n in (5, 6)}
    stored = {n: set(ctx._cols) for n, ctx in ctxs.items()}
    assert sum(map(len, stored.values())) == saved
    before = {n: _reads(ctx, stored[n]) for n, ctx in ctxs.items()}
    assert any(p != 1 for reads in before.values() for got, _ in reads.values() for p in got)
    for ctx in ctxs.values():
        ctx._cols.clear()
    loaded = K.load_cache(path)
    assert loaded == saved
    for n, ctx in ctxs.items():
        assert set(ctx._cols) == stored[n]
        monkeypatch.setattr(ctx, "_build", _refuse_to_build_a_column)
        assert _reads(ctx, stored[n]) == before[n], n

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
    original = _reads(ctx, ctx._cols)
    assert any(p != 1 for got, _ in original.values() for p in got)
    monkeypatch.setattr(ctx, "_build", _refuse_to_build_a_column)
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
        got = _reads(ctx, list(ctx._cols))
        assert got == {u: original[u] for u in got}, size
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
                P.lehmer_index(R.apply_transposition(p, i + 1, j + 1))
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
        K.kl_at_one(P.identity(n), R.longest_element(n))
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


class _TwoSidedColumns:
    """
    The column store _SymContext replaced, kept as the reference: a full
    column {x: packed P_{x,w} != 1} for every w, relabelled from the
    canonical one for the other three symmetry variants, and built for a
    canonical w element by element over the sorted [e, w] with a Bruhat test
    per term.  Only the tables of its own S_n context are used.
    """

    def __init__(self, n):
        self.ctx = K._SymContext(n)
        self.cols = {}
        self.mus = {}

    def col(self, w):
        got = self.cols.get(w)
        if got is None:
            ctx = self.ctx
            wc, tag = ctx._canon(w)
            if wc != w:
                base = self.col(wc)
                keys = map(ctx.inv.__getitem__, base) if tag & 1 else base
                got = dict(zip(map(ctx.conj.__getitem__, keys) if tag & 2 else keys, base.values()))
            else:
                got = self._scan(w)
            self.cols[w] = got
        return got

    def mu_list(self, v):
        got = self.mus.get(v)
        if got is None:
            ctx = self.ctx
            got = [(z, 1) for z in ctx.covers(v)]
            for z, p in self.col(v).items():
                d = ctx.length[v] - ctx.length[z]
                if d >= 3 and d % 2 and (p >> (16 * ((d - 1) // 2))) & 0xFFFF:
                    got.append((z, (p >> (16 * ((d - 1) // 2))) & 0xFFFF))
            got.sort(key=lambda t: -ctx.length[t[0]])
            self.mus[v] = got
        return got

    def _scan(self, w):
        ctx = self.ctx
        if ctx.length[w] <= 2 or ctx.smooth(w):
            return {}
        word = P.from_lehmer(ctx.n, w)
        s = next(i for i in range(ctx.n - 1) if word[i] > word[i + 1])
        v = ctx.rmul[s][w]
        colv = self.col(v)
        lw = ctx.length[w]

        def getp(x):
            if x == v:
                return 1
            return colv.get(x, 1) if ctx.leq(x, v) else 0

        terms = []
        for z, mu in self.mu_list(v):
            pz = P.from_lehmer(ctx.n, z)
            if pz[s] > pz[s + 1]:
                terms.append((z, mu << (16 * ((lw - ctx.length[z]) // 2)), ctx.length[z], self.col(z)))
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


def test_build_over_lower_interval_matches_element_scan():
    # every P_{x,w} with x <= w, read through the store (kl_packed, and the
    # column rule alone), against the two-sided reference: every w of S_1 to
    # S_6, then 200 seeded w of S_7 and 30 of S_8; each side builds its own
    # sub-columns
    rng = random.Random(6)
    cases = [(n, range(math.factorial(n))) for n in range(1, 7)]
    cases += [(7, rng.sample(range(5040), 200)), (8, rng.sample(range(40320), 30))]
    for n, ws in cases:
        ref, ctx = _TwoSidedColumns(n), K._SymContext(n)
        for w in ws:
            want = ref.col(w)
            for x in ctx.interval_below(w):
                assert ctx.kl_packed(x, w) == _read(ctx, x, w) == want.get(x, 1), (n, x, w)


def test_store_holds_canonical_one_sided_interned_columns():
    # every column of S_6 and 300 seeded ones of S_7 queried, canonical or not
    rng = random.Random(7)
    for n, ws in ((6, range(720)), (7, rng.sample(range(5040), 300))):
        ctx = K._SymContext(n)
        for w in ws:
            ctx.col(w)
        assert ctx._cols
        for w, (lift, entries) in ctx._cols.items():
            assert ctx._canon(w) == (w, 0), (n, w)
            if entries:
                s = next(i for i in range(n - 1) if ctx.length[ctx.rmul[i][w]] < ctx.length[w])
                assert lift is ctx.rmul[s], (n, w)
            for x, p in entries.items():
                assert ctx.length[lift[x]] < ctx.length[x], (n, w, x)
                assert p != 1 and ctx._polys[p] is p, (n, w, x)


def test_mu_list_matches_full_column_reference_s6():
    ctx = K._SymContext(6)
    for v in range(ctx.N):
        want = []
        for z in ctx.interval_below(v):
            d = ctx.length[v] - ctx.length[z]
            mu = (ctx.kl_packed(z, v) >> (16 * ((d - 1) // 2))) & 0xFFFF if d % 2 else 0
            if mu:
                want.append((z, mu))
        got = ctx.mu_list(v)
        assert sorted(got) == sorted(want), v
        assert [ctx.length[z] for z, _ in got] == sorted((ctx.length[z] for z, _ in got), reverse=True), v


def _forged_cache(path, n, w, x, packed):
    blob = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
    path.write_bytes(
        b"SQKL" + struct.pack("<H", 1) + struct.pack("<BII", n, w, 1) + struct.pack("<IH", x, len(blob)) + blob
    )
    return os.fspath(path)


def _two_sided_cache(path, n, ref, ws):
    """A version-1 cache as the two-sided store wrote it: every entry of each column of ws."""
    data = b"SQKL" + struct.pack("<H", 1)
    for w in ws:
        col = ref.col(w)
        data += struct.pack("<BII", n, w, len(col))
        for x, packed in sorted(col.items()):
            blob = packed.to_bytes((packed.bit_length() + 7) // 8, "little")
            data += struct.pack("<IH", x, len(blob)) + blob
    path.write_bytes(data)
    return os.fspath(path)


def test_two_sided_cache_loads_exactly_or_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(K, "_contexts", {})
    ref = _TwoSidedColumns(5)
    canonical = [w for w in range(120) if ref.ctx._canon(w)[0] == w and ref.col(w)]
    relabelled = next(w for w in range(120) if ref.ctx._canon(w)[0] != w and ref.col(w))
    # canonical two-sided columns load, every partner folded onto its stored x
    path = _two_sided_cache(tmp_path / "two.cache", 5, ref, canonical)
    assert K.load_cache(path) == len(canonical)
    ctx = K._ctx(5)
    monkeypatch.setattr(ctx, "_build", _refuse_to_build_a_column)
    for u, (got, read) in _reads(ctx, canonical).items():
        assert got == read == [ref.col(u).get(x, 1) for x in ctx.interval_below(u)], u
    # a relabelled column is refused, and the message names the version
    ctx._cols.clear()
    path = _two_sided_cache(tmp_path / "two.cache", 5, ref, canonical + [relabelled])
    with pytest.raises(ValueError, match=rf"\(5, {relabelled}\) is for a non-canonical column.*version 1"):
        K.load_cache(path)
    assert not ctx._cols
    # partners that disagree, and a stored 1, are refused
    w = canonical[-1]
    col = ref.col(w)
    lift = ctx.rmul[next(i for i in range(4) if ctx.length[ctx.rmul[i][w]] < ctx.length[w])]
    x = next(x for x in col if lift[x] < x and lift[x] in col)
    for changed, message in (
        ({**col, lift[x]: col[x] + (1 << 16)}, rf"\(5, {w}, {x}\): the partner entry {x} disagrees"),
        ({**col, x: 1}, rf"corrupt KL cache record \(5, {w}, {x}\)$"),
        ({lift[x]: col[x], x: 1}, rf"corrupt KL cache record \(5, {w}, {x}\)$"),
    ):
        monkeypatch.setitem(ref.cols, w, changed)
        path = _two_sided_cache(tmp_path / "two.cache", 5, ref, [w])
        with pytest.raises(ValueError, match=message):
            K.load_cache(path)
    assert not ctx._cols


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
