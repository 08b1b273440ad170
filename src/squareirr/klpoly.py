"""
Kazhdan-Lusztig polynomials for symmetric groups.

Two independent computation routes:

* ``kl_polynomial`` runs the classical descent recursion, organized by
  columns (all lower indices for a fixed upper index) with a shared memo
  cache, so a single high element does not force a full-group table.
* ``kl_oracle`` builds canonical basis elements of the Hecke algebra by
  solving the triangular bar-invariance system over Laurent polynomials.
  It shares no code with the recursion and serves as a cross-check
  (small ranks only).

Internal representations: group elements are their indices in the
lexicographic order of S_n (``perm.lehmer_index``); polynomials in the
recursion are nonneg-coefficient integers packed 16 bits per degree, which
makes addition and shifting single integer operations.  Coefficients are
exact (Python integers); packing is valid because coefficients at these
ranks stay far below 2**16 and every subtraction has a
coefficientwise-nonnegative result.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
import threading
from typing import Iterable, Optional

from .perm import Perm, check_permutation, from_lehmer, inverse, is_smooth, lehmer_code, lehmer_index

_SHIFT = 16
_MASK = 0xFFFF
_PONE = 1
_PZERO = 0

_CACHE_MAGIC = b"SQKL"
_CACHE_VERSION = 1

#: largest n whose indexed S_n the recursion will build (S_10 holds 3,628,800
#: elements; each further rank multiplies time and memory by n)
MAX_TABLE_RANK = 10


def _packed_to_tuple(p: int) -> tuple[int, ...]:
    out = []
    while p:
        c = p & _MASK
        if c >= 1 << 15:
            raise AssertionError("coefficient approaching the 16-bit limb bound")
        out.append(c)
        p >>= _SHIFT
    return tuple(out)


@functools.lru_cache(maxsize=None)  # interned polynomials are few: 1,117 distinct in S_8
def packed_at_one(p: int) -> int:
    """Value at q = 1 of a packed polynomial: the sum of its coefficients."""
    total = 0
    while p:
        total += p & _MASK
        p >>= _SHIFT
    return total


class KLPolynomial:
    """Integer-coefficient polynomial in q; index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, KLPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"KLPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append("q" if c == 1 else f"{c}q")
            else:
                parts.append(f"q^{d}" if c == 1 else f"{c}q^{d}")
        return " + ".join(parts)

    def to_json(self) -> list[int]:
        return list(self.coeffs)


ONE = KLPolynomial((1,))
ZERO = KLPolynomial(())


# ---------------------------------------------------------------------------
# recursion engine


def _concat_maps(pairs) -> list:
    """The concatenation of map(f, table) over the (f, table) pairs."""
    out: list = []
    for f, table in pairs:
        out += map(f, table)
    return out


def _index_tables(n: int) -> tuple:
    """``length``, ``rmul``, ``lmul``, ``inv`` and ``conj``; see _SymContext."""
    ints = list(range(math.factorial(n)))
    length, rmul, lmul, inv, ins = [0], [], [], [0], [[0]]  # S_1; ins[a] is indexed by S_{m-1}
    for m in range(2, n + 1):
        f0, f1 = math.factorial(m - 1), math.factorial(m - 2)
        # into[c] maps the index r of a tail in S_{m-1} to c_0 (m-1)! + r
        into = [ints[c * f0 : (c + 1) * f0].__getitem__ for c in range(m)]
        ident = ints[:f0]
        swapped = []  # rmul[0]: one block of (m-2)! per first two digits (c_0, c_1)
        for c0 in range(m):
            for c1 in range(m - 1):
                s = (c1 + 1) * f0 + c0 * f1 if c0 <= c1 else c1 * f0 + (c0 - 1) * f1
                swapped += ints[s : s + f1]
        length = _concat_maps((c.__add__, length) for c in range(m))
        rmul = [swapped] + [_concat_maps((f, r) for f in into) for r in rmul]
        lmul = [
            _concat_maps(
                (into[c], lmul[i - 1]) if c < i
                else (into[c], lmul[i]) if c > i + 1
                else (into[2 * i + 1 - c], ident)
                for c in range(m)
            )
            for i in range(m - 1)
        ]
        ins = [ident] + [_concat_maps((f, t) for f in into[1:]) for t in ins]
        inv = _concat_maps((t.__getitem__, inv) for t in ins)
    rev = inv[::-1]
    conj = list(map(rev.__getitem__, rev))
    return length, rmul, lmul, inv, conj


def _rank_table(n: int) -> list[int]:
    """``rank``; see _SymContext."""
    # term[k][v]: one in each cell (i, j) with i >= k and j >= v - 1
    term = [
        [0]
        + [
            int.from_bytes(bytes(n * k) + (bytes(v - 1) + b"\1" * (n - v + 1)) * (n - k), "little")
            for v in range(1, n + 1)
        ]
        for k in range(n)
    ]
    h = max(n - 5, 0)  # tails of 5 entries: the 5! permutations of each head share its sum
    top = int.from_bytes(b"\xff" * (n * h), "little")
    bottom = int.from_bytes(bytes(n * h) + b"\xff" * (n * (n - h)), "little")
    tails: dict[Perm, list[int]] = {}
    rank: list[int] = []
    # heads in lexicographic order; each runs through its (n - h)! tails in order
    for prefix in itertools.permutations(range(1, n + 1), h):
        head = sum(map(list.__getitem__, term, prefix))
        tail = tuple(v for v in range(1, n + 1) if v not in prefix)
        sums = tails.get(tail)
        if sums is None:
            sums = tails[tail] = [
                (head + sum(map(list.__getitem__, term[h:], q))) & bottom
                for q in itertools.permutations(tail)
            ]
        rank += map((head & top).__or__, sums)
    return rank


class _SymContext:
    """
    Indexed S_n with multiplication tables and the column cache.

    An element is its index w in the lexicographic order of S_n, which is its
    Lehmer code read in the factorial base (``perm.lehmer_index`` and
    ``perm.from_lehmer``): w = sum_k c_k (n-1-k)!, where c_k counts the
    entries after position k that are smaller than p[k], and length[w] =
    sum_k c_k.  rmul[i][w] swaps positions i, i+1 (0-based), lmul[i][w]
    swaps the values i+1, i+2; so i is a right (left) descent of w iff
    rmul[i][w] (lmul[i][w]) is shorter than w.

    The tables are built from that layout with no per-permutation work, by
    recursion on m = 2..n over the first digit: w = c_0 (m-1)! + r splits
    S_m into m blocks of (m-1)! consecutive indices whose tails run through
    S_{m-1} in order (primes mark the tables of S_{m-1}).

    * length[w] = c_0 + length'[r], and rmul[i][w] = c_0 (m-1)! + rmul'[i-1][r]
      for i >= 1.
    * rmul[0] rewrites the first two digits only (the adjacent-swap rule):
      an ascent (c_0 <= c_1) becomes (c_1 + 1, c_0), a descent (c_1, c_0 - 1).
    * lmul[i] moves w between the blocks c_0 = i and i + 1, keeping r, when
      the first value is i+1 or i+2; otherwise it swaps values of the tail:
      lmul[i][w] = c_0 (m-1)! + lmul'[i-1][r] for c_0 < i, and with lmul'[i]
      for c_0 > i + 1.
    * p^-1 is 1 + tail^-1 with the value 1 inserted at position c_0, so
      inv[w] = ins[c_0][inv'[r]].  Inserting 1 at position a >= 1 raises the
      first digit by one and inserts at a - 1 into the tail, which gives the
      tables ``ins`` by the same recursion.
    * conj[w] = inv[N-1-inv[N-1-w]], because complementing the values maps
      index w to N-1-w.

    Every index in these tables is an object of one list of the N indices:
    the tables slice it or map through it, so an entry costs a pointer and
    not a fresh integer object.

    rank[w] packs the rank matrix of p 8 bits per cell, row-major: cell
    (i, j) counts the k <= i with p[k] <= j + 1, a sum over k of a term fixed
    by (k, p[k]).  Split p into a head p[:h] and a tail of the last n - h
    entries: rows below h depend on the head alone, the other rows on the
    tail alone (its values fix those of the head), so each head's rows and
    each tail's rows are summed once and joined by a bitwise or.  The heads
    come from itertools.permutations, which is lexicographic too.

    The KL columns are stored once per symmetry class and one-sided.
    P_{x,w} = P_{x^-1,w^-1} = P_{w0 x w0, w0 w w0}, so ``_cols`` holds only the
    canonical w, the smallest index of its four variants (``_canon``).  For s
    the build descent of w (its first right descent), P_{xs,w} = P_{x,w}, so
    the column stores each pair {x, xs} once, at the x with xs < x, as
    (rmul[s], {x: packed P_{x,w} != 1}).  Swapping an ascent at adjacent
    positions raises the index, so lifting a key k through s is
    max(k, rmul[s][k]): one list lookup and one comparison.  Equal packed
    polynomials share one int object (``_polys``).  ``col`` gives the rule
    for reading a column.  Other modules read the order, the columns and the
    ranks through ``leq``, ``below``, ``values`` and ``equal_cells`` only.
    """

    def __init__(self, n: int):
        self.n = n
        self.N = math.factorial(n)
        # two helpers, so that the working lists of the first are freed
        # before the rank integers are allocated (peak RSS)
        self.length, self.rmul, self.lmul, self.inv, self.conj = _index_tables(n)
        self.rank = _rank_table(n)
        self.HI = int.from_bytes(b"\x80" * (n * n), "little")
        self._cols: dict[int, tuple[list[int], dict[int, int]]] = {}
        self._polys: dict[int, int] = {}
        # every column without entries: its lift is never needed, only valid
        self._empty: tuple[list[int], dict[int, int]] = (self.rmul[0] if self.rmul else [0], {})
        self._mus: dict[int, list[tuple[int, int]]] = {}
        self._smooth: dict[int, bool] = {}
        self._lock = threading.RLock()

    def leq(self, x: int, w: int) -> bool:
        """x <= w in Bruhat order: x = w, or x shorter with r_w <= r_x cell by cell."""
        HI = self.HI
        return x == w or (self.length[x] < self.length[w] and ((self.rank[x] | HI) - self.rank[w]) & HI == HI)

    def below(self, w: int, xs: Iterable[int]) -> list[int]:
        """The x in xs with x <= w, in their order (``leq`` on each)."""
        length, rank, HI = self.length, self.rank, self.HI
        lw, rw = length[w], rank[w]
        return [x for x in xs if length[x] <= lw and ((rank[x] | HI) - rw) & HI == HI]

    def values(self, w: int, xs: Iterable[int]) -> list[int]:
        """P_{x,w}(1) for each x in xs, every x <= w; the keys are read as ``col`` says."""
        tag, lift, entries = self.col(w)
        if tag & 1:
            xs = map(self.inv.__getitem__, xs)
        if tag & 2:
            xs = map(self.conj.__getitem__, xs)
        get = entries.get
        return [packed_at_one(get(s if (s := lift[k]) > k else k, _PONE)) for k in xs]

    def equal_cells(self, w: int, xs: Iterable[int]) -> list[int]:
        """
        For each x in xs, the cells where r_x = r_w: one int with the high bit
        of each such cell's byte set (a rank byte stays below 128, so its
        difference from 0x80 borrows nothing).
        """
        rank, HI = self.rank, self.HI
        LO, rw = HI >> 7, rank[w]
        return [HI ^ ((((rank[x] ^ rw) | HI) - LO) & HI) for x in xs]

    def smooth(self, w: int) -> bool:
        got = self._smooth.get(w)
        if got is None:
            got = self._smooth[w] = is_smooth(from_lehmer(self.n, w))
        return got

    def covers(self, v: int) -> list[int]:
        """
        Lower covers of v in Bruhat order: v with the entries at i < j swapped,
        where p[i] > p[j] and no entry between them has a value between them.
        Only Lehmer digits i and j change: c_i falls by 1 + d and c_j rises by
        d, where d counts the entries after j with a value between p[j] and p[i].
        """
        n = self.n
        p = from_lehmer(n, v)
        out = []
        for i, j in itertools.combinations(range(n), 2):
            if p[i] > p[j] and not any(p[j] < p[l] < p[i] for l in range(i + 1, j)):
                d = sum(p[j] < p[l] < p[i] for l in range(j + 1, n))
                out.append(v - (1 + d) * math.factorial(n - 1 - i) + d * math.factorial(n - 1 - j))
        return out

    def _canon(self, w: int) -> tuple[int, int]:
        """Smallest index among the four symmetry variants, with its tag."""
        iw = self.inv[w]
        return min((w, 0), (iw, 1), (self.conj[w], 2), (self.conj[iw], 3))

    def _lower_set(self, w: int) -> set[int]:
        """
        The set of all x <= w, built by the lifting property (Bjorner-Brenti,
        Combinatorics of Coxeter Groups, Prop. 2.2.7): for a right descent s
        of w, x <= w iff min(x, xs) <= ws, so [e, w] = [e, ws] u [e, ws]s.
        Peel right descents of w down to e, then grow {e} back up along that
        reduced word.
        """
        word = []
        length = self.length
        while length[w]:
            rmul_s = next(r for r in self.rmul if length[r[w]] < length[w])
            word.append(rmul_s)
            w = rmul_s[w]
        below = {w}
        for rmul_s in reversed(word):
            below |= set(map(rmul_s.__getitem__, below))
        return below

    def interval_below(self, w: int) -> list[int]:
        """All x <= w, sorted by decreasing length, ties by increasing index."""
        return sorted(sorted(self._lower_set(w)), key=self.length.__getitem__, reverse=True)

    def col(self, w: int) -> tuple[int, list[int], dict[int, int]]:
        """
        The stored column of w's symmetry class as (tag, lift, entries).  For
        x <= w, P_{x,w} = entries.get(k, 1), where k is x mapped by inv if
        tag & 1, then by conj if tag & 2, and then lifted: k = max(k, lift[k]).
        """
        got = self._cols.get(w)
        if got is not None:  # only canonical w are stored
            return 0, got[0], got[1]
        wc, tag = self._canon(w)
        got = self._cols.get(wc)
        if got is None:
            with self._lock:
                got = self._cols.get(wc) or self._install(wc)[0]
        return tag, got[0], got[1]

    def _install(self, w: int) -> tuple[tuple[list[int], dict[int, int]], Optional[set[int]]]:
        """Build and store the column of the canonical w; returns _build's pair."""
        got, below = self._build(w)
        self._cols[w] = got
        return got, below

    def mu_list(self, v: int) -> list[tuple[int, int]]:
        """All (z, mu(z, v)) with nonzero mu."""
        got = self._mus.get(v)
        if got is not None:
            return got
        with self._lock:
            got = self._mus.get(v)
            if got is not None:
                return got
            out = [(z, 1) for z in self.covers(v)]
            lv = self.length[v]
            tag, _, entries = self.col(v)
            # only the stored x of a pair can have mu != 0 (every entry lies at
            # distance 3 or more): its partner xs lacks a descent of the column,
            # so deg P_{xs} <= (l(v) - l(xs) - 2)/2
            for z, p in entries.items():
                d = lv - self.length[z]
                if d % 2:
                    top = (p >> (_SHIFT * ((d - 1) // 2))) & _MASK
                    if top:
                        if tag & 1:
                            z = self.inv[z]
                        if tag & 2:
                            z = self.conj[z]
                        out.append((z, top))
            out.sort(key=lambda t: -self.length[t[0]])
            self._mus[v] = out
            return out

    def _build(self, w: int) -> tuple[tuple[list[int], dict[int, int]], Optional[set[int]]]:
        """
        Column of the canonical w from that of v = ws, s the first right
        descent of w, in one unordered pass over [e, v]: by lifting, the
        x <= w with xs < x are the ys > y for y in [e, v], and P_{y,w} =
        P_{ys,w}, so only x is stored.  Returns the column and [e, v], or None
        for a column without entries.  When v is canonical and this call built
        its column, [e, v] is grown by one step from the set that build
        returned, instead of being peeled and grown again (``_lower_set``).
        """
        length, rank, HI, inv, conj = self.length, self.rank, self.HI, self.inv, self.conj
        lw = length[w]
        if lw <= 2 or self.smooth(w):
            return self._empty, None
        rmul_s = next(r for r in self.rmul if length[r[w]] < lw)
        v = rmul_s[w]
        vc, tv = self._canon(v)
        got = self._cols.get(vc)
        below = None
        if got is None:
            got, below = self._install(vc)
        liftv, colv = got
        if below is None or tv:
            below = self._lower_set(v)
        else:
            below |= set(map(liftv.__getitem__, below))  # [e, v] = [e, vs'] u [e, vs']s'
        # mu terms of v whose index has s as a right descent, with column handles
        terms = []
        for z, mu in self.mu_list(v):
            if rmul_s[z] < z:
                terms.append((mu << (_SHIFT * ((lw - length[z]) // 2)), length[z], rank[z], *self.col(z)))
        out: dict[int, int] = {}
        polys = self._polys
        for y in below:
            x = rmul_s[y]
            if x < y:
                continue
            lx = length[x]
            if lw - lx <= 2:
                continue
            # P_{y,v} + q P_{x,v}, each key read as col's docstring says
            k = y
            if tv & 1:
                k = inv[k]
            if tv & 2:
                k = conj[k]
            ks = liftv[k]
            acc = colv.get(ks if ks > k else k, _PONE)
            if x in below:
                k = x
                if tv & 1:
                    k = inv[k]
                if tv & 2:
                    k = conj[k]
                ks = liftv[k]
                acc += colv.get(ks if ks > k else k, _PONE) << _SHIFT
            rx = rank[x] | HI
            for shifted_mu, lz, rz, tz, liftz, colz in terms:
                if lz < lx:
                    break  # terms sorted by decreasing length
                if (rx - rz) & HI == HI:  # x <= z; with lz == lx only x == z passes
                    k = x
                    if tz & 1:
                        k = inv[k]
                    if tz & 2:
                        k = conj[k]
                    ks = liftz[k]
                    acc -= shifted_mu * colz.get(ks if ks > k else k, _PONE)
            if acc != _PONE:
                # constant term 1 and bounded degree; violations mean limb
                # corruption in the packed arithmetic
                if acc & _MASK != 1 or acc.bit_length() > _SHIFT * (lw // 2 + 1):
                    raise AssertionError(f"corrupt polynomial for pair {x}, {w}")
                out[x] = polys.setdefault(acc, acc)
        return (rmul_s, out), below

    def kl_packed(self, x: int, w: int) -> int:
        if x == w:
            return _PONE
        if not self.leq(x, w):
            return _PZERO
        # lift x through the right and then the left descents of w, starting
        # over after each step
        length = self.length
        lw = length[w]
        descents = [t for t in (*self.rmul, *self.lmul) if length[t[w]] < lw]
        while True:
            for t in descents:
                if length[t[x]] > length[x]:
                    x = t[x]
                    break
            else:
                break
        if x == w or lw - length[x] <= 2 or self.smooth(w):
            return _PONE
        tag, lift, entries = self.col(w)
        if tag & 1:
            x = self.inv[x]
        if tag & 2:
            x = self.conj[x]
        xs = lift[x]
        return entries.get(xs if xs > x else x, _PONE)


_contexts: dict[int, _SymContext] = {}
_contexts_lock = threading.Lock()


def _ctx(n: int) -> _SymContext:
    ctx = _contexts.get(n)
    if ctx is None:
        if n > MAX_TABLE_RANK:
            raise ValueError(
                f"S_{n} is too large for the KL tables (MAX_TABLE_RANK = {MAX_TABLE_RANK})"
            )
        with _contexts_lock:
            ctx = _contexts.get(n)
            if ctx is None:
                ctx = _SymContext(n)
                _contexts[n] = ctx
    return ctx


def _check_pair(x: Perm, w: Perm) -> tuple[Perm, Perm]:
    x = check_permutation(x)
    w = check_permutation(w)
    if len(x) != len(w):
        raise ValueError("permutations live in different symmetric groups")
    return x, w


def kl_polynomial(x: Perm, w: Perm) -> KLPolynomial:
    """P_{x,w} by the descent recursion (memoized across calls)."""
    x, w = _check_pair(x, w)
    ctx = _ctx(len(x))
    packed = ctx.kl_packed(lehmer_index(x), lehmer_index(w))
    return KLPolynomial(_packed_to_tuple(packed))


def kl_at_one(x: Perm, w: Perm) -> int:
    """P_{x,w}(1), the main quantity consumed by the decision layer."""
    x, w = _check_pair(x, w)
    ctx = _ctx(len(x))
    return packed_at_one(ctx.kl_packed(lehmer_index(x), lehmer_index(w)))


# ---------------------------------------------------------------------------
# bar-invariance oracle

_ORACLE_MAX = 6

_Laurent = dict  # exponent (power of v) -> integer coefficient


def _lau_add(dst: _Laurent, src: _Laurent, scale: int = 1) -> None:
    for e, c in src.items():
        val = dst.get(e, 0) + scale * c
        if val:
            dst[e] = val
        else:
            dst.pop(e, None)


def _lau_mul(p: _Laurent, q: _Laurent) -> _Laurent:
    out: _Laurent = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2
            val = out.get(e, 0) + c1 * c2
            if val:
                out[e] = val
            else:
                out.pop(e, None)
    return out


def _lau_bar(p: _Laurent) -> _Laurent:
    return {-e: c for e, c in p.items()}


class _OracleContext:
    """Canonical-basis solver; completely separate from the recursion."""

    def __init__(self, n: int):
        self.n = n
        perms = list(itertools.permutations(range(1, n + 1)))
        self.perms = perms
        self.index = {p: i for i, p in enumerate(perms)}
        self.length = [
            sum(1 for i, j in itertools.combinations(range(n), 2) if p[i] > p[j])
            for p in perms
        ]
        self.lmul = []
        for i in range(n - 1):
            col = [0] * len(perms)
            for w, p in enumerate(perms):
                q = [i + 2 if v == i + 1 else i + 1 if v == i + 2 else v for v in p]
                col[w] = self.index[tuple(q)]
            self.lmul.append(col)
        self.bars = self._bar_table()
        self._bar_rows: Optional[list[list[tuple[int, _Laurent]]]] = None
        self._columns: dict[int, dict[int, _Laurent]] = {}

    def _tsmul(self, s: int, vec: dict[int, _Laurent]) -> dict[int, _Laurent]:
        """Left multiplication of a normalized-basis vector by the generator."""
        out: dict[int, _Laurent] = {}
        lmul_s = self.lmul[s]
        for y, poly in vec.items():
            sy = lmul_s[y]
            if self.length[sy] > self.length[y]:
                _lau_add(out.setdefault(sy, {}), poly)
            else:
                _lau_add(out.setdefault(sy, {}), poly)
                _lau_add(out.setdefault(y, {}), _lau_mul(poly, {1: 1, -1: -1}))
        return {y: p for y, p in out.items() if p}

    def _bar_table(self) -> list[dict[int, _Laurent]]:
        """bars[x] expands the bar of the normalized basis element of x."""
        N = len(self.perms)
        order = sorted(range(N), key=self.length.__getitem__)
        bars: list[Optional[dict[int, _Laurent]]] = [None] * N
        bars[order[0]] = {order[0]: {0: 1}}
        for x in order[1:]:
            p = self.perms[x]
            s = next(
                i
                for i in range(self.n - 1)
                if p.index(i + 1) > p.index(i + 2)
            )
            y = self.lmul[s][x]
            base = bars[y]
            assert base is not None
            # bar of the generator is itself plus (v^-1 - v) times the identity
            out = self._tsmul(s, base)
            for y2, poly in base.items():
                _lau_add(out.setdefault(y2, {}), _lau_mul(poly, {-1: 1, 1: -1}))
            bars[x] = {y2: q for y2, q in out.items() if q}
        return bars  # type: ignore[return-value]

    def bar_rows(self) -> list[list[tuple[int, _Laurent]]]:
        if self._bar_rows is None:
            rows: list[list[tuple[int, _Laurent]]] = [[] for _ in self.perms]
            for x, vec in enumerate(self.bars):
                for y, poly in vec.items():
                    if y != x:
                        rows[y].append((x, poly))
            self._bar_rows = rows
        return self._bar_rows

    def column(self, w: int) -> dict[int, _Laurent]:
        got = self._columns.get(w)
        if got is not None:
            return got
        rows = self.bar_rows()
        p: dict[int, _Laurent] = {w: {0: 1}}
        barp: dict[int, _Laurent] = {w: {0: 1}}
        order = sorted(
            (y for y in range(len(self.perms)) if self.length[y] < self.length[w]),
            key=self.length.__getitem__,
            reverse=True,
        )
        for y in order:
            h: _Laurent = {}
            for x, rpoly in rows[y]:
                bx = barp.get(x)
                if bx:
                    _lau_add(h, _lau_mul(rpoly, bx))
            if not h:
                continue
            if h.get(0, 0) != 0 or any(h.get(e, 0) != -h.get(-e, 0) for e in h):
                raise AssertionError("bar-invariance system is inconsistent")
            py = {e: c for e, c in h.items() if e < 0}
            if py:
                p[y] = py
                barp[y] = _lau_bar(py)
        self._columns[w] = p
        return p

    def polynomial(self, x: int, w: int) -> KLPolynomial:
        col = self.column(w)
        px = col.get(x)
        if px is None:
            if x == w:
                return ONE
            return ZERO
        shift = self.length[w] - self.length[x]
        coeffs = [0] * ((shift + max(px)) // 2 + 1) if px else []
        for e, c in px.items():
            two_j = e + shift
            if two_j % 2 or two_j < 0:
                raise AssertionError("parity violation in canonical basis")
            j = two_j // 2
            while len(coeffs) <= j:
                coeffs.append(0)
            coeffs[j] = c
        return KLPolynomial(coeffs)


_oracle_contexts: dict[int, _OracleContext] = {}


def kl_oracle(x: Perm, w: Perm) -> KLPolynomial:
    """P_{x,w} via canonical-basis bar invariance; limited to small ranks."""
    x, w = _check_pair(x, w)
    n = len(x)
    if n > _ORACLE_MAX:
        raise ValueError(f"oracle supports rank up to S_{_ORACLE_MAX}")
    ctx = _oracle_contexts.get(n)
    if ctx is None:
        ctx = _OracleContext(n)
        _oracle_contexts[n] = ctx
    return ctx.polynomial(ctx.index[x], ctx.index[w])


# ---------------------------------------------------------------------------
# optional cache persistence (used by the CLI)


def save_cache(path: str) -> int:
    """
    Dump every stored recursion column, one record per canonical w with the
    one-sided entries of ``_SymContext``; returns the number of records.
    """
    records = 0
    with open(path, "wb") as fh:
        fh.write(_CACHE_MAGIC)
        fh.write(struct.pack("<H", _CACHE_VERSION))
        for n, ctx in sorted(_contexts.items()):
            for w, (_, col) in sorted(ctx._cols.items()):
                fh.write(struct.pack("<BII", n, w, len(col)))
                for x, packed in sorted(col.items()):
                    blob = packed.to_bytes((packed.bit_length() + 7) // 8 or 1, "little")
                    fh.write(struct.pack("<IH", x, len(blob)))
                    fh.write(blob)
                records += 1
    return records


def _read_exact(fh, size: int) -> bytes:
    got = fh.read(size)
    if len(got) != size:
        raise ValueError("truncated KL cache file")
    return got


def _is_canonical(n: int, w: int) -> bool:
    """w is the smallest index among its four symmetry variants (_SymContext._canon)."""
    p = from_lehmer(n, w)
    ip = inverse(p)
    conj = [tuple(n + 1 - v for v in q[::-1]) for q in (p, ip)]  # w0 q w0
    return w == min(map(lehmer_index, (p, ip, *conj)))


def load_cache(path: str) -> int:
    """
    Load a cache written by :func:`save_cache`; returns the records loaded.

    Installs nothing unless every record is one the store holds exactly.  A
    short read, a record for S_n with n > MAX_TABLE_RANK, an index x or w of
    n! or more, or a w that is not canonical raises ValueError: a version-1
    file that also holds the relabelled columns of non-canonical w is refused
    so.  An entry at an x without the build descent s of w stands for its
    partner xs, where it is stored; the two entries of a pair must agree.
    The stored x must then carry a polynomial other than 1, with constant
    term 1 and degree at most (l(w) - l(x) - 1)/2, or ValueError is raised.
    Lengths and descents are read off the Lehmer codes of the indices, so no
    S_n is built before the whole file has passed.  A record that passes
    these checks but holds a wrong value still loads.
    """
    columns = []
    codes_in: dict[int, dict[int, list[int]]] = {}  # n -> {x: Lehmer code}, as indices recur across columns
    with open(path, "rb") as fh:
        if fh.read(4) != _CACHE_MAGIC:
            raise ValueError("not a KL cache file")
        (version,) = struct.unpack("<H", _read_exact(fh, 2))
        if version != _CACHE_VERSION:
            raise ValueError(f"unsupported KL cache version {version}")
        while True:
            head = fh.read(9)
            if not head:
                break
            if len(head) != 9:
                raise ValueError("truncated KL cache file")
            n, w, count = struct.unpack("<BII", head)
            if n > MAX_TABLE_RANK:
                raise ValueError(f"KL cache record for S_{n} exceeds MAX_TABLE_RANK")
            N = math.factorial(n)
            if w >= N:
                raise ValueError(f"corrupt KL cache record ({n}, {w}): index beyond S_{n}")
            if not _is_canonical(n, w):
                raise ValueError(
                    f"KL cache record ({n}, {w}) is for a non-canonical column; this KL cache"
                    f" version {version} file holds relabelled copies, so delete it to rebuild it"
                )
            code_w = lehmer_code(n, w)
            lw = sum(code_w)
            # the build descent of w: digit i falls at a right descent
            s = next((i for i in range(n - 1) if code_w[i] > code_w[i + 1]), None)
            codes = codes_in.setdefault(n, {})
            col: dict[int, int] = {}
            for _ in range(count):
                x, blen = struct.unpack("<IH", _read_exact(fh, 6))
                packed = int.from_bytes(_read_exact(fh, blen), "little")
                code = codes.get(x)
                if code is None:
                    if x >= N:
                        raise ValueError(f"corrupt KL cache record ({n}, {w}, {x}): index beyond S_{n}")
                    code = codes[x] = lehmer_code(n, x)
                key, lx = x, sum(code)
                if s is not None and code[s] <= code[s + 1]:
                    # x lacks s: its partner xs by the adjacent-swap rule, an
                    # ascent (c_s, c_{s+1}) becoming (c_{s+1} + 1, c_s)
                    d = code[s + 1] - code[s]
                    key += (d + 1) * math.factorial(n - 1 - s) - d * math.factorial(n - 2 - s)
                    lx += 1
                # no 1 is stored, and 2 deg <= l(w) - l(key) - 1, which also
                # forces l(key) < l(w)
                if packed == _PONE or packed & _MASK != 1 or lx + 2 * ((packed.bit_length() - 1) // _SHIFT) >= lw:
                    raise ValueError(f"corrupt KL cache record ({n}, {w}, {x})")
                if col.setdefault(key, packed) != packed:
                    raise ValueError(f"corrupt KL cache record ({n}, {w}, {x}): the partner entry {key} disagrees")
            columns.append((n, w, s, col))
    for n, w, s, col in columns:
        ctx = _ctx(n)
        polys = ctx._polys
        ctx._cols[w] = (ctx.rmul[s], {x: polys.setdefault(p, p) for x, p in col.items()}) if col else ctx._empty
    return len(columns)
