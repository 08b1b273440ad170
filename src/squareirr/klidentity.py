"""
Block double cosets, signed Kazhdan-Lusztig sums, and their closed forms.

A permutation of m*k letters, cut into k blocks of m consecutive letters,
determines the k x k matrix counting how blocks meet blocks; the matrix
classifies the double coset under the block-diagonal subgroup H.  For a
smooth pair (sigma, sigma0) with 213-avoiding sigma0, the signed sum of
KL values over each double coset meeting the inflated Bruhat interval has
a closed form: a signed power of two read off the matrix for m = 2, and a
signed count of decompositions into permutation matrices in general.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from . import klpoly as K
from . import perm as P
from .perm import Perm


class CosetMatrix(NamedTuple):
    entries: tuple[tuple[int, ...], ...]
    m: int

    def __str__(self) -> str:
        return "/".join(",".join(str(v) for v in row) for row in self.entries)


def coset_matrix(w: Perm, m: int) -> CosetMatrix:
    """Block-intersection counts of w for blocks of m consecutive letters."""
    if len(w) % m:
        raise ValueError(f"size {len(w)} not divisible by block width {m}")
    k = len(w) // m
    rows = [[0] * k for _ in range(k)]
    for pos, val in enumerate(w):
        rows[pos // m][(val - 1) // m] += 1
    return CosetMatrix(tuple(tuple(r) for r in rows), m)


def min_rep(M: CosetMatrix) -> Perm:
    """
    The minimal-length permutation with the given block matrix: block
    positions filled increasingly, targets taken in increasing blocks, and
    slots inside each target block handed out first come, first served.
    """
    k = len(M.entries)
    m = M.m
    counters = [0] * k
    word: list[int] = []
    for i in range(k):
        vals = []
        for j in range(k):
            for _ in range(M.entries[i][j]):
                vals.append(m * j + 1 + counters[j])
                counters[j] += 1
        word.extend(sorted(vals))
    return tuple(word)


def iota(sigmas: tuple[Perm, ...]) -> Perm:
    """Interleave m permutations of S_k into S_{mk}, slot j following sigma_j."""
    m = len(sigmas)
    k = len(sigmas[0])
    word = [0] * (m * k)
    for j, s in enumerate(sigmas, start=1):
        if len(s) != k:
            raise ValueError("all factors must have the same size")
        for i in range(1, k + 1):
            word[m * (i - 1) + j - 1] = m * (s[i - 1] - 1) + j
    return tuple(word)


def birkhoff_decompositions(M: CosetMatrix) -> list[tuple[Perm, ...]]:
    """
    All ordered tuples of permutations whose permutation matrices sum to M
    (exhaustive backtracking, peeling one permutation at a time).
    """
    k = len(M.entries)
    perms = list(itertools.permutations(range(1, k + 1)))
    out: list[tuple[Perm, ...]] = []

    def peel(rows: list[list[int]], depth: int, acc: list[Perm]) -> None:
        if depth == M.m:
            if all(v == 0 for row in rows for v in row):
                out.append(tuple(acc))
            return
        for s in perms:
            if not all(rows[i][s[i] - 1] > 0 for i in range(k)):
                continue
            for i in range(k):
                rows[i][s[i] - 1] -= 1
            acc.append(s)
            peel(rows, depth + 1, acc)
            acc.pop()
            for i in range(k):
                rows[i][s[i] - 1] += 1

    peel([list(r) for r in M.entries], 0, [])
    return out


def _row_classes(M: CosetMatrix) -> list[set[int]]:
    """Classes of the relation generated by sharing a column with entry 1."""
    k = len(M.entries)
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for j in range(k):
        ones = [i for i in range(k) if M.entries[i][j] == 1]
        for i in ones[1:]:
            parent[find(i)] = find(ones[0])
    classes: dict[int, set[int]] = {}
    for i in range(k):
        classes.setdefault(find(i), set()).add(i)
    return list(classes.values())


def class_value(M: CosetMatrix) -> int:
    """
    The signed power of two attached to a width-2 matrix: sign of the
    permutation whose cycles are the row classes, times 2^(number of
    nontrivial classes).
    """
    if M.m != 2:
        raise ValueError("class_value is defined for block width 2")
    classes = _row_classes(M)
    k = len(M.entries)
    r = sum(1 for c in classes if len(c) > 1)
    sgn = -1 if (k - len(classes)) % 2 else 1
    return sgn * (1 << r)


@functools.lru_cache(maxsize=None)
def _closed_form(M: CosetMatrix) -> int:
    """The right-hand side for M: class_value at width 2, else the signed decomposition count."""
    if M.m == 2:
        return class_value(M)
    return sum(P.sign(iota(decomp)) for decomp in birkhoff_decompositions(M))


# ---------------------------------------------------------------------------
# bucketing the inflated group


_buckets_cache: dict[tuple[int, int], list[tuple[CosetMatrix, int, list[int]]]] = {}
_sums_cache: dict[tuple[int, int], tuple[dict, dict]] = {}


def _block_word(n: int, m: int) -> list[int]:
    """A reduced word of the longest element of H: s_0..s_{m-2} .. s_0 in each block."""
    return [b + i for b in range(0, n, m) for j in range(m - 1, 0, -1) for i in range(j)]


def _group_buckets(n: int, m: int) -> list[tuple[CosetMatrix, int, list[int]]]:
    """
    Every coset matrix M of S_n, sorted, as (M, index of min_rep(M), indices
    of the members of M's double coset, increasing).
    """
    got = _buckets_cache.get((n, m))
    if got is None:
        # grow each HwH from one member: the subwords of a reduced word of H's
        # longest element multiply out to all of H, on the right, then the left
        ctx = K._ctx(n)
        steps = [table[i] for table in (ctx.rmul, ctx.lmul) for i in _block_word(n, m)]
        todo, members = set(range(ctx.N)), []
        while todo:
            coset = {w := todo.pop()}
            for step in steps:
                coset |= set(map(step.__getitem__, coset))
            todo -= coset
            members.append((coset_matrix(P.from_lehmer(n, w), m), sorted(coset)))
        got = [(M, P.lehmer_index(min_rep(M)), ws) for M, ws in sorted(members)]
        _buckets_cache[(n, m)] = got
    return got


def _signed_sums(ctx: K._SymContext, st_idx: int):
    """
    signed_sum(key, members): the sum of (-1)^l(w) P_{w,st}(1) over the members
    w <= st, memoized by key (M, or (m, spt) for the coset spt.H).  A sum reads
    only the column ``ctx.col(st)`` gives, not sigma0, so the memo is kept with
    that column object and started afresh once it is replaced (``load_cache``).
    """
    entries = ctx.col(st_idx)[2]
    memo = _sums_cache.get((ctx.n, st_idx))
    if memo is None or memo[0] is not entries:
        memo = _sums_cache[(ctx.n, st_idx)] = (entries, {})
    sums = memo[1]

    def signed_sum(key, members) -> int:
        got = sums.get(key)
        if got is None:
            # the column of st holds every P_{w,st} != 1 with w <= st, so
            # ctx.values on the members below st gives each P_{w,st}(1) exactly
            ws = ctx.below(st_idx, members)
            got = sums[key] = sum([-val if ctx.length[w] % 2 else val for w, val in zip(ws, ctx.values(st_idx, ws))])
        return got

    return signed_sum


# ---------------------------------------------------------------------------
# reports


@dataclass
class CosetCheck:
    matrix: CosetMatrix
    lhs: int
    rhs: int

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self) -> dict:
        return {
            "coset_matrix": [list(r) for r in self.matrix.entries],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.ok,
        }


@dataclass
class ParityCheck:
    sigma_prime: Perm
    total: int

    @property
    def ok(self) -> bool:
        return self.total == 1

    def to_json(self) -> dict:
        return {
            "sigma_prime": list(self.sigma_prime),
            "sum": self.total,
            "pass": self.ok,
        }


@dataclass
class IdentityReport:
    sigma: Perm
    sigma0: Perm
    m: int
    cosets: list[CosetCheck]
    parabolic: list[ParityCheck]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cosets) and all(p.ok for p in self.parabolic)

    def to_json(self) -> dict:
        return {
            "sigma": list(self.sigma),
            "sigma0": list(self.sigma0),
            "m": self.m,
            "cosets": [c.to_json() for c in self.cosets],
            "parabolic_sums": [p.to_json() for p in self.parabolic],
            "pass": self.passed,
        }


def _require_hypotheses(sigma0: Perm, sigma: Perm) -> None:
    if len(sigma0) != len(sigma):
        raise ValueError("permutations live in different symmetric groups")
    if not P.smooth_pair_data(sigma0, sigma).is_smooth:
        raise ValueError(f"({sigma}, {sigma0}) is not a smooth pair")
    if not P.is_213_avoiding(sigma0):
        raise ValueError(f"sigma0 = {sigma0} is not 213-avoiding")


def _coset_sums(sigma0: Perm, sigma: Perm, m: int) -> list[CosetCheck]:
    n = m * len(sigma)
    ctx = K._ctx(n)
    st_idx = P.lehmer_index(P.inflate(sigma, m))
    st0_idx = P.lehmer_index(P.inflate(sigma0, m))
    buckets = _group_buckets(n, m)
    reps_below = set(ctx.below(st_idx, [rep_idx for _, rep_idx, _ in buckets]))
    signed_sum = _signed_sums(ctx, st_idx)
    return [
        CosetCheck(M, signed_sum(M, members), _closed_form(M))
        for M, rep_idx, members in buckets
        if rep_idx in reps_below and ctx.leq(st0_idx, rep_idx)
    ]


def _parabolic_sums(sigma0: Perm, sigma: Perm, m: int) -> list[ParityCheck]:
    # spt is the shortest element of spt.H, H the block subgroup: grow the coset
    # from spt along a reduced word of H's longest element, as _lower_set grows
    # [e, w]; x has sign (-1)^(l(x) - l(spt))
    k = len(sigma)
    n = m * k
    ctx = K._ctx(n)
    st_idx = P.lehmer_index(P.inflate(sigma, m))
    word = [ctx.rmul[i] for i in _block_word(n, m)]
    signed_sum = _signed_sums(ctx, st_idx)
    out = []
    for sp in P.all_perms(k):
        if not (P.bruhat_leq(sigma0, sp) and P.bruhat_leq(sp, sigma)):
            continue
        spt_idx = P.lehmer_index(P.inflate(sp, m))
        coset = {spt_idx}
        for rmul_s in word:
            coset |= set(map(rmul_s.__getitem__, coset))
        total = signed_sum((m, spt_idx), coset)
        out.append(ParityCheck(sp, -total if ctx.length[spt_idx] % 2 else total))
    return out


def verify_klidnt(sigma0: Perm, sigma: Perm) -> IdentityReport:
    """
    Width-2 identity: over every double coset meeting the inflated interval,
    the signed sum of KL values at 1 equals the signed power of two of the
    coset matrix; and each parabolic sum over the block subgroup equals 1.
    """
    sigma0 = P.check_permutation(sigma0)
    sigma = P.check_permutation(sigma)
    _require_hypotheses(sigma0, sigma)
    # LHS sign convention: sgn(w)*sgn(st) relative; fold into coset sums
    cosets = _coset_sums(sigma0, sigma, 2)
    parabolic = _parabolic_sums(sigma0, sigma, 2)
    return IdentityReport(sigma, sigma0, 2, cosets, parabolic)


def verify_higher(sigma0: Perm, sigma: Perm, m: int, opt_in_large: bool = False) -> IdentityReport:
    """
    General width: the closed form is replaced by the signed count of
    decompositions into permutation matrices.  Bounded to mk <= 9; the
    largest case (m = 3, k = 3) must be opted into.
    """
    sigma0 = P.check_permutation(sigma0)
    sigma = P.check_permutation(sigma)
    _require_hypotheses(sigma0, sigma)
    if m < 2:
        raise ValueError("block width must be at least 2")
    n = m * len(sigma)
    if n > 9:
        raise ValueError(f"group size {n} exceeds the supported bound of 9")
    if n == 9 and not opt_in_large:
        raise ValueError("the 9-letter case is slow; pass opt_in_large=True to run it")
    cosets = _coset_sums(sigma0, sigma, m)
    parabolic = _parabolic_sums(sigma0, sigma, m)
    return IdentityReport(sigma, sigma0, m, cosets, parabolic)


# ---------------------------------------------------------------------------
# Latin squares


def _latin_squares(m: int) -> Iterator[list[Perm]]:
    """
    Every Latin square of order m, as its list of rows (one list, refilled
    between squares).  Exhaustive; m <= 4.
    """
    if not 1 <= m <= 4:
        raise ValueError("exhaustive count supported for m <= 4 only")
    rows_pool = list(itertools.permutations(range(1, m + 1)))
    rows: list[Perm] = []

    def rec() -> Iterator[list[Perm]]:
        if len(rows) == m:
            yield rows
            return
        for cand in rows_pool:
            if all(all(r[j] != cand[j] for j in range(m)) for r in rows):
                rows.append(cand)
                yield from rec()
                rows.pop()

    return rec()


def latin_square_delta(m: int) -> int:
    """
    Signed count of Latin squares of order m (even minus odd, the sign being
    the product of all row and column signs).  Exhaustive; m <= 4.
    """
    total = 0
    for rows in _latin_squares(m):
        sgn = 1
        for r in rows:
            sgn *= P.sign(r)
        for j in range(m):
            sgn *= P.sign(tuple(r[j] for r in rows))
        total += sgn
    return total


# ---------------------------------------------------------------------------
# the rank-agreement predicate


def tight_violations(k: int) -> list[tuple[Perm, Perm, Perm]]:
    """
    Every triple (sigma0, sigma, tau) in S_k with (sigma0, sigma) a smooth
    pair, r_tau = r_sigma wherever r_sigma0 = r_sigma, and tau not <= sigma,
    ordered by sigma, then sigma0, then tau (empty list expected).

    For fixed sigma the premise depends on sigma0 only through the cells
    where r_sigma0 = r_sigma, so [e, sigma] is grouped by that mask.  A mask
    is clean when every tau agreeing with sigma on it lies below sigma; a
    mask that contains a clean one is clean too.  So the masks are visited
    by increasing size, one that contains a clean mask is skipped, and only
    the others test their members for smoothness and scan the tau outside
    [e, sigma].
    """
    ctx = K._ctx(k)
    perms = P.sn(k)
    violations = []
    for s in range(ctx.N):
        below = ctx.interval_below(s)
        groups: dict[int, list[int]] = {}
        for x, cells in zip(below, ctx.equal_cells(s, below)):
            groups.setdefault(cells, []).append(x)
        inside = set(below)
        outside = [t for t in range(ctx.N) if t not in inside]
        outside_cells = ctx.equal_cells(s, outside)
        clean: list[int] = []
        found = []
        for cells in sorted(groups, key=int.bit_count):
            if any(c & cells == c for c in clean):
                continue
            smooth = [x for x in groups[cells] if P.smooth_pair_data(perms[x], perms[s]).is_smooth]
            if not smooth:
                continue
            bad = [t for t, c in zip(outside, outside_cells) if c & cells == cells]
            if bad:
                found += ((x, t) for x in smooth for t in bad)
            else:
                clean.append(cells)
        violations += ((perms[x], perms[s], perms[t]) for x, t in sorted(found))
    return violations
