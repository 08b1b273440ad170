"""
Permutations of {1, ..., k} in one-line notation.

A permutation is a tuple ``w`` of the integers 1..k, where ``w[i-1]`` is the
image of ``i``.  All functions treat permutations as immutable values; nothing
here keeps state, so everything is safe for parallel use.

Bruhat order is decided through rank matrices: ``r_w(i, j)`` counts the
entries among the first ``i`` positions whose value is at most ``j``, and
``x <= w`` holds exactly when ``r_w <= r_x`` entrywise.  Both ``bruhat_leq``
and ``smooth_pair_data`` walk the difference ``D = r_x - r_w`` row by row.

Rectangle rule: swapping positions a < b of x changes ``r_x`` only on rows
a..b-1 and columns min(x(a), x(b))..max(x(a), x(b))-1, by -1 when
x(a) < x(b) and by +1 otherwise.  So for x <= w, every swap that lowers x
stays below w, and a swap that raises x stays below w exactly when D >= 1
on its rectangle.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

Perm = tuple[int, ...]

#: patterns whose joint avoidance characterizes smooth one-line words
SINGULAR_PATTERNS: tuple[Perm, Perm] = ((4, 2, 3, 1), (3, 4, 1, 2))


def is_permutation(word: Sequence[int]) -> bool:
    """True iff ``word`` is a rearrangement of 1..len(word)."""
    return sorted(word) == list(range(1, len(word) + 1))


def check_permutation(word: Sequence[int]) -> Perm:
    """Return ``word`` as a tuple, raising ValueError if it is not a permutation."""
    w = tuple(word)
    if not is_permutation(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")
    return w


def identity(k: int) -> Perm:
    return tuple(range(1, k + 1))


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def length(w: Perm) -> int:
    """Number of inversions #{i < j : w(i) > w(j)}."""
    count = 0
    seen = []
    for v in w:
        for u in seen:
            if u > v:
                count += 1
        seen.append(v)
    return count


def sign(w: Perm) -> int:
    return -1 if length(w) % 2 else 1


def rank_matrix(w: Perm) -> tuple[tuple[int, ...], ...]:
    """r_w(i, j) = #{u <= i : w(u) <= j}, as a k x k tuple of tuples."""
    k = len(w)
    rows = []
    prev = (0,) * k
    for i in range(k):
        row = list(prev)
        for j in range(w[i] - 1, k):
            row[j] += 1
        prev = tuple(row)
        rows.append(prev)
    return tuple(rows)


def bruhat_leq(t: Perm, s: Perm) -> bool:
    """
    True iff t <= s in Bruhat order (r_s <= r_t entrywise).  Keeps one row
    of r_t - r_s, indexed by value, and stops at the first negative cell.
    """
    if len(t) != len(s):
        raise ValueError("permutations live in different symmetric groups")
    d = [0] * (len(t) + 1)
    for a, b in zip(t, s):
        if a < b:
            for j in range(a, b):
                d[j] += 1
        elif b < a:
            for j in range(b, a):
                d[j] -= 1
                if d[j] < 0:
                    return False
    return True


class SmoothPairData(NamedTuple):
    j_count: int
    i_count: int
    is_smooth: bool


def smooth_pair_data(sigma0: Perm, sigma: Perm) -> SmoothPairData:
    """
    Tangent-space count for the cell of ``sigma0`` inside the closure for
    ``sigma``: j_count = #{t : sigma0*t <= sigma}, i_count restricts to
    sigma0*t >= sigma0, and the pair is smooth iff j_count == length(sigma).

    Requires sigma0 <= sigma.  One pass builds D = r_sigma0 - r_sigma and a
    2-D prefix count of its zero cells.  By the rectangle rule (module
    docstring) every swap that lowers sigma0 counts, which gives
    j_count = length(sigma0) + i_count; a swap of positions a < b with
    sigma0(a) < sigma0(b) counts iff D has no zero on rows a..b-1 and
    columns sigma0(a)..sigma0(b)-1.
    """
    k = len(sigma)
    if len(sigma0) != k:
        raise ValueError("permutations live in different symmetric groups")
    # d[j] = D(i, j) on the current row i; row k and column k of D are 0
    # and lie outside every rectangle
    d = [0] * (k + 1)
    # zeros[i][j]: zero cells of D in rows 1..i and columns 1..j
    above = [0] * k
    zeros = [above]
    for a, b in zip(sigma0[:-1], sigma):
        if a < b:
            for j in range(a, b):
                d[j] += 1
        elif b < a:
            for j in range(b, a):
                d[j] -= 1
                if d[j] < 0:
                    raise ValueError("smooth_pair_data requires sigma0 <= sigma")
        row = [0]
        run = 0
        for j in range(1, k):
            if not d[j]:
                run += 1
            row.append(above[j] + run)
        zeros.append(row)
        above = row
    down = 0
    i_count = 0
    for p in range(k - 1):
        lo = sigma0[p] - 1
        zp = zeros[p]
        for q in range(p + 1, k):
            hi = sigma0[q] - 1
            if hi < lo:
                down += 1
            else:
                zq = zeros[q]
                if zq[hi] - zq[lo] == zp[hi] - zp[lo]:
                    i_count += 1
    j_count = down + i_count
    return SmoothPairData(j_count, i_count, j_count == length(sigma))


def pattern_of(values: Sequence[int]) -> Perm:
    """Standardize ``values`` to a permutation of 1..len(values)."""
    order = sorted(values)
    return tuple(order.index(v) + 1 for v in values)


def avoids_patterns(w: Perm, patterns: Iterable[Perm]) -> bool:
    """True iff no index subset of w is order-isomorphic to any pattern."""
    pats = [tuple(p) for p in patterns]
    for p in pats:
        lp = len(p)
        for positions in itertools.combinations(range(len(w)), lp):
            if pattern_of([w[i] for i in positions]) == p:
                return False
    return True


def is_smooth(w: Perm) -> bool:
    """Smoothness of the full closure: avoidance of 4231 and 3412."""
    for a, b, c, d in itertools.combinations(w, 4):
        if d < b < c < a or c < d < a < b:
            return False
    return True


def is_213_avoiding(w: Perm) -> bool:
    return avoids_patterns(w, ((2, 1, 3),))


def flatten(w: Perm, positions: Iterable[int]) -> Perm:
    """
    Remove the entries (i, w(i)) for i in ``positions`` (1-based) and
    standardize what remains.
    """
    drop = set(positions)
    kept = [w[i] for i in range(len(w)) if i + 1 not in drop]
    return pattern_of(kept)


def inflate(w: Perm, m: int) -> Perm:
    """
    Blow up each entry into a block of m consecutive entries: the result v in
    S_{m*k} has v(m*(i-1)+j) = m*(w(i)-1)+j for j = 1..m.
    """
    out = []
    for v in w:
        out.extend(range(m * (v - 1) + 1, m * v + 1))
    return tuple(out)


def tau_delta(r: int, s: int, t: int) -> tuple[Perm, Perm]:
    """
    The interval-pattern pairs in S_{r+s} whose Bruhat intervals carry the
    singularities of type-A closures; t selects one of the three shapes
    (s must be 2 when t = 3).
    """
    if r < 2 or s < 2 or t not in (1, 2, 3):
        raise ValueError(f"invalid parameters (r={r}, s={s}, t={t})")
    if t == 3 and s != 2:
        raise ValueError("shape 3 requires s = 2")
    k = r + s
    if t == 1:
        tau = [0] * k
        delta = [0] * k
        for i in range(1, k + 1):
            if i == 1:
                tau[i - 1] = k
            elif i <= r:
                tau[i - 1] = r + 2 - i
            elif i < k:
                tau[i - 1] = r + k - i
            else:
                tau[i - 1] = 1
            delta[i - 1] = r + 1 - i if i <= r else r + k + 1 - i
    elif t == 2:
        tau = [0] * k
        delta = [0] * k
        for i in range(1, k + 1):
            if i == 1:
                tau[i - 1] = r + 1
            elif i < r:
                tau[i - 1] = r + 1 - i
            elif i == r:
                tau[i - 1] = k
            elif i == r + 1:
                tau[i - 1] = 1
            elif i < k:
                tau[i - 1] = r + k + 1 - i
            else:
                tau[i - 1] = r
            if i < r:
                delta[i - 1] = r - i
            elif i == r:
                delta[i - 1] = r + 1
            elif i == r + 1:
                delta[i - 1] = r
            else:
                delta[i - 1] = r + k + 2 - i
    else:
        tau = [0] * k
        delta = [0] * k
        for i in range(1, k + 1):
            if i == 1:
                tau[i - 1] = r + 1
            elif i == 2:
                tau[i - 1] = k
            elif i <= r:
                tau[i - 1] = k + 1 - i
            elif i == r + 1:
                tau[i - 1] = 1
            else:
                tau[i - 1] = 2
            if i == 1:
                delta[i - 1] = 1
            elif i < k:
                delta[i - 1] = k + 1 - i
            else:
                delta[i - 1] = k
    return check_permutation(tau), check_permutation(delta)


def all_perms(k: int) -> Iterator[Perm]:
    return itertools.permutations(range(1, k + 1))


def lehmer_index(p: Perm) -> int:
    """
    Position of p in the lexicographic order of S_n: its Lehmer code read in
    the factorial base, sum_k c_k (n-1-k)!, where c_k counts the entries
    after position k that are smaller than p[k].
    """
    w = 0
    seen = 0  # bit v is set once the value v has been read
    r = len(p)
    for v in p:
        # c_k: the values below v not read yet, which all come after p[k]
        w = w * r + (~seen & ((1 << v) - 2)).bit_count()
        seen |= 1 << v
        r -= 1
    return w


def lehmer_code(n: int, w: int) -> list[int]:
    """The Lehmer code c_0, ..., c_{n-1} of the permutation of S_n at position w."""
    code = []
    for base in range(1, n + 1):
        w, c = divmod(w, base)
        code.append(c)
    if w:
        raise ValueError(f"index out of range for S_{n}")
    return code[::-1]


def from_lehmer(n: int, w: int) -> Perm:
    """The permutation of S_n at position w in lexicographic order."""
    rest = list(range(1, n + 1))
    return tuple(map(rest.pop, lehmer_code(n, w)))


@lru_cache(maxsize=None)
def sn(k: int) -> tuple[Perm, ...]:
    """All of S_k in lexicographic order (cached)."""
    return tuple(all_perms(k))


def parse_perm(text: str) -> Perm:
    """
    Parse one-line notation: comma-separated like ``4,2,3,1``, or the compact
    digit form ``4231`` when all values fit in one digit.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        try:
            word = [int(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"bad permutation entry in {text!r}") from exc
    elif text.isdigit():
        word = [int(c) for c in text]
    else:
        raise ValueError(f"cannot parse permutation {text!r}")
    return check_permutation(word)


def format_perm(w: Perm, compact: bool = False) -> str:
    if compact and len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)
