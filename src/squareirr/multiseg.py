"""
Segments and multisegments on the integer line.

A segment is an integer interval [a, b] with a <= b.  A multisegment is a
finite multiset of segments, kept canonically sorted by (end descending,
begin descending); index-based notions (link sets, detachable segments)
always refer to positions in that order, counted from 1.

Text grammar (bit-exact round trip): terms ``[a,b]`` or ``[a]`` joined by
``+``, whitespace optional, negative integers allowed.  The empty
multisegment prints as ``0``.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from typing import Iterable, Iterator, NamedTuple, Optional

from .matching import maximum_matching


class Segment(NamedTuple):
    a: int
    b: int

    def __str__(self) -> str:
        return f"[{self.a}]" if self.a == self.b else f"[{self.a},{self.b}]"


def seg_len(d: Segment) -> int:
    return d.b - d.a + 1


def is_empty(d: Segment) -> bool:
    return d.a > d.b


def shift_down(d: Segment) -> Segment:
    """[a-1, b-1]."""
    return Segment(d.a - 1, d.b - 1)


def minus_end(d: Segment) -> Segment:
    """[a, b-1] (may be empty)."""
    return Segment(d.a, d.b - 1)


def minus_begin(d: Segment) -> Segment:
    """[a+1, b] (may be empty)."""
    return Segment(d.a + 1, d.b)


def plus_begin(d: Segment) -> Segment:
    """[a-1, b]."""
    return Segment(d.a - 1, d.b)


def precedes(d1: Segment, d2: Segment) -> bool:
    """
    The linking precedence: a1 < a2 <= b1 + 1 and b1 < b2.  Works for virtual
    (empty) segments as well, for which it is always false.
    """
    return d1.a < d2.a <= d1.b + 1 and d1.b < d2.b


def linked(d1: Segment, d2: Segment) -> bool:
    return precedes(d1, d2) or precedes(d2, d1)


def _canonical_key(d: Segment) -> tuple[int, int]:
    return (-d.b, -d.a)


class Multisegment:
    """Immutable multiset of segments in canonical order."""

    __slots__ = ("segments",)

    segments: tuple[Segment, ...]

    def __init__(self, segments: Iterable = ()):
        segs = tuple(sorted((Segment(*s) for s in segments), key=_canonical_key))
        for d in segs:
            if is_empty(d):
                raise ValueError(f"empty segment [{d.a},{d.b}] in multisegment")
        object.__setattr__(self, "segments", segs)

    def __setattr__(self, name, value):
        raise AttributeError("Multisegment is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Multisegment) and self.segments == other.segments

    def __hash__(self) -> int:
        return hash(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __add__(self, other: "Multisegment") -> "Multisegment":
        return Multisegment(self.segments + other.segments)

    def __lt__(self, other: "Multisegment") -> bool:
        return self.segments < other.segments

    def __str__(self) -> str:
        if not self.segments:
            return "0"
        return "+".join(str(d) for d in self.segments)

    def __repr__(self) -> str:
        return f"Multisegment({str(self)!r})"

    def seg(self, i: int) -> Segment:
        """The i-th segment in canonical order, 1-based."""
        return self.segments[i - 1]

    @property
    def deg(self) -> int:
        return sum(seg_len(d) for d in self.segments)

    def content(self) -> Counter:
        """Multiset of covered integers; invariant under elementary moves."""
        c: Counter = Counter()
        for d in self.segments:
            for x in range(d.a, d.b + 1):
                c[x] += 1
        return c

    @property
    def supp(self) -> tuple[int, ...]:
        return tuple(sorted({x for d in self.segments for x in range(d.a, d.b + 1)}))

    @property
    def is_regular(self) -> bool:
        begins = [d.a for d in self.segments]
        ends = [d.b for d in self.segments]
        return len(set(begins)) == len(begins) and len(set(ends)) == len(ends)

    @property
    def is_ladder(self) -> bool:
        segs = self.segments
        return all(segs[i].a > segs[i + 1].a and segs[i].b > segs[i + 1].b for i in range(len(segs) - 1))

    @property
    def is_pairwise_unlinked(self) -> bool:
        return all(
            not linked(d1, d2) for d1, d2 in itertools.combinations(self.segments, 2)
        )

    def remove_at(self, i: int) -> "Multisegment":
        """Drop the i-th segment (1-based, canonical order)."""
        segs = list(self.segments)
        del segs[i - 1]
        return Multisegment(segs)


_TERM_RE = re.compile(r"\[\s*(-?\d+)\s*(?:,\s*(-?\d+)\s*)?\]")


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        snippet = text[pos : pos + 12]
        super().__init__(f"{message} at position {pos}: {snippet!r}")


def parse_multisegment(text: str) -> Multisegment:
    """Parse the ``[a,b]+[c]+...`` grammar; ``0`` denotes the empty multisegment."""
    stripped = text.strip()
    if stripped == "0":
        return Multisegment()
    segs = []
    pos = 0
    expect_term = True
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if expect_term:
            m = _TERM_RE.match(text, pos)
            if not m:
                raise ParseError("expected segment like [a,b] or [a]", text, pos)
            a = int(m.group(1))
            b = int(m.group(2)) if m.group(2) is not None else a
            if a > b:
                raise ParseError(f"empty segment [{a},{b}]", text, pos)
            segs.append(Segment(a, b))
            pos = m.end()
            expect_term = False
        else:
            if text[pos] != "+":
                raise ParseError("expected '+'", text, pos)
            pos += 1
            expect_term = True
    if expect_term:
        raise ParseError("expected segment", text, len(text))
    return Multisegment(segs)


def speh(d: Segment, n: int) -> Multisegment:
    """n copies of d sliding down by one each time: d, [a-1,b-1], ..."""
    d = Segment(*d)
    out = []
    for _ in range(n):
        out.append(d)
        d = shift_down(d)
    return Multisegment(out)


# ---------------------------------------------------------------------------
# elementary moves and the reachability order


def elementary_moves(n: Multisegment) -> list[Multisegment]:
    """
    All multisegments obtained from ``n`` by replacing one linked pair by its
    offspring (union plus intersection, the intersection dropped if empty).
    Duplicates removed; deterministic order.
    """
    segs = n.segments
    out = set()
    for i, j in itertools.combinations(range(len(segs)), 2):
        for d1, d2 in ((segs[i], segs[j]), (segs[j], segs[i])):
            if precedes(d1, d2):
                union = Segment(min(d1.a, d2.a), max(d1.b, d2.b))
                inter = Segment(max(d1.a, d2.a), min(d1.b, d2.b))
                rest = [segs[t] for t in range(len(segs)) if t not in (i, j)]
                rest.append(union)
                if not is_empty(inter):
                    rest.append(inter)
                out.add(Multisegment(rest))
    return sorted(out, key=lambda m: m.segments)


def obt_leq(m: Multisegment, n: Multisegment) -> bool:
    """
    True iff ``m`` can be reached from ``n`` by a (possibly empty) chain of
    elementary moves.
    """
    if m == n:
        return True
    if m.deg != n.deg or m.content() != n.content():
        return False
    seen = {n}
    frontier = [n]
    while frontier:
        nxt = []
        for cur in frontier:
            for child in elementary_moves(cur):
                if child == m:
                    return True
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return False


def downward_closure(n: Multisegment) -> set[Multisegment]:
    """All multisegments reachable from ``n`` by elementary moves, n included."""
    seen = {n}
    frontier = [n]
    while frontier:
        nxt = []
        for cur in frontier:
            for child in elementary_moves(cur):
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# link sets and the neighbour machinery


class LinkData(NamedTuple):
    X: frozenset[tuple[int, int]]
    Xt: frozenset[tuple[int, int]]


class LinkTables(NamedTuple):
    X: frozenset[tuple[int, int]]
    Xt: frozenset[tuple[int, int]]
    adj: dict[tuple[int, int], list[tuple[int, int]]]
    labels: dict[tuple[int, int], list[tuple[int, int]]]


def _link_rows(src: tuple[Segment, ...], dst: tuple[Segment, ...]) -> tuple[list, list, list, list]:
    """
    One pass over the segment pairs, 1-based on both sides: bit j of pre[i]
    is set when segment i of src precedes segment j of dst, rows[i] lists
    those j ascending, sh[i] lists the j that segment i shifted down
    precedes, and sh_t is the transpose of sh.
    """
    pre = [0] * (len(src) + 1)
    rows: list[list[int]] = [[] for _ in pre]
    sh: list[list[int]] = [[] for _ in pre]
    sh_t: list[list[int]] = [[] for _ in range(len(dst) + 1)]
    for i, (a1, b1) in enumerate(src, start=1):
        for j, (a2, b2) in enumerate(dst, start=1):
            if b2 < b1:  # ends descend: no later j is preceded either
                break
            # precedes(d1, d2), and precedes(shift_down(d1), d2), on the ints
            if a1 < a2 <= b1 + 1 and b1 < b2:
                pre[i] |= 1 << j
                rows[i].append(j)
            if a1 <= a2 <= b1 and b1 <= b2:
                sh[i].append(j)
                sh_t[j].append(i)
    return pre, rows, sh, sh_t


def _pairs(rows: list[list[int]]) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i, row in enumerate(rows) for j in row)


def link_tables(m: Multisegment, n: Optional[Multisegment] = None) -> LinkTables:
    """
    The link sets of :func:`link_data`, the neighbour map from X into Xt,
    and the labels of its edges, from one pass over the segment pairs.
    (i, j) -> (i2, j2) is an edge iff (same j and segment i of m precedes
    segment i2 of m; label (i, i2)) or (same i and segment j2 of n precedes
    segment j of n; label (j2, j)).  The map's keys are sorted X and each
    list is in sorted order: segment i preceding segment i2 forces i2 < i,
    because ends descend, so the column edges come first.  ``labels[x]``
    lists the labels of the edges in ``adj[x]``, in the same order.
    """
    src, dst = m.segments, (m if n is None else n).segments
    pre, rows, sh, sh_t = _link_rows(src, dst)
    pre_m = pre if n is None else _link_rows(src, src)[0]
    pre_n = pre if n is None else _link_rows(dst, dst)[0]
    adj, labels = {}, {}
    for i, row in enumerate(rows):
        pre_i, sh_i = pre_m[i], sh[i]
        for j in row:
            nbrs = adj[i, j] = []
            labs = labels[i, j] = []
            for i2 in sh_t[j]:
                if pre_i >> i2 & 1:
                    nbrs.append((i2, j))
                    labs.append((i, i2))
            for j2 in sh_i:
                if pre_n[j2] >> j & 1:
                    nbrs.append((i, j2))
                    labs.append((j2, j))
    return LinkTables(frozenset(adj), _pairs(sh), adj, labels)


def link_data(m: Multisegment, n: Optional[Multisegment] = None) -> LinkData:
    """
    Ordered pairs of 1-based canonical indices: X collects (i, j) with
    segment i of m preceding segment j of n, Xt the same with segment i
    shifted down first.  ``n`` defaults to ``m``.
    """
    _, rows, sh, _ = _link_rows(m.segments, (m if n is None else n).segments)
    return LinkData(_pairs(rows), _pairs(sh))


def lc_condition(m: Multisegment, n: Multisegment) -> bool:
    """
    True iff an injective neighbour-respecting map from X_{m;n} into
    Xt_{m;n} exists (maximum bipartite matching saturates X).
    """
    adj = link_tables(m, n).adj
    return maximum_matching(adj)[0] == len(adj)


# ---------------------------------------------------------------------------
# duality, involution, contraction


def dual(m: Multisegment) -> Multisegment:
    """Reverse the integer line: [a, b] -> [-b, -a]."""
    return Multisegment(Segment(-d.b, -d.a) for d in m.segments)


def involution(m: Multisegment) -> Multisegment:
    """
    The multisegment transpose, by the peeling recursion: repeatedly extract
    the chain i_1 = 1, i_{j+1} = min{i : seg_i precedes seg_{i_j} and ends one
    lower}, emit the segment of chain end values, shorten the chain members.
    """
    segs = list(m.segments)  # canonical order = ends descending
    out = []
    while segs:
        chain = [0]
        while True:
            last = chain[-1]
            target_end = segs[last].b - 1
            nxt = None
            for i in range(last + 1, len(segs)):
                if segs[i].b == target_end and precedes(segs[i], segs[last]):
                    nxt = i
                    break
            if nxt is None:
                break
            chain.append(nxt)
        out.append(Segment(segs[chain[-1]].b, segs[0].b))
        chain_set = set(chain)
        nxt_segs = []
        for i, d in enumerate(segs):
            if i in chain_set:
                if d.a <= d.b - 1:
                    nxt_segs.append(minus_end(d))
            else:
                nxt_segs.append(d)
        segs = sorted(nxt_segs, key=_canonical_key)
    return Multisegment(out)


def contract(m: Multisegment, c: int) -> Optional[Multisegment]:
    """
    Collapse the pair of consecutive points {c, c+1} into one, when every
    segment meets it in 0 or 2 points; None when some segment meets it in
    exactly one point.
    """
    for d in m.segments:
        hits = (d.a <= c <= d.b) + (d.a <= c + 1 <= d.b)
        if hits == 1:
            return None
    out = []
    for d in m.segments:
        a = d.a - 1 if d.a > c else d.a
        b = d.b - 1 if d.b > c else d.b
        out.append(Segment(a, b))
    return Multisegment(out)


def expand_at(m: Multisegment, c: int) -> Multisegment:
    """
    Stretch the line at pivot c: begins strictly above c and ends at or above
    c move up by one.  Left inverse of :func:`contract` at c.
    """
    out = []
    for d in m.segments:
        a = d.a + 1 if d.a > c else d.a
        b = d.b + 1 if d.b >= c else d.b
        out.append(Segment(a, b))
    return Multisegment(out)


# ---------------------------------------------------------------------------
# detachable segments and derivatives


def detachable_segments(m: Multisegment) -> list[int]:
    """
    1-based canonical indices i whose segment can be split off: either
    nothing is linked after it (segment i precedes nothing, even after a
    shift down), or nothing links into it.
    """
    X, Xt = link_data(m)
    links = [(i, j) for i, j in X | Xt if i != j]
    sources = {i for i, _ in links}
    targets = {j for _, j in links}
    return [i for i in range(1, len(m) + 1) if i not in sources or i not in targets]


def _witness_valid(
    segs: tuple[Segment, ...],
    I: tuple[int, ...],
    f: dict[int, int],
    at_c: list[int],
    nxt: list[int],
) -> bool:
    """Conditions for a begin-removal witness (I, f) at a fixed begin value."""
    f_image = set(f.values())
    # each chosen index links into its target
    for i in I:
        if not precedes(segs[i], segs[f[i]]):
            return False
    # i in I linking into a segment outside the image forbids that segment,
    # extended down by one, from linking into the target of i
    for i in I:
        for j in range(len(segs)):
            if j in f_image or j == i:
                continue
            if precedes(segs[i], segs[j]) and precedes(plus_begin(segs[j]), segs[f[i]]):
                return False
    # leftovers may only link into matched targets, compatibly
    I_set = set(I)
    inv_f = {v: k for k, v in f.items()}
    for j in at_c:
        if j in I_set:
            continue
        for jp in nxt:
            if precedes(segs[j], segs[jp]):
                if jp not in f_image:
                    return False
                if precedes(segs[inv_f[jp]], minus_begin(segs[j])):
                    return False
    return True


def derivative_witnesses(
    m: Multisegment, c: int
) -> Iterator[tuple[tuple[int, ...], dict[int, int], tuple[int, ...]]]:
    """
    Yield every valid witness (I, f, J) for removing the begin point c:
    I a subset of the indices beginning at c, f an injection into the indices
    beginning at c+1, J the leftover indices.  Indices are 0-based positions
    in canonical order.
    """
    segs = m.segments
    at_c = [i for i, d in enumerate(segs) if d.a == c]
    nxt = [i for i, d in enumerate(segs) if d.a == c + 1]
    for size in range(min(len(at_c), len(nxt)), -1, -1):
        for I in itertools.combinations(at_c, size):
            for targets in itertools.permutations(nxt, size):
                f = dict(zip(I, targets))
                if _witness_valid(segs, I, f, at_c, nxt):
                    J = tuple(j for j in at_c if j not in set(I))
                    yield I, f, J


def _find_witness(m: Multisegment, c: int):
    for witness in derivative_witnesses(m, c):
        return witness
    raise AssertionError(f"no valid begin-removal witness for {m} at {c}")


def left_derivative(m: Multisegment, c: int) -> Optional[tuple[Multisegment, int]]:
    """
    Shorten, from the left at point c, every segment a witness leaves
    unmatched; None when all segments beginning at c are matched away
    (including when there are none).
    """
    _, _, J = _find_witness(m, c)
    if not J:
        return None
    segs = list(m.segments)
    out = []
    for i, d in enumerate(segs):
        if i in J:
            nd = minus_begin(d)
            if not is_empty(nd):
                out.append(nd)
        else:
            out.append(d)
    return Multisegment(out), len(J)


def right_derivative(m: Multisegment, c: int) -> Optional[tuple[Multisegment, int]]:
    """Mirror of :func:`left_derivative` acting on segment ends."""
    res = left_derivative(dual(m), -c)
    if res is None:
        return None
    d, mult = res
    return dual(d), mult


def soc_with_cuspidal(c: int, m: Multisegment) -> Multisegment:
    """
    The multisegment of the socle of (point c) x m: append [c] when the
    witness matches every segment beginning at c+1, otherwise extend one
    unmatched such segment down by one.
    """
    segs = m.segments
    nxt = [i for i, d in enumerate(segs) if d.a == c + 1]
    _, f, _ = _find_witness(m, c)
    unmatched = [j for j in nxt if j not in set(f.values())]
    if not unmatched:
        return m + Multisegment([Segment(c, c)])
    for j in unmatched:
        if all(not precedes(segs[j], plus_begin(segs[r])) for r in unmatched):
            out = [plus_begin(d) if i == j else d for i, d in enumerate(segs)]
            return Multisegment(out)
    raise AssertionError(f"no admissible extension index for {m} at {c}")


# ---------------------------------------------------------------------------
# random instances for sweeps


def random_multisegment(rng, max_segments: int = 6, lo: int = 0, hi: int = 8, max_len: int = 6) -> Multisegment:
    """Seeded random multisegment for stability sweeps."""
    count = rng.randint(1, max_segments)
    segs = []
    for _ in range(count):
        a = rng.randint(lo, hi)
        b = a + rng.randint(0, max_len - 1)
        segs.append(Segment(a, b))
    return Multisegment(segs)
