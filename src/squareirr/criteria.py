"""
The decision layer for square-irreducibility of regular multisegments.

Four criteria are computed by independent routes and cross-checked:

* balanced: depth equals complexity, decided through the tangent-space
  count of the pair of permutations attached to the multisegment;
* pattern-free: no sub-multisegment of shape 4231 or 3412;
* kl_one: the Kazhdan-Lusztig polynomial of the attached pair evaluates
  to 1 at q = 1;
* gls: the open-orbit rank condition, decided by structural certificates
  where available and by randomized exact rank over a large prime field
  otherwise.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Union

from . import biseq as B
from . import klpoly as K
from . import perm as P
from .matching import maximum_matching
from .multiseg import (
    Multisegment,
    Segment,
    link_data,
    link_tables,
    precedes,
    speh,
    elementary_moves,
    downward_closure,
    detachable_segments,
)
from .perm import Perm

GLS_PRIME = 2**31 - 1
# backtracking steps of find_strong_matching.  Steps below a prefix that is
# already cyclic are walked and counted too, though no leaf there is checked.
# A walk that repeats a (position, used candidates) state adds its size from a
# table instead of being walked again, so the budget still counts every step;
# the table holds at most budget + 1 entries.
STRONG_MATCHING_BUDGET = 20_000


# ---------------------------------------------------------------------------
# complexity / depth / balanced


def complexity(m: Multisegment) -> int:
    """Length of a longest chain of elementary moves below m."""
    if m.is_regular:
        return len(link_data(m).X)
    return complexity_by_chains(m)


def complexity_by_chains(m: Multisegment) -> int:
    """Brute-force longest-chain count; independent of the link-set formula."""
    best = {}

    def rec(cur: Multisegment) -> int:
        got = best.get(cur)
        if got is None:
            got = 0
            for child in elementary_moves(cur):
                got = max(got, 1 + rec(child))
            best[cur] = got
        return got

    return rec(m)


def is_apu(m: Multisegment) -> bool:
    """One elementary move away from a pairwise-unlinked multisegment."""
    return any(child.is_pairwise_unlinked for child in elementary_moves(m))


def depth_by_apu(m: Multisegment) -> int:
    """Brute-force count of almost-pairwise-unlinked multisegments below m."""
    return sum(1 for n in downward_closure(m) if is_apu(n))


def depth(m: Multisegment) -> int:
    """
    Number of almost-pairwise-unlinked multisegments reachable below m; for
    regular m this is the restricted transposition count of the attached
    pair of permutations.
    """
    if not m.is_regular:
        return depth_by_apu(m)
    return P.smooth_pair_data(*attached_pair(m)).i_count


def attached_pair(m: Multisegment) -> tuple[Perm, Perm]:
    """(sigma0, sigma) of the canonical factorization (A, sigma) of m."""
    A, sigma = B.factorize(m)
    return B.sigma0(A), sigma


def is_balanced(m: Multisegment, pair: Optional[tuple[Perm, Perm]] = None) -> bool:
    """
    depth == complexity, via the smooth-pair test. Regular input only.
    ``pair`` is ``attached_pair(m)`` when the caller already has it.
    """
    if not m.is_regular:
        raise ValueError("balanced is defined for regular multisegments only")
    return P.smooth_pair_data(*(pair or attached_pair(m))).is_smooth


# ---------------------------------------------------------------------------
# forbidden sub-multisegments


def _shape_at(s: tuple[int, ...], pr: list[list[bool]], a: list[int]) -> Optional[str]:
    """4231 or 3412 on the 0-based indices s, given pr[i][j] (i precedes j) and the begins a."""
    n = len(s)
    if pr[s[2]][s[0]] and a[s[-1]] < a[s[1]] < a[s[-2]] and all(pr[s[t]][s[t - 1]] for t in range(3, n)):
        return "4231"
    l = 1 if n == 4 else n - 2
    if pr[s[3]][s[1]] and a[s[2]] < a[s[-1]] < a[s[0]] < a[s[l]] and all(pr[s[t]][s[t - 1]] for t in range(4, n)):
        return "3412"
    return None


def has_forbidden_type(m: Multisegment) -> Optional[tuple[str, tuple[int, ...]]]:
    """
    Smallest (then lexicographically first) index subset carrying a
    sub-multisegment of shape 4231 or 3412; None when balanced.
    """
    if not m.is_regular:
        raise ValueError("forbidden-type search requires a regular multisegment")
    segs = m.segments
    pr = [[precedes(d1, d2) for d2 in segs] for d1 in segs]
    a = [d.a for d in segs]
    for size in range(4, len(segs) + 1):
        for s in itertools.combinations(range(len(segs)), size):
            kind = _shape_at(s, pr, a)
            if kind:
                return (kind, tuple(i + 1 for i in s))
    return None


# ---------------------------------------------------------------------------
# the open-orbit condition


@dataclass
class GlsReport:
    value: bool
    method: str  # "strong-matching" | "rank" | "certificate"
    trials: int = 0
    certificate: Optional[str] = None
    witness_lambda: Optional[dict[tuple[int, int], int]] = None
    field: Optional[int] = None
    rank_achieved: Optional[int] = None
    residual_error: Optional[float] = None

    def to_json(self) -> dict:
        return {"value": self.value, "method": self.method, "trials": self.trials}


def neighbor_map(m: Multisegment) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Neighbours inside the shifted link set, for the self-pairing of m."""
    return link_tables(m).adj


def irreducible_pairs(m: Multisegment, adj: Optional[dict] = None) -> list[tuple[int, int]]:
    """
    Link pairs whose only neighbours are the two diagonal ones.  ``adj`` is
    the neighbour map of m when the caller has already built it.
    """
    if adj is None:
        adj = neighbor_map(m)
    out = []
    for (i, j), nbrs in adj.items():
        if set(nbrs) == {(i, i), (j, j)}:
            out.append((i, j))
    return sorted(out)


def _matching_is_strong(f: dict, by_first: list, by_second: list) -> bool:
    """
    A matching is strong when some enumeration r_1..r_n of the link set has
    no earlier r_i neighbouring a later f(r_j) through a used label; this
    holds iff the forced comes-after digraph is acyclic.

    Its edges r' -> r (r must come after r') are read off the used labels:
    r has to share a row or a column with t = f(r'), and the label of r -> t
    is then (t_j, r_j) for a shared row and (r_i, t_i) for a shared column.
    So the successors of r' are (t_i, b) for every used label (t_j, b),
    listed in ``by_first[t_j]``, and (a, t_j) for every used label (a, t_i),
    listed in ``by_second[t_i]`` -- those in the domain of f, other than r'.
    """
    state: dict = {}

    def dfs(u) -> bool:
        state[u] = 1
        ti, tj = f[u]
        for r in [(ti, b) for b in by_first[tj]] + [(a, tj) for a in by_second[ti]]:
            if r == u or r not in f:
                continue
            s = state.get(r)
            if s == 1:
                return False
            if s is None and not dfs(r):
                return False
        state[u] = 2
        return True

    return all(state.get(u) == 2 or dfs(u) for u in f)


def find_strong_matching(
    m: Multisegment, budget: int = STRONG_MATCHING_BUDGET,
    adj: Optional[dict] = None, labels: Optional[dict] = None,
) -> Optional[dict]:
    """
    Bounded backtracking search for a strong neighbour-respecting injection;
    None if none is found within the budget (which proves nothing).  ``adj``
    and ``labels`` are the neighbour map of m and its edge labels, as
    :func:`multiseg.link_tables` gives them, when the caller has them.
    """
    if adj is None or labels is None:
        _, _, adj, labels = link_tables(m)
    X = sorted(adj, key=lambda x: (len(adj[x]), x))
    n = len(X)
    k = len(m)
    w = k + 1  # candidate (i, j) is bit i * w + j of the int of used candidates
    # the used labels, indexed by first and by second coordinate
    by_first: list[list[int]] = [[] for _ in range(k + 1)]
    by_second: list[list[int]] = [[] for _ in range(k + 1)]
    assign: dict = {}
    steps = 0
    # sizes[used] = (steps, reaches a leaf) of the whole walk below X[:pos],
    # where used has one bit for each candidate taken by X[:pos], and so also
    # gives pos; neither depends on anything else.  A walk that repeats a state
    # adds the stored size instead of walking again, so the budget still counts
    # every step.  Only walks that ended within the budget are stored, so the
    # table holds at most budget + 1 entries.
    sizes: dict = {}
    leaves = 0  # leaves below backtrack, checked or walked by count
    # X[:dead] is already cyclic.  Comes-after edges only grow as positions are
    # assigned, so every leaf below that prefix fails; its branches are still
    # walked and counted, so the budget means the same, but no leaf is checked.
    # n + 1 while no prefix is known to be cyclic.
    dead = n + 1
    acyclic = 0  # X[:acyclic] is known to be acyclic

    def cyclic_depth() -> int:
        """Shallowest d with X[:d] cyclic, by binary search; X itself is cyclic."""
        path = [labels[x][adj[x].index(assign[x])] for x in X]
        lo, hi = acyclic, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            bf: list[list[int]] = [[] for _ in range(k + 1)]
            bs: list[list[int]] = [[] for _ in range(k + 1)]
            for a, b in path[:mid]:
                bf[a].append(b)
                bs[b].append(a)
            if _matching_is_strong({x: assign[x] for x in X[:mid]}, bf, bs):
                lo = mid
            else:
                hi = mid
        return hi

    def count(pos: int, used: int) -> bool:
        """
        Walk the branches below X[:pos] as backtrack would, counting steps
        only; True when the walk reaches a leaf.
        """
        nonlocal steps
        if pos == n:
            return True
        got = sizes.get(used)
        if got is not None:
            steps += got[0]
            return got[1]
        start, leaf = steps, False
        for i, j in adj[X[pos]]:
            bit = 1 << (i * w + j)
            if used & bit:
                continue
            steps += 1
            if steps > budget:
                return leaf
            leaf |= count(pos + 1, used | bit)
        if steps <= budget:
            sizes[used] = (steps - start, leaf)
        return leaf

    def backtrack(pos: int, used: int) -> Optional[dict]:
        nonlocal steps, leaves, dead, acyclic
        if pos == n:
            leaves += 1
            if _matching_is_strong(assign, by_first, by_second):
                return dict(assign)
            dead = cyclic_depth()
            acyclic = dead - 1
            return None
        # a stored walk may stand in only if it checks no leaf: a leaf's
        # check depends on assign, which the key does not hold
        if sizes:
            got = sizes.get(used)
            if got is not None and not got[1]:
                steps += got[0]
                return None
        start, seen = steps, leaves
        x = X[pos]
        for y, (a, b) in zip(adj[x], labels[x]):
            bit = 1 << (y[0] * w + y[1])
            if used & bit:
                continue
            steps += 1
            if steps > budget:
                return None
            if pos >= dead:
                leaves += count(pos + 1, used | bit)
                continue
            assign[x] = y
            by_first[a].append(b)
            by_second[b].append(a)
            got = backtrack(pos + 1, used | bit)
            if got is not None:
                return got
            del assign[x]
            by_first[a].pop()
            by_second[b].pop()
            if pos < dead:
                dead = n + 1
                acyclic = min(acyclic, pos)
        if steps <= budget:
            sizes[used] = (steps - start, leaves > seen)
        return None

    if any(not nbrs for nbrs in adj.values()):
        return None
    return backtrack(0, 0)


def _gls_vectors_mod(m: Multisegment, X: frozenset, Xt: frozenset, lam: dict, p: int) -> list[dict[int, int]]:
    """
    Rows of the rank test: one vector over the shifted link set per link
    pair, as {column: value}, columns indexing sorted Xt.
    """
    xt_index = {y: c for c, y in enumerate(sorted(Xt))}
    rows = []
    for (i, j) in sorted(X):
        row: dict[int, int] = {}
        for r in range(1, len(m) + 1):
            if (r, j) in X and (i, r) in Xt:
                c = xt_index[(i, r)]
                row[c] = (row.get(c, 0) + lam[(r, j)]) % p
        for s in range(1, len(m) + 1):
            if (s, j) in Xt and (i, s) in X:
                c = xt_index[(s, j)]
                row[c] = (row.get(c, 0) - lam[(i, s)]) % p
        rows.append(row)
    return rows


def _rank_mod(rows: list[dict[int, int]], p: int) -> int:
    """
    Rank over Z/p of sparse rows {column: value}.  Each row is reduced by
    the pivot row of its leading column until its leading column has none;
    it then becomes that column's pivot row, scaled to lead with 1 and kept
    without its leading entry.  Every entry of a pivot row lies right of its
    column, so each reduction moves the leading column right.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row.pop(c), -1, p)
                pivots[c] = {d: v * inv % p for d, v in row.items()}
                break
            f = row.pop(c)
            for d, v in piv.items():
                w = (row.get(d, 0) - f * v) % p
                if w:
                    row[d] = w
                else:
                    row.pop(d, None)
    return len(pivots)


def gls_check(m: Multisegment, trials: int = 3, seed: int = 0) -> tuple[bool, GlsReport]:
    """
    Decide the open-orbit condition.  True outcomes are proofs: either a
    strong matching or a full-rank specialization over the prime field.
    False outcomes are proofs when a certificate exists (too many
    irreducible pairs, or no neighbour-respecting matching at all) and
    otherwise carry the residual error bound of the randomized test.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    X, Xt, adj, labels = link_tables(m)
    if not X:
        return True, GlsReport(True, "strong-matching")
    k = len(m)
    size, _ = maximum_matching(adj)
    if size < len(X):
        return False, GlsReport(
            False,
            "certificate",
            certificate=f"no neighbour-respecting matching ({size} < {len(X)})",
        )
    irr = irreducible_pairs(m, adj=adj)
    if len(irr) >= k:
        return False, GlsReport(
            False, "certificate", certificate=f"{len(irr)} irreducible pairs >= {k}"
        )
    strong = find_strong_matching(m, adj=adj, labels=labels)
    if strong is not None:
        return True, GlsReport(True, "strong-matching")
    rng = random.Random(seed)
    p = GLS_PRIME
    best_rank = 0
    last_lambda: dict = {}
    for _ in range(trials):
        lam = {x: rng.randrange(1, p) for x in sorted(X)}
        rank = _rank_mod(_gls_vectors_mod(m, X, Xt, lam, p), p)
        if rank == len(X):
            return True, GlsReport(
                True,
                "rank",
                trials=trials,
                witness_lambda=lam,
                field=p,
                rank_achieved=rank,
            )
        if rank > best_rank:
            best_rank = rank
            last_lambda = lam
    return False, GlsReport(
        False,
        "rank",
        trials=trials,
        witness_lambda=last_lambda,
        field=p,
        rank_achieved=best_rank,
        residual_error=(len(X) / p) ** trials,
    )


# ---------------------------------------------------------------------------
# the combined verdict


@dataclass
class Verdict:
    input_str: str
    regular: bool
    balanced: Optional[bool]
    gls: GlsReport
    kl_one: Optional[bool]
    pattern_free: Optional[bool]
    agree: Optional[bool]
    square_irreducible: Optional[bool]

    def to_json(self) -> dict:
        return {
            "input": self.input_str,
            "regular": self.regular,
            "balanced": self.balanced,
            "gls": self.gls.to_json(),
            "kl_one": self.kl_one,
            "pattern_free": self.pattern_free,
            "agree": self.agree,
            "square_irreducible": self.square_irreducible,
        }


def kl_criterion(m: Multisegment, pair: Optional[tuple[Perm, Perm]] = None) -> bool:
    """
    P(1) == 1 for the pair of permutations attached to m.  ``pair`` is
    ``attached_pair(m)`` when the caller already has it.
    """
    return K.kl_at_one(*(pair or attached_pair(m))) == 1


def decide_square_irreducible(m: Multisegment, trials: int = 3, seed: int = 0) -> Verdict:
    """
    Evaluate all four criteria and cross-check.  For regular input the
    common value is the verdict.  For non-regular input only gls is reported
    and no verdict is claimed (the equivalence is conjectural there).
    kl_one is None there too: P_{sigma0,sigma}(1) of the factorization is no
    criterion for such input, and it says False on square-irreducible ones
    such as [1]+[1]+[0,1]+[0,1], whose segments are pairwise unlinked
    (Zelevinsky, Ann. Sci. ENS 13 (1980), Thm. 9.7).
    """
    gls_value, gls_report = gls_check(m, trials=trials, seed=seed)
    if not m.is_regular:
        return Verdict(str(m), False, None, gls_report, None, None, None, None)
    # the factorization is the common input of kl_one and balanced, not a route
    pair = attached_pair(m)
    klv = kl_criterion(m, pair=pair)
    bal = is_balanced(m, pair=pair)
    pat = has_forbidden_type(m) is None
    agree = bal == pat == klv == gls_value
    return Verdict(str(m), True, bal, gls_report, klv, pat, agree, bal)


# ---------------------------------------------------------------------------
# minimal unbalanced classification


def _case_4231(m: Multisegment) -> Optional[int]:
    segs = m.segments
    k = len(segs)
    if k < 4:
        return None
    if not all(segs[k - 1].a < segs[i].a < segs[0].a for i in range(1, k - 1)):
        return None
    for i in range(1, k - 2):
        for j in range(1, k - 2):
            if segs[i + 1].a < segs[j].a < segs[i].a:
                return None
    gaps = [i for i in range(k - 1) if not precedes(segs[i + 1], segs[i])]
    if not gaps:
        return None
    r = max(gaps) + 1  # 1-based
    if r >= k - 1:
        return None
    if not precedes(segs[r], segs[0]):
        return None
    return r


def _case_3412(m: Multisegment) -> Optional[int]:
    segs = m.segments
    k = len(segs)
    if k < 4:
        return None
    for r in range(2, k - 1):  # 1-based r with 1 < r < k-1
        tau = list(range(k))
        tau[r - 1], tau[r] = tau[r], tau[r - 1]
        ok = all(
            precedes(segs[tau[i]], segs[tau[i - 1]])
            for i in range(1, k)
            if i != r
        )
        if not ok:
            continue
        if segs[tau[1]].a < segs[k - 1].a < segs[0].a < segs[tau[k - 2]].a:
            return r
    return None


def _case_34_12(m: Multisegment) -> bool:
    segs = m.segments
    k = len(segs)
    if k <= 4:
        return False
    checks = [
        segs[0].a <= segs[1].a and segs[1].b <= segs[0].b,  # second nested in first
        precedes(segs[2], segs[0]),
        all(precedes(segs[i + 1], segs[i]) for i in range(2, k - 3)),
        precedes(segs[k - 1], segs[k - 3]),
        segs[k - 2].a <= segs[k - 1].a and segs[k - 1].b <= segs[k - 2].b,
        precedes(segs[k - 1], segs[1]),
    ]
    return all(checks)


def classify_minimal_unbalanced(
    m: Multisegment,
) -> Optional[tuple[str, Optional[int]]]:
    """
    Detect the three shapes of minimal unbalanced multisegments; returns the
    case name and its shift parameter, or None for anything else.
    """
    if not m.is_regular:
        raise ValueError("classification requires a regular multisegment")
    hits: list[tuple[str, Optional[int]]] = []
    r1 = _case_4231(m)
    if r1 is not None:
        hits.append(("4*23*1", r1))
    r2 = _case_3412(m)
    if r2 is not None:
        hits.append(("3*41*2", r2))
    if _case_34_12(m):
        hits.append(("34*12", None))
    if len(hits) > 1:
        raise AssertionError(f"overlapping minimal-unbalanced cases for {m}: {hits}")
    return hits[0] if hits else None


def unbalanced_removal(m: Multisegment) -> Optional[Segment]:
    """The first detachable segment of m whose removal leaves the rest unbalanced, or None."""
    for i in detachable_segments(m):
        if not is_balanced(m.remove_at(i)):
            return m.segments[i - 1]
    return None


def minimal_unbalanced_brute(m: Multisegment) -> bool:
    """Direct definition: unbalanced, with every detachable removal balanced."""
    return not is_balanced(m) and unbalanced_removal(m) is None


# ---------------------------------------------------------------------------
# basic families


def basic_family(kind: str, k: int, l: Optional[int] = None) -> Multisegment:
    """
    The three families of minimal unbalanced multisegments, by shape:
    ``4231`` (k >= 4), ``3412`` (k > l > 2), ``3412b`` (k > 4).
    """
    if kind == "4231":
        if k < 4:
            raise ValueError("kind 4231 requires k >= 4")
        return (
            Multisegment([Segment(k, k + 1), Segment(2, k), Segment(1, 2)])
            + speh(Segment(k - 1, k - 1), k - 3)
        )
    if kind == "3412":
        if l is None or not (k > l > 2):
            raise ValueError("kind 3412 requires k > l > 2")
        return (
            Multisegment(
                [
                    Segment(l, l + k - 1),
                    Segment(k, k + 1),
                    Segment(1, k),
                    Segment(l - 1, l),
                ]
            )
            + speh(Segment(l - 2, l + k - 2), l - 3)
            + speh(Segment(k - 1, k - 1), k - l - 1)
        )
    if kind == "3412b":
        if k <= 4:
            raise ValueError("kind 3412b requires k > 4")
        segs = [Segment(k - 1, 2 * k - 2), Segment(k, 2 * k - 3)]
        segs += [Segment(k - 1 - i, 2 * k - 3 - i) for i in range(1, k - 3)]
        segs += [Segment(1, k), Segment(2, k - 1)]
        return Multisegment(segs)
    raise ValueError(f"unknown family kind {kind!r}")


# ---------------------------------------------------------------------------
# expansion in the standard basis


def grothendieck_expansion(A: B.BiSequence, sigma: Perm) -> dict[Perm, int]:
    """
    Signed Kazhdan-Lusztig values over the interval attached to (A, sigma):
    sigma' maps to sgn(sigma'sigma) * P(1).  Requires A regular and sigma
    admissible for it.
    """
    if not A.is_regular:
        raise ValueError("expansion requires a regular bi-sequence")
    sigma = P.check_permutation(sigma)
    sigma0 = B.sigma0(A)
    if not P.bruhat_leq(sigma0, sigma):
        raise ValueError("sigma is not above the minimal permutation of A")
    sgn_sigma = P.sign(sigma)
    out: dict[Perm, int] = {}
    for sp in P.all_perms(len(sigma)):
        if P.bruhat_leq(sigma0, sp) and P.bruhat_leq(sp, sigma):
            out[sp] = sgn_sigma * P.sign(sp) * K.kl_at_one(sp, sigma)
    return out
