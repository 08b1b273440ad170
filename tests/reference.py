"""
Independent references and helpers that only the tests use.

The numpy tables decide Bruhat order by comparing whole rank matrices, with
no code shared with ``perm.bruhat_leq`` or the packed ranks of
``klpoly._SymContext``; numpy is a test dependency only.
"""

import itertools
from functools import lru_cache
from typing import Iterator

from squareirr import perm as P
from squareirr.klidentity import CosetMatrix
from squareirr.perm import Perm, sn


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


def longest_element(k: int) -> Perm:
    return tuple(range(k, 0, -1))


def transpositions(k: int) -> Iterator[tuple[int, int]]:
    """All pairs (i, j) with 1 <= i < j <= k, naming the transposition t_{i,j}."""
    return itertools.combinations(range(1, k + 1), 2)


def apply_transposition(w: Perm, i: int, j: int) -> Perm:
    """Right multiplication w * t_{i,j}: swaps the entries at positions i, j."""
    word = list(w)
    word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
    return tuple(word)


def ascent_set(w: Perm) -> frozenset[int]:
    """{i < k : w(i) < w(i+1)} together with k."""
    k = len(w)
    return frozenset(i for i in range(1, k) if w[i - 1] < w[i]) | {k}


def all_coset_matrices(k: int, m: int = 2) -> Iterator[CosetMatrix]:
    """All k x k nonnegative matrices with every row and column sum m."""

    def rows_with_budget(budget: list[int]) -> Iterator[tuple[int, ...]]:
        row = [0] * k

        def rec(j: int, remaining: int) -> Iterator[tuple[int, ...]]:
            if j == k:
                if remaining == 0:
                    yield tuple(row)
                return
            top = min(remaining, budget[j])
            for v in range(top, -1, -1):
                row[j] = v
                yield from rec(j + 1, remaining - v)
            row[j] = 0

        yield from rec(0, m)

    def rec_rows(i: int, budget: list[int], acc: list[tuple[int, ...]]) -> Iterator[CosetMatrix]:
        if i == k:
            yield CosetMatrix(tuple(acc), m)
            return
        for row in rows_with_budget(budget):
            nxt = [b - v for b, v in zip(budget, row)]
            acc.append(row)
            yield from rec_rows(i + 1, nxt, acc)
            acc.pop()

    yield from rec_rows(0, [m] * k, [])


@lru_cache(maxsize=8)
def rank_table(k: int):
    """numpy array of shape (k!, k*k) holding every rank matrix, lex order."""
    import numpy as np

    perms = sn(k)
    table = np.empty((len(perms), k * k), dtype=np.uint8)
    for idx, w in enumerate(perms):
        rm = rank_matrix(w)
        table[idx] = [rm[i][j] for i in range(k) for j in range(k)]
    return table


@lru_cache(maxsize=4)
def leq_table(k: int):
    """Boolean matrix L with L[x, w] = (x <= w in Bruhat order), lex indices."""
    import numpy as np

    table = rank_table(k)
    n = table.shape[0]
    out = np.empty((n, n), dtype=bool)
    for w in range(n):
        out[:, w] = (table >= table[w]).all(axis=1)
    return out


def tight_violations_by_tables(k: int) -> list[tuple[Perm, Perm, Perm]]:
    """
    ``klidentity.tight_violations`` with its smoothness filter dropped, on the
    numpy tables: every sigma0 <= sigma against every tau, in the order
    sigma, sigma0, tau.
    """
    import numpy as np

    perms = P.sn(k)
    ranks = rank_table(k).astype(np.int16)
    leq = leq_table(k)
    violations = []
    for si, sigma in enumerate(perms):
        rs = ranks[si]
        for s0i in np.nonzero(leq[:, si])[0]:
            mask = ranks[s0i] == rs
            tau_ok = (ranks[:, mask] == rs[mask]).all(axis=1)
            bad = np.nonzero(tau_ok & ~leq[:, si])[0]
            for ti in bad:
                violations.append((perms[s0i], sigma, perms[ti]))
    return violations
