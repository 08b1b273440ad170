"""
Bi-sequences and the parameterization of multisegments by permutations.

A bi-sequence pairs a nondecreasing row a_1 <= ... <= a_k with a
nonincreasing row b_1 >= ... >= b_k subject to a_{k+1-i} <= b_i + 1.  The
pair (A, sigma) encodes the multisegment sum of [a_{sigma^{-1}(i)}, b_i];
entries with a = b + 1 are dropped and any entry with a > b + 1 kills the
whole assignment.

Printing: ``(1,2,3,4 ; 5,4,3,2)``.  Dyck words are strings over {X, Y}.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional, Union

from . import perm as P
from .multiseg import Multisegment, Segment
from .perm import Perm


class BiSequence(NamedTuple):
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __str__(self) -> str:
        return f"({','.join(map(str, self.a))} ; {','.join(map(str, self.b))})"

    @property
    def k(self) -> int:
        return len(self.a)

    @property
    def is_regular(self) -> bool:
        return all(x < y for x, y in zip(self.a, self.a[1:])) and all(
            x > y for x, y in zip(self.b, self.b[1:])
        )


def bi_sequence(a, b) -> BiSequence:
    """Validated constructor."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        raise ValueError("rows have different lengths")
    if any(x > y for x, y in zip(a, a[1:])):
        raise ValueError(f"first row not nondecreasing: {a}")
    if any(x < y for x, y in zip(b, b[1:])):
        raise ValueError(f"second row not nonincreasing: {b}")
    k = len(a)
    for i in range(1, k + 1):
        if a[k - i] > b[i - 1] + 1:
            raise ValueError(f"bi-sequence constraint fails at i={i}: {a} ; {b}")
    return BiSequence(a, b)


def parse_bisequence(text: str) -> BiSequence:
    """Parse ``(1,2,3 ; 4,3,2)`` (parentheses optional)."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if ";" not in body:
        raise ValueError(f"expected ';' separating the two rows: {text!r}")
    left, right = body.split(";", 1)
    try:
        a = tuple(int(x) for x in left.replace(" ", "").split(",") if x)
        b = tuple(int(x) for x in right.replace(" ", "").split(",") if x)
    except ValueError as exc:
        raise ValueError(f"bad integer in bi-sequence {text!r}") from exc
    return bi_sequence(a, b)


def akl(k: int, l: int) -> BiSequence:
    """The staircase bi-sequence (1..k ; k+l-1..l)."""
    return bi_sequence(range(1, k + 1), range(k + l - 1, l - 1, -1))


def sigma0(A: BiSequence) -> Perm:
    """
    The minimal permutation admissible for A: built value by value from the
    top, sending each i to the largest unused index j with a_j <= b_i + 1.
    The result is 213-avoiding.

    As i falls, b_i + 1 grows and the admissible j form a growing prefix
    (the rows are monotone), so the largest unused one is the top of a
    stack that takes each index in increasing order as it becomes
    admissible.
    """
    k = A.k
    a, b = A.a, A.b
    out = [0] * k
    stack = []
    j = 0
    for i in range(k, 0, -1):
        bound = b[i - 1] + 1
        while j < k and a[j] <= bound:
            j += 1
            stack.append(j)
        if not stack:
            raise ValueError(f"invalid bi-sequence {A}")
        out[stack.pop() - 1] = i
    return tuple(out)


def multisegment_of(A: BiSequence, sigma: Perm) -> Optional[Multisegment]:
    """
    The multisegment with segments [a_{sigma^{-1}(i)}, b_i]; None when some
    entry has a > b + 1 (exactly when sigma is not above sigma0(A)).
    """
    if len(sigma) != A.k:
        raise ValueError("permutation size does not match bi-sequence")
    inv = P.inverse(sigma)
    segs = []
    for i in range(A.k):
        a = A.a[inv[i] - 1]
        b = A.b[i]
        if a > b + 1:
            return None
        if a <= b:
            segs.append(Segment(a, b))
    return Multisegment(segs)


def factorize(m: Multisegment) -> tuple[BiSequence, Perm]:
    """
    Canonical (A, sigma) with multisegment_of(A, sigma) == m: row b lists the
    ends in canonical order, row a the begins sorted increasingly, and sigma
    matches them up (ties by canonical index, which minimizes the length).
    """
    k = len(m)
    b = tuple(d.b for d in m.segments)
    order = sorted(range(k), key=lambda i: (m.segments[i].a, i))
    a = tuple(m.segments[i].a for i in order)
    sigma = tuple(i + 1 for i in order)
    return bi_sequence(a, b), sigma


def duplicate(A: BiSequence, sigma: Perm, m: int) -> tuple[BiSequence, Perm]:
    """Repeat every column of A m-fold and inflate sigma accordingly."""
    if m < 2:
        raise ValueError("duplication factor must be at least 2")
    a = tuple(x for x in A.a for _ in range(m))
    b = tuple(x for x in A.b for _ in range(m))
    return bi_sequence(a, b), P.inflate(sigma, m)


# ---------------------------------------------------------------------------
# Dyck words


def is_dyck_word(word: str) -> bool:
    if len(word) % 2 or any(c not in "XY" for c in word):
        return False
    bal = 0
    for c in word:
        bal += 1 if c == "X" else -1
        if bal < 0:
            return False
    return bal == 0


def all_dyck_words(k: int) -> Iterator[str]:
    """All Dyck words with k X's and k Y's, lexicographic (X < Y)."""

    def rec(prefix: str, opens: int, closes: int) -> Iterator[str]:
        if opens == k and closes == k:
            yield prefix
            return
        if opens < k:
            yield from rec(prefix + "X", opens + 1, closes)
        if closes < opens:
            yield from rec(prefix + "Y", opens, closes + 1)

    return rec("", 0, 0)


def dyck_to_biseq(word: str) -> BiSequence:
    """
    a_i is one more than the position of the i-th X from the left, b_i one
    less than the position of the i-th Y from the right.
    """
    if not is_dyck_word(word):
        raise ValueError(f"not a Dyck word: {word!r}")
    xs = [i + 1 for i, c in enumerate(word) if c == "X"]
    ys = [i + 1 for i, c in enumerate(word) if c == "Y"]
    a = tuple(p + 1 for p in xs)
    b = tuple(p - 1 for p in reversed(ys))
    return bi_sequence(a, b)


def sigma0_to_dyck(w: Perm) -> str:
    """
    Inverse construction: the i-th Y from the right sits after
    max_{j >= i} w^{-1}(j) X's.
    """
    k = len(w)
    inv = P.inverse(w)
    x_counts = [0] * (k + 1)
    running = 0
    for i in range(k, 0, -1):
        running = max(running, inv[i - 1])
        x_counts[i] = running
    y_positions = {x_counts[k + 1 - j] + j for j in range(1, k + 1)}
    return "".join("Y" if p in y_positions else "X" for p in range(1, 2 * k + 1))


def is_normalized(A: BiSequence) -> bool:
    """Regular with a_1 = 2 and b_1 = 2k - 1: the window of the bijections."""
    return A.is_regular and A.k > 0 and A.a[0] == 2 and A.b[0] == 2 * A.k - 1


def normalize(A: BiSequence) -> BiSequence:
    """
    Order-preserving relabeling of a regular bi-sequence into the normalized
    window; the admissibility comparisons (hence sigma0) are unchanged.
    """
    if not A.is_regular:
        raise ValueError("normalize expects a regular bi-sequence")
    # merge begins (weight 2a) and shifted ends (weight 2b + 3); X for begins
    marks = sorted([(2 * x, "X") for x in A.a] + [(2 * x + 3, "Y") for x in A.b])
    word = "".join(c for _, c in marks)
    return dyck_to_biseq(word)


class DyckTriple(NamedTuple):
    word: str
    biseq: BiSequence
    perm: Perm


def dyck_bijections(x: Union[str, BiSequence, Perm]) -> DyckTriple:
    """
    Complete any one of (Dyck word, normalized regular bi-sequence,
    213-avoiding permutation) to the full matching triple.
    """
    if isinstance(x, str):
        word = x
        A = dyck_to_biseq(word)
        return DyckTriple(word, A, sigma0(A))
    if isinstance(x, BiSequence):
        if not is_normalized(x):
            raise ValueError(f"bi-sequence not in the normalized window: {x}")
        w = sigma0(x)
        return DyckTriple(sigma0_to_dyck(w), x, w)
    w = P.check_permutation(x)
    if not P.is_213_avoiding(w):
        raise ValueError(f"permutation is not 213-avoiding: {w}")
    word = sigma0_to_dyck(w)
    return DyckTriple(word, dyck_to_biseq(word), w)


def normalized_bisequences(k: int) -> Iterator[BiSequence]:
    """All normalized regular bi-sequences of size k, one per Dyck word."""
    for word in all_dyck_words(k):
        yield dyck_to_biseq(word)
