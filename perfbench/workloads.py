"""
The workloads: their fixed instance pools, their set-up, and the operation
each one times.

Every workload runs a fixed pool of instances; the seed sets the order of
each pass and the seed of the randomized rank test.  A pool is fixed because
the cost of one instance is heavy-tailed (on gls-stability the costliest 3%
of instances take over 90% of the time), so a pool drawn afresh from each
seed would make throughput a property of the draw, not of the code.  Pools
are sorted, so they do not depend on the order in which the library
enumerates things, and fingerprinted against the golden answers in
``golden/``.

An operation returns ``(answer, ok, checks)``: ``answer`` is the text the
output check compares with the golden answer, ``ok`` is the program's own
verdict on the instance (criteria agree, identity passed, gls stable), and
``checks`` counts the identity checks made.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, NamedTuple

from squareirr import biseq as B
from squareirr import criteria as C
from squareirr import klidentity as KI
from squareirr import klpoly as K
from squareirr import multiseg as M
from squareirr import perm as P

GLS_POOL = 100  # the first instances of acceptance criterion 06
GLS_MASTER = 7


def _segments(m) -> tuple:
    return tuple((d.a, d.b) for d in m.segments)


def _sweep_pairs(k: int):
    for A in sorted(B.normalized_bisequences(k)):
        s0 = B.sigma0(A)
        for sigma in P.all_perms(k):
            if P.bruhat_leq(s0, sigma):
                yield A, sigma


def _pool_sweep_k6() -> list:
    return sorted(_segments(B.multisegment_of(A, sigma)) for A, sigma in _sweep_pairs(6))


def _pool_gls_stability() -> list:
    return sorted(
        _segments(M.random_multisegment(random.Random((GLS_MASTER << 32) + i), max_segments=6))
        for i in range(GLS_POOL)
    )


def _pool_identity_k4() -> list:
    pool = []
    for k in (3, 4):
        for s0 in P.all_perms(k):
            if not P.is_213_avoiding(s0):
                continue
            for sigma in P.all_perms(k):
                if P.bruhat_leq(s0, sigma) and P.smooth_pair_data(s0, sigma).is_smooth:
                    pool.append((s0, sigma))
    return sorted(pool)


def _bit(value) -> str:
    return "-" if value is None else str(int(bool(value)))


def _multisegment(segments) -> M.Multisegment:
    return M.Multisegment(M.Segment(a, b) for a, b in segments)


def op_decide(m, seed: int):
    v = C.decide_square_irreducible(m, seed=seed)
    answer = "".join(
        _bit(x) for x in (v.balanced, v.pattern_free, v.kl_one, v.gls.value, v.square_irreducible)
    )
    return answer, v.agree is True, 0


def op_stability(m, seed: int):
    """Criterion 06: gls is invariant under transpose and dual, and inherited by derivatives."""
    base, _ = C.gls_check(m, seed=seed)
    ok = all(C.gls_check(other, seed=seed)[0] == base for other in (M.involution(m), M.dual(m)))
    if base:
        for c in sorted(set(m.supp)):
            for fn in (M.left_derivative, M.right_derivative):
                res = fn(m, c)
                if res is not None and not C.gls_check(res[0], seed=seed)[0]:
                    ok = False
    return _bit(base), ok, 0


def op_identity(pair, seed: int):
    r = KI.verify_klidnt(*pair)
    answer = ";".join(f"{c.matrix}:{c.lhs}:{c.rhs}" for c in r.cosets)
    answer += "|" + ";".join(f"{P.format_perm(p.sigma_prime, compact=True)}:{p.total}" for p in r.parabolic)
    return answer, r.passed, len(r.cosets) + len(r.parabolic)


def _kl_setup(*ns: int):
    """The first public KL call per n builds the S_n context; that is set-up."""

    def setup():
        for n in ns:
            identity = tuple(range(1, n + 1))
            K.kl_at_one(identity, identity)

    return setup


class Workload(NamedTuple):
    name: str
    pool: Callable[[], list]  # sorted JSON-able instances
    build: Callable  # JSON instance -> argument of op
    op: Callable
    setup: Callable[[], None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-k6",
            _pool_sweep_k6,
            _multisegment,
            op_decide,
            _kl_setup(6),
        ),
        Workload(
            "gls-stability",
            _pool_gls_stability,
            _multisegment,
            op_stability,
            lambda: None,
        ),
        Workload(
            "identity-k4",
            _pool_identity_k4,
            lambda pair: (tuple(pair[0]), tuple(pair[1])),
            op_identity,
            _kl_setup(6, 8),
        ),
    )
}


def fingerprint(pool: list) -> str:
    return hashlib.sha256(json.dumps(pool).encode()).hexdigest()
