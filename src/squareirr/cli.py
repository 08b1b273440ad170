"""
Command-line front end.

Exit codes: 0 for a computed result, 1 when a verification or sweep finds a
property violation, 2 for parse or precondition errors (diagnostics name the
offending token and position).  All randomized paths take ``--seed`` and are
deterministic given it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from . import biseq as B
from . import criteria as C
from . import klidentity as KI
from . import klpoly as K
from . import multiseg as M
from . import perm as P

MAX_EQUIVALENCE_K = 8  # 2,027,025 instances; k = 9 would build 34,459,425 payloads first
MAX_PAR = max(2, os.cpu_count() or 1)  # the CPU count, but never below 2 workers


def _print(obj) -> None:
    sys.stdout.write(obj if isinstance(obj, str) else json.dumps(obj))
    sys.stdout.write("\n")


def _cmd_decide(args) -> int:
    m = M.parse_multisegment(args.multisegment)
    v = C.decide_square_irreducible(m, trials=args.trials, seed=args.seed)
    if args.json:
        _print(v.to_json())
    else:
        _print(f"input:              {v.input_str}")
        _print(f"regular:            {v.regular}")
        _print(f"balanced:           {v.balanced}")
        _print(f"pattern-free:       {v.pattern_free}")
        _print(f"kl value 1:         {v.kl_one}")
        _print(f"gls:                {v.gls.value} (method: {v.gls.method})")
        _print(f"agree:              {v.agree}")
        _print(f"square-irreducible: {v.square_irreducible}")
    return 0


def _cmd_involution(args) -> int:
    m = M.parse_multisegment(args.multisegment)
    res = M.involution(m)
    _print({"input": str(m), "involution": str(res)} if args.json else str(res))
    return 0


def _cmd_derivative(args) -> int:
    m = M.parse_multisegment(args.multisegment)
    fn = M.left_derivative if args.side == "l" else M.right_derivative
    res = fn(m, args.at)
    if args.json:
        if res is None:
            _print({"input": str(m), "at": args.at, "side": args.side, "result": None})
        else:
            _print(
                {
                    "input": str(m),
                    "at": args.at,
                    "side": args.side,
                    "result": str(res[0]),
                    "multiplicity": res[1],
                }
            )
    else:
        _print("absent" if res is None else f"{res[0]} (multiplicity {res[1]})")
    return 0


def _cmd_kl(args) -> int:
    if args.cache_file:
        try:
            K.load_cache(args.cache_file)
        except FileNotFoundError:
            pass
    x = P.parse_perm(args.x)
    w = P.parse_perm(args.w)
    poly = K.kl_polynomial(x, w)
    if args.json:
        _print({"x": list(x), "w": list(w), "coefficients": poly.to_json()})
    else:
        _print(str(poly))
    if args.cache_file:
        K.save_cache(args.cache_file)
    return 0


def _cmd_expand(args) -> int:
    A = B.parse_bisequence(args.bisequence)
    sigma = P.parse_perm(args.sigma)
    expansion = C.grothendieck_expansion(A, sigma)
    items = sorted(expansion.items())
    if args.json:
        _print({"terms": [{"sigma": list(s), "coefficient": c} for s, c in items]})
    else:
        for s, c in items:
            _print(f"{P.format_perm(s)}: {c:+d}")
    return 0


def _cmd_family(args) -> int:
    m = C.basic_family(args.kind, args.k, args.l)
    _print({"kind": args.kind, "k": args.k, "l": args.l, "multisegment": str(m)} if args.json else str(m))
    return 0


def _cmd_identity(args) -> int:
    if args.cache_file:
        try:
            K.load_cache(args.cache_file)
        except FileNotFoundError:
            pass
    sigma = P.parse_perm(args.sigma)
    sigma0 = P.parse_perm(args.sigma0)
    if args.which == "klidnt":
        report = KI.verify_klidnt(sigma0, sigma)
    else:
        report = KI.verify_higher(sigma0, sigma, args.m, opt_in_large=args.opt_in_large)
    if args.json:
        _print(report.to_json())
    else:
        for c in report.cosets:
            _print(f"coset {c.matrix}: lhs={c.lhs} rhs={c.rhs} {'ok' if c.ok else 'FAIL'}")
        for p in report.parabolic:
            _print(f"parabolic sum at {P.format_perm(p.sigma_prime)}: {p.total} {'ok' if p.ok else 'FAIL'}")
        _print("PASS" if report.passed else "FAIL")
    if args.cache_file:
        K.save_cache(args.cache_file)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# sweeps


def _equivalence_instances(k: int):
    for A in B.normalized_bisequences(k):
        s0 = B.sigma0(A)
        for sigma in P.all_perms(k):
            if P.bruhat_leq(s0, sigma):
                yield A, sigma


def _equivalence_worker(payload):
    idx, a, b, sigma, trials, seed = payload
    A = B.BiSequence(tuple(a), tuple(b))
    m = B.multisegment_of(A, sigma)
    v = C.decide_square_irreducible(m, trials=trials, seed=seed)
    rank_only = v.gls.value and v.gls.method == "rank"
    values = (v.balanced, v.pattern_free, v.kl_one, v.gls.value)
    return idx, str(A), sigma, v.agree, values, rank_only


def _sweep_equivalence(args) -> int:
    payloads = []
    for idx, (A, sigma) in enumerate(_equivalence_instances(args.k)):
        if args.limit is not None and idx >= args.limit:
            break
        payloads.append((idx, A.a, A.b, sigma, args.trials, args.seed))
    bad = 0
    results = []
    if args.par > 1:
        with ProcessPoolExecutor(max_workers=args.par) as pool:
            results = list(pool.map(_equivalence_worker, payloads, chunksize=32))
    else:
        for i, payload in enumerate(payloads):
            results.append(_equivalence_worker(payload))
            if not args.json and i % 200 == 199:
                print(f"... {i + 1}/{len(payloads)}", file=sys.stderr)
    results.sort(key=lambda r: r[0])
    rank_only = []
    for idx, a_str, sigma, agree, values, ro in results:
        if not agree:
            bad += 1
            bal, pat, klv, gls = values
            _print(
                f"DISAGREE at instance {idx}: {a_str} sigma={P.format_perm(sigma)} "
                f"balanced={bal} pattern_free={pat} kl_one={klv} gls={gls}"
            )
        if ro:
            # open experimental question: rank succeeded, no strong matching
            # found within the search budget
            rank_only.append(idx)
            _print(f"RANK-ONLY instance {idx}: {a_str} sigma={P.format_perm(sigma)}")
    summary = {
        "sweep": "equivalence",
        "k": args.k,
        "instances": len(results),
        "disagreements": bad,
        "rank_only_true": len(rank_only),
    }
    _print(summary if args.json else f"{len(results)} instances, {bad} disagreements, {len(rank_only)} rank-only")
    return 1 if bad else 0


def _sweep_involution(args) -> int:
    import random

    count = args.limit if args.limit is not None else 10000
    bad = 0
    for i in range(count):
        rng = random.Random((args.seed << 32) + i)
        m = M.random_multisegment(rng, max_segments=5, lo=0, hi=9, max_len=5)
        mm = M.involution(M.involution(m))
        if mm != m or mm.deg != m.deg or mm.supp != m.supp:
            bad += 1
            _print(f"VIOLATION at instance {i}: {m}")
    _print(
        {"sweep": "involution", "instances": count, "violations": bad}
        if args.json
        else f"{count} instances, {bad} violations"
    )
    return 1 if bad else 0


def _sweep_gls_stability(args) -> int:
    import random

    count = args.limit if args.limit is not None else 1000
    bad = 0
    # how each gls_check call was decided; "rank" counts the calls whose
    # search found no strong matching within its budget
    by_method = {"strong-matching": 0, "rank": 0, "certificate": 0}

    def gls(m) -> bool:
        value, report = C.gls_check(m, trials=args.trials, seed=args.seed)
        by_method[report.method] += 1
        return value

    for i in range(count):
        rng = random.Random((args.seed << 32) + i)
        m = M.random_multisegment(rng, max_segments=6)
        base = gls(m)
        for other in (M.involution(m), M.dual(m)):
            if gls(other) != base:
                bad += 1
                _print(f"VIOLATION (transform) at instance {i}: {m}")
        if base:
            for c in set(m.supp):
                for fn in (M.left_derivative, M.right_derivative):
                    res = fn(m, c)
                    if res is not None and not gls(res[0]):
                        bad += 1
                        _print(f"VIOLATION (derivative at {c}) at instance {i}: {m}")
    _print(
        {"sweep": "gls-stability", "instances": count, "violations": bad, "by_method": by_method}
        if args.json
        else f"{count} instances, {bad} violations"
    )
    return 1 if bad else 0


def _sweep_minimal_unbalanced(args) -> int:
    bad = 0
    total = 0
    for idx, (A, sigma) in enumerate(_equivalence_instances(args.k)):
        if args.limit is not None and idx >= args.limit:
            break
        m = B.multisegment_of(A, sigma)
        total += 1
        by_cases = C.classify_minimal_unbalanced(m)
        by_brute = C.minimal_unbalanced_brute(m)
        if (by_cases is not None) != by_brute:
            bad += 1
            name, r = by_cases or ("none", None)
            case = name if r is None else f"{name} r={r}"
            witness = None if by_brute else C.unbalanced_removal(m)
            brute = "minimal" if by_brute else f"removing {witness} stays unbalanced" if witness else "balanced"
            _print(f"MISMATCH at instance {idx}: {m}: classifier {case}; brute force {brute}")
    _print(
        {"sweep": "minimal-unbalanced", "k": args.k, "instances": total, "mismatches": bad}
        if args.json
        else f"{total} instances, {bad} mismatches"
    )
    return 1 if bad else 0


def _cmd_sweep(args) -> int:
    if not 1 <= args.par <= MAX_PAR:
        raise ValueError(f"--par must be between 1 and {MAX_PAR}, got {args.par}")
    if args.which == "equivalence" and not 0 <= args.k <= MAX_EQUIVALENCE_K:
        raise ValueError(f"--k must be between 0 and {MAX_EQUIVALENCE_K} for the equivalence sweep, got {args.k}")
    if args.which in ("equivalence", "gls-stability") and args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    return {
        "equivalence": _sweep_equivalence,
        "involution": _sweep_involution,
        "gls-stability": _sweep_gls_stability,
        "minimal-unbalanced": _sweep_minimal_unbalanced,
    }[args.which](args)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squareirr",
        description="Combinatorial criteria for square-irreducibility of regular multisegments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--json", action="store_true", help="emit JSON")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=3)

    p = sub.add_parser("decide", help="full cross-checked verdict for a multisegment")
    p.add_argument("multisegment")
    common(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("criteria", help="report the individual criteria")
    p.add_argument("multisegment")
    common(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("involution", help="the multisegment transpose")
    p.add_argument("multisegment")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_involution)

    p = sub.add_parser("derivative", help="left or right point-removal derivative")
    p.add_argument("multisegment")
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--side", choices=("l", "r"), default="l")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_derivative)

    p = sub.add_parser("kl", help="Kazhdan-Lusztig polynomial of a pair")
    p.add_argument("x")
    p.add_argument("w")
    p.add_argument("--cache-file")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_kl)

    p = sub.add_parser("expand", help="signed KL expansion attached to (bi-sequence, permutation)")
    p.add_argument("bisequence")
    p.add_argument("sigma")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("identity", help="verify the signed KL coset identities")
    p.add_argument("which", choices=("klidnt", "higher"))
    p.add_argument("--sigma", required=True)
    p.add_argument("--sigma0", required=True)
    p.add_argument("--m", type=int, default=2, help="block width for 'higher'")
    p.add_argument("--opt-in-large", action="store_true")
    p.add_argument("--cache-file")
    common(p, seeded=False)
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("sweep", help="property sweeps")
    p.add_argument("which", choices=("equivalence", "involution", "gls-stability", "minimal-unbalanced"))
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--limit", type=int)
    p.add_argument("--par", type=int, default=1)
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("family", help="basic minimal-unbalanced families")
    p.add_argument("kind", choices=("4231", "3412", "3412b"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int)
    common(p, seeded=False)
    p.set_defaults(func=_cmd_family)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, M.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left early (``| head``); stdout goes to devnull, so that
        # the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
