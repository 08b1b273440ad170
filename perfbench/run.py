"""
The squareirr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree; it imports the library from ``src/``.
The workloads, the metrics and their units are listed in ``BENCHMARK.json``
at the root; their instance pools and operations are in ``workloads.py``.

Load is a closed loop of one client: one process, no threads, each
operation starting when the one before it has finished.  Every pass over a
workload's pool runs in a fresh process (``child.py``), because the KL
column memo, the S_n contexts, the coset buckets and the ``lru_cache`` of
``perm`` are process-global: a command-line user always starts cold, and a
pass must not inherit the caches of the pass before it.  Passes are whole,
in an order set by the seed, and repeat until the timed operations add up
to ``--seconds``, so a run measures at least that long.

With ``--trace 0`` the last line reports the end-to-end metrics.  Times are
in reference seconds: each process times a fixed loop of tuple and dict work
(``child.calibrate``) next to its set-up or pass, and its wall times are
scaled by ``REFERENCE_CAL_S`` over that loop's time, so that they read as on
a host where the loop takes ``REFERENCE_CAL_S``.  On a shared host the speed
of the same work moved by a third from one run to the next, and the scaling
takes most of that out; the record keeps the unscaled figures.

* ``setup_s``: from starting a child process to the end of its lazy set-up
  (the import, and the S_n contexts built by the first public KL call), the
  median over at least ``SETUP_SAMPLES`` cold processes;
* ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``: operations per second of
  timed operation, and the median and 90th percentile of one operation's
  time, over every operation of every pass;
* ``peak_rss_mb``: the largest peak resident size of a pass process;
* ``success_rate``: operations that neither raised, nor failed the
  program's own check, nor disagreed with the golden answer, over those
  attempted.

With ``--trace 1`` half of ``--seconds`` runs untraced, then the same
passes run again with spans around the layer boundaries (``tracing.py``),
and the last line reports the per-layer metrics, in unscaled seconds;
``trace.overhead`` is the traced throughput over the untraced one, both
scaled.  The line before the last is a record of the run: versions,
machine, commit, seed, the digest of the answers against the golden one,
the per-layer table, and the rows of the ROADMAP baseline that map to a
measured number.

Exit status: 0 when a result is printed (its ``correct`` field tells
whether every answer was right), 1 when a pass process fails or the run
would overrun its deadline, 2 on bad arguments or a missing source tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 3
REFERENCE_CAL_S = 0.020  # child.calibrate() on the reference host
SELFTEST_OPS = 4


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes


class Child:
    """A cold ``child.py`` process, timed from its start to the end of its set-up."""

    def __init__(self, workload: str, deadline: float):
        self.deadline = deadline
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), workload],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._remaining())
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - start
            if not line.startswith("ready "):
                raise BenchError(f"{workload}: child process did not finish its set-up")
            self.ready = json.loads(line[len("ready ") :])
        except BaseException:
            self.close()
            raise

    def _remaining(self) -> float:
        return max(0.0, self.deadline - time.monotonic())

    def run(self, job: dict) -> dict:
        try:
            out, _ = self.proc.communicate(json.dumps(job), timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("the run would overrun its deadline") from None
        finally:
            self.close()
        if self.proc.returncode != 0 or not out.strip():
            raise BenchError(f"child process failed with exit code {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ---------------------------------------------------------------------------
# passes


def quantile_ms(values: list, q: int) -> float:
    """The q-th percentile in milliseconds (0 when there are no samples)."""
    if len(values) < 2:
        return values[0] * 1e3 if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def pass_order(pool_size: int, seed: int, j: int) -> list:
    order = list(range(pool_size))
    random.Random((seed << 16) + j).shuffle(order)
    return order


def run_passes(w, pool, seed, trace, deadline, seconds=0.0, orders=None, save_cache=None):
    """
    Whole passes over the pool in seeded orders until the timed operations
    add up to ``seconds``; with ``orders`` given, exactly those passes, and
    the last one saves the KL cache to ``save_cache``.
    """
    passes = []
    spent = 0.0
    while True:
        j = len(passes)
        if orders is None:
            if passes and spent >= seconds:
                break
            order = pass_order(len(pool), seed, j)
        else:
            if j == len(orders):
                break
            order = orders[j]
        last = orders is not None and j == len(orders) - 1
        child = Child(w.name, deadline)
        res = child.run(
            {
                "mode": "pass",
                "instances": [pool[i] for i in order],
                "seed": seed,
                "trace": trace,
                "save_cache": str(save_cache) if save_cache and last else None,
            }
        )
        res.update(order=order, setup_s=child.setup_s, ctx_build_s=child.ready["ctx_build_s"])
        passes.append(res)
        spent += sum(res["times"])
    return passes


def setup_samples(name, passes, deadline) -> list:
    """``(setup_s, cal_s)`` of each pass process, and of more probes up to ``SETUP_SAMPLES``."""
    samples = [(p["setup_s"], p["cal_s"]) for p in passes]
    while len(samples) < SETUP_SAMPLES:
        child = Child(name, deadline)
        cal = child.run({"mode": "setup"})["cal_s"]
        samples.append((child.setup_s, cal))
    return samples


def check_answers(passes, golden) -> dict:
    """Compare every answer with the golden one; a mismatch fails the operation."""
    got = hashlib.sha256()
    want = hashlib.sha256()
    attempted = failed = 0
    for p in passes:
        bad = set(p["not_ok"])
        for pos, (idx, answer) in enumerate(zip(p["order"], p["answers"])):
            expected = golden["answers"][idx]
            got.update(answer.encode() + b"\n")
            want.update(expected.encode() + b"\n")
            attempted += 1
            failed += pos in bad or answer != expected
    return {
        "attempted": attempted,
        "failed": failed,
        "digest": got.hexdigest(),
        "expected_digest": want.hexdigest(),
    }


def end_to_end(passes, setups, scaled=True) -> dict:
    """The end-to-end metrics, in reference seconds when ``scaled``."""
    scale = (lambda cal: REFERENCE_CAL_S / cal) if scaled else (lambda cal: 1.0)  # noqa: E731
    times = [t * scale(p["cal_s"]) for p in passes for t in p["times"]]
    return {
        "setup_s": statistics.median(s * scale(cal) for s, cal in setups),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": quantile_ms(times, 50),
        "op_p90_ms": quantile_ms(times, 90),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }


def _scaled_time(p) -> float:
    return sum(p["times"]) * REFERENCE_CAL_S / p["cal_s"]


def _empty_layer() -> dict:
    return {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "rank_s": 0.0, "tags": {}, "durations": []}


def merge_layers(passes) -> dict:
    merged: dict = {}
    for p in passes:
        for layer, rec in p["layers"].items():
            m = merged.setdefault(layer, _empty_layer())
            for key in ("calls", "busy_s", "self_s", "rank_s"):
                m[key] += rec.get(key, 0)
            for tag, count in rec["tags"].items():
                m["tags"][tag] = m["tags"].get(tag, 0) + count
            m["durations"] += rec.get("durations", [])
    return merged


def per_layer(plain, traced, load) -> tuple[dict, dict]:
    """The per-layer metrics, and the per-layer table for the record."""
    layers = merge_layers(traced)
    L = lambda name: layers.get(name) or _empty_layer()  # noqa: E731
    op_time = sum(sum(p["times"]) for p in traced)
    plain_rate = sum(len(p["times"]) for p in plain) / sum(map(_scaled_time, plain))
    traced_rate = sum(len(p["times"]) for p in traced) / sum(map(_scaled_time, traced))
    search = L("criteria.gls.search")
    cache = traced[-1]["cache"]
    out = {}
    for c in ("balanced", "pattern", "kl_one", "gls"):
        out[f"criteria.{c}.busy_s"] = L(f"criteria.{c}")["busy_s"]
        out[f"criteria.{c}.share"] = L(f"criteria.{c}")["busy_s"] / op_time
    gls = L("criteria.gls")
    out.update(
        {
            "criteria.kl_one.p90_ms": quantile_ms(L("criteria.kl_one")["durations"], 90),
            "criteria.gls.p50_ms": quantile_ms(gls["durations"], 50),
            "criteria.gls.p99_ms": quantile_ms(gls["durations"], 99),
            "criteria.gls.calls": gls["calls"],
            "criteria.gls.by_strong": gls["tags"].get("strong-matching", 0),
            "criteria.gls.by_rank": gls["tags"].get("rank", 0),
            "criteria.gls.by_certificate": gls["tags"].get("certificate", 0),
            "criteria.gls.rank_s": gls["rank_s"],
            "criteria.gls.strong_share": search["tags"].get("True", 0) / search["calls"] if search["calls"] else 0.0,
            "perm.smooth_pair_data.calls": L("perm.smooth_pair_data")["calls"],
            "perm.smooth_pair_data.busy_s": L("perm.smooth_pair_data")["busy_s"],
            "biseq.factorize.calls": L("biseq.factorize")["calls"],
            "biseq.factorize.busy_s": L("biseq.factorize")["busy_s"],
            "biseq.sigma0.busy_s": L("biseq.sigma0")["busy_s"],
            "klpoly.ctx_build_s": statistics.median(p["ctx_build_s"] for p in plain + traced),
            "klpoly.kl_at_one.busy_s": L("klpoly.kl_at_one")["busy_s"],
            "klpoly.cache.records": cache["records"],
            "klpoly.cache.bytes": cache["bytes"],
            "klpoly.cache.save_s": cache["save_s"],
            "klpoly.cache.load_s": load["load_s"],
            "multiseg.transform.busy_s": L("multiseg.transform")["busy_s"],
            "multiseg.link_data.busy_s": L("multiseg.link_data")["busy_s"],
            "matching.maximum_matching.calls": L("matching.maximum_matching")["calls"],
            "matching.maximum_matching.busy_s": L("matching.maximum_matching")["busy_s"],
            "klidentity.verify_klidnt.busy_s": L("klidentity.verify_klidnt")["busy_s"],
            "klidentity.verify_klidnt.p90_ms": quantile_ms(L("klidentity.verify_klidnt")["durations"], 90),
            "klidentity.verify_klidnt.checks": sum(p["checks"] for p in traced),
            "process.page_faults": sum(p["page_faults"] for p in plain),
            "trace.ops": sum(len(p["times"]) for p in traced),
            "trace.overhead": traced_rate / plain_rate,
        }
    )
    table = {
        name: {k: rec[k] for k in ("calls", "busy_s", "self_s")} | {"tags": rec["tags"]}
        for name, rec in sorted(layers.items())
    }
    return out, table


# ---------------------------------------------------------------------------
# the record


# Rows of the ROADMAP baseline table and the measured number each maps to.
ROADMAP_ROWS = {
    "sweep-k6": [
        ("decide, all k = 6 sweep instances (10,395), s", 3.31, "pass_s"),
        ("balanced share of the k = 6 decide sweep", 1.14 / 3.31, "criteria.balanced.share"),
        ("pattern share of the k = 6 decide sweep", 0.20 / 3.31, "criteria.pattern.share"),
        ("kl share of the k = 6 decide sweep", 0.19 / 3.31, "criteria.kl_one.share"),
        ("gls share of the k = 6 decide sweep", 1.39 / 3.31, "criteria.gls.share"),
    ],
    "identity-k4": [("_SymContext(8) build, s (1.0-1.4)", 1.2, "klpoly.ctx_build_s")],
    "gls-stability": [],
}


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _numpy_version() -> str | None:
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def roadmap_rows(name, passes, metrics) -> list:
    """``passes`` are untraced."""
    known = dict(metrics)
    known["pass_s"] = statistics.median(sum(p["times"]) for p in passes)
    return [
        {"row": row, "roadmap": value, "measured": known[key]}
        for row, value, key in ROADMAP_ROWS[name]
        if key in known
    ]


# ---------------------------------------------------------------------------
# one run


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_golden(name) -> dict:
    with open(BENCH / "golden" / f"{name}.json") as fh:
        return json.load(fh)


def run(name, seed, seconds, trace, spec, golden=None, max_ops=None) -> tuple[dict, dict]:
    """
    One run of one workload: the result line and the record.  ``golden``
    overrides the golden answers and ``max_ops`` truncates the pool (both
    for the self-test).
    """
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    w = workloads.WORKLOADS[name]
    pool = w.pool()
    golden = golden or load_golden(name)
    if max_ops is not None:
        pool = pool[:max_ops]
        golden = dict(golden, answers=golden["answers"][:max_ops], fingerprint=workloads.fingerprint(pool))
    if workloads.fingerprint(pool) != golden["fingerprint"]:
        raise BenchError(f"{name}: the instance pool no longer matches its golden answers")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "pool": len(pool),
    }
    if not trace:
        plain = run_passes(w, pool, seed, False, deadline, seconds)
        traced = []
        setups = setup_samples(name, plain, deadline)
        metrics = end_to_end(plain, setups)
        record["unscaled"] = end_to_end(plain, setups, scaled=False)
        kinds = spec["end_to_end"]
    else:
        WORK.mkdir(parents=True, exist_ok=True)
        cache_path = WORK / f"kl-cache-{os.getpid()}.bin"
        try:
            plain = run_passes(w, pool, seed, False, deadline, seconds / 2)
            orders = [p["order"] for p in plain]
            traced = run_passes(w, pool, seed, True, deadline, orders=orders, save_cache=cache_path)
            load = Child(name, deadline).run({"mode": "load", "path": str(cache_path)})
        finally:
            cache_path.unlink(missing_ok=True)
        metrics, record["layers"] = per_layer(plain, traced, load)
        kinds = spec["per_layer"]
    passes = plain + traced
    checked = check_answers(passes, golden)
    record.update(passes=len(passes), ops=checked["attempted"])
    record.update(cal_s=[p["cal_s"] for p in passes], page_faults=[p["page_faults"] for p in passes])
    record.update(digest=checked["digest"], expected_digest=checked["expected_digest"])
    record["roadmap"] = roadmap_rows(name, plain, metrics)
    metrics["success_rate"] = 1 - checked["failed"] / checked["attempted"]
    correct = checked["failed"] == 0 and checked["digest"] == checked["expected_digest"]
    result = {
        "correct": correct,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {k["name"]: {"value": metrics[k["name"]], "unit": k["unit"]} for k in kinds},
    }
    return result, record


# ---------------------------------------------------------------------------
# self-test


def selftest(spec) -> int:
    """
    Every workload on a few instances: a run against a golden file with one
    corrupted answer must report exactly that operation as failed, a traced
    run against the true golden file must pass, and both must report every
    metric of ``BENCHMARK.json`` with its unit.
    """
    for w in spec["workloads"]:
        name = w["name"]
        golden = load_golden(name)
        answers = list(golden["answers"])
        answers[0] += "x"
        corrupted = dict(golden, answers=answers)
        for trace, kinds, gold, want_failed in ((0, "end_to_end", corrupted, 1), (1, "per_layer", golden, 0)):
            result, record = run(name, 1, 0.0, trace, spec, golden=gold, max_ops=SELFTEST_OPS)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if units != {k["name"]: k["unit"] for k in spec[kinds]}:
                problems.append("metrics or units differ from BENCHMARK.json")
            if result["failed"] != want_failed or result["correct"] != (want_failed == 0):
                problems.append(f"failed = {result['failed']}, correct = {result['correct']}")
            if want_failed and record["digest"] == record["expected_digest"]:
                problems.append("the corrupted golden answer left the digest unchanged")
            if problems:
                print(f"selftest {name} trace={trace}: FAIL: {'; '.join(problems)}")
                return 1
        print(f"selftest {name}: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "squareirr" / "__init__.py").is_file():
        print(f"no source tree: {SRC / 'squareirr'} is missing (run from the repository root)", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.selftest and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        if args.selftest:
            return selftest(spec)
        result, record = run(args.workload, args.seed, args.seconds, args.trace, spec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
