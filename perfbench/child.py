"""
One cold process of the benchmark.  Run by ``run.py``, never by hand:

    python3 perfbench/child.py WORKLOAD

It imports the library, runs the workload's lazy set-up, prints ``ready`` and
then reads one JSON job from standard input:

* ``{"mode": "setup"}``: only :func:`calibrate` (a set-up probe);
* ``{"mode": "load", "path": P}``: time ``klpoly.load_cache(P)``;
* ``{"mode": "pass", "instances": [...], "seed": S, "trace": T,
  "save_cache": P}``: run the operation on each instance in order, with
  spans around the layer boundaries when ``T`` is true, and afterwards time
  ``klpoly.save_cache(P)`` when ``P`` is not null; :func:`calibrate` runs
  before and after the pass.

It answers with one JSON line on standard output.
"""

import json
import os
import resource
import sys
import time


# The stack depth at which operations run is not neutral.  CPython 3.11 keeps
# frames in 16 KiB chunks and maps or unmaps one whenever a call crosses a
# chunk boundary, so a hot call that straddles one pays a page fault per call.
# On the gls-stability pool, with the loop one frame shallower than here, one
# instance took about 100 s instead of 5-10 s, with about 100,000 page faults
# a second.  The pass reports its page faults so that a change
# which moves a hot recursion onto a boundary shows as such.
def _attempt(op, x, seed):
    """One operation, timed: ``(answer, ok, checks, seconds)``."""
    start = time.perf_counter()
    try:
        answer, ok, checks = op(x, seed)
    except Exception as exc:  # a failed operation is counted, not fatal
        answer, ok, checks = f"error: {type(exc).__name__}: {exc}", False, 0
    return answer, ok, checks, time.perf_counter() - start


def _timed_loop(op, instances, seed) -> dict:
    times, answers, bad, checks = [], [], [], 0
    for i, x in enumerate(instances):
        answer, ok, n_checks, elapsed = _attempt(op, x, seed)
        times.append(elapsed)
        answers.append(answer)
        checks += n_checks
        if not ok:
            bad.append(i)
    return {"times": times, "answers": answers, "not_ok": bad, "checks": checks}


def calibrate() -> float:
    """
    The host's current speed: seconds for a fixed loop of tuple and dict
    work, the best of three.  Wall times are scaled by it (see run.py).
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        counts: dict = {}
        for i in range(100_000):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + 1
        best = min(best, time.perf_counter() - start)
    return best


def _peak_rss_mb() -> float:
    """
    This process's peak resident size.  ``ru_maxrss`` is not used: across
    exec it keeps the parent's peak, which grows with the results it holds.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_pass(w, job, modules) -> dict:
    import tracing

    instances = [w.build(x) for x in job["instances"]]
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install(modules)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = _timed_loop(w.op, instances, job["seed"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(page_faults=usage.ru_minflt - faults, rss_mb=_peak_rss_mb())
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.spans.clear()
    if job.get("save_cache"):
        start = time.perf_counter()
        records = modules["klpoly"].save_cache(job["save_cache"])
        out["cache"] = {
            "records": records,
            "save_s": time.perf_counter() - start,
            "bytes": os.path.getsize(job["save_cache"]),
        }
    return out


def main() -> int:
    import workloads
    from squareirr import biseq, criteria, klidentity, klpoly, multiseg, perm

    w = workloads.WORKLOADS[sys.argv[1]]
    start = time.perf_counter()
    w.setup()
    print("ready " + json.dumps({"ctx_build_s": time.perf_counter() - start}), flush=True)

    job = json.loads(sys.stdin.read())
    modules = {
        "biseq": biseq,
        "criteria": criteria,
        "klidentity": klidentity,
        "klpoly": klpoly,
        "multiseg": multiseg,
        "perm": perm,
    }
    if job["mode"] == "setup":
        out = {"cal_s": calibrate()}
    elif job["mode"] == "load":
        start = time.perf_counter()
        records = klpoly.load_cache(job["path"])
        out = {"records": records, "load_s": time.perf_counter() - start}
    else:
        before = calibrate()
        out = _run_pass(w, job, modules)
        out["cal_s"] = (before + calibrate()) / 2
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
