"""
Write ``golden/<workload>.json``: the fingerprint of the workload's pool and
the answer to every instance of it, in pool order.

    python3 perfbench/golden.py [WORKLOAD ...]

Run from the repository root.  Every answer must also pass the program's
own cross-check (the four criteria agree, the identity holds, gls is
stable); the script writes nothing for a workload where one does not.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def main(names) -> int:
    for name in names or workloads.WORKLOADS:
        w = workloads.WORKLOADS[name]
        pool = w.pool()
        answers = []
        for i, x in enumerate(pool):
            answer, ok, _ = w.op(w.build(x), 0)
            if not ok:
                print(f"{name}: instance {i} fails its own check: {x}", file=sys.stderr)
                return 1
            answers.append(answer)
        out = {"workload": name, "fingerprint": workloads.fingerprint(pool), "answers": answers}
        with open(BENCH / "golden" / f"{name}.json", "w") as fh:
            json.dump(out, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {len(pool)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
