"""Self-test of the benchmark: determinism of its counters and its metric names.

    python3 perfbench/selftest.py [--workload lowp ...]

For each workload, runs run.py twice with --trace 0 and once with --trace 1
on one seed, at the minimum number of repetitions.  It checks that:
- every run is correct;
- the three counters blocks are bit-identical;
- the printed metrics are exactly those named in BENCHMARK.json.
Exits 1 on the first mismatch.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SEED = 7


def run(workload, trace):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    full = json.loads((HERE / "results" / f"{workload}-trace{trace}.json").read_text())
    return line, full["counters"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in args.workload or sorted(WORKLOADS):
        runs = [run(workload, trace) for trace in (0, 0, 1)]
        for (line, _), trace in zip(runs, (0, 0, 1)):
            units = {k: v["unit"] for k, v in line["metrics"].items()}
            if not line["correct"] or line["failed"]:
                ok = False
                print(f"{workload} trace={trace}: not correct ({line['failed']} failed)")
            if units != expected[trace]:
                ok = False
                print(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
        counters = [c for _, c in runs]
        same = all(c == counters[0] for c in counters)
        ok = ok and same
        print(f"{workload}: counters {'identical' if same else 'DIFFER'} across "
              f"two untraced runs and one traced run, csv {counters[0]['csv_sha256'][:16]}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
