"""softgap benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload lowp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Every repetition runs child.py in a fresh interpreter, so no repetition
reads caches an earlier one filled.  Repetitions run until --seconds is
spent (at least five with --trace 0, one with --trace 1).  Every
repetition sweeps the same inputs: a fixed number of samples per cell with
master seed --seed, so a run's inputs and its counters block depend on the
seed alone, and repetitions that disagree fail the run.

--trace 0 prints the end-to-end metrics.  samples_per_s and the p50 and
p99 of one uncached evaluate_sample call are taken from the fastest
repetition of each piece of work: of each per-sample segment of the sweep,
and of each syndrome's call.  The host's CPU speed swings within a
second, and a piece of work is only ever slowed by it, so the fastest of
several timings is the steady one (README.md, Noise).  setup_s and
peak_rss_mb are medians over the repetitions.  --trace 1 prints the
per-layer metrics of a traced run, medians over the repetitions.
Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Everything else
(run manifest, counters block, per-cell detail, raw repetitions) goes to
perfbench/results/<workload>-trace<0|1>.json, and the spans of a traced
run to perfbench/results/<workload>-spans-<rep>.jsonl.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from workloads import EPSILON_DB, METHODS, WORKLOADS, tail_percentile  # noqa: E402

MIN_REPS = {0: 5, 1: 1}
DEADLINE_S = 170.0

UNITS = ((r"_us(\.|_per|$)", "us"), (r"_ms$", "ms"), (r"_mb$", "MB"),
         (r"_per_s$", "1/s"), (r"_s$", "s"), (r"(_mean|nodes|edges)$", "count"))


def unit_of(name):
    """Unit of a metric, read from its name; shares and quotients are ratios."""
    return next((unit for pat, unit in UNITS if re.search(pat, name)), "ratio")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_child(args, timeout):
    """Run child.py in its own process group; return its JSON result."""
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"repetition exceeded {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        die(f"repetition exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def version(pkg):
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return None


def manifest(args, wl, reps):
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "softgap").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "repetitions": reps,
            "grid": {"distances": list(wl.distances), "probs": list(wl.probs),
                     "rounds": "d", "epsilon_max_db": EPSILON_DB,
                     "methods": list(METHODS), "skip_empty_syndromes": True,
                     "workers": wl.workers},
            "samples_per_cell": wl.samples,
            "samples_per_repetition": wl.samples * len(wl.distances) * len(wl.probs),
            "git_rev": git_rev(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def median_of(dicts):
    """Per-key median of numeric fields across repetitions; fields equal in
    all of them, and non-numeric ones, keep the first value."""
    out = {}
    for k, v in dicts[0].items():
        vals = [d[k] for d in dicts]
        if all(x == v for x in vals):
            out[k] = v
        elif isinstance(v, dict):
            out[k] = median_of(vals)
        elif isinstance(v, (int, float)) and not isinstance(v, bool) \
                and all(isinstance(x, (int, float)) for x in vals):
            out[k] = statistics.median(vals)
        else:
            out[k] = v
    return out


def fastest(series):
    """Element-wise minimum of per-repetition series of the same work."""
    return [min(xs) for xs in zip(*series)]


def e2e_metrics(reps):
    sweep_s = sum(fastest(r["sweep_segments_ns"] for r in reps)) / 1e9
    lat_us = [ns / 1000.0 for ns in fastest(r["latencies_ns"] for r in reps)]
    p99, q, n = tail_percentile(lat_us)
    metrics = {
        "samples_per_s": reps[0]["attempted"] / sweep_s,
        "syndrome_latency_us.p50": statistics.median(lat_us),
        "syndrome_latency_us.p99": p99,
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return metrics, {"latency_samples": n, "latency_tail_percentile": q,
                     "sweep_segments": len(reps[0]["sweep_segments_ns"]),
                     "samples_per_s_median_repetition": statistics.median(
                         r["attempted"] / r["sweep_s"] for r in reps)}


def main():
    ap = argparse.ArgumentParser(description="softgap benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind through run_child's cleanup of the repetition.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "softgap" / "__init__.py").is_file():
        die(f"no softgap package under {ROOT / 'src'}; run from a full checkout")
    wl = WORKLOADS[args.workload]
    RESULTS.mkdir(exist_ok=True)
    # Byte-compile up front, as an installed package is, so that no
    # repetition's setup_s includes compiling the sources.
    compileall.compile_dir(ROOT / "src" / "softgap", quiet=1)
    for stale in RESULTS.glob(f"{args.workload}-spans-*.jsonl"):
        stale.unlink()

    start = time.perf_counter()
    reps = []
    while True:
        child_args = ["--mode", "trace" if args.trace else "e2e", "--workload",
                      args.workload, "--seed", str(args.seed)]
        if not reps and not args.trace:
            child_args.append("--check")
        if args.trace:
            spans = RESULTS / f"{args.workload}-spans-{len(reps)}.jsonl"
            child_args += ["--spans-out", str(spans.relative_to(ROOT))]
        reps.append(run_child(child_args, DEADLINE_S - (time.perf_counter() - start)))
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS[args.trace] and (
                elapsed + per_rep > args.seconds or elapsed + per_rep > DEADLINE_S / 2):
            break

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    counters = reps[0]["counters"]
    # Repetitions sweep the same inputs, so they must give the same outputs.
    same_as = "counters" if args.trace else "outputs_sha256"
    differ = [r for r in reps if r[same_as] != reps[0][same_as]]
    if differ:
        failed += sum(r["attempted"] for r in differ)
        failures.append({"reason": f"{len(differ)} repetition(s) of one seed gave "
                                   f"other {same_as} than the first"})
    failures = failures[:20]
    if args.trace:
        metrics = median_of([r["metrics"] for r in reps])
        detail = {"per_cell": [median_of([r["per_cell"][i] for r in reps])
                               for i in range(len(reps[0]["per_cell"]))],
                  "stage_tails": median_of([r["stage_tails"] for r in reps]),
                  "spans": [f"{args.workload}-spans-{i}.jsonl" for i in range(len(reps))]}
    else:
        metrics, detail = e2e_metrics(reps)
        detail["repetitions"] = [{k: r[k] for k in ("setup_s", "sweep_s", "attempted",
                                                    "peak_rss_mb")} for r in reps]
    error_rate = failed / attempted
    correct = failed == 0

    result = {"manifest": manifest(args, wl, len(reps)), "correct": correct,
              "error_rate": error_rate,
              "repetitions_agree": not differ,
              "attempted": attempted, "failed": failed, "failures": failures,
              "metrics": metrics, "counters": counters, **detail}
    out_file = RESULTS / f"{args.workload}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} wall={time.perf_counter() - start:.1f}s")
    for name, value in metrics.items():
        print(f"  {name:34s} {value!r} {unit_of(name)}")
    print(f"  {'error_rate':34s} {error_rate!r} ({failed} failed / {attempted} attempted)")
    for f in failures:
        print(f"  failure: {f}")
    print(f"  counters csv_sha256={counters['csv_sha256']} -> {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))


if __name__ == "__main__":
    main()
