"""One repetition of a perfbench workload, run in a fresh interpreter.

run.py starts this file once per repetition, so the harness's module-level
graph and evaluation caches start empty, as they do in every `softgap sweep`
process.  It prints one JSON object on stdout.

    python3 perfbench/child.py --mode e2e --workload lowp --seed 1 [--check]
    python3 perfbench/child.py --mode trace --workload lowp --seed 1 \
        --spans-out perfbench/results/lowp-spans-0.jsonl

e2e    Set-up (import softgap, build every cell's graph), the timed sweep
       (run_sweep then records_to_csv, as `softgap sweep --format csv`),
       split into one segment per sample drawn, and peak RSS; then one
       uncached, timed evaluate_sample call per non-empty syndrome, which
       gives the latency samples.  Prints the sha256 of the sweep CSV and
       of the evaluations.  With --check it also checks every sample
       against its sweep records and adds the counters block.
trace  The same set-up and sweeps at two workers and at one; then the stage
       functions driven per sample in the harness's order with a span around
       each call.  Spans stay in memory and are written out at the end.
"""

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (EPSILON_DB, METHODS, RULES, WORKLOADS,  # noqa: E402
                       rule_violations, summarize)

STAGES = ("sampling.sample", "decoder.decode", "softout.contract",
          "softout.cluster", "softout.bounded", "softout.extra",
          "softout.extra_cg", "decoder.nodes_in_clusters")

BLOCK = 50   # samples per block of the traced/untraced alternation

SUM_KEYS = (("samples", "empty", "nonempty", "repeat", "events", "op_count",
             "nodes_in_clusters", "radius2", "cg_invoked")
            + tuple(f"{k}.{m}" for k in ("visited", "extra", "defined")
                    for m in METHODS)
            + tuple(f"violation.{r}" for r in RULES))


def import_softgap():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import softgap
    if Path(softgap.__file__).resolve().parent != src / "softgap":
        raise SystemExit(f"imported softgap from {softgap.__file__}, not {src}")
    return softgap


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def ratio(a, b):
    return a / b if b else None


def derived(s):
    """Means and shares of one counters sum block (per cell or total)."""
    out = {"empty_share": ratio(s["empty"], s["samples"]),
           "events_mean": ratio(s["events"], s["samples"]),
           "repeat_share": ratio(s["repeat"], s["nonempty"]),
           "op_count_mean": ratio(s["op_count"], s["nonempty"]),
           "nodes_in_clusters_mean": ratio(s["nodes_in_clusters"], s["nonempty"]),
           "cg_invoked_share": ratio(s["cg_invoked"], s["nonempty"])}
    for m in METHODS:
        out[f"visited_mean.{m}"] = ratio(s[f"visited.{m}"], s["nonempty"])
        out[f"extra_mean.{m}"] = ratio(s[f"extra.{m}"], s["nonempty"])
        out[f"defined_share.{m}"] = ratio(s[f"defined.{m}"], s["nonempty"])
    return out


def by_sample(records):
    """Sweep records grouped by (d, p, sample)."""
    out = {}
    for r in records:
        out.setdefault((r.d, r.p, r.sample), []).append(r)
    return out


class Checker:
    """Checks each sample and accumulates the deterministic counters.

    A sample fails when a call raises, when one of the five estimator rules
    is broken, or when the sweep's records for it differ from the records
    its uncached evaluation gives (which catches cache bugs).
    """

    def __init__(self, sg, records, eps_scaled):
        self.sg = sg
        self.eps = eps_scaled
        self.records = by_sample(records)
        self.matched = 0
        self.cells = []
        self.failed = 0
        self.failures = []

    def start_cell(self, d, p):
        self.cell = dict.fromkeys(SUM_KEYS, 0)
        self.cell.update(d=d, p=p)
        self.cells.append(self.cell)
        self.seen = set()

    def fail(self, d, p, idx, reason):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"d": d, "p": p, "sample": idx, "reason": reason})

    def raised(self, d, p, idx, exc):
        self.cell["samples"] += 1
        self.fail(d, p, idx, f"raised {type(exc).__name__}: {exc}")

    def empty(self, d, p, idx):
        self.cell["samples"] += 1
        self.cell["empty"] += 1
        if (d, p, idx) in self.records:
            self.matched += 1
            self.fail(d, p, idx, "empty syndrome has sweep records")

    def sample(self, d, p, idx, events, result, op_count):
        """``result`` has evaluate_sample's shape: (nodes_in_clusters,
        radius2, per-method (value, visited, extra, cg_invoked))."""
        c = self.cell
        c["samples"] += 1
        c["nonempty"] += 1
        c["events"] += len(events)
        if events in self.seen:
            c["repeat"] += 1
        else:
            self.seen.add(events)
        n_clustered, radius2, per_method = result
        c["op_count"] += op_count
        c["nodes_in_clusters"] += n_clustered
        c["radius2"] += radius2
        c["cg_invoked"] += per_method[3][3]
        for m, (value, visited, extra, _) in zip(METHODS, per_method):
            c[f"visited.{m}"] += visited
            c[f"extra.{m}"] += extra
            c[f"defined.{m}"] += value is not None
        gaps = tuple(r[0] for r in per_method)
        reasons = (["cluster gap undefined"] if gaps[0] is None
                   else rule_violations(gaps, self.eps))
        for rule in reasons:
            if rule in RULES:
                c[f"violation.{rule}"] += 1
        got = self.records.get((d, p, idx))
        if got is not None:
            self.matched += 1
        if got != self.expected_records(d, p, idx, result):
            reasons.append("sweep records differ from the uncached evaluation")
        if reasons:
            self.fail(d, p, idx, "; ".join(reasons))

    def expected_records(self, d, p, idx, result):
        """The records run_sweep emits for one evaluated sample."""
        scaled_to_db = self.sg.scaled_to_db
        n_clustered, radius2, per_method = result
        growth_db = scaled_to_db(float(radius2) / 2.0)
        return [self.sg.SweepRecord(
                    d=d, p=p, sample=idx, method=m, defined=value is not None,
                    gap_db=None if value is None else scaled_to_db(value),
                    visited_nodes=visited, extra_nodes=extra,
                    max_growth_db=growth_db, nodes_in_clusters=n_clustered)
                for m, (value, visited, extra, _) in zip(METHODS, per_method)]

    def counters(self, csv_text):
        """Deterministic counters block; bit-identical for one seed."""
        stray = len(self.records) - self.matched
        if stray:
            self.fail(None, None, None, f"{stray} sweep record group(s) for no sample")
        total = {k: sum(c[k] for c in self.cells) for k in SUM_KEYS}
        return {"csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
                "records": sum(len(v) for v in self.records.values()),
                "cells": [dict(c, **derived(c)) for c in self.cells],
                "total": dict(total, **derived(total))}

    @property
    def attempted(self):
        return sum(c["samples"] for c in self.cells)


def setup(wl):
    """Import softgap and build every cell's graph; returns timings too."""
    t0 = time.perf_counter_ns()
    sg = import_softgap()
    t_import = time.perf_counter_ns()
    graphs, builds = {}, []
    for d in wl.distances:
        for p in wl.probs:
            b0 = time.perf_counter_ns()
            graphs[(d, p)] = sg.build_phenomenological(d, d, p)
            builds.append((d, p, b0, time.perf_counter_ns()))
    return sg, graphs, (t0, t_import, builds)


def sweep_config(sg, wl, seed):
    return sg.SweepConfig(distances=wl.distances, probs=wl.probs,
                          samples=wl.samples, master_seed=seed,
                          epsilon_max_db=EPSILON_DB, methods=METHODS)


def run_e2e(wl, seed, check):
    t0 = time.perf_counter()
    sg, graphs, _ = setup(wl)
    setup_s = time.perf_counter() - t0

    cfg = sweep_config(sg, wl, seed)
    clock = time.perf_counter_ns
    sample = sg.harness.sample_syndrome
    stamps = []

    def stamped(*args):
        stamps.append(clock())
        return sample(*args)

    # A one-worker sweep leaves one timestamp per sample it draws; pool
    # workers stamp in their own processes, so a pooled sweep leaves none.
    sg.harness.sample_syndrome = stamped
    t0 = clock()
    records = list(sg.run_sweep(cfg, workers=wl.workers))
    csv_text = sg.records_to_csv(records)
    t1 = clock()
    sg.harness.sample_syndrome = sample
    marks = [t0, *stamps, t1]
    peak = max(peak_rss_mb(resource.RUSAGE_SELF),
               peak_rss_mb(resource.RUSAGE_CHILDREN))

    eps = sg.db_to_scaled(EPSILON_DB)
    latencies_ns, outcomes = [], []
    for cell, d, p in cfg.cells():
        g = graphs[(d, p)]
        for idx in range(wl.samples):
            try:
                events = sg.sample_syndrome(g, sg.SeedSpec(seed, cell * wl.samples + idx)).events
                if not events:
                    outcomes.append((cell, idx, None))
                    continue
                t = clock()
                result = sg.harness.evaluate_sample(g, events, eps, METHODS)
                latencies_ns.append(clock() - t)
            except Exception as exc:  # a raising call is a failed sample
                outcomes.append((cell, idx, exc))
                continue
            outcomes.append((cell, idx, (events, result)))

    out = {"setup_s": setup_s, "sweep_s": (t1 - t0) / 1e9, "peak_rss_mb": peak,
           "sweep_segments_ns": [b - a for a, b in zip(marks, marks[1:])],
           "latencies_ns": latencies_ns, "attempted": len(outcomes), "failed": 0,
           "failures": [],
           "outputs_sha256": {"csv": hashlib.sha256(csv_text.encode()).hexdigest(),
                              "evaluations": hashlib.sha256(
                                  repr(outcomes).encode()).hexdigest()}}
    if check:
        checker = Checker(sg, records, eps)
        check_outcomes(checker, cfg, with_op_counts(sg, graphs, cfg, outcomes))
        counters = checker.counters(csv_text)
        out.update(attempted=checker.attempted, failed=checker.failed,
                   failures=checker.failures, counters=counters)
    return out


def with_op_counts(sg, graphs, cfg, outcomes):
    """e2e outcomes with each evaluated sample's decoder op_count added, as
    the traced stage loop records them; a decode that raises fails it."""
    cells = list(cfg.cells())
    out = []
    for cell, idx, o in outcomes:
        if isinstance(o, tuple):
            _, d, p = cells[cell]
            try:
                o = (*o, sg.decode(graphs[(d, p)], sg.Syndrome(o[0])).op_count)
            except Exception as exc:  # a raising call is a failed sample
                o = exc
        out.append((cell, idx, o))
    return out


def timed_sweep(sg, cfg, workers):
    """run_sweep + records_to_csv; also the time each cell's last record
    came out, which at one worker splits the sweep time by cell."""
    clock = time.perf_counter
    t0 = clock()
    records, last = [], {}
    for r in sg.run_sweep(cfg, workers=workers):
        records.append(r)
        last[(r.d, r.p)] = clock()
    csv_text = sg.records_to_csv(records)
    return clock() - t0, records, csv_text, t0, last


def traced_block(sg, block, eps, store, outcomes):
    """Drive the stage functions per sample, as evaluate_sample calls them,
    with a timestamp at every stage boundary.  Appends (cell, sample,
    timestamps) to the span store and the outcome, checked later, to
    ``outcomes``."""
    clock = time.perf_counter_ns
    for cell, idx, g, seed in block:
        try:
            t0 = clock()
            syn = sg.sample_syndrome(g, seed)
            t1 = clock()
            if not syn.events:
                store.append((cell, idx, (t0, t1)))
                outcomes.append((cell, idx, None))
                continue
            cs = sg.decode(g, syn)
            t2 = clock()
            view = sg.contract(g, cs)
            t3 = clock()
            rc = sg.cluster_gap(view)
            t4 = clock()
            rb = sg.bounded_cluster_gap(view, eps)
            t5 = clock()
            re = sg.extra_cluster_gap(g, cs, eps, view=view)
            t6 = clock()
            rg = sg.extra_cluster_gap_cg(g, cs, eps, view=view)
            t7 = clock()
            n_clustered = sg.nodes_in_clusters(cs)
            t8 = clock()
        except Exception as exc:  # a raising call is a failed sample
            outcomes.append((cell, idx, exc))
            continue
        store.append((cell, idx, (t0, t1, t2, t3, t4, t5, t6, t7, t8)))
        per_method = tuple((r.value, r.visited_nodes, r.extra_nodes,
                            r.cluster_graph_invoked) for r in (rc, rb, re, rg))
        outcomes.append((cell, idx, (syn.events, (n_clustered, cs.radius2_log, per_method),
                                     cs.op_count)))


def plain_block(sg, block, eps):
    """traced_block's calls without timestamps or bookkeeping."""
    for _, _, g, seed in block:
        try:
            syn = sg.sample_syndrome(g, seed)
            if not syn.events:
                continue
            cs = sg.decode(g, syn)
            view = sg.contract(g, cs)
            sg.cluster_gap(view)
            sg.bounded_cluster_gap(view, eps)
            sg.extra_cluster_gap(g, cs, eps, view=view)
            sg.extra_cluster_gap_cg(g, cs, eps, view=view)
            sg.nodes_in_clusters(cs)
        except Exception:  # counted by the traced pass
            continue


def stage_passes(sg, graphs, cfg, eps):
    """Run the stage loop traced and untraced over every sample, in
    alternating blocks of BLOCK samples so that drift in machine speed
    falls on both alike.  Returns the traced and untraced wall times, the
    span store and the outcomes."""
    n = cfg.samples
    work = [(cell, idx, graphs[(d, p)], sg.SeedSpec(cfg.master_seed, cell * n + idx))
            for cell, d, p in cfg.cells() for idx in range(n)]
    store, outcomes = [], []
    spent = {"traced": 0.0, "plain": 0.0}
    for b in range(0, len(work), BLOCK):
        block = work[b:b + BLOCK]
        for name in (("traced", "plain") if b // BLOCK % 2 == 0 else ("plain", "traced")):
            t = time.perf_counter()
            if name == "traced":
                traced_block(sg, block, eps, store, outcomes)
            else:
                plain_block(sg, block, eps)
            spent[name] += time.perf_counter() - t
    return spent["traced"], spent["plain"], store, outcomes


def check_outcomes(checker, cfg, outcomes):
    cells = list(cfg.cells())
    current = None
    for cell, idx, out in outcomes:
        _, d, p = cells[cell]
        if cell != current:
            checker.start_cell(d, p)
            current = cell
        if out is None:
            checker.empty(d, p, idx)
        elif isinstance(out, Exception):
            checker.raised(d, p, idx, out)
        else:
            checker.sample(d, p, idx, *out)


def median_call_s(fn, reps):
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def write_spans(path, setup_marks, store, cfg):
    t0, t_import, builds = setup_marks
    span_id = 0
    with open(path, "w", encoding="utf-8") as out:
        def emit(parent, sample, cell, name, start, end):
            nonlocal span_id
            span_id += 1
            out.write(json.dumps({"id": span_id, "parent": parent, "sample": sample,
                                  "cell": cell, "name": name,
                                  "start_ns": start, "end_ns": end}) + "\n")
            return span_id
        emit(None, None, None, "softgap.import", t0, t_import)
        for cell, (d, p, b0, b1) in enumerate(builds):
            emit(None, None, cell, "graphs.build", b0, b1)
        for cell, idx, ts in store:
            sample = cell * cfg.samples + idx
            root = emit(None, sample, cell, "harness.sample", ts[0], ts[-1])
            for name, a, b in zip(STAGES, ts, ts[1:]):
                emit(root, sample, cell, name, a, b)


def run_trace(wl, seed, spans_out):
    sg, graphs, setup_marks = setup(wl)
    cfg = sweep_config(sg, wl, seed)
    eps = sg.db_to_scaled(EPSILON_DB)
    samples = len(graphs) * wl.samples

    # Two workers first: the pool forks this process, which must not yet
    # hold the caches the one-worker sweep fills.
    sweeps = {}
    for workers in (2, 1):
        sweeps[workers] = timed_sweep(sg, cfg, workers)
    worker_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    sweep_s, records, csv_text, _, _ = sweeps[wl.workers]

    traced_s, plain_s, store, outcomes = stage_passes(sg, graphs, cfg, eps)
    checker = Checker(sg, records, eps)
    check_outcomes(checker, cfg, outcomes)
    del outcomes
    counters = checker.counters(csv_text)
    w1, w2 = by_sample(sweeps[1][1]), by_sample(sweeps[2][1])
    for key in sorted(set(w1) | set(w2)):
        if w1.get(key) != w2.get(key):
            checker.fail(*key, "records differ between one and two workers")

    stage_ns = {s: [] for s in STAGES}
    cell_ns = [dict.fromkeys(STAGES, 0) for _ in graphs]
    for cell, _, ts in store:
        for name, a, b in zip(STAGES, ts, ts[1:]):
            stage_ns[name].append(b - a)
            cell_ns[cell][name] += b - a
    us = {s: [x / 1000.0 for x in v] for s, v in stage_ns.items()}
    pipeline_us = sum(sum(v) for v in us.values()) / samples

    csv_s = median_call_s(lambda: sg.records_to_csv(records), 5)
    agg_s = median_call_s(lambda: sg.aggregate(records, wl.samples, EPSILON_DB), 5)
    rows = sg.aggregate(records, wl.samples, EPSILON_DB)
    fit_points = [[(r.d, r.mean_visited) for r in rows
                   if r.method == "cluster" and r.p == p] for p in wl.probs]
    fit_s = median_call_s(lambda: [sg.fit_power_law(pts) for pts in fit_points],
                          200) / len(fit_points)

    total = counters["total"]
    m = {}
    for name, stage, keys in (("sampling.sample_us", "sampling.sample", ("mean", "p50", "p99")),
                              ("decoder.decode_us", "decoder.decode", ("mean", "p50", "p99")),
                              ("softout.contract_us", "softout.contract", ("mean", "p99")),
                              ("softout.cluster_us", "softout.cluster", ("mean", "p99")),
                              ("softout.bounded_us", "softout.bounded", ("mean", "p99")),
                              ("softout.extra_us", "softout.extra", ("mean", "p99")),
                              ("softout.extra_cg_us", "softout.extra_cg", ("mean", "p99"))):
        s = summarize(us[stage])
        for k in keys:
            m[f"{name}.{k}"] = s[k]
    sweep_us = sweep_s / samples * 1e6
    m.update({
        "sampling.events_mean": total["events_mean"],
        "sampling.empty_share": total["empty_share"],
        "harness.repeat_share": total["repeat_share"],
        "harness.sweep_us_per_sample": sweep_us,
        "harness.pipeline_us_per_sample": pipeline_us,
        "harness.sweep_to_pipeline": sweep_us / pipeline_us,
        "decoder.op_count_mean": total["op_count_mean"],
        "decoder.nodes_in_clusters_mean": total["nodes_in_clusters_mean"],
        "softout.cluster_visited_mean": total["visited_mean.cluster"],
        "softout.bounded_visited_mean": total["visited_mean.bounded"],
        "softout.extra_nodes_mean": total["extra_mean.extra"],
        "softout.extra_cg_nodes_mean": total["extra_mean.extra_cg"],
        "softout.cg_invoked_share": total["cg_invoked_share"],
        "softout.defined_share.bounded": total["defined_share.bounded"],
        "softout.defined_share.extra": total["defined_share.extra"],
        "softout.defined_share.extra_cg": total["defined_share.extra_cg"],
        "harness.csv_us_per_record": csv_s / len(records) * 1e6,
        "harness.aggregate_us_per_record": agg_s / len(records) * 1e6,
        "fitting.fit_us": fit_s * 1e6,
        "harness.pool_speedup": sweeps[1][0] / sweeps[2][0],
        "harness.worker_peak_rss_mb": worker_rss,
        "graphs.build_ms": sum(b1 - b0 for _, _, b0, b1 in setup_marks[2]) / 1e6,
        "graphs.nodes": sum(g.num_nodes for g in graphs.values()),
        "graphs.edges": sum(g.num_edges for g in graphs.values()),
        "harness.trace_overhead": plain_s / traced_s,
    })

    _, _, _, t_start, last = sweeps[1]
    per_cell = []
    prev = t_start
    for (cell, d, p), c in zip(cfg.cells(), counters["cells"]):
        end = last.get((d, p), prev)
        g = graphs[(d, p)]
        per_cell.append({
            "d": d, "p": p, "samples": wl.samples, "nodes": g.num_nodes,
            "edges": g.num_edges,
            "sweep_w1_samples_per_s": ratio(wl.samples, end - prev),
            "stage_us_per_sample": {s: cell_ns[cell][s] / 1000.0 / wl.samples
                                    for s in STAGES},
            **{k: c[k] for k in ("empty_share", "repeat_share", "events_mean",
                                 "op_count_mean", "nodes_in_clusters_mean",
                                 "visited_mean.cluster", "visited_mean.bounded",
                                 "extra_mean.extra", "extra_mean.extra_cg")}})
        prev = end

    write_spans(spans_out, setup_marks, store, cfg)
    return {"metrics": m, "per_cell": per_cell,
            "stage_tails": {s: summarize(v) for s, v in us.items()},
            "attempted": checker.attempted, "failed": checker.failed,
            "failures": checker.failures, "counters": counters}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("e2e", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans-out")
    ap.add_argument("--check", action="store_true",
                    help="e2e: check every sample and add the counters block")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    if args.mode == "e2e":
        out = run_e2e(wl, args.seed, args.check)
    else:
        if not args.spans_out:
            ap.error("--mode trace needs --spans-out")
        out = run_trace(wl, args.seed, args.spans_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
