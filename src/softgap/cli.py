"""Command-line front end for graph generation, sweeps, fits, and checks."""

import argparse
import json
import sys

from .graphs import build_phenomenological, save_graph
from .fitting import fit_power_law, fit_exponential
from .harness import (SweepConfig, run_sweep, run_consistency, switch_check,
                      aggregate, emit, parse_csv_metadata, parse_records_csv,
                      METHODS)


def _int_list(text):
    return tuple(int(x) for x in text.split(","))


def _float_list(text):
    return tuple(float(x) for x in text.split(","))


def _add_sweep_flags(sp):
    sp.add_argument("--distances", type=_int_list, required=True,
                    help="comma-separated odd code distances, e.g. 3,5,7")
    sp.add_argument("--probs", type=_float_list, required=True,
                    help="comma-separated physical error probabilities")
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--epsilon-max-db", type=float, default=20.0)
    sp.add_argument("--methods", default=",".join(METHODS),
                    help="subset of cluster,bounded,extra,extra-cg")
    sp.add_argument("--rounds", type=int, default=None,
                    help="measurement rounds (default: rounds = d)")
    sp.add_argument("--keep-empty", action="store_true",
                    help="emit records for empty-syndrome samples too")
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--out", required=True)


def _config_from(args) -> SweepConfig:
    methods = tuple(m.replace("-", "_") for m in args.methods.split(","))
    return SweepConfig(distances=args.distances, probs=args.probs,
                       samples=args.samples, master_seed=args.seed,
                       rounds=args.rounds, epsilon_max_db=args.epsilon_max_db,
                       methods=methods,
                       skip_empty_syndromes=not args.keep_empty)


def _read_sweep_csv(path):
    """The records of a sweep CSV and its (samples_per_cell, cells), as the
    sweep wrote them; empty samples it skipped leave no record, so the
    records cannot tell."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    metadata = parse_csv_metadata(text)
    try:
        size = int(metadata["samples_per_cell"]), int(metadata["cells"])
    except KeyError as missing:
        raise SystemExit(f"{path}: no '# {missing.args[0]}=' line; "
                         "write it with `softgap sweep --format csv`") from None
    return parse_records_csv(text), size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="softgap",
        description="Cluster decoding of surface-code graphs with soft-output gaps")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-graph", help="write a phenomenological decoding graph")
    g.add_argument("--distance", type=int, required=True)
    g.add_argument("--rounds", type=int, default=None)
    g.add_argument("--p", type=float, required=True)
    g.add_argument("--out", required=True)

    s = sub.add_parser("sweep", help="run a (d, p) sweep and write records")
    _add_sweep_flags(s)
    s.add_argument("--format", choices=("csv", "json", "svg-plot"), default="csv")

    c = sub.add_parser("consistency",
                       help="cross-check all estimators sample by sample")
    _add_sweep_flags(c)

    f = sub.add_parser("fit", help="fit a scaling law to aggregated sweep records")
    f.add_argument("--model", choices=("power", "exp"), required=True)
    f.add_argument("--dmin", type=int, default=7,
                   help="smallest distance used by the power-law fit")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--metric", choices=("mean_visited", "mean_extra", "fraction_below"),
                   default="mean_visited")
    f.add_argument("--method", choices=METHODS, default="cluster")
    f.add_argument("--epsilon-max-db", type=float, default=20.0)

    w = sub.add_parser("switch-check",
                       help="compare a measured below-threshold rate to a budget")
    w.add_argument("--threshold", type=float, required=True)
    w.add_argument("--in", dest="infile", required=True)
    w.add_argument("--method", choices=METHODS, default="extra_cg")
    w.add_argument("--epsilon-max-db", type=float, default=20.0)

    args = parser.parse_args(argv)

    if args.command == "gen-graph":
        d = args.distance
        graph = build_phenomenological(d, args.rounds if args.rounds else d, args.p)
        save_graph(graph, args.out)
        print(f"wrote {graph.num_nodes} nodes, {graph.num_edges} edges to {args.out}")
        return 0

    if args.command == "sweep":
        cfg = _config_from(args)
        records = list(run_sweep(cfg, workers=args.workers))
        metadata = {"samples_per_cell": cfg.samples,
                    "cells": len(cfg.distances) * len(cfg.probs),
                    "master_seed": cfg.master_seed,
                    "epsilon_max_db": cfg.epsilon_max_db,
                    "skip_empty_syndromes": cfg.skip_empty_syndromes}
        emit(records, args.format, args.out, metadata=metadata,
             epsilon_max_db=cfg.epsilon_max_db)
        print(f"wrote {len(records)} records to {args.out}")
        return 0

    if args.command == "consistency":
        cfg = _config_from(args)
        report = run_consistency(cfg, workers=args.workers)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("d,p,sample,method,cluster_gap_db,other_gap_db,other_defined\n")
            for d, p, idx, m, cdb, odb, ok in report.rows:
                fh.write(f"{d},{p!r},{idx},{m},{cdb!r},"
                         f"{'' if odb is None else repr(odb)},"
                         f"{'true' if ok else 'false'}\n")
        total = sum(report.violations.values())
        for rule, count in report.violations.items():
            print(f"{rule}: {count}")
        print(f"checked {report.samples_checked} samples, "
              f"{total} violation(s); scatter -> {args.out}")
        return 0 if total == 0 else 1

    if args.command == "fit":
        records, (samples, _) = _read_sweep_csv(args.infile)
        rows = [r for r in aggregate(records, samples, args.epsilon_max_db)
                if r.method == args.method]
        results = {}
        for p in sorted({r.p for r in rows}):
            pts = [(r.d, getattr(r, args.metric)) for r in rows if r.p == p]
            if args.model == "power":
                fit = fit_power_law(pts, d_min=args.dmin)
            else:
                fit = fit_exponential(pts)
            results[repr(p)] = {"A": fit.A, "B": fit.B, "residual": fit.residual,
                                "points_used": fit.points_used}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"model": args.model, "metric": args.metric,
                       "method": args.method, "fits": results}, fh, indent=1,
                      sort_keys=True)
        print(json.dumps(results, indent=1, sort_keys=True))
        return 0

    if args.command == "switch-check":
        records, (samples, cells) = _read_sweep_csv(args.infile)
        chk = switch_check(records, args.threshold,
                           epsilon_max_db=args.epsilon_max_db, method=args.method,
                           attempted=samples * cells)
        print(f"measured_rate={chk.measured_rate!r} threshold={chk.user_threshold!r} "
              f"wilson=[{chk.wilson_low:.3g}, {chk.wilson_high:.3g}] "
              f"n={chk.n} verdict={chk.verdict}")
        return 0 if chk.verdict == "pass" else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
