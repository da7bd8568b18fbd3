"""Command-line front end for graph generation, sweeps, fits, and checks."""

import argparse
import json
import sys

from .graphs import (InvalidParameterError, InvalidProbabilityError,
                     build_phenomenological, save_graph)
from .fitting import InsufficientDataError, fit_power_law, fit_exponential
from .harness import (ConfigError, ConsistencyError, SweepConfig, run_sweep,
                      switch_check, aggregate, emit, read_sweep, list_parser, METHODS)


def _read_sweep_csv(path, method):
    """The sweep CSV at ``path``, read by ``read_sweep``.  Empty samples
    the sweep skipped leave no record, and gaps beyond its threshold are
    undefined, so the records alone cannot give a rate: the header's
    config does.  ``method`` must be one the sweep ran: one with no record
    then has rate 0.  A file that cannot be read as UTF-8 text, or that
    ``read_sweep`` refuses, ends the command with one line, the path and
    the reason."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg, records = read_sweep(f.read())
    except (OSError, ValueError) as err:
        raise SystemExit(f"{path}: {err}") from None
    if method not in cfg.methods:
        raise ConfigError(f"--method {method} was not swept; {path} holds "
                          f"{','.join(cfg.methods)}")
    return cfg, records


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
    s.add_argument("--distances", type=list_parser(int), required=True,
                   help="comma-separated odd code distances, e.g. 3,5,7")
    s.add_argument("--probs", type=list_parser(float), required=True,
                   help="comma-separated physical error probabilities")
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--epsilon-max-db", type=float, default=20.0)
    s.add_argument("--rounds", type=int, default=None,
                   help="measurement rounds (default: rounds = d)")
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--out", required=True)
    s.add_argument("--methods", type=list_parser(str), default=METHODS,
                   help="subset of cluster,bounded,extra,extra_cg")
    s.add_argument("--keep-empty", action="store_true",
                   help="emit records for empty-syndrome samples too")
    s.add_argument("--format", choices=("csv", "json", "svg-plot"), default="csv")

    f = sub.add_parser("fit", help="fit a scaling law to aggregated sweep records")
    f.add_argument("--model", choices=("power", "exp"), required=True)
    f.add_argument("--dmin", type=int, default=7,
                   help="smallest distance used by the power-law fit")
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--metric", choices=("mean_visited", "mean_extra", "fraction_below"),
                   default="mean_visited")
    f.add_argument("--method", choices=METHODS, default="cluster")

    w = sub.add_parser("switch-check",
                       help="compare a measured below-threshold rate to a budget")
    w.add_argument("--threshold", type=float, required=True)
    w.add_argument("--in", dest="infile", required=True)
    w.add_argument("--method", choices=METHODS, default="extra_cg")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigError, InvalidParameterError, InvalidProbabilityError) as err:
        sub.choices[args.command].error(str(err))
    except ConsistencyError as err:
        print(f"softgap {args.command}: {err}", file=sys.stderr)
        return 1


def _run(args) -> int:
    if args.command == "gen-graph":
        d = args.distance
        graph = build_phenomenological(d, d if args.rounds is None else args.rounds, args.p)
        save_graph(graph, args.out)
        print(f"wrote {graph.num_nodes} nodes, {graph.num_edges} edges to {args.out}")
        return 0

    if args.command == "sweep":
        cfg = SweepConfig(distances=args.distances, probs=args.probs,
                          samples=args.samples, master_seed=args.seed,
                          rounds=args.rounds, epsilon_max_db=args.epsilon_max_db,
                          methods=args.methods,
                          skip_empty_syndromes=not args.keep_empty)
        records = list(run_sweep(cfg, workers=args.workers))
        emit(records, args.format, args.out, cfg)
        print(f"wrote {len(records)} records to {args.out}")
        return 0

    if args.command == "fit":
        cfg, records = _read_sweep_csv(args.infile, args.method)
        rows = [r for r in aggregate(records, cfg.samples, cfg.epsilon_max_db)
                if r.method == args.method]
        if not rows:
            raise ConfigError(f"--method {args.method}: {args.infile} holds no record "
                              "of it, so there is no cell to fit")
        results = {}
        for p in sorted({r.p for r in rows}):
            pts = [(r.d, getattr(r, args.metric)) for r in rows if r.p == p]
            try:
                if args.model == "power":
                    fit = fit_power_law(pts, d_min=args.dmin)
                else:
                    fit = fit_exponential(pts)
            except InsufficientDataError as err:
                raise ConfigError(f"--metric {args.metric} --method {args.method} "
                                  f"at p={p!r}: {err}") from None
            results[repr(p)] = {"A": fit.A, "B": fit.B, "residual": fit.residual,
                                "points_used": fit.points_used}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"model": args.model, "metric": args.metric,
                       "method": args.method, "fits": results}, fh, indent=1,
                      sort_keys=True)
        print(json.dumps(results, indent=1, sort_keys=True))
        return 0

    if args.command == "switch-check":
        cfg, records = _read_sweep_csv(args.infile, args.method)
        chk = switch_check(records, args.threshold, cfg.epsilon_max_db,
                           attempted=cfg.samples * len(cfg.distances) * len(cfg.probs),
                           method=args.method)
        print(f"measured_rate={chk.measured_rate!r} threshold={chk.user_threshold!r} "
              f"wilson=[{chk.wilson_low:.3g}, {chk.wilson_high:.3g}] "
              f"n={chk.n} verdict={chk.verdict}")
        return 0 if chk.verdict == "pass" else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
