"""Scaling benchmarks: sweeps, aggregation, fits, and the sweep file.

Runs a small (d, p) sweep, aggregates per-cell statistics, fits the two
scaling laws to the visited-node counts, performs a switching-rate check,
and writes the sweep's CSV and reads it back.  Sized to finish in well
under a minute; raise ``SAMPLES`` for smoother curves.
"""

import tempfile
from pathlib import Path

from softgap import (
    SweepConfig,
    aggregate,
    emit,
    fit_exponential,
    fit_power_law,
    read_sweep,
    run_sweep,
    switch_check,
)

SAMPLES = 1500

cfg = SweepConfig(distances=(3, 5, 7, 9), probs=(0.003, 0.01), samples=SAMPLES,
                  master_seed=31337, methods=("cluster", "bounded", "extra"),
                  skip_empty_syndromes=True)
records = list(run_sweep(cfg, workers=2))
rows = aggregate(records, cfg.samples, cfg.epsilon_max_db)

below = f"frac<={cfg.epsilon_max_db:g}dB"
print(f"{'d':>3} {'p':>7} {'method':<9} {'mean visited':>12} {below:>11}")
for r in rows:
    print(f"{r.d:>3} {r.p:>7} {r.method:<9} {r.mean_visited:>12.1f} "
          f"{r.fraction_below:>11.4f}")

# Scaling fits on the full-search visited counts (d >= 7 to dodge
# small-size effects, matching how the benchmarks report exponents).
for p in cfg.probs:
    pts = [(r.d, r.mean_visited) for r in rows
           if r.method == "cluster" and r.p == p]
    fit = fit_power_law(pts, d_min=3)
    print(f"\nfull-search visited nodes at p={p}: ~ {fit.A:.2f} * d^{fit.B:.2f}")
    pts_b = [(r.d, r.mean_visited) for r in rows
             if r.method == "bounded" and r.p == p]
    fit_b = fit_power_law(pts_b, d_min=3)
    print(f"early-stopped search at p={p}:      ~ {fit_b.A:.2f} * d^{fit_b.B:.2f}")

frac_pts = [(r.d, r.fraction_below) for r in rows
            if r.method == "extra" and r.p == 0.01 and r.fraction_below > 0]
if len(frac_pts) >= 2:
    fe = fit_exponential(frac_pts)
    print(f"\nbelow-threshold fraction at p=0.01: ~ {fe.A:.3f} * 10^({fe.B:.3f} d)")

# Switching-rate check: is the measured below-threshold rate at d=9 small
# enough for a slow fallback decoder to absorb, given a user budget?
d9 = [r for r in records if r.d == 9 and r.p == 0.003 and r.method == "extra"]
chk = switch_check(d9, threshold=0.05, epsilon_max_db=cfg.epsilon_max_db,
                   attempted=cfg.samples)
print(f"\nswitch check at d=9, p=0.003: rate={chk.measured_rate:.4f} "
      f"wilson=[{chk.wilson_low:.4f}, {chk.wilson_high:.4f}] -> {chk.verdict}")

# Per-sample estimator consistency at small scale: every sweep checks the
# five rules on each sample it evaluates, whichever methods it writes, and
# one that keeps empty samples checks every sample.  A broken rule would
# raise ConsistencyError naming the sample; reaching the print means every
# sample held all five.
checked = sum(1 for _ in run_sweep(SweepConfig(distances=(3, 5), probs=(0.01,),
                                               samples=400, master_seed=5,
                                               skip_empty_syndromes=False))) // 4
print(f"\nconsistency: {checked} samples checked, every rule held")

# The sweep's file is its config, as '# key=value' lines, then its rows:
# `softgap fit` and `softgap switch-check` read their denominators and
# threshold from it.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "sweep.csv"
    emit(records, path, cfg)
    config, read_back = read_sweep(path.read_text(encoding="utf-8"))
    assert config == cfg and read_back == records
    print(f"\nsweep file: {len(read_back)} records, "
          f"{path.stat().st_size} bytes, config read back")
