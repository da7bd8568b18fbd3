"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy statistical
criteria size their grids exactly as pinned below; the full module is sized
for roughly ten minutes on a two-core laptop.

Criterion 3 measures visited nodes and criterion 4 the fraction of samples
with a gap at or below 20 dB, both at p = 2%, d in {3,5,7,9}
(``threshold_sweep``).  Both read ``reference_sweep`` (p = 0.1%,
d in {5,7,9,11}) only to check why p = 0.1% cannot serve.  Under the
uniform phenomenological noise used here one bare edge at p = 0.1% weighs
ln(999) = 6.91 natural units, above the 20 dB budget of 2 ln(10) = 4.61.
So a gap at or below 20 dB can only be 0: one decoder cluster must already
join both boundaries.  That event is far too rare to resolve with 10^4
samples, and every fraction at p = 0.1% is exactly 0.  For the same reason
every bounded search there stops after settling b1 alone, so its visited
count is 1 at every d and says nothing about scaling.  At p = 2% one bare
edge weighs ln(49) = 3.89, so one hop fits the budget and two do not, and
both quantities are resolved at every distance.
"""

import math
import random
import time

import pytest

from softgap.graphs import (
    SCALED_PER_NAT,
    build_phenomenological,
    db_to_nat,
    db_to_scaled,
    nat_to_db,
    scaled_to_db,
    scaled_to_nat,
    weight_from_prob,
)
from softgap import softout
from softgap.sampling import SeedSpec, sample_syndrome
from softgap.decoder import ClusterState, decode
from softgap.softout import (
    cluster_gap,
    contract,
    extra_cluster_gap,
    grow_clusters,
    multi_boundary_extra_gap,
)
from softgap.graphs import DecodingGraph, Edge
from softgap.fitting import fit_exponential, fit_power_law
from softgap.harness import SweepConfig, aggregate, records_to_csv, run_sweep

from oracles import oracle_bottleneck_gap, oracle_cluster_gap, random_clusters, random_graph

pytestmark = pytest.mark.slow

WORKERS = 2
EPS20 = db_to_scaled(20.0)


def _report(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}")


@pytest.fixture(scope="module")
def reference_sweep():
    """Sweep at p = 0.1%, d in {5,7,9,11}, 10^4 samples per cell, where
    criteria 3 and 4 check why that operating point is degenerate."""
    cfg = SweepConfig(distances=(5, 7, 9, 11), probs=(0.001,), samples=10_000,
                      master_seed=20260808, methods=("cluster", "bounded", "extra"),
                      skip_empty_syndromes=True)
    records = list(run_sweep(cfg, workers=WORKERS))
    return cfg, records, aggregate(records, cfg.samples, cfg.epsilon_max_db)


@pytest.fixture(scope="module")
def threshold_sweep():
    """Sweep for the visited-node and threshold-fraction criteria: p = 2%,
    d in {3,5,7,9}, 10^4 samples per cell.  One bare hop (3.89 natural
    units) fits the 20 dB budget and two do not, so the bounded search and
    the fraction are resolved at every d."""
    cfg = SweepConfig(distances=(3, 5, 7, 9), probs=(0.02,), samples=10_000,
                      master_seed=20260808, methods=("cluster", "bounded", "extra"),
                      skip_empty_syndromes=True)
    records = list(run_sweep(cfg, workers=WORKERS))
    return cfg, aggregate(records, cfg.samples, cfg.epsilon_max_db)


def test_criterion_1_estimator_guarantees_exact():
    # d in {3,5,7,9} x p in {0.1%, 0.5%, 1%}, rounds = d, 1e5 samples per
    # cell, eps_max = 20 dB: zero violations of the five cross-estimator
    # rules, every comparison an exact integer comparison.  A sweep that
    # keeps empty samples checks every sample; a violation raises
    # ConsistencyError naming the sample.
    cfg = SweepConfig(distances=(3, 5, 7, 9), probs=(0.001, 0.005, 0.01),
                      samples=100_000, master_seed=424242, skip_empty_syndromes=False)
    t0 = time.time()
    records = sum(1 for _ in run_sweep(cfg, workers=WORKERS))
    elapsed = time.time() - t0
    assert records == 4 * 12 * 100_000
    _report("1 estimator-guarantees",
            f"({records // 4} samples, 0 violations, {elapsed:.0f}s)")


def test_criterion_2_oracle_equivalence():
    # 1000 random graphs (<= 200 nodes) with random clusters: exact match
    # against an independent Bellman-Ford shortest-path oracle and a
    # threshold-enumeration bottleneck oracle.
    rng = random.Random(1729)
    eps_grid = [db_to_scaled(x) for x in (10.0, 20.0, 50.0)]
    for trial in range(1000):
        g = random_graph(rng, max_nodes=200)
        cs = ClusterState.from_partition(g, random_clusters(rng, g))
        view = contract(g, cs)
        assert cluster_gap(view).value == oracle_cluster_gap(g, cs)
        eps = eps_grid[trial % len(eps_grid)]
        assert extra_cluster_gap(g, cs, eps, view=view).value == \
            oracle_bottleneck_gap(g, cs, eps)
    _report("2 oracle-equivalence", "(1000 random graphs)")


def test_criterion_3_early_stopping_benefit(reference_sweep, threshold_sweep):
    # Bounded search settles strictly fewer nodes than the full search at
    # every distance, and its fitted power-law exponent is smaller.
    #
    # It is measured at p = 2%, not at p = 0.1%.  At p = 0.1% one bare edge
    # already costs more than the 20 dB budget, so every bounded search
    # settles b1 alone; the next assert keeps that under test.
    _, ref_records, _ = reference_sweep
    ref_bounded = [r for r in ref_records if r.method == "bounded"]
    assert ref_bounded
    assert all(r.visited_nodes == 1 for r in ref_bounded), \
        [(r.d, r.sample, r.visited_nodes) for r in ref_bounded if r.visited_nodes != 1]

    cfg, rows = threshold_sweep
    mean_full = {r.d: r.mean_visited for r in rows if r.method == "cluster"}
    mean_bounded = {r.d: r.mean_visited for r in rows if r.method == "bounded"}
    for d in cfg.distances:
        assert mean_bounded[d] < mean_full[d], (d, mean_bounded[d], mean_full[d])
    fit_full = fit_power_law(sorted(mean_full.items()), d_min=7)
    fit_bounded = fit_power_law(sorted(mean_bounded.items()), d_min=7)
    assert fit_bounded.B < fit_full.B
    _report("3 early-stopping-benefit",
            f"(p = 2%, exponents: bounded {fit_bounded.B:.2f} < full {fit_full.B:.2f})")


def test_criterion_4_threshold_fraction_decay(reference_sweep, threshold_sweep):
    # The fraction of samples at or below 20 dB strictly decreases with d
    # for the plain gap and the growth-based gap, with negative fitted
    # exponential slopes.
    #
    # It is measured at p = 2%, not at p = 0.1%.  At p = 0.1% one bare edge
    # already costs more than the whole 20 dB budget, so the only gap at or
    # below threshold is 0 (one cluster joining both boundaries), which is
    # too rare to resolve at 10^4 samples.  The next three asserts keep that
    # argument under test; at p = 2% one bare hop fits the budget, two do not.
    assert weight_from_prob(0.001) > EPS20
    assert weight_from_prob(0.02) <= EPS20 < 2 * weight_from_prob(0.02)
    _, ref_records, _ = reference_sweep
    below = [r for r in ref_records if r.method in ("cluster", "extra")
             and r.defined and r.gap_db is not None and r.gap_db <= 20.0]
    assert all(r.gap_db == 0.0 for r in below), \
        [(r.d, r.sample, r.method, r.gap_db) for r in below if r.gap_db != 0.0]

    cfg, rows = threshold_sweep
    slopes = {}
    for method in ("cluster", "extra"):
        frac = {r.d: r.fraction_below for r in rows if r.method == method}
        pairs = list(zip(cfg.distances, cfg.distances[1:]))
        assert all(frac[a] > frac[b] for a, b in pairs), \
            f"{method}: fractions not strictly decreasing: {frac}"
        # the largest-d cell rests on enough counts to be a measurement
        assert round(frac[cfg.distances[-1]] * cfg.samples) >= 10, \
            f"{method}: largest-d cell under-resolved: {frac}"
        fit = fit_exponential(sorted(frac.items()))
        assert fit.B < 0, f"{method}: fitted slope {fit.B} not negative: {frac}"
        slopes[method] = fit.B
    _report("4 threshold-fraction-decay",
            f"(p = 2%, slopes: plain {slopes['cluster']:.2f}, "
            f"growth {slopes['extra']:.2f})")


def test_criterion_5_growth_radius_cap():
    # Extra growth never covers beyond eps_max/2 = 10 dB (hard per-sample
    # assertion), while the standard decoder needs more than 20 dB of growth
    # on at least one sample at d = 9, p in {0.5%, 1%}.
    cap_violations = 0
    exceeded = {0.005: 0, 0.01: 0}
    for p in (0.005, 0.01):
        g = build_phenomenological(9, 9, p)
        for idx in range(10_000):
            s = sample_syndrome(g, SeedSpec(5150, idx))
            cs = decode(g, s)
            if scaled_to_db(float(cs.radius2_log) / 2.0) > 20.0:
                exceeded[p] += 1
            view = contract(g, cs)
            for dist in grow_clusters(view, EPS20).values():
                if 2 * dist > EPS20:
                    cap_violations += 1
    assert cap_violations == 0
    assert exceeded[0.005] > 0 and exceeded[0.01] > 0
    _report("5 growth-radius-cap",
            f"(decode radius above 20 dB on {exceeded} of 10^4 samples)")


def test_criterion_6_unit_conversions():
    # dB anchor: 20 dB is 2*ln(10) natural units (quoted as 4.60517)
    two_ln10 = 2 * math.log(10.0)
    assert abs(nat_to_db(two_ln10) - 20.0) <= 1e-9
    assert abs(db_to_nat(20.0) - two_ln10) <= 1e-9
    assert abs(db_to_nat(20.0) - 4.60517) <= 1e-5
    # low-rate edge weight: w(1e-4) is 9.2102 natural units to 1e-4
    assert abs(scaled_to_nat(weight_from_prob(1e-4)) - 9.2102) <= 1e-4
    _report("6 unit-conversions")


def test_criterion_7_multi_boundary_single_pass(monkeypatch):
    # Eight boundaries: all 28 pair results from exactly one growth pass.
    growths = []
    grow = softout.grow_clusters
    monkeypatch.setattr(softout, "grow_clusters",
                        lambda *args: growths.append(args) or grow(*args))
    edges = []
    hop = round(1.5 * SCALED_PER_NAT)
    for i in range(8):
        det = 8 + i
        edges.append(Edge(i, det, hop))
        edges.append(Edge(det, (i + 1) % 8, hop))
    g = DecodingGraph(16, tuple(range(8)), edges)
    report = multi_boundary_extra_gap(g, ClusterState(g), EPS20)
    assert len(report) == 28
    assert len(growths) == 1
    assert all(r.defined for r in report.values())
    _report("7 multi-boundary", "(28 pairs, 1 growth pass)")


def test_criterion_8_fit_recovery():
    pts_pow = [(d, 2.0 * d**3) for d in (3, 5, 7, 9, 11)]
    fp = fit_power_law(pts_pow)
    assert abs(fp.A - 2.0) < 1e-9 and abs(fp.B - 3.0) < 1e-9
    pts_exp = [(d, 0.5 * 10 ** (-0.4 * d)) for d in (3, 5, 7, 9, 11)]
    fe = fit_exponential(pts_exp)
    assert abs(fe.A - 0.5) < 1e-9 and abs(fe.B - (-0.4)) < 1e-9
    # Reference exponents reported for circuit-level noise in the original
    # experiments; documented for comparison, deliberately not asserted
    # (different noise model):
    print("\n  reference (circuit-level, not asserted): visited-node power-law "
          "B: bounded 2.31 vs full 2.88 at p=0.10%")
    print("  reference (circuit-level, not asserted): threshold-fraction "
          "slopes B: -0.36 (growth-based) and -0.43 (plain) at p=0.10%; "
          "growth-based prefactor A=10^-0.38")
    _report("8 fit-recovery")


def test_criterion_9_determinism():
    cfg = SweepConfig(distances=(3, 5), probs=(0.002, 0.01), samples=200,
                      master_seed=777, skip_empty_syndromes=False)
    runs = [records_to_csv(run_sweep(cfg, workers=w)) for w in (1, 2, 1)]
    assert runs[0] == runs[1] == runs[2]
    _report("9 determinism", "(byte-identical CSV across runs and worker counts)")
