"""Workloads and helpers shared by run.py (parent) and child.py (one repetition).

Every workload runs all four estimators with rounds = d, a 20 dB budget and
empty syndromes skipped, which is what `softgap sweep` does by default.  The
per-cell sample counts are fixed, so two runs on one seed sweep the same
inputs repetition by repetition and produce identical counters; the run
length only sets how many repetitions are made.  README.md says why each
workload exists.
"""

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    distances: tuple
    probs: tuple
    samples: int        # per (d, p) cell
    workers: int


WORKLOADS = {
    # Mostly empty or single-pair syndromes that repeat: sampler and eval
    # cache do most of the work.
    "lowp": Workload(distances=(5, 9), probs=(0.001,), samples=700, workers=1),
    # Every syndrome non-empty and distinct: decoder and cluster-gap search
    # dominate, the cache is bypassed.  d=11 sits between the other two so
    # that the latency median falls inside one cell's latencies, not in the
    # gap between the d=9 and d=13 ones.
    "highp": Workload(distances=(9, 11, 13), probs=(0.01,), samples=150, workers=1),
    # The whole d x p grid through the two-worker fork pool.  Run by hand and
    # by selftest.py; not in BENCHMARK.json (README.md says why).
    "mixed-w2": Workload(distances=(5, 9, 13), probs=(0.001, 0.01),
                         samples=400, workers=2),
}

EPSILON_DB = 20.0

METHODS = ("cluster", "bounded", "extra", "extra_cg")

# The five exact-integer estimator rules, named as in the harness's
# consistency check.
RULES = (
    "bounded_agrees_with_cluster_below_threshold",
    "extra_not_above_cluster",
    "extra_defined_when_cluster_below_threshold",
    "cluster_not_above_extra_cg",
    "extra_cg_equals_cluster_below_threshold",
)


def rule_violations(gaps, eps_scaled):
    """Rules broken by one sample's (cluster, bounded, extra, extra_cg) gaps."""
    g_c, g_b, g_e, g_cg = gaps
    broken = []
    if g_c <= eps_scaled:
        if g_b != g_c:
            broken.append(RULES[0])
        if g_e is None:
            broken.append(RULES[2])
        if g_cg != g_c:
            broken.append(RULES[4])
    elif g_b is not None:
        broken.append(RULES[0])
    if g_e is not None and g_e > g_c:
        broken.append(RULES[1])
    if g_cg is not None and g_cg < g_c:
        broken.append(RULES[3])
    return broken


def tail_percentile(values, q=99.0):
    """Nearest-rank percentile q of ``values``, lowered until at least ten
    samples lie beyond it.  Returns (value, percentile used, sample count)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return None, None, 0
    q_used = min(q, 100.0 * (n - 10) / n) if n > 10 else 50.0
    rank = max(1, math.ceil(q_used * n / 100.0 - 1e-9))
    return xs[rank - 1], q_used, n


def summarize(values):
    """mean, p50 and tail percentile of a list of durations."""
    p99, q, n = tail_percentile(values)
    return {"mean": statistics.fmean(values) if values else None,
            "p50": statistics.median(values) if values else None,
            "p99": p99, "p99_percentile": q, "n": n}

