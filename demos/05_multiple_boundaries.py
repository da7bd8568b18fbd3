"""Soft output with many inequivalent boundaries from one growth pass.

Decoding regions that span several logical patches expose M boundaries and
M*(M-1)/2 boundary pairs, each pair a potential logical operator.  The
growth-based estimator prices every pair in a single simultaneous growth
pass; searching from each boundary separately would need M passes.
"""

from softgap import (
    ClusterState,
    DecodingGraph,
    Edge,
    SCALED_PER_NAT,
    db_to_scaled,
    multi_boundary_extra_gap,
    scaled_to_db,
)

nat = lambda x: round(x * SCALED_PER_NAT)

# Eight boundaries on a ring, each neighboring pair bridged by a detector;
# one chord made cheap by a pre-existing cluster.
edges = []
for i in range(8):
    det = 8 + i
    edges.append(Edge(i, det, nat(1.6)))
    edges.append(Edge(det, (i + 1) % 8, nat(1.6)))
edges.append(Edge(8, 12, nat(1.0)))          # chord between opposite bridges
g = DecodingGraph(16, tuple(range(8)), edges)

# A decoder cluster sitting on the chord detector pulls pairs closer.
cs = ClusterState.from_partition(g, [[8, 12]])

# One growth pass prices all pairs; the result is a plain dict keyed by
# boundary pair.
report = multi_boundary_extra_gap(g, cs, db_to_scaled(20.0))
print(f"boundary pairs priced: {len(report)} (expected 8*7/2 = 28)")

defined = sum(1 for r in report.values() if r.defined)
print(f"pairs connected within 20 dB: {defined}\n")

print("pair   gap")
for key in sorted(report):
    r = report[key]
    gap = "undefined" if r.value is None else f"{scaled_to_db(r.value):6.2f} dB"
    print(f"{key}   {gap}")
