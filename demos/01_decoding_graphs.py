"""Decoding graphs, weights, and the graph file format.

Builds a small phenomenological matching graph, looks at its structure,
converts between probabilities / natural-log weights / decibels, and round
trips the graph through the text format.
"""

import tempfile
from pathlib import Path

from softgap import (
    SCALED_PER_NAT,
    build_phenomenological,
    db_to_nat,
    load_graph,
    nat_to_db,
    save_graph,
    scaled_to_nat,
    weight_from_prob,
)

# A probability p maps to the log-likelihood weight ln((1-p)/p), stored as
# an integer in units of 1/(2e6) natural units so that later comparisons
# are exact.
for p in (1e-4, 1e-3, 1e-2, 0.5):
    w = weight_from_prob(p)
    print(f"p={p:<8} weight={w:>10} scaled = {scaled_to_nat(w):8.4f} nat"
          f" = {nat_to_db(scaled_to_nat(w)):7.3f} dB")

# The 20 dB confidence threshold used throughout the benchmarks:
print(f"\n20 dB = {db_to_nat(20.0):.6f} natural units"
      f" = {round(db_to_nat(20.0) * SCALED_PER_NAT)} scaled")

# A distance-5 code idled for 5 rounds: (d^2-1)/2 detectors per slice,
# rounds+1 slices, two boundary nodes, detector degree bounded by 6.
g = build_phenomenological(d=5, rounds=5, p=0.001)
print(f"\nd=5, rounds=5: {g.num_detectors} detectors,"
      f" {g.num_edges} edges, boundaries {g.boundaries}")
print("max detector degree:", max(len(g.neighbors[x]) for x in g.detector_ids()))
print("detectors adjacent to each boundary:",
      len(g.neighbors[g.boundaries[0]]), "per side")

# Graphs round trip through a line-oriented text format, so externally
# generated graphs (e.g. circuit-level ones) can be supplied as files.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "d5.graph"
    save_graph(g, path)
    lines = path.read_text().splitlines()
    print(f"\nsaved {len(lines)} lines; header: {lines[0]}")
    print("reloaded equals original:", load_graph(path) == g)
