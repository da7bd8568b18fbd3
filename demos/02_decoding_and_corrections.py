"""Cluster decoding: grow, merge, peel, verify.

Samples errors on a distance-7 graph, decodes the syndrome with the
union-find cluster decoder, extracts a correction by peeling, and verifies
that the correction reproduces the syndrome exactly.
"""

from softgap import (
    ErrorPattern,
    SeedSpec,
    build_phenomenological,
    decode,
    nat_to_db,
    nodes_in_clusters,
    peel,
    sample_errors,
    scaled_to_nat,
    syndrome_of,
)

g = build_phenomenological(d=7, rounds=7, p=0.01)
print(f"graph: {g.num_detectors} detectors, {g.num_edges} edges")

for idx in range(6):
    seed = SeedSpec(master_seed=2024, sample_index=idx)
    errors = sample_errors(g, seed)
    syndrome = syndrome_of(g, errors)
    cs = decode(g, syndrome)

    clusters = [m for m in cs.members.values() if len(m) > 1]
    radius_nat = scaled_to_nat(cs.radius2_log / 2)
    print(f"\nsample {idx}: {len(errors.flipped_edges)} errors,"
          f" {len(syndrome.events)} detection events")
    print(f"  clusters formed: {len(clusters)},"
          f" detectors absorbed: {nodes_in_clusters(cs)},"
          f" max growth radius: {radius_nat:.2f} nat"
          f" ({nat_to_db(radius_nat):.1f} dB)")

    correction = peel(g, cs, syndrome)
    ok = syndrome_of(g, ErrorPattern(correction)).events == syndrome.events
    print(f"  peeled correction: {len(correction)} edges,"
          f" reproduces syndrome: {ok}")
    assert ok
