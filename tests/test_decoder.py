import heapq
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from softgap.graphs import DecodingGraph, Edge, build_phenomenological
from softgap.sampling import ErrorPattern, SeedSpec, Syndrome, sample_syndrome, syndrome_of
from softgap.decoder import (
    InvariantViolationError,
    decode,
    max_growth_radius,
    nodes_in_clusters,
    peel,
)

from oracles import oracle_syndrome


def interior_edge(g):
    return next(i for i, e in enumerate(g.edges)
                if not g.is_boundary[e.u] and not g.is_boundary[e.v])


def half_edge_of(g, det, boundary):
    return next(i for i, e in enumerate(g.edges) if {e.u, e.v} == {det, boundary})


def ball_distances(g, sources):
    dist = {}
    heap = [(0, x) for x in sorted(sources)]
    heapq.heapify(heap)
    while heap:
        d, x = heapq.heappop(heap)
        if x in dist:
            continue
        dist[x] = d
        for y, w, _ in g.neighbors[x]:
            if y not in dist:
                heapq.heappush(heap, (d + w, y))
    return dist


class TestDecodeHandTraces:
    def test_empty_syndrome(self):
        g = build_phenomenological(3, 1, 0.001)
        cs = decode(g, Syndrome(frozenset()))
        assert cs.radius2_log == 0
        assert nodes_in_clusters(cs) == 0
        assert max_growth_radius(cs) == 0
        # only the two boundary singletons remain
        assert set(cs.clusters()) == set(g.boundaries)

    def test_two_adjacent_events_meet_mid_edge(self):
        g = build_phenomenological(3, 1, 0.001)
        eidx = interior_edge(g)
        e = g.edges[eidx]
        cs = decode(g, Syndrome(frozenset({e.u, e.v})))
        root = cs.find(e.u)
        assert cs.find(e.v) == root
        assert cs.parity[root] == 0
        # both frontiers grow, so they meet at half the edge weight
        assert cs.radius2_log == e.weight
        assert max_growth_radius(cs) == e.weight / 2
        assert nodes_in_clusters(cs) == 2

    def test_single_event_matches_boundary(self):
        g = build_phenomenological(3, 1, 0.001)
        b1 = g.boundaries[0]
        det = next(x for x, _, _ in [(e.u, 0, 0) for e in g.edges if e.v == b1])
        cs = decode(g, Syndrome(frozenset({det})))
        root = cs.find(det)
        assert cs.touches_boundary[root]
        assert cs.find(b1) == root
        # boundary is passive, so the event side covers the full half-edge
        w = g.edges[half_edge_of(g, det, b1)].weight
        assert cs.radius2_log <= 2 * w

    def test_chain_growth_is_exact(self):
        # b1 -3- d0 -5- d1 -3- b2 with one event at d0: nearest neutralizer
        # is b1 at distance 3, reached at radius exactly 3.
        S = 1_000_000
        edges = [Edge(0, 2, 3 * S), Edge(0, 1, 5 * S), Edge(1, 3, 3 * S)]
        g = DecodingGraph(4, (2, 3), edges)
        cs = decode(g, Syndrome(frozenset({0})))
        assert cs.radius2_log == 2 * 3 * S
        assert cs.find(0) == cs.find(2)
        assert not cs.covered[1]

    def test_two_events_with_unequal_arms(self):
        # events at both ends of a 2-edge path: radii grow together, so the
        # middle node is absorbed by the closer event first
        S = 1_000_000
        edges = [Edge(0, 1, 2 * S), Edge(1, 2, 6 * S),
                 Edge(0, 3, 50 * S), Edge(2, 4, 50 * S)]
        g = DecodingGraph(5, (3, 4), edges)
        cs = decode(g, Syndrome(frozenset({0, 2})))
        root = cs.find(0)
        assert cs.find(2) == root and cs.find(1) == root
        # meeting radius r solves (r - 2) + r = 6 inside the long edge
        assert cs.radius2_log == 2 * 4 * S
        assert sorted(cs.forest) == [0, 1]


class TestPeel:
    def test_empty(self):
        g = build_phenomenological(3, 1, 0.001)
        s = Syndrome(frozenset())
        assert peel(g, decode(g, s), s) == frozenset()

    def test_adjacent_pair_gives_connecting_edge(self):
        g = build_phenomenological(3, 1, 0.001)
        eidx = interior_edge(g)
        e = g.edges[eidx]
        s = Syndrome(frozenset({e.u, e.v}))
        assert peel(g, decode(g, s), s) == frozenset({eidx})

    def test_boundary_event_gives_half_edge(self):
        g = build_phenomenological(3, 1, 0.001)
        b1 = g.boundaries[0]
        det = next(e.u for e in g.edges if e.v == b1)
        s = Syndrome(frozenset({det}))
        assert peel(g, decode(g, s), s) == frozenset({half_edge_of(g, det, b1)})

    def test_rejects_foreign_state(self):
        g = build_phenomenological(3, 1, 0.001)
        eidx = interior_edge(g)
        e = g.edges[eidx]
        cs = decode(g, Syndrome(frozenset({e.u, e.v})))
        with pytest.raises(InvariantViolationError):
            peel(g, cs, Syndrome(frozenset({e.u})))

    @pytest.mark.parametrize("d,p", [(3, 0.05), (5, 0.02), (7, 0.01), (7, 0.03)])
    def test_correction_reproduces_syndrome(self, d, p):
        g = build_phenomenological(d, d, p)
        for idx in range(250):
            s = sample_syndrome(g, SeedSpec(1234, idx))
            cs = decode(g, s)
            corr = peel(g, cs, s)
            assert oracle_syndrome(g, corr) == s.events
            assert syndrome_of(g, ErrorPattern(corr)).events == s.events


class TestDecodeInvariants:
    @pytest.mark.parametrize("d,p", [(3, 0.05), (5, 0.03)])
    def test_every_cluster_neutral(self, d, p):
        g = build_phenomenological(d, d, p)
        for idx in range(300):
            cs = decode(g, sample_syndrome(g, SeedSpec(5, idx)))
            for root in cs.clusters():
                r = cs.find(root)
                assert cs.parity[r] % 2 == 0 or cs.touches_boundary[r]

    @pytest.mark.parametrize("d,p", [(3, 0.08), (5, 0.03)])
    def test_covered_nodes_within_logged_radius(self, d, p):
        # every covered node lies within the recorded max radius of some
        # detection event of its own cluster
        g = build_phenomenological(d, d, p)
        for idx in range(120):
            s = sample_syndrome(g, SeedSpec(6, idx))
            if not s.events:
                continue
            cs = decode(g, s)
            for root, members in cs.clusters().items():
                evs = [x for x in members if x in cs.events]
                if not evs:
                    continue
                dist = ball_distances(g, evs)
                for m in members:
                    assert 2 * dist[m] <= cs.radius2_log

    def test_coverage_never_exceeds_weight(self):
        g = build_phenomenological(5, 5, 0.03)
        for idx in range(150):
            cs = decode(g, sample_syndrome(g, SeedSpec(7, idx)))
            if cs.cov2_u is None:
                continue
            for i, e in enumerate(g.edges):
                assert cs.cov2_u[i] + cs.cov2_v[i] <= 2 * e.weight

    def test_operation_count_near_linear(self):
        # events processed per sample stay within C * n * log2(n) of the
        # covered node count
        g = build_phenomenological(7, 7, 0.03)
        for idx in range(100):
            cs = decode(g, sample_syndrome(g, SeedSpec(8, idx)))
            n = max(2, nodes_in_clusters(cs) + len(g.boundaries))
            degree_bound = max(len(a) for a in g.neighbors)
            budget = 40 * degree_bound * n * math.log2(n)
            assert cs.op_count <= budget

    def test_determinism(self):
        g = build_phenomenological(5, 5, 0.02)
        s = sample_syndrome(g, SeedSpec(9, 3))
        a = decode(g, s)
        b = decode(g, s)
        assert a.parent == b.parent
        assert a.forest == b.forest
        assert a.radius2_log == b.radius2_log


class TestGrowthRadius:
    def test_standard_decode_exceeds_twenty_db_at_d9(self):
        # at d = 9, p = 0.1%, some samples force growth past 20 dB (a lone
        # event matching a boundary already needs ~30 dB of radius)
        from softgap.graphs import scaled_to_db
        g = build_phenomenological(9, 9, 0.001)
        worst = 0.0
        for idx in range(10_000):
            cs = decode(g, sample_syndrome(g, SeedSpec(314, idx)))
            worst = max(worst, scaled_to_db(float(cs.radius2_log) / 2.0))
        assert worst > 20.0

    def test_monotone_nodes_in_clusters_with_p(self):
        means = []
        for p in (0.001, 0.02):
            g = build_phenomenological(5, 5, p)
            tot = 0
            for idx in range(400):
                tot += nodes_in_clusters(decode(g, sample_syndrome(g, SeedSpec(10, idx))))
            means.append(tot / 400)
        assert means[0] < means[1]

    def test_isolated_event_growth_covers_ball(self):
        # lone event grows until it reaches a boundary; covered detectors sit
        # between the open and closed ball of the final radius (nodes at the
        # exact stopping radius may be cut off by the pausing collision)
        g = build_phenomenological(5, 1, 0.001)
        cs = decode(g, Syndrome(frozenset({1})))
        dist = ball_distances(g, [1])
        covered = {x for x in range(g.num_nodes) if cs.covered[x] and not g.is_boundary[x]}
        radius = cs.radius2_log / 2
        interior = {x for x, dx in dist.items()
                    if dx < radius and not g.is_boundary[x]}
        closed_ball = {x for x, dx in dist.items()
                       if dx <= radius and not g.is_boundary[x]}
        assert interior <= covered <= closed_ball


@st.composite
def weighted_syndromes(draw):
    """A small connected graph with integer weights 0..7 (odd ones
    included), two or three boundaries and a random detection-event set."""
    n = draw(st.integers(5, 14))
    edges = [(draw(st.integers(0, x - 1)), x, draw(st.integers(0, 7)))
             for x in range(1, n)]
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        edges.append((u, v, draw(st.integers(0, 7))))
    boundaries = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=3,
                               unique=True))
    detectors = [x for x in range(n) if x not in boundaries]
    events = draw(st.sets(st.sampled_from(detectors)))
    return n, boundaries, edges, events


class TestIntegerClock:
    # Every event instant is an integer: a rate-2 remainder is always even.
    # The example forces a pause and a resume: events 0 and 1 meet after
    # one h-unit and pause (even parity), event 2 reaches them at clock 9,
    # and the odd merged cluster resumes towards a boundary.
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @example((5, [3, 4], [(0, 1, 1), (1, 2, 5), (0, 3, 100), (2, 4, 100)],
              {0, 1, 2}))
    @given(weighted_syndromes())
    def test_integer_weights_decode_on_the_integer_grid(self, case):
        n, boundaries, edges, events = case
        g = DecodingGraph(n, boundaries, [Edge(u, v, w) for u, v, w in edges])
        s = Syndrome(frozenset(events))
        cs = decode(g, s)
        assert type(cs.radius2_log) is int
        corr = peel(g, cs, s)
        assert syndrome_of(g, ErrorPattern(corr)).events == s.events
