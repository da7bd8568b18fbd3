import copy
import functools
import hashlib
import heapq
import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from softgap.graphs import DecodingGraph, Edge, build_phenomenological
from softgap.sampling import ErrorPattern, SeedSpec, Syndrome, sample_syndrome, syndrome_of
from softgap import decoder
from softgap.decoder import (
    ClusterState,
    InvariantViolationError,
    decode,
    nodes_in_clusters,
    peel,
)

from softgap.softout import contract

from oracles import (
    CountingHeapq,
    oracle_contract,
    oracle_partition_roots,
    oracle_syndrome,
    random_graph,
    random_groups,
    random_rough_graph,
    state_clusters,
    state_covered,
    state_rank,
    state_touches_boundary,
)


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


class TestIdRange:
    # An id just outside 0..num_nodes-1 raises the documented ValueError,
    # not the IndexError of reading past a node list.
    @pytest.mark.parametrize("past_end", [False, True], ids=["-1", "num_nodes"])
    def test_partition_member_out_of_range(self, past_end):
        g = build_phenomenological(3, 1, 0.001)
        x = g.num_nodes if past_end else -1
        with pytest.raises(ValueError, match=f"^cluster member {x} out of range$"):
            ClusterState.from_partition(g, [[0, x]])

    @pytest.mark.parametrize("past_end", [False, True], ids=["-1", "num_nodes"])
    def test_event_out_of_range(self, past_end):
        g = build_phenomenological(3, 1, 0.001)
        x = g.num_nodes if past_end else -1
        with pytest.raises(ValueError,
                           match=f"^detection event {x} is not a detector of this graph$"):
            decode(g, Syndrome(frozenset({0, x})))


class TestDecodeHandTraces:
    def test_empty_syndrome(self):
        g = build_phenomenological(3, 1, 0.001)
        cs = decode(g, Syndrome(frozenset()))
        assert cs.radius2_log == 0
        assert nodes_in_clusters(cs) == 0
        # only the two boundary singletons remain
        assert set(state_clusters(cs)) == set(g.boundaries)

    def test_two_adjacent_events_meet_mid_edge(self):
        g = build_phenomenological(3, 1, 0.001)
        eidx = interior_edge(g)
        e = g.edges[eidx]
        cs = decode(g, Syndrome(frozenset({e.u, e.v})))
        root = cs.parent[e.u]
        assert cs.parent[e.v] == root
        assert sum(x in cs.events for x in cs.members[root]) == 2
        # both frontiers grow, so they meet at half the edge weight
        assert cs.radius2_log == e.weight
        assert nodes_in_clusters(cs) == 2

    def test_single_event_matches_boundary(self):
        g = build_phenomenological(3, 1, 0.001)
        b1 = g.boundaries[0]
        det = next(x for x, _, _ in [(e.u, 0, 0) for e in g.edges if e.v == b1])
        cs = decode(g, Syndrome(frozenset({det})))
        root = cs.parent[det]
        assert root in cs.boundary_roots
        assert cs.parent[b1] == root
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
        assert cs.parent[0] == cs.parent[2]
        assert not state_covered(cs)[1]

    def test_two_events_with_unequal_arms(self):
        # events at both ends of a 2-edge path: radii grow together, so the
        # middle node is absorbed by the closer event first
        S = 1_000_000
        edges = [Edge(0, 1, 2 * S), Edge(1, 2, 6 * S),
                 Edge(0, 3, 50 * S), Edge(2, 4, 50 * S)]
        g = DecodingGraph(5, (3, 4), edges)
        cs = decode(g, Syndrome(frozenset({0, 2})))
        root = cs.parent[0]
        assert cs.parent[2] == root and cs.parent[1] == root
        # meeting radius r solves (r - 2) + r = 6 inside the long edge
        assert cs.radius2_log == 2 * 4 * S
        assert sorted(cs.forest) == [0, 1]

    def test_open_internal_edge_across_pause_and_resume(self):
        # Events 0, 1, 2; edge 4 runs parallel to edge 0.  In h-units:
        # clock 1: edge 0 (w2 = 2) closes mid-edge, {0, 1} is even and
        #   pauses with edge 4 (w2 = 6) internal, 1 + 1 covered, and edge 2
        #   (w2 = 200) 1 covered from node 0.
        # clock 9: event 2 alone has grown 9 and closes edge 1 (1 + 9 = 10);
        #   {0, 1, 2} is odd and resumes.
        # clock 11: edge 4's two sides add 2 each and close it (6), inside
        #   the cluster, so it joins no forest.
        # clock 200: node 2's side alone covers edge 3 and reaches boundary
        #   4; edge 2 stops at 1 + (200 - 9) = 192.
        # op_count: 8 seed keys; 2 stale pops of edge 1 at clock 5, each
        #   pushing it again; at the resume 3 pushes, edge 2 once and edge 4
        #   once per side (an open internal edge is queued twice); 1 stale
        #   pop of edge 2 at clock 200, pushing it again for 208, which stays
        #   queued.  14 pushes and 12 pops.
        edges = [Edge(0, 1, 1), Edge(1, 2, 5), Edge(0, 3, 100), Edge(2, 4, 100),
                 Edge(0, 1, 3)]
        g = DecodingGraph(5, (3, 4), edges)
        cs = decode(g, Syndrome(frozenset({0, 1, 2})))
        assert cs.forest == [0, 1, 3]
        assert cs.radius2_log == 200
        assert cs.coverage2 == {0: 2, 1: 10, 2: 192, 3: 200, 4: 6}
        assert cs.op_count == 26
        assert cs.parent[0] == cs.parent[2] == cs.parent[4]
        assert cs.parent[0] in cs.boundary_roots
        assert cs.parent[3] == 3


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

    @staticmethod
    def forest_state(g, events, forest):
        cs = ClusterState(g, events)
        cs.forest = list(forest)
        return cs, Syndrome(frozenset(events))

    def test_odd_boundary_free_tree_raises(self):
        # detectors 0, 1, 2 on a path, boundaries 3 and 4 off the forest
        g = DecodingGraph(5, (3, 4), [Edge(0, 1, 2), Edge(1, 2, 2),
                                      Edge(0, 3, 9), Edge(2, 4, 9)])
        cs, s = self.forest_state(g, {0, 2}, [0, 1])
        assert peel(g, cs, s) == frozenset({0, 1})
        cs, s = self.forest_state(g, {0, 1, 2}, [0, 1])
        with pytest.raises(InvariantViolationError, match="odd residual parity"):
            peel(g, cs, s)

    def test_residual_names_smallest_detector(self):
        # a path of detectors 0..8 between boundaries 9 and 10 and no
        # forest: both events are residual, whatever order a set keeps them in
        edges = [Edge(x, x + 1, 2) for x in range(8)] + [Edge(0, 9, 5), Edge(8, 10, 5)]
        g = DecodingGraph(11, (9, 10), edges)
        cs, s = self.forest_state(g, {1, 8}, [])
        with pytest.raises(InvariantViolationError, match="at node 1 "):
            peel(g, cs, s)

    def test_non_sink_boundary_absorbs_parity(self):
        # forest 2 - 0 - 3 - 1 with boundaries 2 (the sink, lowest id) and
        # 3: the parity of event 1 stops at boundary 3 and never reaches 2
        g = DecodingGraph(4, (2, 3), [Edge(2, 0, 4), Edge(0, 3, 4),
                                      Edge(3, 1, 4), Edge(0, 1, 2)])
        cs, s = self.forest_state(g, {1}, [0, 1, 2])
        corr = peel(g, cs, s)
        assert corr == frozenset({2})
        assert syndrome_of(g, ErrorPattern(corr)).events == s.events
        # an event between the two boundaries goes to the sink
        cs, s = self.forest_state(g, {0}, [0, 1, 2])
        assert peel(g, cs, s) == frozenset({0})

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
            for root in state_clusters(cs):
                r = cs.parent[root]
                events = sum(x in cs.events for x in cs.members[r])
                assert events % 2 == 0 or r in cs.boundary_roots

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
            for root, members in state_clusters(cs).items():
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
            for i, cov in cs.coverage2.items():
                assert 0 <= cov <= 2 * g.edges[i].weight

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


class TestOpCount:
    def test_op_count_is_heap_pushes_plus_pops(self, monkeypatch):
        # op_count counts event-queue operations: every heap push and pop.
        # The loop stops once no cluster grows, so some decodes leave
        # queued predictions unpopped.
        counter = CountingHeapq()
        monkeypatch.setattr(decoder, "heapq", counter)
        left_queued = 0
        for d, p in ((3, 0.05), (5, 0.02), (7, 0.01)):
            g = build_phenomenological(d, d, p)
            for idx in range(100):
                counter.pushes = counter.pops = 0
                cs = decode(g, sample_syndrome(g, SeedSpec(11, idx)))
                assert cs.op_count == counter.pushes + counter.pops
                left_queued += counter.pops < counter.pushes
        assert left_queued >= 100


def state_digest(cells, seed=1, samples=200):
    """sha256 over each decode's forest, radius2_log, clusters (root and
    sorted members) and per-edge coverage, in h-units summed over both
    sides, for ``samples`` seeded syndromes per (d, p) cell."""
    h = hashlib.sha256()
    for d, p in cells:
        g = build_phenomenological(d, d, p)
        for idx in range(samples):
            cs = decode(g, sample_syndrome(g, SeedSpec(seed, idx)))
            coverage = tuple(cs.coverage2.get(i, 0) for i in range(g.num_edges))
            h.update(repr((tuple(cs.forest), cs.radius2_log,
                           sorted(state_clusters(cs).items()), coverage)).encode())
    return h.hexdigest()


class TestPinnedState:
    # Recorded on the keyed blake2b sample stream, for d in {5, 9, 13} x
    # p in {0.1%, 1%, 5%}, seed 1, 200 samples per cell.
    # Any change to a merge, an absorption, a growth radius or a coverage
    # changes it.
    STATE_SHA256 = "f289a91a34e64def49630f18f2dd7d0317d9cd193e913d322ab72cebe6d0bc48"

    def test_decoder_state_digest(self):
        cells = [(d, p) for d in (5, 9, 13) for p in (0.001, 0.01, 0.05)]
        assert state_digest(cells) == self.STATE_SHA256


@functools.cache
def rough_digests(seed=2024, cases=2000):
    """Two sha256 digests over seeded ``random_rough_graph`` and
    ``random_graph`` cases.

    ``state`` covers each decode's sorted peel correction, radius2_log and
    op_count, and peel's outcome (its correction, or that it raised) on the
    same forest with one edge dropped.  ``outputs`` covers the same fields
    but op_count, plus the forest, the per-edge coverage and every node's
    root: all a decode returns apart from its queue traffic."""
    rnd = random.Random(seed)
    state, outputs = hashlib.sha256(), hashlib.sha256()
    for i in range(cases):
        g = random_rough_graph(rnd) if i % 2 else random_graph(rnd, max_nodes=80)
        s = random_syndrome(rnd, g)
        cs = decode(g, s)
        corr = sorted(peel(g, cs, s))
        state.update(repr((corr, cs.radius2_log, cs.op_count)).encode())
        outputs.update(repr((corr, cs.radius2_log, cs.forest,
                             sorted(cs.coverage2.items()), cs.parent)).encode())
        if not cs.forest:
            continue
        broken = copy.copy(cs)
        k = rnd.randrange(len(cs.forest))
        broken.forest = cs.forest[:k] + cs.forest[k + 1:]
        try:
            outcome = sorted(peel(g, broken, s))
        except InvariantViolationError:
            outcome = "raised"
        state.update(repr(outcome).encode())
        outputs.update(repr(outcome).encode())
    return state.hexdigest(), outputs.hexdigest()


class TestPinnedRoughState:
    # Covers zero-weight, odd-weight and parallel edges, two to five
    # boundaries and forests that peel rejects.  Re-recorded when each
    # growing side came to keep one coverage relative to the clock: a
    # resumed cluster now queues exact predictions for its internal edges,
    # which moved op_count on 398 of the 2000 cases (397 lower, 1 higher).
    STATE_SHA256 = "af94d6ed870494477d3e43773c7cbbaa637f2b10654ddfa05e20c553d2f6b3c7"
    # Recorded before each growing side kept one coverage relative to the
    # clock.  Any change to a merge, an absorption, a coverage or a
    # correction changes it; the queue traffic (op_count) does not.
    OUTPUTS_SHA256 = "ca146b11092e63aeea48c9e915a3f13d259e6026eeef5c88d6da919b10a62f88"

    def test_rough_decode_digest(self):
        assert rough_digests()[0] == self.STATE_SHA256

    def test_rough_decode_outputs_digest(self):
        assert rough_digests()[1] == self.OUTPUTS_SHA256


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
        covered = {x for x, flag in enumerate(state_covered(cs))
                   if flag and not g.is_boundary[x]}
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


def assert_flat_labels(g, cs):
    """``parent`` maps every covered node to its root, ``members``
    partitions the covered nodes by root, and the contraction reads both."""
    flags = state_covered(cs)
    covered = [x for x in range(g.num_nodes) if flags[x]]
    for x in range(g.num_nodes):
        r = cs.parent[x]
        assert cs.parent[r] == r
        assert (r in cs.members) == flags[x]
        if not flags[x]:
            assert r == x
    assert sorted(x for lst in cs.members.values() for x in lst) == covered
    for r, lst in cs.members.items():
        assert all(cs.parent[x] == r for x in lst)
    assert nodes_in_clusters(cs) == len(covered) - len(g.boundaries)
    view = contract(g, cs)
    rep, members, sources = oracle_contract(g, cs)
    assert view.rep == rep
    assert {r: sorted(lst) for r, lst in view.members.items()} == members
    assert sorted(view.sources) == list(sources)       # in no particular order


class TestFlatLabels:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False))
    def test_decode_and_partition_keep_flat_labels(self, rnd):
        g = random_rough_graph(rnd)
        events = frozenset(x for x in range(g.num_nodes)
                           if not g.is_boundary[x] and rnd.random() < 0.3)
        assert_flat_labels(g, decode(g, Syndrome(events)))
        groups = random_groups(rnd, g)
        cs = ClusterState.from_partition(g, groups)
        assert_flat_labels(g, cs)
        assert cs.parent == oracle_partition_roots(g, groups)

    def test_overlapping_groups_merge(self):
        g = build_phenomenological(3, 1, 0.001)
        groups = [[0, 1], [2, 3], [1, 2], [g.boundaries[1], 3]]
        cs = ClusterState.from_partition(g, groups)
        assert_flat_labels(g, cs)
        assert cs.parent == oracle_partition_roots(g, groups)
        assert len({cs.parent[x] for x in (0, 1, 2, 3, g.boundaries[1])}) == 1

    def test_clusters_read_members(self):
        g = build_phenomenological(5, 5, 0.03)
        for idx in range(50):
            cs = decode(g, sample_syndrome(g, SeedSpec(12, idx)))
            flags = state_covered(cs)
            scan = {}
            for x in range(g.num_nodes):
                if flags[x]:
                    scan.setdefault(cs.parent[x], []).append(x)
            assert list(state_clusters(cs).items()) == list(scan.items())


def assert_root_invariants(g, cs):
    """A root touches a boundary exactly when one of its members is a
    boundary, and its rank is at most log2 of its cluster's size."""
    touches, rank = state_touches_boundary(cs), state_rank(cs)
    for r, lst in cs.members.items():
        assert touches[r] == any(g.is_boundary[x] for x in lst)
        assert rank[r] <= math.log2(len(lst))


class TestRootInvariants:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False))
    def test_boundary_flag_and_rank_bound(self, rnd):
        g = random_rough_graph(rnd)
        assert_root_invariants(g, decode(g, random_syndrome(rnd, g)))
        assert_root_invariants(g, ClusterState.from_partition(g, random_groups(rnd, g)))


def state_of(cs):
    """Everything a ClusterState holds, as values detached from it."""
    return (cs.parent[:], state_rank(cs), state_covered(cs),
            state_touches_boundary(cs), {r: lst[:] for r, lst in cs.members.items()},
            dict(cs.coverage2), cs.forest[:], cs.radius2_log, cs.op_count)


def assert_scratch_clean(g):
    sc = g._decode_scratch
    n, m = g.num_nodes, g.num_edges
    assert sc.covered == g.is_boundary
    assert sc.active == [False] * n
    assert sc.closed == [False] * m
    assert sc.cov2u == [0] * m and sc.cov2v == [0] * m


def scratch_graph(rnd):
    """A rough random graph or a small phenomenological one."""
    if rnd.random() < 0.5:
        return random_rough_graph(rnd)
    d = rnd.choice((3, 5))
    return build_phenomenological(d, rnd.choice((1, d)), rnd.choice((0.01, 0.05, 0.2)))


def random_syndrome(rnd, g):
    rate = rnd.choice((0.05, 0.2, 0.5))
    return Syndrome(frozenset(x for x in range(g.num_nodes)
                              if not g.is_boundary[x] and rnd.random() < rate))


def decode_fresh(pristine, s):
    """Decode on a copy of a graph that has never been decoded on."""
    fresh = copy.deepcopy(pristine)
    assert not hasattr(fresh, "_decode_scratch")
    return decode(fresh, s)


class TestScratch:
    # decode keeps per-graph scratch and resets what it wrote; none of
    # that may show in a result.
    def test_side_templates_match_the_edges(self):
        # Seeding, an absorption, a pause, a resume and the reset walk a
        # node's (edge, side) template: one entry per incident edge end,
        # side 1 at its v end, unchanged by later decodes.
        rnd = random.Random(3141)
        seen = Counter()
        for _ in range(200):
            g = random_rough_graph(rnd)
            for _ in range(3):
                decode(g, random_syndrome(rnd, g))
                assert_scratch_clean(g)
                sides = decoder._scratch(g).sides
                assert len(sides) == g.num_nodes
                for x in range(g.num_nodes):
                    assert list(sides[x]) == [(e, int(g.edges[e].u != x))
                                              for _, _, e in g.neighbors[x]]
            seen["parallel edges"] += len({(e.u, e.v) for e in g.edges}) < g.num_edges
            seen["more than two boundaries"] += len(g.boundaries) > 2
        assert min(seen.values()) >= 50, seen

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False))
    def test_reused_graph_matches_fresh_copy(self, rnd):
        g = scratch_graph(rnd)
        pristine = copy.deepcopy(g)
        for _ in range(4):
            s = random_syndrome(rnd, g)
            assert state_of(decode(g, s)) == state_of(decode_fresh(pristine, s))
            assert_scratch_clean(g)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False))
    def test_kept_states_survive_later_decodes(self, rnd):
        g = scratch_graph(rnd)
        kept = []
        for _ in range(5):
            cs = decode(g, random_syndrome(rnd, g))
            kept.append((cs, state_of(cs)))
        assert_scratch_clean(g)
        for cs, state in kept:
            assert state_of(cs) == state

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False))
    def test_kept_views_survive_later_decodes(self, rnd):
        # A view reads its state's own parent list: later decodes on the
        # same graph must not change what it reads.
        g = scratch_graph(rnd)
        kept = []
        for _ in range(5):
            view = contract(g, decode(g, random_syndrome(rnd, g)))
            kept.append((view, view.rep[:]))
        assert_scratch_clean(g)
        for view, rep in kept:
            assert view.rep == rep

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False))
    def test_decode_after_a_failed_decode(self, rnd):
        g = scratch_graph(rnd)
        pristine = copy.deepcopy(g)
        decode(g, random_syndrome(rnd, g))
        bad = random_syndrome(rnd, g).events | {rnd.choice(g.boundaries)}
        with pytest.raises(ValueError):
            decode(g, Syndrome(bad))
        assert_scratch_clean(g)
        s = random_syndrome(rnd, g)
        assert state_of(decode(g, s)) == state_of(decode_fresh(pristine, s))
        # A failure part-way through a decode also leaves clean scratch.
        calls = [0]
        fail_at = rnd.randrange(1, 6)
        union = decoder._union_meta

        def failing_union(*args):
            calls[0] += 1
            if calls[0] == fail_at:
                raise InvariantViolationError("injected")
            return union(*args)

        with mock.patch.object(decoder, "_union_meta", failing_union):
            try:
                decode(g, random_syndrome(rnd, g))
            except InvariantViolationError:
                pass
        assert_scratch_clean(g)
        s = random_syndrome(rnd, g)
        assert state_of(decode(g, s)) == state_of(decode_fresh(pristine, s))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False))
    def test_interleaved_graphs(self, rnd):
        graphs = [scratch_graph(rnd), scratch_graph(rnd)]
        pristine = [copy.deepcopy(g) for g in graphs]
        for i in range(6):
            g = graphs[i % 2]
            s = random_syndrome(rnd, g)
            assert state_of(decode(g, s)) == state_of(decode_fresh(pristine[i % 2], s))
        for g in graphs:
            assert_scratch_clean(g)
