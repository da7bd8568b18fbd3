import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from softgap.graphs import (
    SCALED_PER_NAT,
    DecodingGraph,
    Edge,
    build_phenomenological,
    db_to_scaled,
    weight_from_prob,
)
from softgap.harness import rule_violations
from softgap.sampling import SeedSpec, sample_syndrome
from softgap.decoder import ClusterState, decode
from softgap import softout
from softgap.softout import (
    GapResult,
    bounded_cluster_gap,
    cluster_gap,
    cluster_gaps,
    contract,
    extra_cluster_gap,
    extra_cluster_gap_cg,
    extra_gaps,
    grow_clusters,
    multi_boundary_extra_gap,
)

from oracles import (
    CountingHeapq,
    oracle_all_paths_gap,
    oracle_bottleneck_gap,
    oracle_cluster_gap,
    oracle_covered_gap,
    oracle_covered_labels,
    oracle_visited,
    random_clusters,
    random_graph,
    random_groups,
    random_rough_graph,
    state_clusters,
)

EPS20 = db_to_scaled(20.0)


def nat(x):
    return round(x * SCALED_PER_NAT)


def lifted(g, unit=1_000_000):
    """``g`` with every edge one unit heavier: a ``random_rough_graph``
    keeps its ties, parallel edges and boundaries but loses its zero
    weights, so its lightest edge is positive."""
    return DecodingGraph(g.num_nodes, g.boundaries,
                         [Edge(e.u, e.v, e.weight + unit) for e in g.edges])


def covered_edges(view, label, eps):
    """The edges between two parts that a growth with distances ``label``
    covers at budget ``eps``: d(a) + w + d(b) <= eps."""
    rep = view.rep
    return [e for e in view.graph.edges
            if rep[e.u] != rep[e.v] and rep[e.u] in label and rep[e.v] in label
            and label[rep[e.u]] + e.weight + label[rep[e.v]] <= eps]


def newly_covered(label, sources, value):
    """The non-source parts a growth with distances ``label`` covers by
    budget ``value``, every one when ``value`` is None."""
    return sum(part not in sources and (value is None or 2 * d <= value)
               for part, d in label.items())


class RecordingHeapq(CountingHeapq):
    """``CountingHeapq`` that also records each key pushed one at a time
    (``heapify`` records none) and each key popped, in order."""

    def __init__(self):
        super().__init__()
        self.pushed = []
        self.popped = []

    def heappush(self, heap, item):
        self.pushed.append(item)
        super().heappush(heap, item)

    def heappop(self, heap):
        item = super().heappop(heap)
        self.popped.append(item)
        return item


def overshoot_chain():
    """b1 -2nat- A -2nat- B -2nat- b2 with singleton clusters A, B."""
    edges = [Edge(0, 2, nat(2)), Edge(0, 1, nat(2)), Edge(1, 3, nat(2))]
    g = DecodingGraph(4, (2, 3), edges)
    cs = ClusterState.from_partition(g, [[0], [1]])
    return g, cs


class TestClusterGap:
    def test_empty_clusters_d3(self):
        g = build_phenomenological(3, 1, 0.001)
        cs = ClusterState(g)
        view = contract(g, cs)
        r = cluster_gap(view)
        assert r.value == 3 * weight_from_prob(0.001)
        assert r.value == oracle_all_paths_gap(g, cs)
        assert r.defined

    def test_spanning_cluster_gives_zero(self):
        g = build_phenomenological(3, 1, 0.001)
        # one cluster containing a full left-right crossing incl. boundaries
        path = [g.boundaries[0], 0, 1, g.boundaries[1]]
        cs = ClusterState.from_partition(g, [path])
        assert cluster_gap(contract(g, cs)).value == 0

    def test_visited_counts_settled_parts(self):
        g = build_phenomenological(3, 1, 0.001)
        view = contract(g, ClusterState(g))
        r = cluster_gap(view)
        # search must settle the far boundary last: every contracted node
        assert r.visited_nodes == g.num_nodes

    def test_matches_bellman_ford_oracle_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(300):
            g = random_graph(rng, max_nodes=120)
            cs = ClusterState.from_partition(g, random_clusters(rng, g))
            assert cluster_gap(contract(g, cs)).value == oracle_cluster_gap(g, cs)

    def test_quotient_distance_never_above_plain_distance(self):
        rng = random.Random(77)
        for _ in range(100):
            g = random_graph(rng, max_nodes=60)
            plain = oracle_cluster_gap(g, ClusterState(g))
            clustered = oracle_cluster_gap(
                g, ClusterState.from_partition(g, random_clusters(rng, g)))
            assert clustered <= plain


class TestBoundedClusterGap:
    def test_agrees_below_threshold_disagrees_above(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_graph(rng, max_nodes=80)
            cs = ClusterState.from_partition(g, random_clusters(rng, g))
            view = contract(g, cs)
            full = cluster_gap(view)
            for eps_db in (5.0, 20.0, 60.0):
                eps = db_to_scaled(eps_db)
                r = bounded_cluster_gap(view, eps)
                if full.value <= eps:
                    assert r.value == full.value
                else:
                    assert r.value is None
                assert r.visited_nodes <= full.visited_nodes

    def test_search_stops_after_first_heavy_edge(self):
        # single-hop weight above the budget: only the source settles
        g = build_phenomenological(3, 3, 0.0001)
        view = contract(g, ClusterState(g))
        r = bounded_cluster_gap(view, EPS20)
        assert r.value is None
        assert r.visited_nodes == 1

    def test_zero_budget(self):
        g = build_phenomenological(3, 1, 0.01)
        cs = ClusterState(g)
        r = bounded_cluster_gap(contract(g, cs), 0)
        assert r.value is None
        assert r.visited_nodes == 1


def _connected(graph, group):
    inside = set(group)
    seen = {group[0]}
    stack = [group[0]]
    while stack:
        x = stack.pop()
        for y, _, _ in graph.neighbors[x]:
            if y in inside and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(inside)


class TestVisitedNodes:
    """``visited_nodes`` of the cluster and bounded gaps against the
    Bellman-Ford (distance, part id) oracle."""

    BUDGETS = (0, nat(1), nat(2.5), EPS20)

    def _check(self, g, cs):
        view = contract(g, cs)
        expected = oracle_visited(g, cs)
        for eps in self.BUDGETS:
            full, bounded = cluster_gaps(view, eps)
            assert full.visited_nodes == expected
            assert bounded.visited_nodes == oracle_visited(g, cs, eps)
            assert cluster_gap(view) == full
            assert bounded_cluster_gap(view, eps) == bounded

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(4242)
        for _ in range(200):
            g = random_graph(rng, max_nodes=80)
            self._check(g, ClusterState.from_partition(g, random_clusters(rng, g)))

    def test_matches_oracle_on_rough_graphs(self):
        # Every third case is also checked with its weights lifted, as the
        # rough graphs almost always have a zero-weight edge.
        rng = random.Random(777)
        seen = Counter()
        for i in range(1500):
            g = random_rough_graph(rng)
            groups = random_groups(rng, g)
            for h in (g, lifted(g)) if i % 3 == 0 else (g,):
                cs = ClusterState.from_partition(h, groups)
                self._check(h, cs)
                view = contract(h, cs)
                seen["zero-weight edge between parts"] += any(
                    e.weight == 0 and view.rep[e.u] != view.rep[e.v] for e in h.edges)
                seen["parallel edges"] += len({(e.u, e.v) for e in h.edges}) < h.num_edges
                seen["more than two boundaries"] += len(h.boundaries) > 2
                seen["disconnected group"] += any(not _connected(h, gr) for gr in groups)
                seen["b1 inside a cluster"] += view.boundary_parts[0] in view.members
                seen["b2 inside a cluster"] += view.boundary_parts[1] in view.members
                seen["lightest edge > 0"] += h.min_weight() > 0
        assert len(seen) == 7 and min(seen.values()) >= 100, seen

    def test_search_works_only_within_the_gap(self, monkeypatch):
        # cluster_gaps lowers no part beyond the gap it holds at that time,
        # and pops no key beyond the gap less the lightest edge weight but
        # the one it stops at.  The pushes replay the gap: it starts at
        # b2's part's bare distance and each push to that part lowers it.
        rng = random.Random(5151)
        seen = Counter()
        for i in range(900):
            if i % 3 == 0:
                g = random_graph(rng, max_nodes=80)
            else:
                g = random_rough_graph(rng)
                if i % 3 == 2:
                    g = lifted(g)
            cs = ClusterState.from_partition(g, random_groups(rng, g))
            view = contract(g, cs)
            b2 = view.boundary_parts[1]
            recorder = RecordingHeapq()
            with monkeypatch.context() as m:
                m.setattr(softout, "heapq", recorder)
                full, _ = cluster_gaps(view, EPS20)
            n, w_min = g.num_nodes, g.min_weight()
            bare = g.bare_distances()[0]
            gap = min(bare[x] for x in view.members.get(b2, (b2,)))
            for key in recorder.pushed:
                d, y = divmod(key, n)
                assert d <= gap
                if y == b2:
                    gap = d
            assert gap == full.value
            beyond = [k for k in recorder.popped if k // n > gap - w_min]
            assert beyond in ([], recorder.popped[-1:])
            seen["a part lowered"] += bool(recorder.pushed)
            seen["stopped short of the gap"] += bool(beyond) and beyond[0] // n <= gap
            seen["lightest edge > 0"] += w_min > 0
            seen["lightest edge 0"] += w_min == 0
        assert len(seen) == 4 and min(seen.values()) >= 100, seen

    def test_search_stops_at_the_first_key_that_lowers_nothing(self, monkeypatch):
        # b1 = 1, b2 = 2, unit weights, n = 7; bare distances 1:0, 3:1,
        # 2:2, 0:2, 4:3, 5:4.  Parts A = {0, 4} at 2 and B = {5, 6} at 4
        # are heapified as keys 2*7 + 0 = 14 and 4*7 + 5 = 33.  The gap is
        # b2's bare 2, so stop = (2 - 1 + 1) * 7 = 14: the first pop meets
        # it and the search ends, with B never popped.
        edges = [Edge(1, 3, 1), Edge(3, 2, 1), Edge(3, 0, 1), Edge(0, 4, 1),
                 Edge(4, 5, 1), Edge(5, 6, 1)]
        g = DecodingGraph(7, (1, 2), edges)
        view = contract(g, ClusterState.from_partition(g, [[0, 4], [5, 6]]))
        counter = CountingHeapq()
        monkeypatch.setattr(softout, "heapq", counter)
        assert cluster_gaps(view, 0)[0] == GapResult("cluster", 2, visited_nodes=4)
        assert (counter.pushes, counter.pops) == (2, 1)

    def test_search_expands_only_members_beyond_their_bare_distance(self, monkeypatch):
        # b1 = 1, b2 = 2, n = 5; bare distances 1:0, 3:1, 0:2, 4:7, 2:8.
        # Part A = {0, 4} starts at 2, node 0's bare distance, so of its
        # members only 4 is expanded: its unit edge lowers b2 to 3 (one
        # push), the gap becomes 3 and stop (3 - 1 + 1) * 5 = 15, which
        # the next pop, b2's key 3*5 + 2 = 17, passes.  Node 0's edges
        # already hold their bare distances, so reading them would push
        # nothing; only its neighbour list is not read.
        edges = [Edge(1, 3, 1), Edge(3, 0, 1), Edge(0, 4, 5), Edge(4, 2, 1),
                 Edge(1, 2, 10)]
        g = DecodingGraph(5, (1, 2), edges)
        g.bare_distances()                       # memoized before the count
        read = []

        class Recorded(tuple):
            def __getitem__(self, node):
                read.append(node)
                return tuple.__getitem__(self, node)

        g.neighbors = Recorded(g.neighbors)
        view = contract(g, ClusterState.from_partition(g, [[0, 4]]))
        counter = CountingHeapq()
        monkeypatch.setattr(softout, "heapq", counter)
        full, _ = cluster_gaps(view, 0)
        assert full.value == 3
        assert read == [4]
        assert (counter.pushes, counter.pops) == (2, 2)

    def test_tie_at_gap_counts_lower_part_ids_only(self):
        # b1 = 0, b2 = 1.  Detectors 3 and 5 are at the gap's distance with
        # ids above b2's, so they are not counted, although b2 is reached
        # only through 5 (a zero-weight edge).
        edges = [Edge(0, 5, nat(1)), Edge(1, 5, 0), Edge(0, 3, nat(1)),
                 Edge(3, 4, nat(5)), Edge(2, 4, nat(5))]
        g = DecodingGraph(6, (0, 1), edges)
        cs = ClusterState(g)
        r = cluster_gap(contract(g, cs))
        assert r.value == nat(1)
        assert r.visited_nodes == oracle_visited(g, cs) == 2


class TestExtraClusterGap:
    def test_overshoot_chain(self):
        g, cs = overshoot_chain()
        view = contract(g, cs)
        assert cluster_gap(view).value == nat(6)
        r = extra_cluster_gap(g, cs, EPS20)
        assert r.value == nat(2)
        assert r.value == oracle_bottleneck_gap(g, cs, EPS20)
        # the plain estimator under-reports while the full search is capped
        assert bounded_cluster_gap(view, EPS20).value is None

    def test_no_connection_within_budget(self):
        g = build_phenomenological(3, 1, 0.0001)
        cs = ClusterState(g)
        r = extra_cluster_gap(g, cs, EPS20)
        assert r.value is None
        assert r.extra_nodes == 0      # half-edges are heavier than eps/2

    def test_boundaries_already_joined(self):
        g = build_phenomenological(3, 1, 0.001)
        cs = ClusterState.from_partition(g, [[g.boundaries[0], 0, 1, g.boundaries[1]]])
        r = extra_cluster_gap(g, cs, EPS20)
        assert r.value == 0

    def test_matches_bottleneck_oracle_on_random_graphs(self):
        rng = random.Random(404)
        for _ in range(300):
            g = random_graph(rng, max_nodes=120)
            cs = ClusterState.from_partition(g, random_clusters(rng, g))
            for eps_db in (8.0, 20.0, 45.0):
                eps = db_to_scaled(eps_db)
                assert extra_cluster_gap(g, cs, eps).value == \
                    oracle_bottleneck_gap(g, cs, eps)

    def test_monotone_in_budget(self):
        rng = random.Random(55)
        for _ in range(120):
            g = random_graph(rng, max_nodes=60)
            cs = ClusterState.from_partition(g, random_clusters(rng, g))
            budgets = [db_to_scaled(x) for x in (5.0, 10.0, 20.0, 40.0, 80.0)]
            values = [extra_cluster_gap(g, cs, b).value for b in budgets]
            for small, big in zip(values, values[1:]):
                if small is not None:
                    assert big == small

    def test_growth_never_exceeds_half_budget(self):
        rng = random.Random(66)
        for _ in range(100):
            g = random_graph(rng, max_nodes=60)
            cs = ClusterState.from_partition(g, random_clusters(rng, g))
            view = contract(g, cs)
            for dist in grow_clusters(view, EPS20).values():
                assert 2 * dist <= EPS20


class TestExtraClusterGapCg:
    def test_recovers_exact_gap_on_overshoot_chain(self):
        g, cs = overshoot_chain()
        r = extra_cluster_gap_cg(g, cs, EPS20)
        # connection exists, so the refined estimate reports the true gap,
        # even though it exceeds the budget
        assert r.value == nat(6)
        assert r.cluster_graph_invoked

    def test_covered_search_queues_a_part_once_per_decrease(self, monkeypatch):
        # b1 = 0, b2 = 1 and a diamond of unit edges 0-2-4, 0-3-4, then
        # 4-1.  The search pops b1 (pushes 2 and 3 at 1), 2 (pushes 4 at
        # 2), 3 (reaches 4 at 2 again: no push), 4 (pushes b2 at 3) and
        # b2: 4 pushes, 5 pops.
        edges = [Edge(0, 2, 1), Edge(0, 3, 1), Edge(2, 4, 1), Edge(3, 4, 1),
                 Edge(4, 1, 1)]
        g = DecodingGraph(5, (0, 1), edges)
        view = contract(g, ClusterState(g))
        radius = grow_clusters(view, 10)
        assert radius == {0: 0, 1: 0, 2: 1, 3: 1, 4: 1}
        counter = CountingHeapq()
        monkeypatch.setattr(softout, "heapq", counter)
        assert softout._covered_distance(view, radius, 10) == 3
        assert (counter.pushes, counter.pops) == (4, 5)

    def test_undefined_without_connection(self):
        g = build_phenomenological(3, 1, 0.0001)
        cs = ClusterState(g)
        r = extra_cluster_gap_cg(g, cs, EPS20)
        assert r.value is None
        assert not r.cluster_graph_invoked

    def test_exact_below_threshold_on_random_graphs(self):
        rng = random.Random(505)
        for _ in range(300):
            g = random_graph(rng, max_nodes=120)
            cs = ClusterState.from_partition(g, random_clusters(rng, g))
            view = contract(g, cs)
            g_c = cluster_gap(view).value
            for eps_db in (8.0, 20.0, 45.0):
                eps = db_to_scaled(eps_db)
                r = extra_cluster_gap_cg(g, cs, eps, view=view)
                if g_c <= eps:
                    assert r.value == g_c
                if r.value is not None:
                    assert r.value >= g_c
                # both growth variants agree on when a connection exists
                assert (r.value is None) == \
                    (extra_cluster_gap(g, cs, eps, view=view).value is None)


class TestCrossEstimatorProperties:
    @pytest.mark.parametrize("d,p", [(3, 0.03), (5, 0.02), (5, 0.05)])
    def test_all_rules_on_decoded_samples(self, d, p):
        g = build_phenomenological(d, d, p)
        for idx in range(200):
            cs = decode(g, sample_syndrome(g, SeedSpec(808, idx)))
            view = contract(g, cs)
            g_c = cluster_gap(view).value
            g_b = bounded_cluster_gap(view, EPS20).value
            g_e = extra_cluster_gap(g, cs, EPS20, view=view).value
            g_cg = extra_cluster_gap_cg(g, cs, EPS20, view=view).value
            if g_c <= EPS20:
                assert g_b == g_c
                assert g_e is not None and g_e <= g_c
                assert g_cg == g_c
            else:
                assert g_b is None
            if g_e is not None:
                assert g_e <= g_c
            if g_cg is not None:
                assert g_c <= g_cg


    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.randoms(use_true_random=False))
    def test_rule_helper_on_rough_graphs(self, rnd):
        g = random_rough_graph(rnd)
        view = contract(g, ClusterState.from_partition(g, random_groups(rnd, g)))
        for eps in (0, nat(1), nat(2.5), EPS20):
            cluster, bounded = cluster_gaps(view, eps)
            extra, extra_cg = extra_gaps(view, eps)
            gaps = (cluster.value, bounded.value, extra.value, extra_cg.value)
            assert rule_violations(gaps, eps) == []

    def test_rule_helper_names_each_broken_rule(self):
        eps = 10
        assert rule_violations((5, 5, 3, 5), eps) == []
        assert rule_violations((20, None, 15, 25), eps) == []
        assert rule_violations((20, None, None, None), eps) == []
        assert rule_violations((5, 6, 3, 5), eps) == [
            "bounded_agrees_with_cluster_below_threshold"]
        assert rule_violations((20, 20, None, None), eps) == [
            "bounded_agrees_with_cluster_below_threshold"]
        assert rule_violations((5, 5, None, 5), eps) == [
            "extra_defined_when_cluster_below_threshold"]
        assert rule_violations((5, 5, 3, 6), eps) == [
            "extra_cg_equals_cluster_below_threshold"]
        assert rule_violations((20, None, 25, None), eps) == [
            "extra_not_above_cluster"]
        assert rule_violations((20, None, 15, 18), eps) == [
            "cluster_not_above_extra_cg"]


def count_growths(monkeypatch):
    """Counter of the grow_clusters calls made through the softout module."""
    calls = Counter()
    grow = softout.grow_clusters

    def counted(*args):
        calls["grow_clusters"] += 1
        return grow(*args)

    monkeypatch.setattr(softout, "grow_clusters", counted)
    return calls


class TestMultiBoundary:
    def test_two_boundaries_consistent_with_single_pair(self, monkeypatch):
        calls = count_growths(monkeypatch)
        rng = random.Random(909)
        for _ in range(80):
            g = random_graph(rng, max_nodes=50)
            cs = ClusterState.from_partition(g, random_clusters(rng, g))
            single = extra_cluster_gap(g, cs, EPS20)
            calls.clear()
            report = multi_boundary_extra_gap(g, cs, EPS20)
            assert calls["grow_clusters"] == 1
            assert report == {tuple(g.boundaries): single}

    def test_every_pair_equals_single_pair_on_rough_graphs(self):
        # pair (b_i, b_j) of the multi-boundary report must equal the
        # single-pair estimator on the same graph with b_i, b_j listed
        # first: every boundary grows in both, so the growth is the same.
        # Each graph is also checked lifted, at a budget below its lightest
        # edge, where the growth covers no edge: a pair the decoder
        # joined reads 0 with no extra nodes and every other pair is
        # undefined, as the bottleneck oracle says.  Both graphs are also
        # checked at twice their lightest edge weight w and one above, where
        # the heap pass covers many edges for the searches to cross.
        rng = random.Random(2718)
        seen = Counter()
        for _ in range(400):
            g = random_rough_graph(rng)
            groups = random_groups(rng, g)
            lift = lifted(g)
            budgets = [(g, EPS20), (lift, lift.min_weight() - 1)]
            budgets += [(h, 2 * h.min_weight() + k) for h in (g, lift) for k in (0, 1)]
            for h, eps in budgets:
                cs = ClusterState.from_partition(h, groups)
                report = multi_boundary_extra_gap(h, cs, eps)
                view = contract(h, cs)
                radius = grow_clusters(view, eps)
                covered = covered_edges(view, radius, eps)
                below = eps < h.min_weight()
                assert not (below and covered)
                if not below:
                    seen["three or more covered edges"] += len(covered) >= 3
                    seen["three or more boundaries"] += len(h.boundaries) >= 3
                # zero-distance growth, which a joined pair must not count
                zero_grown = any(d == 0 and part not in view.sources
                                 for part, d in radius.items())
                for (a, b), result in report.items():
                    rest = [x for x in h.boundaries if x not in (a, b)]
                    h_ab = DecodingGraph(h.num_nodes, [a, b, *rest], h.edges)
                    cs_ab = ClusterState.from_partition(h_ab, groups)
                    assert result == extra_cluster_gap(h_ab, cs_ab, eps)
                    joined = view.rep[a] == view.rep[b]
                    if below:
                        assert result == GapResult("extra", 0 if joined else None)
                        assert result.value == oracle_bottleneck_gap(h_ab, cs_ab, eps)
                        seen["below the lightest edge, joined"] += joined
                        seen["below the lightest edge, apart"] += not joined
                        continue
                    seen["joined by the decoder"] += joined
                    seen["joined, zero-distance parts grown"] += joined and zero_grown
                    seen["joined by growth at budget 0"] += \
                        not joined and result.value == 0
        assert len(seen) == 7 and min(seen.values()) >= 100, seen

    def test_eight_boundaries_single_pass(self, monkeypatch):
        # ring of 8 boundaries, neighbors bridged by one detector each
        calls = count_growths(monkeypatch)
        edges = []
        hop = nat(1.5)
        for i in range(8):
            det = 8 + i
            edges.append(Edge(i, det, hop))
            edges.append(Edge(det, (i + 1) % 8, hop))
        g = DecodingGraph(16, tuple(range(8)), edges)
        cs = ClusterState(g)
        report = multi_boundary_extra_gap(g, cs, EPS20)
        assert len(report) == 28
        assert calls["grow_clusters"] == 1
        # adjacent pair: one bridge of 3 nat; all pairs connect transitively
        first_pair = (0, 1)
        assert report[first_pair].value == nat(3)
        for key in report:
            assert report[key].value == nat(3)

    def test_star_with_unreachable_pairs(self, monkeypatch):
        # four boundaries, each 6 nat from a central detector: pairwise
        # bottleneck 12 nat, so every pair stays undefined at the 20 dB
        # budget, which is below the lightest edge and runs no growth, and
        # at 11 nat, which runs one
        calls = count_growths(monkeypatch)
        edges = [Edge(b, 4, nat(6)) for b in range(4)]
        g = DecodingGraph(5, (0, 1, 2, 3), edges)
        cs = ClusterState(g)
        for eps, passes in ((EPS20, 0), (nat(11), 1)):
            calls.clear()
            report = multi_boundary_extra_gap(g, cs, eps)
            assert len(report) == 6
            assert calls["grow_clusters"] == passes
            for key in report:
                assert report[key].value is None

    def test_pairs_joined_by_decoder_cluster_report_zero(self):
        edges = [Edge(b, 4, nat(6)) for b in range(4)]
        g = DecodingGraph(5, (0, 1, 2, 3), edges)
        cs = ClusterState.from_partition(g, [[0, 4, 1]])
        report = multi_boundary_extra_gap(g, cs, EPS20)
        assert report[(0, 1)].value == 0
        assert report[(2, 3)].value is None

    def test_joined_pair_counts_no_extra_nodes(self):
        # b1 = 0 and b2 = 1 share a cluster; detector 3 hangs off it by a
        # zero-weight edge, so growth covers it at distance 0.  The joined
        # pair needs no growth: 0 extra nodes, as the single-pair estimator.
        edges = [Edge(0, 2, nat(1)), Edge(2, 1, nat(1)), Edge(2, 3, 0)]
        g = DecodingGraph(4, (0, 1), edges)
        cs = ClusterState.from_partition(g, [[0, 2, 1]])
        assert grow_clusters(contract(g, cs), EPS20)[3] == 0
        report = multi_boundary_extra_gap(g, cs, EPS20)
        assert report[(0, 1)] == extra_cluster_gap(g, cs, EPS20)
        assert report[(0, 1)].extra_nodes == 0


class TestExtraGaps:
    def test_one_growth_for_both_estimators(self, monkeypatch):
        calls = count_growths(monkeypatch)
        g, cs = overshoot_chain()
        extra, extra_cg = extra_gaps(contract(g, cs), EPS20)
        assert calls["grow_clusters"] == 1
        assert (extra.value, extra_cg.value) == (nat(2), nat(6))
        assert extra == extra_cluster_gap(g, cs, EPS20)
        assert extra_cg == extra_cluster_gap_cg(g, cs, EPS20)

    def test_rules_on_rough_graphs(self):
        # Each graph is also checked lifted, at a budget below its lightest
        # edge, where the growth is the sources alone: joined by the
        # decoder, both gaps are 0 with no extra nodes; apart, both are
        # undefined.
        rng = random.Random(1618)
        seen = Counter()
        for _ in range(400):
            g = random_rough_graph(rng)
            groups = random_groups(rng, g)
            cs = ClusterState.from_partition(g, groups)
            view = contract(g, cs)
            g_c = cluster_gap(view).value
            for eps in (0, nat(1), nat(2.5), EPS20):
                extra, extra_cg = extra_gaps(view, eps)
                assert extra.value == oracle_bottleneck_gap(g, cs, eps)
                assert extra_cg.defined == extra.defined
                assert extra_cg.cluster_graph_invoked == extra.defined
                if g_c <= eps:
                    assert extra_cg.value == g_c
                if extra_cg.defined:
                    assert extra_cg.value >= g_c
                assert extra.extra_nodes <= extra_cg.extra_nodes

            lift = lifted(g)
            cs = ClusterState.from_partition(lift, groups)
            view = contract(lift, cs)
            below = lift.min_weight() - 1
            assert grow_clusters(view, below) == dict.fromkeys(view.sources, 0)
            joined = view.boundary_parts[0] == view.boundary_parts[1]
            value = 0 if joined else None
            assert oracle_bottleneck_gap(lift, cs, below) == value
            assert extra_gaps(view, below) == (
                GapResult("extra", value),
                GapResult("extra_cg", value, cluster_graph_invoked=joined))
            seen["joined" if joined else "apart"] += 1
        assert min(seen.values()) >= 30, seen

    def test_refined_gap_is_the_covered_region_distance(self):
        # The covered-region search walks only the settled parts' edges;
        # the oracle rebuilds the region from every edge of the graph.
        rng = random.Random(2718)
        for i in range(300):
            g = random_rough_graph(rng) if i % 2 else random_graph(rng, max_nodes=60)
            cs = ClusterState.from_partition(g, random_groups(rng, g))
            view = contract(g, cs)
            for eps in (0, nat(1), nat(2.5), EPS20):
                assert extra_gaps(view, eps)[1].value == oracle_covered_gap(g, cs, eps)


    def test_budget_below_lightest_edge_skips_growth(self, monkeypatch):
        # Below twice the lightest edge weight w no part is within the
        # radius, so the growth is the sources alone, built without a heap;
        # from w on they meet through their direct edges.  With the
        # shortcut disabled the full pass must give the same growth and
        # gaps.  A zero-weight edge rules it out.  Each graph is also
        # checked lifted, which gives the rough graphs a sources-only band.
        rng = random.Random(4242)
        seen = Counter()
        for i in range(400):
            g = random_rough_graph(rng) if i % 2 else random_graph(rng, max_nodes=60)
            groups = random_groups(rng, g)
            for h in (g, lifted(g)):
                cs = ClusterState.from_partition(h, groups)
                view = contract(h, cs)
                w = h.min_weight()
                assert w == min(e.weight for e in h.edges)
                is_b = h.is_boundary
                for eps in sorted({0, max(w - 1, 0), w, w + 1, max(2 * w - 1, 0),
                                   2 * w, EPS20}):
                    counter = CountingHeapq()
                    with monkeypatch.context() as m:
                        m.setattr(softout, "heapq", counter)
                        fast = grow_clusters(view, eps)
                    fast_gaps = extra_gaps(view, eps)
                    skipped = counter.pushes == counter.pops == 0
                    assert skipped == (eps < 2 * w)
                    with monkeypatch.context() as m:
                        m.setattr(DecodingGraph, "min_weight", lambda self: 0)
                        full = grow_clusters(view, eps)
                        full_gaps = extra_gaps(view, eps)
                    assert fast == full
                    assert fast_gaps == full_gaps
                    sources_only = w <= eps < 2 * w
                    seen["below" if eps < w else "sources only" if sources_only
                         else "at 2w" if eps == 2 * w else "above"] += 1
                    seen["sources only, detector-boundary edge covered"] += sources_only and any(
                        is_b[e.u] != is_b[e.v] for e in covered_edges(view, fast, eps))
                    seen["zero-weight graph"] += w == 0
        assert len(seen) == 6 and min(seen.values()) >= 100, seen

    def test_budget_below_lightest_edge_runs_no_growth(self, monkeypatch):
        # Below the lightest edge weight neither family calls the growth;
        # from that weight on each calls it once.
        calls = count_growths(monkeypatch)
        rng = random.Random(3141)
        for _ in range(100):
            g = lifted(random_rough_graph(rng))
            cs = ClusterState.from_partition(g, random_groups(rng, g))
            view = contract(g, cs)
            w = g.min_weight()
            for eps in (0, w - 1, w, 2 * w):
                calls.clear()
                extra_gaps(view, eps)
                multi_boundary_extra_gap(g, cs, eps)
                assert calls["grow_clusters"] == (0 if eps < w else 2)

    def test_negative_budget_is_rejected(self):
        g, cs = overshoot_chain()
        view = contract(g, cs)
        calls = [lambda: cluster_gaps(view, -1),
                 lambda: grow_clusters(view, -1),
                 lambda: extra_gaps(view, -1),
                 lambda: extra_cluster_gap(g, cs, -1),
                 lambda: extra_cluster_gap_cg(g, cs, -1),
                 lambda: multi_boundary_extra_gap(g, cs, -1)]
        for call in calls:
            with pytest.raises(ValueError):
                call()


def growth_cases(rng, count):
    """(graph, state) pairs: random graphs, rough graphs with two to five
    boundaries, zero-weight and parallel edges, and decoded samples of
    small phenomenological graphs."""
    for i in range(count):
        kind = i % 3
        if kind == 2:
            d = rng.choice((3, 5))
            g = build_phenomenological(d, d, rng.choice((0.01, 0.05, 0.2)))
            yield g, decode(g, sample_syndrome(g, SeedSpec(77, i)))
            continue
        g = random_rough_graph(rng) if kind else random_graph(rng, max_nodes=60)
        yield g, ClusterState.from_partition(g, random_groups(rng, g))


class TestGrowthOracle:
    def test_growth_matches_full_scan(self):
        # Below twice the lightest edge the growth is the sources, built
        # without a search.  The oracle runs one Bellman-Ford from every
        # grown part over every edge of the graph.  The distances must
        # agree, and so must the extra nodes of every extra gap, read from
        # them.  Each rough graph is also checked lifted, so its many
        # boundaries meet the sources-only band.
        rng = random.Random(5150)
        seen = Counter()
        for i, (g, cs) in enumerate(growth_cases(rng, 600)):
            cases = [(g, cs)]
            if i % 3 == 1:
                lift = lifted(g)
                cases.append((lift, ClusterState.from_partition(lift, state_clusters(cs).values())))
            for h, state in cases:
                self._check(h, state, seen)
        assert min(seen.values()) >= 100 and len(seen) == 8, seen

    @staticmethod
    def _check(g, cs, seen):
        view = contract(g, cs)
        w_min = g.min_weight()
        is_b = g.is_boundary
        rep = view.rep
        sources = set(view.sources)
        for eps in sorted({0, max(w_min - 1, 0), w_min, max(2 * w_min - 1, 0), 2 * w_min,
                           db_to_scaled(20), db_to_scaled(40), db_to_scaled(60)}):
            label = oracle_covered_labels(g, cs, eps)
            assert grow_clusters(view, eps) == label
            b1, b2 = view.boundary_parts[:2]
            extra, extra_cg = extra_gaps(view, eps)
            assert extra.extra_nodes == (0 if b1 == b2
                                         else newly_covered(label, sources, extra.value))
            assert extra_cg.extra_nodes == newly_covered(label, sources, None)
            for (a, b), result in multi_boundary_extra_gap(g, cs, eps).items():
                joined = rep[a] == rep[b]
                assert result.extra_nodes == (0 if joined
                                              else newly_covered(label, sources, result.value))
            covered = covered_edges(view, label, eps)
            seen["covered boundary-boundary edge"] += any(
                is_b[e.u] and is_b[e.v] for e in covered)
            seen["boundary in a multi-node part"] += eps >= w_min and any(
                is_b[x] for lst in view.members.values() for x in lst)
            seen["light boundary edge covers a detector"] += any(
                rep[e.u] != rep[e.v] and is_b[e.u] != is_b[e.v]
                and 2 * e.weight <= eps and label.get(rep[e.u if is_b[e.v] else e.v]) is not None
                for e in g.edges)
            seen["covered boundary-detector edge"] += any(
                is_b[e.u] != is_b[e.v] for e in covered)
            sources_only = w_min <= eps < 2 * w_min
            seen["below the lightest edge"] += eps < w_min
            seen["sources only, with a covered edge"] += sources_only and bool(covered)
            seen["sources only, three or more boundaries"] += sources_only and len(g.boundaries) > 2
            seen["zero-weight graph"] += w_min == 0


class TestContractedView:
    def test_sources_exclude_bare_detectors(self):
        g = build_phenomenological(3, 1, 0.001)
        cs = ClusterState.from_partition(g, [[0, 1]])
        view = contract(g, cs)
        root = cs.parent[0]
        assert set(view.sources) == {root} | set(g.boundaries)
