import random
from collections import Counter

import pytest

from softgap.graphs import (
    SCALED_PER_NAT,
    DecodingGraph,
    Edge,
    build_phenomenological,
    db_to_scaled,
    weight_from_prob,
)
from softgap.sampling import SeedSpec, sample_syndrome
from softgap.decoder import ClusterState, decode
from softgap import softout
from softgap.softout import (
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
    oracle_all_paths_gap,
    oracle_bottleneck_gap,
    oracle_cluster_gap,
    oracle_visited,
    random_clusters,
    random_graph,
    random_groups,
    random_rough_graph,
)

EPS20 = db_to_scaled(20.0)


def nat(x):
    return round(x * SCALED_PER_NAT)


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
        rng = random.Random(777)
        seen = Counter()
        for _ in range(1500):
            g = random_rough_graph(rng)
            groups = random_groups(rng, g)
            cs = ClusterState.from_partition(g, groups)
            self._check(g, cs)
            view = contract(g, cs)
            seen["zero-weight edge between parts"] += any(
                e.weight == 0 and view.rep[e.u] != view.rep[e.v] for e in g.edges)
            seen["parallel edges"] += len({(e.u, e.v) for e in g.edges}) < g.num_edges
            seen["more than two boundaries"] += len(g.boundaries) > 2
            seen["disconnected group"] += any(not _connected(g, gr) for gr in groups)
            seen["b1 inside a cluster"] += view.boundary_parts[0] in view.members
        assert len(seen) == 5 and min(seen.values()) >= 100, seen

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
            growth = grow_clusters(view, EPS20)
            for part, dist in growth.settled:
                assert 2 * dist <= EPS20


class TestExtraClusterGapCg:
    def test_recovers_exact_gap_on_overshoot_chain(self):
        g, cs = overshoot_chain()
        r = extra_cluster_gap_cg(g, cs, EPS20)
        # connection exists, so the refined estimate reports the true gap,
        # even though it exceeds the budget
        assert r.value == nat(6)
        assert r.cluster_graph_invoked

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
        rng = random.Random(2718)
        seen = Counter()
        for _ in range(400):
            g = random_rough_graph(rng)
            groups = random_groups(rng, g)
            cs = ClusterState.from_partition(g, groups)
            report = multi_boundary_extra_gap(g, cs, EPS20)
            view = contract(g, cs)
            # zero-distance growth, which a joined pair must not count
            zero_grown = any(d == 0 and part not in view.sources
                             for part, d in grow_clusters(view, EPS20).settled)
            for (a, b), result in report.items():
                rest = [x for x in g.boundaries if x not in (a, b)]
                g_ab = DecodingGraph(g.num_nodes, [a, b, *rest], g.edges)
                cs_ab = ClusterState.from_partition(g_ab, groups)
                assert result == extra_cluster_gap(g_ab, cs_ab, EPS20)
                joined = view.rep[a] == view.rep[b]
                seen["joined by the decoder"] += joined
                seen["joined, zero-distance parts grown"] += joined and zero_grown
                seen["joined by growth at budget 0"] += \
                    not joined and result.value == 0
        assert len(seen) == 3 and min(seen.values()) >= 100, seen

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
        # bottleneck 12 nat > 20 dB budget, so every pair stays undefined
        calls = count_growths(monkeypatch)
        edges = [Edge(b, 4, nat(6)) for b in range(4)]
        g = DecodingGraph(5, (0, 1, 2, 3), edges)
        cs = ClusterState(g)
        report = multi_boundary_extra_gap(g, cs, EPS20)
        assert len(report) == 6
        assert calls["grow_clusters"] == 1
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
        assert grow_clusters(contract(g, cs), EPS20).settled[-1] == (3, 0)
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
        rng = random.Random(1618)
        for _ in range(400):
            g = random_rough_graph(rng)
            cs = ClusterState.from_partition(g, random_groups(rng, g))
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


class TestContractedView:
    def test_sources_exclude_bare_detectors(self):
        g = build_phenomenological(3, 1, 0.001)
        cs = ClusterState.from_partition(g, [[0, 1]])
        view = contract(g, cs)
        root = cs.find(0)
        assert set(view.sources) == {root} | set(g.boundaries)
