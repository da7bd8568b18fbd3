import math
import re
from types import SimpleNamespace

import pytest

from softgap.graphs import (
    SCALED_PER_NAT,
    DecodingGraph,
    Edge,
    GraphFormatError,
    InvalidParameterError,
    InvalidProbabilityError,
    build_phenomenological,
    db_to_nat,
    load_graph,
    nat_to_db,
    save_graph,
    scaled_to_nat,
    weight_from_prob,
)

from oracles import oracle_all_paths_gap
from softgap.decoder import ClusterState


# ln(999) to 16 digits, frozen from an arbitrary-precision evaluation:
# 6.9067547786485535185538313817990242778...
LN_999 = 6.906754778648554
# ln(9999) = 9.2102403669758493777...
LN_9999 = 9.21024036697585


class TestWeightFromProb:
    def test_quoted_low_rate_weight(self):
        # w(1e-4) is approximately 9.2102 natural units
        w = weight_from_prob(1e-4)
        assert abs(scaled_to_nat(w) - 9.2102) < 1e-4
        assert w == round(LN_9999 * SCALED_PER_NAT) == 18420481

    def test_half_probability_gives_zero(self):
        assert weight_from_prob(0.5) == 0

    def test_ln999_value(self):
        w = weight_from_prob(0.001)
        assert w == round(LN_999 * SCALED_PER_NAT) == 13813510
        # scaled representation quantizes at half a grid step
        assert abs(scaled_to_nat(w) - LN_999) <= 0.5 / SCALED_PER_NAT

    def test_strictly_decreasing(self):
        probs = [1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
        weights = [weight_from_prob(p) for p in probs]
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert weights[-1] == 0

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.5000001, 1.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidProbabilityError):
            weight_from_prob(bad)


class TestDbConversion:
    def test_twenty_db_anchor(self):
        # 20 dB corresponds to 2*ln(10) = 4.605170... natural units
        assert abs(nat_to_db(2 * math.log(10)) - 20.0) <= 1e-9
        assert abs(db_to_nat(20.0) - 2 * math.log(10)) <= 1e-9
        # quoted rounding of the same anchor
        assert abs(db_to_nat(20.0) - 4.60517) < 1e-5

    def test_zero(self):
        assert nat_to_db(0.0) == 0.0
        assert db_to_nat(0.0) == 0.0

    def test_ten_db_is_ln_ten(self):
        # frozen: ln(10) = 2.302585092994046
        assert abs(db_to_nat(10.0) - 2.302585092994046) < 1e-12

    def test_round_trip_identity(self):
        for db in [0.0, 0.5, 1.0, 7.25, 20.0, 43.7, 100.0]:
            back = nat_to_db(db_to_nat(db))
            assert abs(back - db) <= 1e-12 * max(1.0, db)


class TestPhenomenologicalBuilder:
    def test_d3_counts_and_structure(self):
        g = build_phenomenological(3, 1, 0.001)
        assert g.num_detectors == 8
        assert len(g.boundaries) == 2
        for x in g.detector_ids():
            assert len(g.neighbors[x]) <= 6

    def test_d3_shortest_crossing_is_three_edges(self):
        g = build_phenomenological(3, 1, 0.001)
        w = weight_from_prob(0.001)
        empty = ClusterState(g)
        assert oracle_all_paths_gap(g, empty) == 3 * w

    def test_d5_detector_count(self):
        g = build_phenomenological(5, 5, 0.002)
        assert g.num_detectors == 12 * 6

    @pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
    def test_counts_degrees_boundary_adjacency(self, d):
        rounds = d
        g = build_phenomenological(d, rounds, 0.001)
        assert g.num_detectors == (d * d - 1) // 2 * (rounds + 1)
        for x in g.detector_ids():
            assert len(g.neighbors[x]) <= 6
        b1, b2 = g.boundaries
        per_boundary = (d + 1) // 2 * (rounds + 1)
        assert len(g.neighbors[b1]) == per_boundary
        assert len(g.neighbors[b2]) == per_boundary

    def test_deterministic_construction(self, tmp_path):
        g1 = build_phenomenological(5, 3, 0.004)
        g2 = build_phenomenological(5, 3, 0.004)
        f1, f2 = tmp_path / "a.graph", tmp_path / "b.graph"
        save_graph(g1, f1)
        save_graph(g2, f2)
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("bad_d", [1, 2, 4, 0, -3])
    def test_rejects_bad_distance(self, bad_d):
        with pytest.raises(InvalidParameterError):
            build_phenomenological(bad_d, 1, 0.001)

    def test_rejects_bad_rounds(self):
        with pytest.raises(InvalidParameterError):
            build_phenomenological(3, 0, 0.001)

    def test_all_paths_positive_weight(self):
        # inequivalent boundaries: crossing cost strictly positive for p < 0.5
        g = build_phenomenological(3, 2, 0.01)
        empty = ClusterState(g)
        assert oracle_all_paths_gap(g, empty) > 0


class TestGraphFile:
    def test_round_trip_identity(self, tmp_path):
        g = build_phenomenological(3, 1, 0.001)
        path = tmp_path / "g.graph"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2 == g
        assert g2.boundaries == g.boundaries

    def test_weight_only_round_trip(self, tmp_path):
        edges = [Edge(0, 1, 1_500_000), Edge(1, 2, 2_250_001), Edge(1, 3, 7)]
        g = DecodingGraph(4, (2, 3), edges)
        path = tmp_path / "w.graph"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2 == g
        assert all(e.prob is None for e in g2.edges)

    def test_hand_written_chain(self, tmp_path):
        path = tmp_path / "chain.graph"
        path.write_text(
            "# four nodes, boundaries at the ends\n"
            "graph v1 nodes=4 boundaries=0,3\n"
            "edge 0 1 w=1.5\n"
            "edge 1 2 w=0.25\n"
            "edge 2 3 w=2.0\n")
        g = load_graph(path)
        assert g.num_nodes == 4
        assert len(g.edges) == 3
        assert [e.weight for e in g.edges] == [
            round(1.5 * SCALED_PER_NAT),
            round(0.25 * SCALED_PER_NAT),
            round(2.0 * SCALED_PER_NAT)]

    def test_dangling_node_reference(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("graph v1 nodes=3 boundaries=0,2\n"
                        "edge 0 1 w=1.0\n"
                        "edge 1 5 w=1.0\n")
        with pytest.raises(GraphFormatError, match="line 3"):
            load_graph(path)

    def test_negative_weight(self, tmp_path):
        path = tmp_path / "neg.graph"
        path.write_text("graph v1 nodes=2 boundaries=0,1\n"
                        "edge 0 1 w=-0.5\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "hdr.graph"
        path.write_text("graph v2 nodes=2 boundaries=0,1\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            load_graph(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "empty.graph"
        path.write_text("# nothing here\n")
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_disconnected_rejected(self, tmp_path):
        path = tmp_path / "disc.graph"
        path.write_text("graph v1 nodes=4 boundaries=0,1\n"
                        "edge 0 1 w=1.0\n"
                        "edge 2 3 w=1.0\n")
        with pytest.raises(GraphFormatError):
            load_graph(path)

    @pytest.mark.parametrize("lines, lineno, message", [
        (["graph v1 nodes=x boundaries=0,1"], 1, "malformed graph header"),
        (["graph v1 size=2 boundaries=0,1"], 1, "malformed graph header"),
        (["graph v1 nodes=2 boundaries=0,b"], 1, "malformed graph header"),
        (["graph v1 nodes=2 boundaries=0,2"], 1, "boundary id 2 out of range"),
        (["graph v1 nodes=2 boundaries=0,1", "link 0 1 w=1.0"], 2, "expected 'edge"),
        (["graph v1 nodes=2 boundaries=0,1", "edge 0 1"], 2, "expected 'edge"),
        (["graph v1 nodes=2 boundaries=0,1", "edge 0 one w=1.0"], 2,
         "node ids must be integers"),
        (["graph v1 nodes=3 boundaries=0,2", "edge 0 1 w=1.0", "edge 1 1 w=1.0"], 3,
         "self-loop edge"),
        (["graph v1 nodes=2 boundaries=0,1", "edge 0 1 w=heavy"], 2, "bad weight value"),
        (["graph v1 nodes=2 boundaries=0,1", "edge 0 1 p=rare"], 2,
         "bad probability value"),
        (["graph v1 nodes=2 boundaries=0,1", "edge 0 1 q=0.1"], 2,
         "edge needs exactly one of w= or p="),
        (["graph v1 nodes=2 boundaries=0,1", "edge 0 1 w=nan"], 2,
         "weight must be a finite number"),
        (["graph v1 nodes=2 boundaries=0,1", "edge 0 1 w=inf"], 2,
         "weight must be a finite number"),
        (["graph v1 nodes=2 boundaries=0,1", "edge 0 1 w=1e400"], 2,
         "weight must be a finite number"),
    ])
    def test_format_errors_name_the_line(self, tmp_path, lines, lineno, message):
        path = tmp_path / "bad.graph"
        path.write_text("# comment and blank lines count\n\n" + "\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match=f"^line {lineno + 2}: {message}"):
            load_graph(path)

    def test_bad_probability_line(self, tmp_path):
        path = tmp_path / "p.graph"
        path.write_text("graph v1 nodes=2 boundaries=0,1\n"
                        "edge 0 1 p=0.7\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(path)


class TestGraphValidation:
    def test_needs_two_boundaries(self):
        with pytest.raises(InvalidParameterError):
            DecodingGraph(3, (0,), [Edge(0, 1, 1), Edge(1, 2, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameterError):
            DecodingGraph(2, (0, 1), [Edge(0, 0, 1)])

    def test_edges_from_a_generator(self):
        # the constructor reads its edges once, so any iterable serves
        g = build_phenomenological(5, 3, 0.01)
        built = DecodingGraph(g.num_nodes, iter(g.boundaries), (e for e in g.edges))
        assert built == g
        assert built.edges == g.edges
        assert built.neighbors == g.neighbors

    def test_rejects_inconsistent_prob_weight(self):
        with pytest.raises(InvalidParameterError):
            DecodingGraph(2, (0, 1), [Edge(0, 1, 123, prob=0.01)])

    def test_rejects_inconsistent_weight_after_a_consistent_one(self):
        # the weight of a probability is worked out once per graph, and every
        # edge with that probability is still checked against it
        w = weight_from_prob(0.01)
        DecodingGraph(3, (0, 2), [Edge(0, 1, w, 0.01), Edge(1, 2, w, 0.01)])
        with pytest.raises(InvalidParameterError, match=f"^edge 1: weight {w + 1} "):
            DecodingGraph(3, (0, 2), [Edge(0, 1, w, 0.01), Edge(1, 2, w + 1, 0.01)])

    def test_rejects_non_integer_weight(self):
        # a float weight would make every distance and radius a float
        with pytest.raises(InvalidParameterError, match=r"edge 1 \(1,2\).*2\.5"):
            DecodingGraph(3, (0, 2), [Edge(0, 1, 1), Edge(1, 2, 2.5)])

    @pytest.mark.parametrize("edge", [(1, 2, 1, None), (1, 2, 1),
                                      SimpleNamespace(u=1, v=2, weight=1, prob=None)])
    def test_rejects_an_edge_that_is_not_an_Edge(self, edge):
        # a plain tuple would be stored as given and fail far from here,
        # wherever an edge's fields are read by name
        with pytest.raises(InvalidParameterError, match="^edge 1 is not an Edge$"):
            DecodingGraph(3, (0, 2), [Edge(0, 1, 1), edge])

    @pytest.mark.parametrize("boundaries, edges, message", [
        ((0, 0, 2), [Edge(0, 1, 1), Edge(1, 2, 1)], "duplicate boundary ids"),
        ((0, 3), [Edge(0, 1, 1), Edge(1, 2, 1)], "boundary id 3 out of range"),
        ((0, -1), [Edge(0, 1, 1), Edge(1, 2, 1)], "boundary id -1 out of range"),
        ((0, 2), [Edge(0, 1, 1), Edge(1, 3, 1)], "edge 1 references node outside graph"),
        ((0, 2), [Edge(-1, 1, 1), Edge(1, 2, 1)], "edge 0 references node outside graph"),
        ((0, 2), [Edge(0, 1, 1), Edge(1, 2, -4)], "edge 1 has negative weight"),
    ])
    def test_rejects_bad_input(self, boundaries, edges, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            DecodingGraph(3, boundaries, edges)
