"""The per-sample value types and the graph's ``Edge`` are immutable
named tuples.

``records_to_csv`` unpacks a ``SweepRecord`` by position, so its field
order is the CSV column order; the reprs keep the format the types had as
frozen dataclasses.
"""

import pytest

from softgap.graphs import Edge
from softgap.harness import CSV_HEADER, SweepRecord
from softgap.sampling import ErrorPattern, SeedSpec, Syndrome
from softgap.softout import GapResult

# type, field values in order, the value some field is replaced by, repr
CASES = [
    (SeedSpec, {"master_seed": 7, "sample_index": 3}, ("sample_index", 4),
     "SeedSpec(master_seed=7, sample_index=3)"),
    (ErrorPattern, {"flipped_edges": frozenset({4})}, ("flipped_edges", frozenset()),
     "ErrorPattern(flipped_edges=frozenset({4}))"),
    (Syndrome, {"events": frozenset({1, 2})}, ("events", frozenset({5})),
     "Syndrome(events=frozenset({1, 2}))"),
    (GapResult, {"kind": "extra", "value": None, "visited_nodes": 0,
                 "extra_nodes": 3, "cluster_graph_invoked": False},
     ("value", 12),
     "GapResult(kind='extra', value=None, visited_nodes=0, extra_nodes=3, "
     "cluster_graph_invoked=False)"),
    (SweepRecord, {"d": 5, "p": 0.001, "sample": 9, "method": "extra_cg",
                   "defined": True, "gap_db": 18.5, "visited_nodes": 40,
                   "extra_nodes": 2, "max_growth_db": 7.25, "nodes_in_clusters": 4},
     ("gap_db", None),
     "SweepRecord(d=5, p=0.001, sample=9, method='extra_cg', defined=True, "
     "gap_db=18.5, visited_nodes=40, extra_nodes=2, max_growth_db=7.25, "
     "nodes_in_clusters=4)"),
    (Edge, {"u": 0, "v": 1, "weight": 5, "prob": None}, ("weight", 6),
     "Edge(u=0, v=1, weight=5, prob=None)"),
]

FIELDS = {
    SeedSpec: ("master_seed", "sample_index"),
    ErrorPattern: ("flipped_edges",),
    Syndrome: ("events",),
    GapResult: ("kind", "value", "visited_nodes", "extra_nodes", "cluster_graph_invoked"),
    SweepRecord: tuple(CSV_HEADER.split(",")),
    Edge: ("u", "v", "weight", "prob"),
}


@pytest.mark.parametrize("cls, values, change, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type(cls, values, change, text):
    assert cls._fields == FIELDS[cls] == tuple(values)
    obj = cls(**values)
    assert obj == cls(*values.values())
    assert tuple(obj) == tuple(values.values())
    assert hash(obj) == hash(cls(**values))
    assert repr(obj) == text

    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))

    name, new = change
    changed = obj._replace(**{name: new})
    assert changed == cls(**dict(values, **{name: new}))
    assert changed != obj
    assert obj == cls(**values)             # the original is untouched


def test_gap_result_defaults_and_defined():
    assert GapResult._field_defaults == {"visited_nodes": 0, "extra_nodes": 0,
                                         "cluster_graph_invoked": False}
    assert GapResult("bounded", 5) == GapResult("bounded", 5, 0, 0, False)
    assert GapResult("bounded", 5).defined
    assert not GapResult("bounded", None).defined
    for cls in (SeedSpec, ErrorPattern, Syndrome, SweepRecord):
        assert cls._field_defaults == {}


def test_edge_prob_defaults_to_none():
    assert Edge._field_defaults == {"prob": None}
    assert Edge(0, 1, 5) == Edge(0, 1, 5, None)
    assert Edge(2, 3, 7, 0.01).prob == 0.01
