"""Every value type of the package is an immutable named tuple.

``records_to_csv`` unpacks a ``SweepRecord`` by position, so its field
order is the CSV column order; the reprs keep the format the types had as
frozen dataclasses, and ``aggregate`` gives the floats it gave then.
"""

import pytest

from softgap.fitting import FitResult
from softgap.graphs import Edge
from softgap.harness import (CSV_HEADER, METHODS, AggregateRow, SweepConfig, SweepFile,
                             SweepRecord, SwitchCheck, aggregate)
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
    (SweepConfig, {"distances": (3,), "probs": (0.001, 0.02), "samples": 7,
                   "master_seed": 4, "rounds": 2, "epsilon_max_db": 12.5,
                   "methods": ("extra",), "skip_empty_syndromes": False},
     ("rounds", None),
     "SweepConfig(distances=(3,), probs=(0.001, 0.02), samples=7, master_seed=4, "
     "rounds=2, epsilon_max_db=12.5, methods=('extra',), skip_empty_syndromes=False)"),
    (AggregateRow, {"d": 5, "p": 0.01, "method": "bounded", "samples": 10, "records": 8,
                    "mean_visited": 3.5, "std_visited": 0.25, "mean_extra": 0.0,
                    "std_extra": 0.0, "fraction_below": 0.1,
                    "fraction_se": 0.09486832980505137},
     ("records", 9),
     "AggregateRow(d=5, p=0.01, method='bounded', samples=10, records=8, "
     "mean_visited=3.5, std_visited=0.25, mean_extra=0.0, std_extra=0.0, "
     "fraction_below=0.1, fraction_se=0.09486832980505137)"),
    (SwitchCheck, {"measured_rate": 0.02, "user_threshold": 0.05, "verdict": "pass",
                   "n": 100, "wilson_low": 0.0055, "wilson_high": 0.07},
     ("verdict", "fail"),
     "SwitchCheck(measured_rate=0.02, user_threshold=0.05, verdict='pass', n=100, "
     "wilson_low=0.0055, wilson_high=0.07)"),
    (FitResult, {"A": 2.5, "B": -0.75, "residual": 0.0, "points_used": 3}, ("B", 1.25),
     "FitResult(A=2.5, B=-0.75, residual=0.0, points_used=3)"),
    # records held as a tuple, so the file hashes; read_sweep returns a list
    (SweepFile, {"config": SweepConfig((3, 5), (0.01,), 5),
                 "records": (SweepRecord(3, 0.01, 0, "cluster", True, 18.5, 4, 0, 7.25, 2),)},
     ("records", ()),
     "SweepFile(config=SweepConfig(distances=(3, 5), probs=(0.01,), samples=5, "
     "master_seed=0, rounds=None, epsilon_max_db=20.0, "
     "methods=('cluster', 'bounded', 'extra', 'extra_cg'), skip_empty_syndromes=True), "
     "records=(SweepRecord(d=3, p=0.01, sample=0, method='cluster', defined=True, "
     "gap_db=18.5, visited_nodes=4, extra_nodes=0, max_growth_db=7.25, "
     "nodes_in_clusters=2),))"),
]

FIELDS = {
    SeedSpec: ("master_seed", "sample_index"),
    ErrorPattern: ("flipped_edges",),
    Syndrome: ("events",),
    GapResult: ("kind", "value", "visited_nodes", "extra_nodes", "cluster_graph_invoked"),
    SweepRecord: tuple(CSV_HEADER.split(",")),
    Edge: ("u", "v", "weight", "prob"),
    SweepConfig: ("distances", "probs", "samples", "master_seed", "rounds",
                  "epsilon_max_db", "methods", "skip_empty_syndromes"),
    AggregateRow: ("d", "p", "method", "samples", "records", "mean_visited", "std_visited",
                   "mean_extra", "std_extra", "fraction_below", "fraction_se"),
    SwitchCheck: ("measured_rate", "user_threshold", "verdict", "n", "wilson_low",
                  "wilson_high"),
    FitResult: ("A", "B", "residual", "points_used"),
    SweepFile: ("config", "records"),
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
    for cls in (SeedSpec, ErrorPattern, Syndrome, SweepRecord, AggregateRow, SwitchCheck,
                FitResult, SweepFile):
        assert cls._field_defaults == {}


def test_sweep_config_defaults():
    # the defaults a library caller gets; a sweep file writes every field
    assert SweepConfig._field_defaults == {
        "master_seed": 0, "rounds": None, "epsilon_max_db": 20.0, "methods": METHODS,
        "skip_empty_syndromes": True}
    assert METHODS == ("cluster", "bounded", "extra", "extra_cg")


def test_aggregate_floats_are_bit_identical():
    # every float, bit for bit, of a fixed record list with defined and
    # undefined gaps, two methods per distance
    records = [SweepRecord(d, 0.01, s, m, s % k != 0, 1.5 + 2.25 * s if s % k else None,
                           (7 * s + d * k) % 11, s % k, 0.75 * s, 0 if s % 4 == 0 else s)
               for d in (3, 5) for s in range(9) for m, k in (("cluster", 2), ("extra", 3))]
    hexes = {
        (3, "cluster"): ("0x1.2aaaaaaaaaaaap+2", "0x1.92843b32e09acp+1", "0x1.5555555555555p-1",
                         "0x1.e2b7dddfefa66p-2", "0x1.999999999999ap-4", "0x1.8494a75f057acp-4"),
        (3, "extra"): ("0x1.0000000000000p+2", "0x1.78d26149296afp+1", "0x1.0000000000000p+0",
                       "0x1.a20bd700c2c3ep-1", "0x1.999999999999ap-3", "0x1.030dc4ea03a73p-3"),
        (5, "cluster"): ("0x1.4000000000000p+2", "0x1.78d26149296afp+1", "0x1.5555555555555p-1",
                         "0x1.e2b7dddfefa66p-2", "0x1.999999999999ap-4", "0x1.8494a75f057acp-4"),
        (5, "extra"): ("0x1.2000000000000p+2", "0x1.8c3fc3b38832ep+1", "0x1.0000000000000p+0",
                       "0x1.a20bd700c2c3ep-1", "0x1.999999999999ap-3", "0x1.030dc4ea03a73p-3"),
    }
    rows = aggregate(records, 10, 8.0)
    assert [tuple(row[:5]) for row in rows] == [(d, 0.01, m, 10, 9) for d, m in hexes]
    for row in rows:
        assert tuple(map(float.hex, row[5:])) == hexes[row.d, row.method]


def test_edge_prob_defaults_to_none():
    assert Edge._field_defaults == {"prob": None}
    assert Edge(0, 1, 5) == Edge(0, 1, 5, None)
    assert Edge(2, 3, 7, 0.01).prob == 0.01
