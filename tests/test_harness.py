import hashlib
import json
import math
import multiprocessing
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from softgap import harness, softout
from softgap.graphs import build_phenomenological, db_to_scaled, scaled_to_db
from softgap.sampling import SeedSpec, sample_syndrome
from softgap.harness import (
    CSV_HEADER,
    METHODS,
    ConfigError,
    ConsistencyError,
    SweepConfig,
    SweepFile,
    SweepRecord,
    aggregate,
    emit,
    read_sweep,
    records_to_csv,
    records_to_json,
    run_sweep,
    sweep_metadata,
    switch_check,
    wilson_interval,
)

from oracles import oracle_records_csv


def small_cfg(**overrides):
    base = dict(distances=(3, 5), probs=(0.01, 0.03), samples=40,
                master_seed=11, skip_empty_syndromes=False)
    base.update(overrides)
    return SweepConfig(**base)


ONE_CELL = SweepConfig(distances=(3,), probs=(0.01,), samples=5)


def one_cell_text(*rows, **header):
    """CSV text of a one-cell sweep (``ONE_CELL``: d = 3, p = 1%, 5
    samples, all four methods) holding ``rows`` and its closing line, with
    ``header`` values in place of the sweep's and a value of None dropping
    its line.  The header takes lines 1-9, so the first row is line 10."""
    metadata = {k: v for k, v in {**sweep_metadata(ONE_CELL), **header}.items()
                if k not in header or header[k] is not None}
    head = records_to_csv([], metadata).splitlines(keepends=True)[:-1]
    return "".join(head + [f"{row}\n" for row in rows] + [f"# records={len(rows)}\n"])


class TestConfig:
    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(samples=0).validate()

    def test_even_distance_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(distances=(4,)).validate()

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(methods=("cluster", "mystery")).validate()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, monkeypatch, workers):
        # before any sample is drawn
        monkeypatch.setattr(harness, "_run_chunk", None)
        with pytest.raises(ConfigError, match=f"^workers must be >= 1, got {workers}$"):
            next(run_sweep(small_cfg(), workers=workers))

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(probs=(0.7,)).validate()

    @pytest.mark.parametrize("fields, message", [
        ({"distances": (3, 3), "probs": (0.05,)}, "distance 3 is given twice"),
        ({"distances": (3, 5, 3)}, "distance 3 is given twice"),
        ({"probs": (0.01, 0.05, 0.01)}, "probability 0.01 is given twice"),
        ({"methods": ("extra", "extra")}, "method extra is given twice"),
    ], ids=["distance-twice", "distance-apart", "probability-apart", "method-twice"])
    def test_repeated_cell_rejected(self, fields, message):
        # two cells with one (d, p) would share their rows' sample indices,
        # and aggregate would count both against one cell's samples; a
        # method given twice would write each of its rows twice
        with pytest.raises(ConfigError, match=f"^{message}; each cell is swept once$"):
            small_cfg(**fields).validate()

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_nonpositive_rounds_rejected(self, rounds):
        # rejected up front, not inside a pool worker's graph build
        with pytest.raises(ConfigError):
            small_cfg(rounds=rounds).validate()
        with pytest.raises(ConfigError):
            next(run_sweep(small_cfg(rounds=rounds), workers=2))


class TestRunSweep:
    def test_deterministic_csv_bytes(self):
        cfg = small_cfg()
        a = records_to_csv(run_sweep(cfg))
        b = records_to_csv(run_sweep(cfg))
        assert a == b

    def test_worker_count_does_not_change_output(self):
        cfg = small_cfg(samples=60)
        serial = records_to_csv(run_sweep(cfg, workers=1))
        parallel = records_to_csv(run_sweep(cfg, workers=2))
        assert serial == parallel

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_any_pool_start_method(self, method, monkeypatch):
        # The pool uses the platform's start method; workers must not rely
        # on state a forked child would inherit.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        cfg = small_cfg(samples=20)
        serial = records_to_csv(run_sweep(cfg, workers=1))
        monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
        assert records_to_csv(run_sweep(cfg, workers=2)) == serial

    def test_methods_share_one_cluster_state(self):
        cfg = small_cfg(samples=30)
        per_sample = {}
        for r in run_sweep(cfg):
            key = (r.d, r.p, r.sample)
            entry = (r.max_growth_db, r.nodes_in_clusters)
            assert per_sample.setdefault(key, entry) == entry

    def test_skip_empty_drops_rows(self):
        kept = list(run_sweep(small_cfg(distances=(3,), probs=(0.01,),
                                        skip_empty_syndromes=True)))
        full = list(run_sweep(small_cfg(distances=(3,), probs=(0.01,),
                                        skip_empty_syndromes=False)))
        assert len(kept) < len(full)
        assert all(r.nodes_in_clusters > 0 for r in kept)
        # sample indices are stable: kept rows appear identically in the full run
        full_keys = {(r.d, r.p, r.sample, r.method): r for r in full}
        for r in kept:
            assert full_keys[(r.d, r.p, r.sample, r.method)] == r

    def test_gap_db_present_iff_defined(self):
        for r in run_sweep(small_cfg()):
            assert (r.gap_db is not None) == r.defined

    def test_one_sample_syndrome_call_per_sample(self, monkeypatch):
        # A one-worker sweep draws every sample through the harness's
        # ``sample_syndrome``, empty ones and repeated ones included; the
        # benchmark times a sweep by wrapping that call.
        calls = []

        def counted(g, seed):
            syndrome = sample_syndrome(g, seed)
            calls.append(bool(syndrome.events))
            return syndrome

        monkeypatch.setattr(harness, "sample_syndrome", counted)
        cfg = small_cfg(distances=(3, 5), probs=(0.001, 0.01), samples=150,
                        skip_empty_syndromes=True)
        records = list(run_sweep(cfg, workers=1))
        assert len(calls) == 4 * 150
        assert 0 < sum(calls) < len(calls)
        assert len(records) == 4 * sum(calls)


    def test_records_match_field_by_field_records(self):
        # Records built by keyword, one scaled_to_db call per value, as the
        # benchmark's checker builds them, on a sweep with undefined bounded
        # and extra gaps and with repeated syndromes.
        cfg = SweepConfig(distances=(3, 5), probs=(0.02,), samples=300, master_seed=4)
        eps = db_to_scaled(cfg.epsilon_max_db)
        expected, seen, repeats = [], set(), 0
        for cell, d, p in cfg.cells():
            g = build_phenomenological(d, d, p)
            for idx in range(cfg.samples):
                events = sample_syndrome(g, SeedSpec(cfg.master_seed, cell * cfg.samples + idx)).events
                if not events:
                    continue
                repeats += (d, events) in seen
                seen.add((d, events))
                n_clustered, radius2, results = harness.evaluate_sample(g, events, eps, METHODS)
                growth_db = scaled_to_db(float(radius2) / 2.0)
                expected += [SweepRecord(
                    d=d, p=p, sample=idx, method=m, defined=value is not None,
                    gap_db=None if value is None else scaled_to_db(value),
                    visited_nodes=visited, extra_nodes=extra,
                    max_growth_db=growth_db, nodes_in_clusters=n_clustered)
                    for m, (value, visited, extra, _) in zip(METHODS, results)]
        records = list(run_sweep(cfg))
        assert records == expected
        assert [type(r) for r in records] == [SweepRecord] * len(expected)
        assert repeats > 0
        for method in ("bounded", "extra"):
            kinds = {r.defined for r in records if r.method == method}
            assert kinds == {True, False}, method

    def test_evaluate_sample_takes_any_sequence_of_methods(self):
        g = build_phenomenological(5, 5, 0.02)
        eps = db_to_scaled(20.0)
        events = next(e for e in (sample_syndrome(g, SeedSpec(6, i)).events
                                  for i in range(50)) if len(e) > 2)
        n, radius2, full = harness.evaluate_sample(g, events, eps, METHODS)
        by_method = dict(zip(METHODS, full))
        for methods in (["extra_cg", "cluster"], ("bounded",), ("extra", "extra_cg"),
                        ["extra_cg", "bounded", "extra", "cluster"]):
            got = harness.evaluate_sample(g, events, eps, methods)
            assert got == (n, radius2, tuple(by_method[m] for m in methods))


class TestCellSlot:
    # A sweep process holds one cell: its key, graph and evaluations.

    def test_serial_sweep_keeps_only_the_last_cell(self, monkeypatch):
        monkeypatch.setattr(harness, "_cell", None)
        cfg = small_cfg(distances=(3,), probs=(0.05, 0.02), samples=200)
        list(run_sweep(cfg))
        key, g, evals = harness._cell
        assert key == (3, 3, 0.02, db_to_scaled(cfg.epsilon_max_db))
        assert {e.prob for e in g.edges} == {0.02}
        cell = [sample_syndrome(g, SeedSpec(cfg.master_seed, cfg.samples + i)).events
                for i in range(cfg.samples)]
        assert evals and evals.keys() <= set(cell)
        for events, result in evals.items():
            assert result == harness.evaluate_sample(g, events, key[3], METHODS)

    def test_stores_only_syndromes_of_at_most_four_events(self, monkeypatch):
        monkeypatch.setattr(harness, "_cell", None)
        cfg = small_cfg(distances=(5,), probs=(0.05,), samples=400)
        g = build_phenomenological(5, 5, 0.05)
        cell = {sample_syndrome(g, SeedSpec(cfg.master_seed, i)).events
                for i in range(cfg.samples)}
        sizes = {len(events) for events in cell if events}
        assert min(sizes) <= 2 and max(sizes) >= 15
        list(run_sweep(cfg))
        evals = harness._cell[2]
        assert max(len(events) for events in evals) == harness._CACHED_EVENTS == 4
        assert evals.keys() == {events for events in cell if 0 < len(events) <= 4}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_equal_fresh_evaluations(self, monkeypatch, workers):
        # Two cells of one distance share syndromes but not their gaps, and
        # 50-sample chunks make each process move from cell to cell.
        monkeypatch.setattr(harness, "_cell", None)
        monkeypatch.setattr(harness, "_CHUNK", 50)
        cfg = SweepConfig(distances=(3, 5), probs=(0.02, 0.05), samples=200,
                          master_seed=12)
        eps = db_to_scaled(cfg.epsilon_max_db)
        expected, by_d = [], {}
        for cell, d, p in cfg.cells():
            g = build_phenomenological(d, d, p)
            for idx in range(cfg.samples):
                events = sample_syndrome(g, SeedSpec(cfg.master_seed, cell * cfg.samples + idx)).events
                if not events:
                    continue
                by_d.setdefault((d, events), set()).add(p)
                n_clustered, radius2, results = harness.evaluate_sample(g, events, eps, METHODS)
                growth_db = scaled_to_db(float(radius2) / 2.0)
                expected += [SweepRecord(
                    d, p, idx, m, value is not None,
                    None if value is None else scaled_to_db(value),
                    visited, extra, growth_db, n_clustered)
                    for m, (value, visited, extra, _) in zip(METHODS, results)]
        assert sum(len(ps) == 2 for ps in by_d.values()) > 10
        assert list(run_sweep(cfg, workers=workers)) == expected


class TestImport:
    def test_import_does_not_load_multiprocessing(self):
        # only a sweep with a worker pool needs it
        src = Path(harness.__file__).resolve().parents[1]
        code = ("import sys, softgap; "
                "print(softgap.__file__); print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                             capture_output=True, text=True).stdout.splitlines()
        assert Path(out[0]).resolve().parent == src / "softgap"
        assert out[1] == "False"


class TestPinnedOutput:
    # sha256 of records_to_csv for d in {5, 9} x p in {0.1%, 1%}, 300
    # samples per cell, seed 1, all four methods, empty samples skipped.
    # Any change to a value or counter of any method changes it.
    SWEEP_CSV_SHA256 = "684c240028611b30013cc78817443537cceaebdd62588c3860c9640f73eda42a"

    def test_sweep_csv_bytes(self):
        cfg = SweepConfig(distances=(5, 9), probs=(0.001, 0.01), samples=300,
                          master_seed=1)
        text = records_to_csv(run_sweep(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == self.SWEEP_CSV_SHA256

    # sha256 of records_to_json for the same sweep, with its metadata (the
    # config's fields)
    SWEEP_JSON_SHA256 = "6976f5a798dc21fae980e85d204a9de3fd7c0c502c414501bf4a186da6fab8cc"

    def test_sweep_json_bytes(self):
        cfg = SweepConfig(distances=(5, 9), probs=(0.001, 0.01), samples=300,
                          master_seed=1)
        text = records_to_json(list(run_sweep(cfg)), sweep_metadata(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == self.SWEEP_JSON_SHA256

    def test_one_search_and_one_growth_per_sample(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        names = ("cluster_gaps", "extra_gaps", "grow_clusters", "_bottleneck")
        for name in names:
            wrapper = counted(name, getattr(softout, name))
            monkeypatch.setattr(softout, name, wrapper)
            if hasattr(harness, name):
                monkeypatch.setattr(harness, name, wrapper)
        g = build_phenomenological(5, 5, 0.02)
        eps = db_to_scaled(20.0)
        evaluated = 0
        for idx in range(60):
            events = sample_syndrome(g, SeedSpec(3, idx)).events
            if not events:
                continue
            calls.clear()
            harness.evaluate_sample(g, events, eps, METHODS)
            assert calls == dict.fromkeys(names, 1)
            evaluated += 1
        assert evaluated >= 30


# Floats that repeat within one record list, so the formatter's memo is
# exercised: signed zeros, nan, infinities, int-valued and numpy floats.
_FLOAT_POOL = (0.0, -0.0, math.nan, -math.inf, math.inf, 1, 3, 0.001, 0.01,
               25.5, 5e-324, 1e300, np.float64(0.25), np.float64(-0.0))
_floats = st.sampled_from(_FLOAT_POOL) | st.floats() | st.integers(-10**6, 10**6)
_counts = st.integers(0, 10**9)
_records = st.builds(
    SweepRecord, d=st.integers(3, 99), p=_floats, sample=_counts,
    method=st.sampled_from(METHODS) | st.text(st.sampled_from('ab,"\'\n\r '), max_size=6),
    defined=st.booleans(), gap_db=st.none() | _floats, visited_nodes=_counts,
    extra_nodes=_counts, max_growth_db=_floats, nodes_in_clusters=_counts)


def _zeros_record(zero):
    return SweepRecord(d=3, p=zero, sample=0, method="cluster", defined=True,
                       gap_db=zero, visited_nodes=1, extra_nodes=0,
                       max_growth_db=zero, nodes_in_clusters=2)


class TestEmit:
    def test_csv_header_exact(self):
        assert CSV_HEADER == ("d,p,sample,method,defined,gap_db,visited_nodes,"
                              "extra_nodes,max_growth_db,nodes_in_clusters")

    def test_empty_record_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", path, small_cfg())
        assert path.read_text().endswith("\n" + CSV_HEADER + "\n# records=0\n")
        assert read_sweep(path.read_text()) == SweepFile(small_cfg(), [])

    def test_csv_round_trip_identity(self, tmp_path):
        cfg = small_cfg()
        records = list(run_sweep(cfg))
        text = records_to_csv(records, sweep_metadata(cfg))
        sweep = read_sweep(text)
        assert sweep == SweepFile(cfg, records)
        assert records_to_csv(sweep.records, sweep_metadata(sweep.config)) == text

    @pytest.mark.parametrize("cfg", [
        SweepConfig((3,), (0.05,), 30, master_seed=4),
        SweepConfig((3, 5), (0.02, 0.05), 20, master_seed=7, rounds=2, epsilon_max_db=12.5),
        SweepConfig((5, 3), (0.05, 0.01, 0.5), 15, master_seed=2, rounds=1,
                    methods=("extra_cg", "cluster"), skip_empty_syndromes=False),
        SweepConfig((3,), (1e-7, 0.03), 25, master_seed=0, methods=("bounded",)),
    ], ids=["defaults", "rounds-set", "keep-empty-methods-subset", "empty-cell"])
    def test_sweep_round_trips_with_its_config(self, cfg):
        # the header is the config: rounds set or None, a subset of the
        # methods in any order, keep-empty and two or more probabilities
        records = list(run_sweep(cfg))
        assert read_sweep(records_to_csv(records, sweep_metadata(cfg))) == (cfg, records)

    def test_header_is_the_config(self):
        cfg = SweepConfig((3, 5), (0.001, 0.02), 10, master_seed=9, rounds=1,
                          methods=("extra", "cluster"))
        assert records_to_csv([], sweep_metadata(cfg)).splitlines() == [
            "# distances=3,5", "# epsilon_max_db=20.0", "# master_seed=9",
            "# methods=extra,cluster", "# probs=0.001,0.02", "# rounds=1", "# samples=10",
            "# skip_empty_syndromes=True", CSV_HEADER, "# records=0"]
        # rounds = d and rounds = 1 no longer write the same header
        assert sweep_metadata(replace(cfg, rounds=None))["rounds"] is None

    # No explain phase: on a failing example of these ten-field records it
    # runs for minutes, after the shrink has already found the small case.
    @settings(phases=[phase for phase in Phase if phase is not Phase.explain])
    @given(records=st.lists(_records, max_size=12),
           metadata=st.none() | st.dictionaries(st.sampled_from("abc"), st.integers()))
    @example(records=[_zeros_record(0.0), _zeros_record(-0.0), _zeros_record(0.0)],
             metadata=None)
    @example(records=[_zeros_record(0.0)._replace(method='a,"b"\n', sample=i)
                      for i in range(20)], metadata={"a": 1})
    def test_csv_matches_oracle(self, records, metadata):
        assert records_to_csv(records, metadata) == oracle_records_csv(records, metadata)
        assert records_to_csv(iter(records), metadata) == oracle_records_csv(records, metadata)

    def test_parse_header_only_text(self):
        # text, never a path: a header alone is a sweep with no records
        assert read_sweep(one_cell_text()) == SweepFile(ONE_CELL, [])

    @pytest.mark.parametrize("row, message", [
        ("3,0.01,0,cluster,true,1.5,2,0,0.5", "line 10: 9 fields, expected 10"),
        ("3,0.01,0,cluster,true,1.5,2,0,0.5,1,7", "line 10: 11 fields, expected 10"),
        ("3,0.01,x,cluster,true,1.5,2,0,0.5,1", "line 10: invalid literal for int()"),
        ("3,0.01,0,cluster,true,1.5dB,2,0,0.5,1", "line 10: could not convert string"),
        ("3,0.01,0,cluster,yes,1.5,2,0,0.5,1", "line 10: defined must be true or false"),
        ("3,0.01,0,extra-cg,true,1.5,2,0,0.5,1",
         "line 10: method 'extra-cg' is not among # methods=cluster,bounded,extra,extra_cg"),
        ("3,0.01,0,cluster,true,nan,2,0,0.5,1", "line 10: gap_db must be finite, got nan"),
        ("3,0.01,0,cluster,true,-inf,2,0,0.5,1", "line 10: gap_db must be finite, got -inf"),
        ("3,0.01,0,cluster,true,1.5,2,0,inf,1",
         "line 10: max_growth_db must be finite, got inf"),
        ("3,0.01,0,cluster,true,1.5,2,0,nan,1",
         "line 10: max_growth_db must be finite, got nan"),
        ("3,0.01,0,cluster,true,,2,0,0.5,1", "line 10: defined is true but gap_db is empty"),
        ("3,0.01,0,cluster,false,1.5,2,0,0.5,1",
         "line 10: defined is false but gap_db is '1.5'"),
        ("4,0.01,0,cluster,true,1.5,2,0,0.5,1", "line 10: d=4 p=0.01 is not a cell of this sweep"),
        ("-3,0.01,0,cluster,true,1.5,2,0,0.5,1",
         "line 10: d=-3 p=0.01 is not a cell of this sweep"),
        ("3,nan,0,cluster,true,1.5,2,0,0.5,1", "line 10: d=3 p=nan is not a cell of this sweep"),
        ("3,0,0,cluster,true,1.5,2,0,0.5,1", "line 10: d=3 p=0.0 is not a cell of this sweep"),
        ("3,0.6,0,cluster,true,1.5,2,0,0.5,1", "line 10: d=3 p=0.6 is not a cell of this sweep"),
        # valid distances and probabilities, but not a cell this sweep ran
        ("5,0.01,0,cluster,true,1.5,2,0,0.5,1", "line 10: d=5 p=0.01 is not a cell of this sweep"),
        ("3,0.02,0,cluster,true,1.5,2,0,0.5,1", "line 10: d=3 p=0.02 is not a cell of this sweep"),
        (f"{CSV_HEADER}", "line 10: method 'method' is not among # methods="),
        ("# records=0", "line 10: a '#' line that is not the last line"),
    ])
    def test_malformed_row_names_its_line(self, row, message):
        with pytest.raises(ValueError) as err:
            read_sweep(one_cell_text(row))
        assert str(err.value).startswith(message)

    def test_joined_sweeps_are_refused(self):
        # two sweeps joined, with none, one or all of the second one's
        # header lines: each is refused at the first one's closing line,
        # which is no longer the last
        cfg = SweepConfig(distances=(3,), probs=(0.05,), samples=50, master_seed=4)
        text = records_to_csv(run_sweep(cfg), sweep_metadata(cfg))
        lines = text.splitlines(keepends=True)
        first = lines.index(CSV_HEADER + "\n") + 1
        for joined in (text + "".join(lines[first:]), text + "".join(lines[first - 1:]),
                       text + text):
            with pytest.raises(ValueError) as err:
                read_sweep(joined)
            assert str(err.value) == f"line {len(lines)}: a '#' line that is not the last line"

    def test_cut_short_or_edited_sweep_is_refused(self):
        # every cut at a line boundary, one row dropped, a row repeated or
        # moved to a cell never swept: each refused, naming a line
        cfg = SweepConfig(distances=(3, 5), probs=(0.05,), samples=50, master_seed=4)
        records = list(run_sweep(cfg))
        text = records_to_csv(records, sweep_metadata(cfg))
        assert read_sweep(text) == (cfg, records)
        lines = text.splitlines(keepends=True)
        n = len(records)
        assert lines[-1] == f"# records={n}\n" and n > 100
        for cut in range(len(lines)):
            with pytest.raises(ValueError, match=r"^line \d+: "):
                read_sweep("".join(lines[:cut]))
        middle = len(lines) // 2
        d, p, sample, method = lines[middle].split(",")[:4]
        moved = ["7" + line[1:] if line.startswith("5,") else line for line in lines]
        first_moved = next(i for i, line in enumerate(moved, 1) if line.startswith("7,"))
        for edited, message in [
            (lines[:middle] + lines[middle + 1:],
             f"line {len(lines) - 1}: the last line must be '# records={n - 1}', "
             f"got '# records={n}'"),
            (lines[:middle + 1] + lines[middle:],
             f"line {middle + 2}: repeats d={d} p={p} sample={sample} method={method} "
             "of an earlier row"),
            (moved, f"line {first_moved}: d=7 p=0.05 is not a cell of this sweep"),
        ]:
            with pytest.raises(ValueError) as err:
                read_sweep("".join(edited))
            assert str(err.value).startswith(message)

    @pytest.mark.parametrize("header, sample, message", [
        ("# samples=5", 5, "line 10: sample 5 is outside 0..4 (samples=5)"),
        ("# samples=5", -1, "line 10: sample -1 is outside 0..4 (samples=5)"),
        ("# samples=0", 0, "samples must be >= 1, got 0"),
        ("# samples=fifty", 0,
         "line 7: # samples=fifty: invalid literal for int() with base 10: 'fifty'"),
    ])
    def test_sample_index_bound_comes_from_the_text(self, header, sample, message):
        text = one_cell_text(f"3,0.01,{sample},cluster,true,1.5,2,0,0.5,1",
                             samples=header.partition("=")[2])
        with pytest.raises(ValueError) as err:
            read_sweep(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("key", [f.name for f in fields(SweepConfig)])
    def test_header_without_a_rate_value_is_refused(self, key):
        # every config field, not only those a rate reads
        with pytest.raises(ValueError) as err:
            read_sweep(one_cell_text(**{key: None}))
        assert str(err.value) == (f"no '# {key}=' line; "
                                  "write it with `softgap sweep --format csv`")

    @pytest.mark.parametrize("text, message", [
        (one_cell_text().replace(CSV_HEADER, f"# samples=5\n{CSV_HEADER}"),
         "line 9: a second '# samples=' line"),
        (one_cell_text().replace(CSV_HEADER, f"# cells=1\n{CSV_HEADER}"),
         "line 9: '# cells=' is not a SweepConfig field"),
        (one_cell_text().replace(CSV_HEADER, CSV_HEADER.replace(",", ";")),
         f"line 9: unexpected CSV header: {CSV_HEADER.replace(',', ';')!r}"),
        (one_cell_text().split(CSV_HEADER)[0], "line 9: no CSV header"),
        ("", "line 1: no CSV header"),
    ], ids=["repeated-key", "unknown-key", "other-header", "header-lines-only", "empty"])
    def test_malformed_header_is_refused(self, text, message):
        with pytest.raises(ValueError) as err:
            read_sweep(text)
        assert str(err.value) == message

    def test_rows_at_the_header_bounds_are_read(self):
        # d = 3, p = 0.5, the last sample index and the last of the cells
        rows = ["3,0.5,4,extra_cg,true,1.5,2,0,0.5,1", "5,0.01,0,extra_cg,false,,2,0,0.5,1"]
        sweep = read_sweep(one_cell_text(*rows, distances="3,5", probs="0.01,0.5",
                                         methods="extra_cg"))
        assert sweep.config == replace(ONE_CELL, distances=(3, 5), probs=(0.01, 0.5),
                                       methods=("extra_cg",))
        assert [r[:4] for r in sweep.records] == [(3, 0.5, 4, "extra_cg"),
                                                  (5, 0.01, 0, "extra_cg")]

    def test_json_emission(self, tmp_path):
        cfg = small_cfg(samples=10)
        records = list(run_sweep(cfg))
        path = tmp_path / "r.json"
        emit(records, "json", path, cfg)
        payload = json.loads(path.read_text())
        assert payload["metadata"] == sweep_metadata(cfg)
        assert len(payload["records"]) == len(records)

    def test_svg_plot_one_polyline_per_series(self, tmp_path):
        cfg = small_cfg(methods=("cluster",))
        records = list(run_sweep(cfg))
        path = tmp_path / "chart.svg"
        emit(records, "svg-plot", path, cfg)
        text = path.read_text()
        assert text.startswith("<svg")
        # one polyline per probability value
        assert text.count("<polyline") == 2

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "yaml", tmp_path / "x", small_cfg())


class TestAggregate:
    def test_empty_records_excluded_from_visited_stats(self):
        mk = lambda sample, visited, clustered: SweepRecord(
            d=3, p=0.01, sample=sample, method="cluster", defined=True,
            gap_db=30.0, visited_nodes=visited, extra_nodes=0,
            max_growth_db=0.0, nodes_in_clusters=clustered)
        rows = aggregate([mk(0, 10, 0), mk(1, 20, 2), mk(2, 40, 4)],
                         samples_per_cell=3, epsilon_max_db=20.0)
        assert rows[0].mean_visited == 30.0
        assert rows[0].records == 3

    def test_fraction_uses_configured_denominator(self):
        mk = lambda sample, gap: SweepRecord(
            d=3, p=0.01, sample=sample, method="extra", defined=gap is not None,
            gap_db=gap, visited_nodes=0, extra_nodes=0,
            max_growth_db=0.0, nodes_in_clusters=1)
        rows = aggregate([mk(0, 5.0), mk(1, None)], samples_per_cell=8,
                         epsilon_max_db=20.0)
        assert rows[0].fraction_below == 1 / 8

    def test_gap_exactly_at_threshold_counts(self):
        # the gap a sweep writes for a scaled value of exactly the threshold
        # reads back as slightly above 25.5 dB in floating point
        gap = scaled_to_db(db_to_scaled(25.5))
        assert gap > 25.5
        record = SweepRecord(d=3, p=0.01, sample=0, method="cluster",
                             defined=True, gap_db=gap, visited_nodes=1,
                             extra_nodes=0, max_growth_db=0.0, nodes_in_clusters=2)
        (row,) = aggregate([record], samples_per_cell=1, epsilon_max_db=25.5)
        assert row.fraction_below == 1.0


def _bounded_off(view, eps):
    c, b = softout.cluster_gaps(view, eps)
    return c, b._replace(value=c.value + 1)


def _extra_off(extra=None, extra_cg=None):
    def patched(view, eps):
        e, cg = softout.extra_gaps(view, eps)
        return (e if extra is None else e._replace(value=extra(e.value)),
                cg if extra_cg is None else cg._replace(value=extra_cg(cg.value)))
    return patched


# For each rule, a stand-in for the harness's ``cluster_gaps`` or
# ``extra_gaps`` whose gaps break it: on every sample, or on every sample
# whose cluster gap is at most the threshold.
BREAKING = {
    "bounded_agrees_with_cluster_below_threshold": ("cluster_gaps", _bounded_off),
    "extra_not_above_cluster": ("extra_gaps", _extra_off(extra=lambda v: 10**15)),
    "extra_defined_when_cluster_below_threshold":
        ("extra_gaps", _extra_off(extra=lambda v: None)),
    "cluster_not_above_extra_cg": ("extra_gaps", _extra_off(extra_cg=lambda v: -1)),
    "extra_cg_equals_cluster_below_threshold":
        ("extra_gaps", _extra_off(extra_cg=lambda v: v + 1)),
}


class TestConsistency:
    def test_no_violations_on_small_grid(self):
        # four methods on each of 4 cells x 60 samples, empty ones included
        assert sum(1 for _ in run_sweep(small_cfg(samples=60))) == 4 * 4 * 60

    def test_rules_checked_once_per_fresh_evaluation(self, monkeypatch):
        # at p = 0.1% most samples are empty or repeat a syndrome: a cache
        # hit was checked when it was first evaluated
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(harness, name, wrapper)

        counted("evaluate_sample", harness.evaluate_sample)
        counted("rule_violations", harness.rule_violations)
        monkeypatch.setattr(harness, "_cell", None)
        cfg = small_cfg(distances=(3, 5), probs=(0.001,), samples=300)
        assert sum(1 for _ in run_sweep(cfg)) == 4 * 600
        assert calls["rule_violations"] == calls["evaluate_sample"]
        assert 0 < calls["evaluate_sample"] < 300

        # a sweep of fewer methods is checked alike
        calls.clear()
        monkeypatch.setattr(harness, "_cell", None)
        records = list(run_sweep(replace(cfg, methods=("cluster", "bounded"))))
        assert len(records) == 2 * 600 and calls["evaluate_sample"] > 0
        assert calls["rule_violations"] == calls["evaluate_sample"]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rule", BREAKING)
    def test_broken_rule_names_its_sample(self, monkeypatch, rule, workers):
        cfg = SweepConfig(distances=(3,), probs=(0.02,), samples=40, master_seed=8,
                          epsilon_max_db=100.0, skip_empty_syndromes=False)
        eps = db_to_scaled(cfg.epsilon_max_db)
        monkeypatch.setattr(harness, *BREAKING[rule])
        monkeypatch.setattr(harness, "_cell", None)
        # forked workers inherit the patched estimator and the empty slot
        monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
        with pytest.raises(ConsistencyError) as err:
            list(run_sweep(cfg, workers=workers))
        m = re.fullmatch(r"d=3 p=0\.02 sample=(\d+): (.+)", str(err.value))
        assert m and rule in m[2].split(", ")
        # (master seed, cell, index) replays the sample: it breaks the rule,
        # and no earlier sample breaks any
        g = build_phenomenological(3, 3, 0.02)
        for idx in range(int(m[1]) + 1):
            events = sample_syndrome(g, SeedSpec(cfg.master_seed, idx)).events
            _, _, res = harness.evaluate_sample(g, events, eps, METHODS)
            found = harness.rule_violations([r[0] for r in res], eps)
            assert found == (m[2].split(", ") if idx == int(m[1]) else [])


class TestSwitchCheck:
    def _records(self, defined_flags):
        return [SweepRecord(d=3, p=0.01, sample=i, method="extra_cg",
                            defined=flag, gap_db=5.0 if flag else None,
                            visited_nodes=0, extra_nodes=0,
                            max_growth_db=0.0, nodes_in_clusters=1)
                for i, flag in enumerate(defined_flags)]

    def test_exact_rate(self):
        records = self._records([True] * 37 + [False] * 63)
        chk = switch_check(records, threshold=0.5, epsilon_max_db=20.0,
                           attempted=100)
        assert chk.measured_rate == 0.37
        assert chk.n == 100

    def test_pass_and_fail_verdicts(self):
        low = switch_check(self._records([True] * 2 + [False] * 98), 0.05,
                           epsilon_max_db=20.0, attempted=100)
        assert low.verdict == "pass"
        high = switch_check(self._records([True] * 10 + [False] * 90), 0.05,
                            epsilon_max_db=20.0, attempted=100)
        assert high.verdict == "fail"

    def test_zero_rate_passes_any_positive_threshold(self):
        chk = switch_check(self._records([False] * 50), 1e-9,
                           epsilon_max_db=20.0, attempted=50)
        assert chk.measured_rate == 0.0
        assert chk.verdict == "pass"

    def test_skipped_empty_samples_count(self):
        # d = 5, p = 0.1%: most samples are empty, and the sweep skips them
        base = dict(distances=(5,), probs=(0.001,), samples=2000, master_seed=3,
                    methods=("cluster",))
        kept = list(run_sweep(SweepConfig(**base)))
        full = list(run_sweep(SweepConfig(**base, skip_empty_syndromes=False)))
        assert len(kept) < 2000 // 5
        chk = switch_check(kept, 0.05, epsilon_max_db=100.0, method="cluster",
                           attempted=2000)
        assert chk == switch_check(full, 0.05, epsilon_max_db=100.0, method="cluster",
                                   attempted=2000)
        assert chk.n == 2000
        assert 0 < chk.measured_rate < 0.05 and chk.verdict == "pass"

    def test_wilson_interval_brackets_rate(self):
        chk = switch_check(self._records([True] * 20 + [False] * 80), 0.5,
                           epsilon_max_db=20.0, attempted=100)
        assert chk.wilson_low <= chk.measured_rate <= chk.wilson_high
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05

    def test_fewer_attempts_than_records_rejected(self):
        with pytest.raises(ValueError, match="3 records but only 2 samples attempted"):
            switch_check(self._records([True] * 3), 0.5, epsilon_max_db=20.0,
                         attempted=2)

    def test_gap_exactly_at_threshold_counts(self):
        records = [r._replace(gap_db=scaled_to_db(db_to_scaled(25.5)))
                   for r in self._records([True, False])]
        chk = switch_check(records, 1.0, epsilon_max_db=25.5, attempted=2)
        assert chk.measured_rate == 0.5


# (key, value, refusal) of a bad header line; {line} is the line's number
_BAD_HEADER = [
    ("samples", "fifty",
     "line {line}: # samples=fifty: invalid literal for int() with base 10: 'fifty'"),
    ("samples", "0", "samples must be >= 1, got 0"),
    # the keys of the earlier header, which wrote a count of cells
    ("cells", "2.5", "line {line}: '# cells=' is not a SweepConfig field"),
    ("samples_per_cell", "0", "line {line}: '# samples_per_cell=' is not a SweepConfig field"),
    ("epsilon_max_db", "", "line {line}: # epsilon_max_db=: could not convert string "
     "to float: ''"),
    ("epsilon_max_db", "0", "epsilon_max_db must be finite and > 0, got 0.0"),
    ("epsilon_max_db", "inf", "epsilon_max_db must be finite and > 0, got inf"),
    ("epsilon_max_db", "nan", "epsilon_max_db must be finite and > 0, got nan"),
    ("methods", "", f"unknown method ''; choose from {METHODS}"),
    ("methods", "cluster,mystery", f"unknown method 'mystery'; choose from {METHODS}"),
    ("methods", "extra,extra", "method extra is given twice; each cell is swept once"),
    ("distances", "3,4", "distances must be odd and >= 3, got 4"),
    ("distances", "3,5,3", "distance 3 is given twice; each cell is swept once"),
    ("probs", "0.01,0.7", "probabilities must be in (0, 0.5], got 0.7"),
    ("rounds", "0", "rounds must be >= 1, got 0"),
    ("rounds", "", "line {line}: # rounds=: invalid literal for int() with base 10: ''"),
    ("master_seed", "1.5",
     "line {line}: # master_seed=1.5: invalid literal for int() with base 10: '1.5'"),
    ("skip_empty_syndromes", "true",
     "line {line}: # skip_empty_syndromes=true: must be True or False"),
]


class TestCli:
    def test_gen_graph_and_sweep(self, tmp_path):
        from softgap.cli import main
        gpath = tmp_path / "d3.graph"
        assert main(["gen-graph", "--distance", "3", "--p", "0.01",
                     "--out", str(gpath)]) == 0
        from softgap.graphs import load_graph
        g = load_graph(gpath)
        assert g.num_detectors == 4 * 4

        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--distances", "3", "--probs", "0.01",
                     "--samples", "25", "--seed", "5", "--keep-empty",
                     "--out", str(out)]) == 0
        records = read_sweep(out.read_text()).records
        assert len(records) == 25 * 4

    def test_gen_graph_rounds(self, tmp_path, capsys):
        from softgap.cli import main
        from softgap.graphs import load_graph
        gpath = tmp_path / "d3r2.graph"
        assert main(["gen-graph", "--distance", "3", "--rounds", "2", "--p", "0.01",
                     "--out", str(gpath)]) == 0
        assert load_graph(gpath).num_detectors == 4 * 3
        # --rounds 0 is an error, not the default rounds = d
        zero = tmp_path / "d3r0.graph"
        with pytest.raises(SystemExit) as exit_info:
            main(["gen-graph", "--distance", "3", "--rounds", "0", "--p", "0.01",
                  "--out", str(zero)])
        assert exit_info.value.code == 2
        assert "error: rounds must be >= 1" in capsys.readouterr().err
        assert not zero.exists()

    @pytest.mark.parametrize("argv, message", [
        (["gen-graph", "--distance", "4", "--p", "0.01"],
         "softgap gen-graph: error: code distance must be an odd integer >= 3, got 4"),
        (["gen-graph", "--distance", "3", "--p", "0.7"],
         "softgap gen-graph: error: edge probability must be in (0, 0.5], got 0.7"),
        (["sweep", "--distances", "3", "--probs", "0.01", "--samples", "5",
          "--rounds", "0"],
         "softgap sweep: error: rounds must be >= 1, got 0"),
        (["sweep", "--distances", "3", "--probs", "0.01", "--samples", "5",
          "--methods", "cluster,mystery"],
         "softgap sweep: error: unknown method 'mystery'"),
        (["sweep", "--keep-empty", "--distances", "4", "--probs", "0.01", "--samples", "5"],
         "softgap sweep: error: distances must be odd and >= 3, got 4"),
        (["consistency", "--distances", "3", "--probs", "0.01", "--samples", "5"],
         "softgap: error: argument command: invalid choice: 'consistency'"),
        (["sweep", "--distances", "3", "--probs", "0.01", "--samples", "5",
          "--epsilon-max-db", "nan"],
         "softgap sweep: error: epsilon_max_db must be finite and > 0, got nan"),
        (["sweep", "--keep-empty", "--distances", "3", "--probs", "0.01", "--samples", "5",
          "--epsilon-max-db", "inf"],
         "softgap sweep: error: epsilon_max_db must be finite and > 0, got inf"),
        (["sweep", "--distances", "3", "--probs", "0.01", "--samples", "5",
          "--methods", "cluster,extra-cg"],
         "softgap sweep: error: unknown method 'extra-cg'"),
        (["sweep", "--distances", "3", "--probs", "0.01", "--samples", "5",
          "--workers", "-3"],
         "softgap sweep: error: workers must be >= 1, got -3"),
        (["sweep", "--distances", "3,3", "--probs", "0.05", "--samples", "200",
          "--seed", "4"],
         "softgap sweep: error: distance 3 is given twice; each cell is swept once"),
        (["sweep", "--distances", "3", "--probs", "0.05,0.02,0.05", "--samples", "5",
          "--format", "svg-plot"],
         "softgap sweep: error: probability 0.05 is given twice; each cell is swept once"),
        (["sweep", "--distances", "3", "--probs", "0.05", "--samples", "5",
          "--methods", "extra,extra"],
         "softgap sweep: error: method extra is given twice; each cell is swept once"),
    ])
    def test_bad_configuration_is_a_usage_error(self, tmp_path, capsys, argv, message):
        # a usage line and exit status 2, not a traceback; nothing is written
        from softgap.cli import main
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: softgap ") and message in err
        assert not out.exists()

    def test_fit_and_switch_check(self, tmp_path):
        from softgap.cli import main
        out = tmp_path / "sweep.csv"
        main(["sweep", "--distances", "3,5", "--probs", "0.02",
              "--samples", "30", "--seed", "2", "--keep-empty",
              "--out", str(out)])
        fit_out = tmp_path / "fit.json"
        assert main(["fit", "--model", "power", "--dmin", "3",
                     "--in", str(out), "--out", str(fit_out),
                     "--metric", "mean_visited", "--method", "cluster"]) == 0
        payload = json.loads(fit_out.read_text())
        assert "0.02" in payload["fits"]

        code = main(["switch-check", "--threshold", "1.0", "--in", str(out),
                     "--method", "extra_cg"])
        assert code == 0

    def test_csv_carries_sweep_size(self, tmp_path, capsys):
        # the p = 1e-7 cell is all empty, so it leaves no record at all
        from softgap.cli import main
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--distances", "5", "--probs", "0.001,1e-7",
                     "--samples", "300", "--seed", "3", "--methods", "cluster",
                     "--out", str(out)]) == 0
        sweep = read_sweep(out.read_text())
        assert sweep.config == SweepConfig((5,), (0.001, 1e-7), 300, master_seed=3,
                                           methods=("cluster",))
        records = sweep.records
        assert 0 < len(records) < 300
        assert {r.p for r in records} == {0.001}
        capsys.readouterr()
        assert main(["switch-check", "--threshold", "1.0", "--in", str(out),
                     "--method", "cluster"]) == 0
        assert " n=600 " in capsys.readouterr().out

    def test_fit_needs_samples_per_cell(self, tmp_path):
        from softgap.cli import main
        bare = tmp_path / "bare.csv"
        bare.write_text(records_to_csv(run_sweep(small_cfg(samples=5))))
        with pytest.raises(SystemExit):
            main(["fit", "--model", "power", "--dmin", "3", "--in", str(bare),
                  "--out", str(tmp_path / "fit.json")])

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "power", "--dmin", "3", "--out", "fit.json"],
        ["switch-check", "--threshold", "1.0"],
    ])
    def test_csv_without_threshold_is_refused(self, tmp_path, command):
        from softgap.cli import main
        cfg = small_cfg(samples=5)
        metadata = sweep_metadata(cfg)
        del metadata["epsilon_max_db"]
        path = tmp_path / "no_eps.csv"
        path.write_text(records_to_csv(run_sweep(cfg), metadata))
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--in", str(path)])
        assert exit_info.value.code == (
            f"{path}: no '# epsilon_max_db=' line; "
            "write it with `softgap sweep --format csv`")

    @pytest.mark.parametrize("command", ["fit", "switch-check"])
    def test_threshold_is_not_an_option(self, capsys, command):
        # the threshold is the sweep's, read from the CSV header
        from softgap.cli import main
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--epsilon-max-db" not in capsys.readouterr().out

    def test_switch_check_reads_sweep_threshold(self, tmp_path, capsys):
        # gaps are multiples of 16.9 dB at p = 2% and of 6.0 dB at p = 20%,
        # so none lies near the 10 dB threshold
        from softgap.cli import main
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--distances", "3,5", "--probs", "0.02,0.2",
                     "--samples", "100", "--seed", "9", "--epsilon-max-db", "10",
                     "--out", str(out)]) == 0
        records = read_sweep(out.read_text()).records
        rates = {}
        for method in METHODS:
            capsys.readouterr()
            main(["switch-check", "--threshold", "1.0", "--in", str(out),
                  "--method", method])
            printed = capsys.readouterr().out
            rates[method] = float(re.search(r"measured_rate=(\S+)", printed)[1])
            below = sum(1 for r in records
                        if r.method == method and r.defined and r.gap_db <= 10.0)
            assert rates[method] == below / 400
        # extra_cg may be defined beyond the threshold, but below it equals
        # the cluster gap
        assert rates["cluster"] == rates["bounded"] == rates["extra_cg"] > 0

    def test_consistency_cli(self, tmp_path, capsys):
        # a sweep of all four methods, empty samples included, checks every
        # sample and writes a CSV that the commands reading a sweep accept
        from softgap.cli import main
        out = tmp_path / "consistency.csv"
        assert main(["sweep", "--keep-empty", "--distances", "3,5", "--probs", "0.02",
                     "--samples", "30", "--seed", "4", "--out", str(out)]) == 0
        assert f"wrote 240 records to {out}" in capsys.readouterr().out
        sweep = read_sweep(out.read_text())
        assert sweep.config == SweepConfig((3, 5), (0.02,), 30, master_seed=4,
                                           skip_empty_syndromes=False)
        records = sweep.records
        assert len(records) == 4 * 60
        assert any(r.nodes_in_clusters == 0 for r in records)
        assert main(["switch-check", "--threshold", "1.0", "--in", str(out),
                     "--method", "cluster"]) == 0
        assert " n=60 " in capsys.readouterr().out
        assert main(["fit", "--model", "power", "--dmin", "3", "--in", str(out),
                     "--out", str(tmp_path / "fit.json")]) == 0

    @pytest.mark.parametrize("command", [["sweep"], ["sweep", "--keep-empty"]])
    def test_broken_rule_exits_1(self, tmp_path, capsys, monkeypatch, command):
        # the message alone, no traceback, and nothing written
        from softgap.cli import main
        monkeypatch.setattr(harness, *BREAKING["extra_not_above_cluster"])
        monkeypatch.setattr(harness, "_cell", None)
        out = tmp_path / "out.csv"
        assert main(command + ["--distances", "3", "--probs", "0.02", "--samples", "5",
                               "--seed", "4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"softgap {command[0]}: d=3 p=0.02 sample=0: extra_not_above_cluster\n"
        assert not out.exists()

    def test_csv_without_methods_is_refused(self, tmp_path):
        from softgap.cli import main
        cfg = small_cfg(samples=5)
        metadata = sweep_metadata(cfg)
        del metadata["methods"]
        path = tmp_path / "no_methods.csv"
        path.write_text(records_to_csv(run_sweep(cfg), metadata))
        with pytest.raises(SystemExit) as exit_info:
            main(["switch-check", "--threshold", "1.0", "--in", str(path)])
        assert exit_info.value.code == (
            f"{path}: no '# methods=' line; write it with `softgap sweep --format csv`")

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "power", "--dmin", "3", "--out", "fit.json"],
        ["switch-check", "--threshold", "1.0"],
    ])
    @pytest.mark.parametrize("corrupt, message", [
        (lambda row: row[:row.rindex(",")] + "\n", "9 fields, expected 10"),
        (lambda row: row.replace(",extra_cg,", ",extra_rg,"),
         "method 'extra_rg' is not among # methods=cluster,bounded,extra,extra_cg"),
    ], ids=["truncated-last-row", "renamed-method"])
    def test_malformed_csv_is_refused(self, tmp_path, command, corrupt, message):
        # one line naming the file and the row, not a traceback; the last
        # row is the line before the closing '# records=' line
        from softgap.cli import main
        cfg = small_cfg(samples=5)
        lines = records_to_csv(run_sweep(cfg), sweep_metadata(cfg)).splitlines(keepends=True)
        assert lines[-2] != corrupt(lines[-2])
        lines[-2] = corrupt(lines[-2])
        path = tmp_path / "bad.csv"
        path.write_text("".join(lines))
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--in", str(path)])
        assert exit_info.value.code == f"{path}: line {len(lines) - 1}: {message}"

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "power", "--dmin", "3", "--out", "fit.json"],
        ["switch-check", "--threshold", "1.0"],
    ])
    def test_concatenated_sweeps_are_refused(self, tmp_path, command):
        # the rows of a second sweep appended to the first would count
        # twice against one cell's samples; the first sweep's closing line
        # is then not the last
        from softgap.cli import main
        cfg = SweepConfig(distances=(3, 5), probs=(0.05,), samples=200, master_seed=4)
        text = records_to_csv(run_sweep(cfg), sweep_metadata(cfg))
        lines = text.splitlines(keepends=True)
        first = lines.index(CSV_HEADER + "\n") + 1
        path = tmp_path / "twice.csv"
        path.write_text(text + "".join(lines[first:]))
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--in", str(path)])
        assert exit_info.value.code == (
            f"{path}: line {len(lines)}: a '#' line that is not the last line")

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "power", "--dmin", "3", "--out", "fit.json"],
        ["switch-check", "--threshold", "1.0"],
    ])
    @pytest.mark.parametrize("sample", [5, 6, -1])
    def test_sample_index_out_of_range_is_refused(self, tmp_path, command, sample):
        from softgap.cli import main
        cfg = small_cfg(samples=5)
        lines = records_to_csv(run_sweep(cfg), sweep_metadata(cfg)).splitlines(keepends=True)
        row = lines[-2].split(",")
        lines[-2] = ",".join(row[:2] + [str(sample)] + row[3:])
        path = tmp_path / "beyond.csv"
        path.write_text("".join(lines))
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--in", str(path)])
        assert exit_info.value.code == (
            f"{path}: line {len(lines) - 1}: sample {sample} is outside 0..4 (samples=5)")

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "power", "--dmin", "3", "--out", "fit.json"],
        ["switch-check", "--threshold", "1.0"],
    ])
    @pytest.mark.parametrize("key, value, message", _BAD_HEADER,
                             ids=[f"{key}={value}" for key, value, _ in _BAD_HEADER])
    def test_bad_header_value_is_refused(self, tmp_path, command, key, value, message):
        # one line naming the file and the header line or the config rule
        # it breaks, not a traceback
        from softgap.cli import main
        cfg = small_cfg(samples=5)
        metadata = sweep_metadata(cfg)
        metadata[key] = value
        path = tmp_path / "bad_header.csv"
        path.write_text(records_to_csv(run_sweep(cfg), metadata))
        line = path.read_text().splitlines().index(f"# {key}={value}") + 1
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--in", str(path)])
        assert exit_info.value.code == f"{path}: {message.format(line=line)}"

    def test_switch_check_without_records_of_the_method(self, tmp_path, capsys):
        # every sample is empty and skipped: the rate is 0 over 50 samples
        from softgap.cli import main
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--distances", "3", "--probs", "0.000001",
                     "--samples", "50", "--seed", "9", "--out", str(out)]) == 0
        assert read_sweep(out.read_text()).records == []
        capsys.readouterr()
        assert main(["switch-check", "--threshold", "0.01", "--in", str(out),
                     "--method", "cluster"]) == 0
        assert capsys.readouterr().out.startswith("measured_rate=0.0 threshold=0.01 ")

    @pytest.mark.parametrize("command", [
        ["switch-check", "--threshold", "1.0"],
        ["fit", "--model", "power", "--dmin", "3", "--out", "fit.json"],
    ])
    def test_method_not_swept_is_a_usage_error(self, tmp_path, capsys, command):
        from softgap.cli import main
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--distances", "3,5", "--probs", "0.02", "--samples", "20",
                     "--methods", "cluster", "--out", str(out)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--in", str(out), "--method", "extra_cg"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: softgap ")
        assert f"error: --method extra_cg was not swept; {out} holds cluster" in err

    def test_fit_with_too_few_usable_cells_is_a_usage_error(self, tmp_path, capsys):
        # no gap is at or below 10 dB at p = 2%, so every fraction is 0
        from softgap.cli import main
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--distances", "3,5", "--probs", "0.02",
                     "--samples", "200", "--epsilon-max-db", "10",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        fit_out = tmp_path / "fit.json"
        with pytest.warns(UserWarning, match="dropped 2 non-positive"), \
                pytest.raises(SystemExit) as exit_info:
            main(["fit", "--model", "exp", "--metric", "fraction_below",
                  "--method", "cluster", "--in", str(out), "--out", str(fit_out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: softgap fit")
        assert ("error: --metric fraction_below --method cluster at p=0.02: "
                "need usable points at 2 or more distances, got 0") in err
        assert not fit_out.exists()

    @pytest.mark.parametrize("model", [["power", "--dmin", "3"], ["exp"]])
    def test_fit_without_records_of_the_method_is_a_usage_error(self, tmp_path, capsys,
                                                                model):
        # every sample is empty and skipped, so no cell has a record to fit
        from softgap.cli import main
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--distances", "3,5", "--probs", "0.000001",
                     "--samples", "50", "--seed", "9", "--out", str(out)]) == 0
        assert read_sweep(out.read_text()).records == []
        capsys.readouterr()
        fit_out = tmp_path / "fit.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "--model", *model, "--in", str(out), "--out", str(fit_out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: softgap fit")
        assert f"error: --method cluster: {out} holds no record of it" in err
        assert not fit_out.exists()

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "power", "--dmin", "3", "--out", "fit.json"],
        ["switch-check", "--threshold", "1.0"],
    ])
    @pytest.mark.parametrize("case", ["second-cell", "unlisted-method", "comment-row"])
    def test_file_not_of_one_sweep_is_refused(self, tmp_path, command, case):
        # the d = 5 rows of a second sweep put in a d = 3 sweep's file, with
        # the closing count mended, make a cell its header never swept; a
        # row of a method it does not list, or a '#' line among the rows,
        # is not that sweep's either
        from softgap.cli import main
        cfg = SweepConfig(distances=(3,), probs=(0.05,), samples=50, master_seed=4)
        text = records_to_csv(run_sweep(cfg), sweep_metadata(cfg))
        lines = text.splitlines(keepends=True)
        if case == "second-cell":
            second = records_to_csv(run_sweep(replace(cfg, distances=(5,)))).splitlines(True)
            rows = len(lines) - 10 + len(second) - 1
            text = "".join(lines[:-1] + second[1:] + [f"# records={rows}\n"])
            message = f"line {len(lines)}: d=5 p=0.05 is not a cell of this sweep"
        elif case == "unlisted-method":
            text = text.replace(f"# methods={','.join(METHODS)}\n",
                                "# methods=cluster,bounded,extra_cg\n")
            row = next(i for i, line in enumerate(lines, 1)
                       if line.split(",")[3:4] == ["extra"])
            message = (f"line {row}: method 'extra' is not among "
                       "# methods=cluster,bounded,extra_cg")
        else:
            text = "".join(lines[:-1] + ["# cells=2\n", lines[-1]])
            message = f"line {len(lines)}: a '#' line that is not the last line"
        with pytest.raises(ValueError) as err:
            read_sweep(text)
        assert str(err.value) == message
        path = tmp_path / "not_one_sweep.csv"
        path.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--in", str(path)])
        assert exit_info.value.code == f"{path}: {message}"

    @pytest.mark.parametrize("command", [
        ["fit", "--model", "power", "--dmin", "3", "--out", "fit.json"],
        ["switch-check", "--threshold", "1.0"],
    ])
    def test_unreadable_file_is_refused(self, tmp_path, command):
        # a missing file, or bytes that are not UTF-8: one line, not a traceback
        from softgap.cli import main
        missing, binary = tmp_path / "missing.csv", tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe")
        for path, reason in [(missing, "[Errno 2] No such file or directory"),
                             (binary, "'utf-8' codec can't decode byte 0xff")]:
            with pytest.raises(SystemExit) as exit_info:
                main(command + ["--in", str(path)])
            assert exit_info.value.code.startswith(f"{path}: {reason}")
