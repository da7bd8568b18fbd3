import hashlib
import json
from collections import Counter

import pytest

from softgap import harness, softout
from softgap.graphs import build_phenomenological, db_to_scaled
from softgap.sampling import SeedSpec, sample_syndrome
from softgap.harness import (
    CSV_HEADER,
    METHODS,
    ConfigError,
    SweepConfig,
    SweepRecord,
    aggregate,
    emit,
    parse_csv_metadata,
    parse_records_csv,
    records_to_csv,
    run_consistency,
    run_sweep,
    switch_check,
    wilson_interval,
)


def small_cfg(**overrides):
    base = dict(distances=(3, 5), probs=(0.01, 0.03), samples=40,
                master_seed=11, skip_empty_syndromes=False)
    base.update(overrides)
    return SweepConfig(**base)


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

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(probs=(0.7,)).validate()


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

    def test_one_search_and_one_growth_per_sample(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        names = ("cluster_gaps", "extra_gaps", "grow_clusters", "_extra_results")
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


class TestEmit:
    def test_csv_header_exact(self):
        assert CSV_HEADER == ("d,p,sample,method,defined,gap_db,visited_nodes,"
                              "extra_nodes,max_growth_db,nodes_in_clusters")

    def test_empty_record_stream(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_csv_round_trip_identity(self, tmp_path):
        records = list(run_sweep(small_cfg()))
        text = records_to_csv(records)
        parsed = parse_records_csv(text)
        assert parsed == records
        assert records_to_csv(parsed) == text

    def test_parse_header_only_text(self):
        # text, never a path: a header alone is a CSV with no records
        assert parse_records_csv(CSV_HEADER) == []
        assert parse_csv_metadata(CSV_HEADER) == {}

    def test_json_emission(self, tmp_path):
        records = list(run_sweep(small_cfg(samples=10)))
        path = tmp_path / "r.json"
        emit(records, "json", path, metadata={"seed": 11})
        payload = json.loads(path.read_text())
        assert payload["metadata"] == {"seed": 11}
        assert len(payload["records"]) == len(records)

    def test_svg_plot_one_polyline_per_series(self, tmp_path):
        records = list(run_sweep(small_cfg(methods=("cluster",))))
        path = tmp_path / "chart.svg"
        emit(records, "svg-plot", path, samples_per_cell=40)
        text = path.read_text()
        assert text.startswith("<svg")
        # one polyline per probability value
        assert text.count("<polyline") == 2

    def test_svg_plot_reads_samples_per_cell_from_metadata(self, tmp_path):
        records = list(run_sweep(small_cfg(methods=("cluster",))))
        path = tmp_path / "chart.svg"
        emit(records, "svg-plot", path, metadata={"samples_per_cell": 40})
        assert path.read_text().count("<polyline") == 2
        with pytest.raises(ValueError):
            emit(records, "svg-plot", path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit([], "yaml", tmp_path / "x")


class TestAggregate:
    def test_empty_records_excluded_from_visited_stats(self):
        mk = lambda sample, visited, clustered: SweepRecord(
            d=3, p=0.01, sample=sample, method="cluster", defined=True,
            gap_db=30.0, visited_nodes=visited, extra_nodes=0,
            max_growth_db=0.0, nodes_in_clusters=clustered)
        rows = aggregate([mk(0, 10, 0), mk(1, 20, 2), mk(2, 40, 4)],
                         samples_per_cell=3)
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


class TestConsistency:
    def test_no_violations_on_small_grid(self):
        cfg = small_cfg(samples=60)
        report = run_consistency(cfg)
        assert report.samples_checked == 4 * 60
        assert all(v == 0 for v in report.violations.values())
        assert len(report.rows) == 3 * report.samples_checked

    def test_requires_multiple_methods(self):
        with pytest.raises(ConfigError):
            run_consistency(small_cfg(methods=("cluster",)))

    def test_rows_optional(self):
        report = run_consistency(small_cfg(samples=10), collect_rows=False)
        assert report.rows == []
        assert report.samples_checked == 40

    def test_all_empty_syndromes_give_one_scatter_column(self):
        # with a vanishing p every sample is empty, so the exact full-search
        # gap is the same for all of them: a single scatter column
        cfg = small_cfg(distances=(3,), probs=(1e-7,), samples=15)
        report = run_consistency(cfg)
        cluster_values = {row[4] for row in report.rows}
        assert len(cluster_values) == 1


class TestSwitchCheck:
    def _records(self, defined_flags):
        return [SweepRecord(d=3, p=0.01, sample=i, method="extra_cg",
                            defined=flag, gap_db=5.0 if flag else None,
                            visited_nodes=0, extra_nodes=0,
                            max_growth_db=0.0, nodes_in_clusters=1)
                for i, flag in enumerate(defined_flags)]

    def test_exact_rate(self):
        records = self._records([True] * 37 + [False] * 63)
        chk = switch_check(records, threshold=0.5)
        assert chk.measured_rate == 0.37
        assert chk.n == 100

    def test_pass_and_fail_verdicts(self):
        low = switch_check(self._records([True] * 2 + [False] * 98), 0.05)
        assert low.verdict == "pass"
        high = switch_check(self._records([True] * 10 + [False] * 90), 0.05)
        assert high.verdict == "fail"

    def test_zero_rate_passes_any_positive_threshold(self):
        chk = switch_check(self._records([False] * 50), 1e-9)
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
        assert chk == switch_check(full, 0.05, epsilon_max_db=100.0, method="cluster")
        assert chk.n == 2000
        assert 0 < chk.measured_rate < 0.05 and chk.verdict == "pass"

    def test_wilson_interval_brackets_rate(self):
        chk = switch_check(self._records([True] * 20 + [False] * 80), 0.5)
        assert chk.wilson_low <= chk.measured_rate <= chk.wilson_high
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05


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
        records = parse_records_csv(out.read_text())
        assert len(records) == 25 * 4

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
        meta = parse_csv_metadata(out.read_text())
        assert (meta["samples_per_cell"], meta["cells"]) == ("300", "2")
        records = parse_records_csv(out.read_text())
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

    def test_consistency_cli(self, tmp_path):
        from softgap.cli import main
        out = tmp_path / "scatter.csv"
        assert main(["consistency", "--distances", "3", "--probs", "0.02",
                     "--samples", "30", "--seed", "4", "--out", str(out)]) == 0
        assert out.read_text().startswith("d,p,sample,method,")
