"""Benchmark harness: parameter sweeps, aggregation, consistency checks.

A sweep walks a (distance, probability) grid, draws seeded samples, decodes
each one once, evaluates the requested soft-output methods on the shared
cluster state, and emits one record per (sample, method).  Output is
deterministic for a fixed master seed regardless of worker count: per-sample
randomness is a pure function of (master_seed, global sample counter), and
records are merged in sample order.
"""

import csv
import io
import json
import math
import multiprocessing
from dataclasses import dataclass, field, asdict

from .graphs import DecodingGraph, build_phenomenological, db_to_scaled, scaled_to_db
from .sampling import SeedSpec, sample_syndrome, Syndrome
from .decoder import decode, nodes_in_clusters
from .softout import contract, cluster_gaps, extra_gaps

METHODS = ("cluster", "bounded", "extra", "extra_cg")

CSV_HEADER = ("d,p,sample,method,defined,gap_db,visited_nodes,"
              "extra_nodes,max_growth_db,nodes_in_clusters")


class ConfigError(ValueError):
    """Invalid sweep configuration."""


@dataclass(frozen=True)
class SweepConfig:
    distances: tuple
    probs: tuple
    samples: int
    master_seed: int = 0
    rounds: int | None = None          # None: rounds = d
    epsilon_max_db: float = 20.0
    methods: tuple = METHODS
    skip_empty_syndromes: bool = True

    def validate(self):
        if not self.distances:
            raise ConfigError("no distances given")
        for d in self.distances:
            if d < 3 or d % 2 == 0:
                raise ConfigError(f"distances must be odd and >= 3, got {d}")
        if not self.probs:
            raise ConfigError("no probabilities given")
        for p in self.probs:
            if not (0.0 < p <= 0.5):
                raise ConfigError(f"probabilities must be in (0, 0.5], got {p}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.epsilon_max_db <= 0:
            raise ConfigError("epsilon_max_db must be > 0")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")

    def rounds_for(self, d: int) -> int:
        return d if self.rounds is None else self.rounds

    def cells(self):
        """(cell_index, d, p) triples in deterministic sweep order."""
        i = 0
        for d in self.distances:
            for p in self.probs:
                yield i, d, p
                i += 1


@dataclass(frozen=True)
class SweepRecord:
    d: int
    p: float
    sample: int
    method: str
    defined: bool
    gap_db: float | None
    visited_nodes: int
    extra_nodes: int
    max_growth_db: float
    nodes_in_clusters: int


def evaluate_sample(graph: DecodingGraph, events, eps_scaled: int, methods):
    """Decode one syndrome and evaluate the requested methods on it.

    Returns (nodes_in_clusters, max_growth2, results) where results holds one
    (value_scaled, visited, extra, cg_invoked) tuple per requested method, in
    order.  ``cluster`` and ``bounded`` come from one search, ``extra`` and
    ``extra_cg`` from one growth pass.  Pure function of its arguments, so
    results for identical syndromes can be reused.
    """
    cs = decode(graph, Syndrome(frozenset(events)))
    view = contract(graph, cs)
    gaps = {}
    if "cluster" in methods or "bounded" in methods:
        gaps["cluster"], gaps["bounded"] = cluster_gaps(view, eps_scaled)
    if "extra" in methods or "extra_cg" in methods:
        gaps["extra"], gaps["extra_cg"] = extra_gaps(view, eps_scaled)
    out = tuple((r.value, r.visited_nodes, r.extra_nodes, r.cluster_graph_invoked)
                for r in map(gaps.__getitem__, methods))
    return nodes_in_clusters(cs), cs.radius2_log, out


# Per-process caches for worker tasks: graphs by cell geometry and
# evaluations by syndrome (decode and all gap values are pure functions).
_graph_cache = {}
_eval_cache = {}
_EVAL_CACHE_CAP = 150_000


def _cell_graph(d, rounds, p):
    key = (d, rounds, p)
    g = _graph_cache.get(key)
    if g is None:
        g = build_phenomenological(d, rounds, p)
        _graph_cache[key] = g
    return g


def _run_chunk(args):
    (d, p, rounds, eps_scaled, methods, master_seed,
     base_index, start, end, skip_empty) = args
    g = _cell_graph(d, rounds, p)
    cache_key_base = (d, rounds, p, eps_scaled, methods)
    out = []
    for idx in range(start, end):
        seed = SeedSpec(master_seed, base_index + idx)
        events = sample_syndrome(g, seed).events
        if not events and skip_empty:
            continue
        key = (cache_key_base, events)
        hit = _eval_cache.get(key)
        if hit is None:
            hit = evaluate_sample(g, events, eps_scaled, methods)
            if len(_eval_cache) < _EVAL_CACHE_CAP:
                _eval_cache[key] = hit
        out.append((idx, hit))
    return out


def _iter_sample_evals(cfg: SweepConfig, workers: int = 1, chunk: int = 2000):
    """Yield (cell_index, d, p, sample_index, eval_result) in sweep order."""
    cfg.validate()
    methods = tuple(m for m in METHODS if m in cfg.methods)
    eps_scaled = db_to_scaled(cfg.epsilon_max_db)
    tasks = []
    for cell_index, d, p in cfg.cells():
        base = cell_index * cfg.samples
        for start in range(0, cfg.samples, chunk):
            end = min(start + chunk, cfg.samples)
            tasks.append(((d, p, cfg.rounds_for(d), eps_scaled, methods,
                           cfg.master_seed, base, start, end,
                           cfg.skip_empty_syndromes), cell_index, d, p))

    if workers <= 1:
        for args, cell_index, d, p in tasks:
            for idx, res in _run_chunk(args):
                yield cell_index, d, p, idx, res
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            for (args, cell_index, d, p), rows in zip(
                    tasks, pool.imap(_run_chunk, (t[0] for t in tasks))):
                for idx, res in rows:
                    yield cell_index, d, p, idx, res


def run_sweep(cfg: SweepConfig, workers: int = 1):
    """Run the sweep; yields SweepRecord rows in deterministic order."""
    methods = tuple(m for m in METHODS if m in cfg.methods)
    for _, d, p, idx, (n_clustered, radius2, results) in _iter_sample_evals(cfg, workers):
        growth_db = scaled_to_db(float(radius2) / 2.0)
        for m, (value, visited, extra, _) in zip(methods, results):
            yield SweepRecord(
                d=d, p=p, sample=idx, method=m,
                defined=value is not None,
                gap_db=None if value is None else scaled_to_db(value),
                visited_nodes=visited, extra_nodes=extra,
                max_growth_db=growth_db, nodes_in_clusters=n_clustered)


@dataclass
class _Welford:
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, x: float):
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        return math.sqrt(self.m2 / self.n) if self.n else 0.0


@dataclass(frozen=True)
class AggregateRow:
    d: int
    p: float
    method: str
    samples: int            # configured samples per cell (denominator)
    records: int            # emitted records for this cell/method
    mean_visited: float
    std_visited: float
    mean_extra: float
    std_extra: float
    fraction_below: float   # defined gap <= threshold, over all samples
    fraction_se: float      # binomial standard error with n = samples


def aggregate(records, samples_per_cell: int, epsilon_max_db: float = 20.0):
    """Single-pass aggregation of sweep records.

    Visited/extra statistics exclude empty-syndrome records (those with
    nodes_in_clusters == 0); the below-threshold fraction counts every
    configured sample, so skipped empty samples act as above-threshold.
    """
    stats = {}
    for r in records:
        key = (r.d, r.p, r.method)
        st = stats.get(key)
        if st is None:
            st = {"visited": _Welford(), "extra": _Welford(),
                  "below": 0, "records": 0}
            stats[key] = st
        st["records"] += 1
        if r.nodes_in_clusters > 0:
            st["visited"].add(r.visited_nodes)
            st["extra"].add(r.extra_nodes)
        if r.defined and r.gap_db is not None and r.gap_db <= epsilon_max_db:
            st["below"] += 1
    rows = []
    for (d, p, method), st in sorted(stats.items(), key=lambda kv: (kv[0][0], kv[0][1], METHODS.index(kv[0][2]))):
        n = samples_per_cell
        frac = st["below"] / n
        se = math.sqrt(frac * (1.0 - frac) / n)
        rows.append(AggregateRow(
            d=d, p=p, method=method, samples=n, records=st["records"],
            mean_visited=st["visited"].mean, std_visited=st["visited"].std,
            mean_extra=st["extra"].mean, std_extra=st["extra"].std,
            fraction_below=frac, fraction_se=se))
    return rows


@dataclass
class ConsistencyReport:
    """Scatter data plus per-rule violation counts (all must be zero)."""
    rows: list = field(default_factory=list)
    violations: dict = field(default_factory=dict)
    samples_checked: int = 0


_CONSISTENCY_RULES = (
    "bounded_agrees_with_cluster_below_threshold",
    "extra_not_above_cluster",
    "extra_defined_when_cluster_below_threshold",
    "cluster_not_above_extra_cg",
    "extra_cg_equals_cluster_below_threshold",
)


def run_consistency(cfg: SweepConfig, workers: int = 1,
                    collect_rows: bool = True) -> ConsistencyReport:
    """Evaluate all four methods per sample and count rule violations.

    The five rules bind the estimators together sample by sample (exact
    integer comparisons on scaled gaps): the bounded search must agree with
    the full search below threshold, extra growth can only undershoot the
    cluster gap and never misses below-threshold samples, and the
    cluster-graph variant can only overshoot and is exact below threshold.
    Empty-syndrome samples are always evaluated (cheaply, via caching).
    With ``collect_rows`` off only the violation counters are kept, which
    bounds memory on large grids.
    """
    if "cluster" not in cfg.methods or len([m for m in cfg.methods if m in METHODS]) < 2:
        raise ConfigError("consistency runs need method 'cluster' plus at least one other")
    cfg_all = SweepConfig(
        distances=tuple(cfg.distances), probs=tuple(cfg.probs),
        samples=cfg.samples, master_seed=cfg.master_seed, rounds=cfg.rounds,
        epsilon_max_db=cfg.epsilon_max_db, methods=METHODS,
        skip_empty_syndromes=False)
    eps_scaled = db_to_scaled(cfg.epsilon_max_db)
    report = ConsistencyReport(violations={k: 0 for k in _CONSISTENCY_RULES})
    v = report.violations
    for _, d, p, idx, (_, _, res) in _iter_sample_evals(cfg_all, workers):
        g_c = res[0][0]
        g_b = res[1][0]
        g_e = res[2][0]
        g_cg = res[3][0]
        below = g_c <= eps_scaled
        if below:
            if g_b != g_c:
                v["bounded_agrees_with_cluster_below_threshold"] += 1
            if g_e is None:
                v["extra_defined_when_cluster_below_threshold"] += 1
            if g_cg != g_c:
                v["extra_cg_equals_cluster_below_threshold"] += 1
        elif g_b is not None:
            v["bounded_agrees_with_cluster_below_threshold"] += 1
        if g_e is not None and g_e > g_c:
            v["extra_not_above_cluster"] += 1
        if g_cg is not None and g_cg < g_c:
            v["cluster_not_above_extra_cg"] += 1
        report.samples_checked += 1
        if collect_rows:
            cdb = scaled_to_db(g_c)
            for m, val in (("bounded", g_b), ("extra", g_e), ("extra_cg", g_cg)):
                report.rows.append((d, p, idx, m, cdb,
                                    None if val is None else scaled_to_db(val),
                                    val is not None))
    return report


@dataclass(frozen=True)
class SwitchCheck:
    measured_rate: float
    user_threshold: float
    verdict: str                 # "pass" | "fail"
    n: int
    wilson_low: float
    wilson_high: float


def wilson_interval(k: int, n: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def switch_check(records, threshold: float, epsilon_max_db: float = 20.0,
                 method: str | None = None,
                 attempted: int | None = None) -> SwitchCheck:
    """Compare the measured below-threshold rate against a budget.

    The rate is the fraction of samples with a defined gap at most
    ``epsilon_max_db``; pass it the rate budget above which a slow fallback
    decoder could no longer keep up.  ``attempted`` is the denominator: the
    samples attempted for the checked method (samples per cell times
    cells), which counts the empty samples a sweep skipped.  Without it
    every sample must have a record.
    """
    rows = [r for r in records if method is None or r.method == method]
    if not rows:
        raise ValueError("no records to check")
    n = len(rows) if attempted is None else attempted
    if n < len(rows):
        raise ValueError(f"{len(rows)} records but only {n} samples attempted")
    k = sum(1 for r in rows
            if r.defined and r.gap_db is not None and r.gap_db <= epsilon_max_db)
    rate = k / n
    low, high = wilson_interval(k, n)
    return SwitchCheck(measured_rate=rate, user_threshold=threshold,
                       verdict="pass" if rate <= threshold else "fail",
                       n=n, wilson_low=low, wilson_high=high)


# ---------------------------------------------------------------------------
# Emission

def _fmt_float(x) -> str:
    return repr(float(x))


def _record_to_row(r: SweepRecord):
    return [str(r.d), _fmt_float(r.p), str(r.sample), r.method,
            "true" if r.defined else "false",
            "" if r.gap_db is None else _fmt_float(r.gap_db),
            str(r.visited_nodes), str(r.extra_nodes),
            _fmt_float(r.max_growth_db), str(r.nodes_in_clusters)]


def records_to_csv(records, metadata: dict | None = None) -> str:
    buf = io.StringIO()
    if metadata:
        for k in sorted(metadata):
            buf.write(f"# {k}={metadata[k]}\n")
    buf.write(CSV_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for r in records:
        writer.writerow(_record_to_row(r))
    return buf.getvalue()


def parse_records_csv(text: str) -> list:
    """Inverse of records_to_csv: the records in CSV text."""
    records = []
    header_seen = False
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != CSV_HEADER:
                raise ValueError(f"unexpected CSV header: {line!r}")
            header_seen = True
            continue
        row = next(csv.reader([line]))
        records.append(SweepRecord(
            d=int(row[0]), p=float(row[1]), sample=int(row[2]), method=row[3],
            defined=row[4] == "true",
            gap_db=None if row[5] == "" else float(row[5]),
            visited_nodes=int(row[6]), extra_nodes=int(row[7]),
            max_growth_db=float(row[8]), nodes_in_clusters=int(row[9])))
    if not header_seen:
        raise ValueError("missing CSV header")
    return records


def parse_csv_metadata(text: str) -> dict:
    """The ``# key=value`` lines records_to_csv writes before the header,
    as a dict of strings."""
    metadata = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        key, sep, value = line[1:].strip().partition("=")
        if sep:
            metadata[key] = value
    return metadata


def records_to_json(records, metadata: dict | None = None) -> str:
    payload = {"metadata": metadata or {}, "records": [asdict(r) for r in records]}
    return json.dumps(payload, indent=1, sort_keys=True)


def _svg_line_chart(series: dict, title: str, x_label: str, y_label: str,
                    width=640, height=440) -> str:
    """Minimal hand-rolled SVG: one polyline per series, log-scale y."""
    pad_l, pad_r, pad_t, pad_b = 60, 16, 30, 40
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
              "#8c564b", "#e377c2", "#17becf"]
    pts_all = [(x, y) for pts in series.values() for x, y in pts if y > 0]
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'font-family="sans-serif" font-size="11">',
           f'<text x="{width/2:.0f}" y="16" text-anchor="middle">{title}</text>']
    if pts_all:
        xs = [x for x, _ in pts_all]
        logy = [math.log10(y) for _, y in pts_all]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(logy), max(logy)
        if x1 == x0:
            x1 = x0 + 1
        if y1 == y0:
            y1 = y0 + 1

        def sx(x):
            return pad_l + (x - x0) / (x1 - x0) * (width - pad_l - pad_r)

        def sy(y):
            return height - pad_b - (math.log10(y) - y0) / (y1 - y0) * (height - pad_t - pad_b)

        out.append(f'<rect x="{pad_l}" y="{pad_t}" width="{width-pad_l-pad_r}" '
                   f'height="{height-pad_t-pad_b}" fill="none" stroke="#888"/>')
        for exp in range(math.floor(y0), math.ceil(y1) + 1):
            yy = sy(10.0 ** exp)
            if pad_t <= yy <= height - pad_b:
                out.append(f'<line x1="{pad_l}" y1="{yy:.1f}" x2="{width-pad_r}" '
                           f'y2="{yy:.1f}" stroke="#ddd"/>')
                out.append(f'<text x="{pad_l-6}" y="{yy+4:.1f}" text-anchor="end">1e{exp}</text>')
        for x in sorted(set(xs)):
            out.append(f'<text x="{sx(x):.1f}" y="{height-pad_b+16}" '
                       f'text-anchor="middle">{x:g}</text>')
        for i, (label, pts) in enumerate(sorted(series.items())):
            pts = [(x, y) for x, y in pts if y > 0]
            if not pts:
                continue
            color = colors[i % len(colors)]
            path = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
            out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                       f'points="{path}"/>')
            out.append(f'<text x="{width-pad_r-4}" y="{pad_t+14+i*14}" text-anchor="end" '
                       f'fill="{color}">{label}</text>')
    out.append(f'<text x="{width/2:.0f}" y="{height-8}" text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="14" y="{height/2:.0f}" text-anchor="middle" '
               f'transform="rotate(-90 14 {height/2:.0f})">{y_label}</text>')
    out.append("</svg>")
    return "\n".join(out)


def emit(records, fmt: str, path, metadata: dict | None = None,
         samples_per_cell: int | None = None, epsilon_max_db: float = 20.0,
         svg_metric: str = "mean_visited") -> None:
    """Write records as csv, json, or an svg-plot of the aggregates.

    The svg plot draws one series per (p, method) with x = d and a log y
    axis over the chosen aggregate metric.
    """
    records = list(records)
    if fmt == "csv":
        text = records_to_csv(records, metadata)
    elif fmt == "json":
        text = records_to_json(records, metadata)
    elif fmt == "svg-plot":
        if samples_per_cell is None:
            if not metadata or "samples_per_cell" not in metadata:
                raise ValueError("svg-plot needs samples_per_cell, as an argument "
                                 "or in the metadata")
            samples_per_cell = int(metadata["samples_per_cell"])
        rows = aggregate(records, samples_per_cell, epsilon_max_db)
        series = {}
        for row in rows:
            label = f"p={row.p:g} {row.method}"
            series.setdefault(label, []).append((row.d, getattr(row, svg_metric)))
        text = _svg_line_chart(series, title=svg_metric, x_label="code distance d",
                               y_label=svg_metric)
    else:
        raise ValueError(f"unknown format {fmt!r}; choose csv, json, or svg-plot")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
