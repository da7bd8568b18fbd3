"""Benchmark harness: parameter sweeps, aggregation, switching checks.

A sweep walks a (distance, probability) grid, draws seeded samples, decodes
each one once, evaluates the requested soft-output methods on the shared
cluster state, and emits one record per (sample, method).  Output is
deterministic for a fixed master seed regardless of worker count: per-sample
randomness is a pure function of (master_seed, global sample counter), and
records are merged in sample order.

Every sweep evaluates all four methods, whichever it writes, checks the
five estimator rules (``rule_violations``) on each evaluation as it is
made, and stops at the first sample that breaks one with a
``ConsistencyError`` naming it; with ``skip_empty_syndromes=False`` that
is every sample.

Every value type here is a ``NamedTuple`` (README, "Value types").
``records_to_csv`` unpacks each record by position, in ``CSV_HEADER``
order, and writes it as one f-string row; it formats each distinct float,
and quotes each distinct method name as ``csv.writer`` would, once per
call.  Importing the package does not import ``multiprocessing``; only a
sweep with a worker pool does.

Each process of a sweep holds one cell at a time (see ``_cell``): the
cell's graph, with the tables the decoder, the sampler and the search
memoize on it, and the evaluations of its syndromes of at most four
events, which make almost all of a cell's repeats.  The next cell
replaces it, so memory stays that of the largest cell, not of the grid.
"""

import csv
import io
import math
from typing import NamedTuple, get_args, get_origin

from .graphs import DecodingGraph, build_phenomenological, db_to_scaled, scaled_to_db
from .sampling import SeedSpec, sample_syndrome, Syndrome
from .decoder import decode, nodes_in_clusters
from .softout import contract, cluster_gaps, extra_gaps

METHODS = ("cluster", "bounded", "extra", "extra_cg")

CSV_HEADER = ("d,p,sample,method,defined,gap_db,visited_nodes,"
              "extra_nodes,max_growth_db,nodes_in_clusters")


class ConfigError(ValueError):
    """Invalid sweep configuration, or a question its records cannot answer."""


class ConsistencyError(RuntimeError):
    """A sample's gaps break an estimator rule; the message names the
    sample by (d, p, index in its cell) and the broken rules."""


def _is_a(value, kind) -> bool:
    """Whether ``value`` is a ``kind``, the type of a ``SweepConfig`` field:
    an int is a float, but a bool is neither an int nor a float."""
    args = get_args(kind)
    if type(None) in args:                     # int | None
        return value is None or _is_a(value, args[0])
    if get_origin(kind) is tuple:              # tuple[item, ...]
        return isinstance(value, tuple) and all(_is_a(v, args[0]) for v in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


class SweepConfig(NamedTuple):
    distances: tuple[int, ...]
    probs: tuple[float, ...]
    samples: int
    master_seed: int = 0
    rounds: int | None = None          # None: rounds = d
    epsilon_max_db: float = 20.0
    methods: tuple[str, ...] = METHODS
    skip_empty_syndromes: bool = True

    def validate(self):
        for (name, kind), value in zip(self.__annotations__.items(), self):
            if not _is_a(value, kind):
                text = kind.__name__ if isinstance(kind, type) else str(kind)
                raise ConfigError(f"{name} must be {text}, got {value!r}")
        if not self.distances:
            raise ConfigError("no distances given")
        for d in self.distances:
            if d < 3 or d % 2 == 0:
                raise ConfigError(f"distances must be odd and >= 3, got {d}")
        if not self.probs:
            raise ConfigError("no probabilities given")
        if not self.methods:
            raise ConfigError("no methods given")
        for p in self.probs:
            if not (0.0 < p <= 0.5):
                raise ConfigError(f"probabilities must be in (0, 0.5], got {p}")
        for name, values in (("distance", self.distances), ("probability", self.probs),
                             ("method", self.methods)):
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ConfigError(f"{name} {v} is given twice; each cell is swept once")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.rounds is not None and self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if not 0.0 < self.epsilon_max_db < math.inf:
            raise ConfigError("epsilon_max_db must be finite and > 0, "
                              f"got {self.epsilon_max_db}")
        try:
            db_to_scaled(self.epsilon_max_db)
        except OverflowError:
            raise ConfigError(f"epsilon_max_db {self.epsilon_max_db} is too large: "
                              "its scaled value is not finite") from None
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


class SweepRecord(NamedTuple):
    """One (sample, method) row of a sweep; fields in ``CSV_HEADER`` order."""
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


# A method's place among the four gaps of a search and a growth pass.
_SLOT = {m: i for i, m in enumerate(METHODS)}


def evaluate_sample(graph: DecodingGraph, events, eps_scaled: int, methods):
    """Decode one syndrome and evaluate the requested methods on it.

    Returns (nodes_in_clusters, max_growth2, results) where results holds one
    (value_scaled, visited, extra, cg_invoked) tuple per requested method, in
    order: its ``GapResult`` less the kind.  All four gaps are computed
    whichever are requested: ``cluster`` and ``bounded`` come from one
    search, ``extra`` and ``extra_cg`` from one growth pass.  Pure function
    of its arguments, so results for identical syndromes can be reused.
    """
    cs = decode(graph, Syndrome(frozenset(events)))
    view = contract(graph, cs)
    found = cluster_gaps(view, eps_scaled) + extra_gaps(view, eps_scaled)
    return nodes_in_clusters(cs), cs.radius2_log, tuple([found[_SLOT[m]][1:] for m in methods])


# Per-process cache: one slot, the cell the last chunk belonged to.  It
# holds the cell's key (d, rounds, p, eps_scaled), its graph, on
# which the decoder scratch, bare distances and skip tables are
# memoized, and its evaluations by syndrome (decode and all gap values are
# pure functions of the graph and the syndrome).  A chunk of another cell
# replaces it: a sweep visits each cell once, and a pool hands out chunks
# in task order, so no later chunk needs a dropped cell.  Only a syndrome
# of at most _CACHED_EVENTS events is stored; larger ones almost never
# repeat.  Share of a cell's repeats (cache hits) that have at most 4
# events, seed 1, 2*10^4 samples per cell, rounds = d:
#   d, p        hits / non-empty   of them <= 4 events
#   5, 0.1%     2479 / 2826        100%
#   9, 0.1%     6401 / 11165       100%
#   13, 0.1%    2428 / 18180       100%
#   5, 1%       7579 / 15608       99.93%
#   9, 1%       4 / 19990          100%
#   13, 1%      0 / 20000          -
#   5, 2%       3780 / 19069       99.63%
#   3, 5%       13272 / 16817      95.3%
_cell = None                           # (key, graph, evaluations by events)
_CACHED_EVENTS = 4
_EVAL_CACHE_CAP = 150_000
_CHUNK = 2000                          # samples per worker task


def _run_chunk(args):
    global _cell
    d, p, rounds, eps_scaled, master_seed, base_index, start, end, skip_empty = args
    key = (d, rounds, p, eps_scaled)
    if _cell is None or _cell[0] != key:
        _cell = None                   # free the last cell before the next is built
        _cell = (key, build_phenomenological(d, rounds, p), {})
    _, g, evals = _cell
    out = []
    for idx in range(start, end):
        seed = SeedSpec(master_seed, base_index + idx)
        events = sample_syndrome(g, seed).events
        if not events and skip_empty:
            continue
        hit = evals.get(events)
        if hit is None:
            hit = evaluate_sample(g, events, eps_scaled, METHODS)
            broken = rule_violations([r[0] for r in hit[2]], eps_scaled)
            if broken:
                raise ConsistencyError(f"d={d} p={p!r} sample={idx}: {', '.join(broken)}")
            if len(events) <= _CACHED_EVENTS and len(evals) < _EVAL_CACHE_CAP:
                evals[events] = hit
        out.append((idx, hit))
    return out


def _iter_sample_evals(cfg: SweepConfig, workers: int = 1):
    """Yield (cell_index, d, p, sample_index, eval_result) in sweep order."""
    cfg.validate()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    eps_scaled = db_to_scaled(cfg.epsilon_max_db)
    tasks = []
    for cell_index, d, p in cfg.cells():
        base = cell_index * cfg.samples
        for start in range(0, cfg.samples, _CHUNK):
            end = min(start + _CHUNK, cfg.samples)
            tasks.append(((d, p, cfg.rounds_for(d), eps_scaled, cfg.master_seed,
                           base, start, end, cfg.skip_empty_syndromes), cell_index, d, p))

    if workers == 1:
        for args, cell_index, d, p in tasks:
            for idx, res in _run_chunk(args):
                yield cell_index, d, p, idx, res
    else:
        import multiprocessing          # only a pool needs it
        with multiprocessing.Pool(processes=workers) as pool:
            for (args, cell_index, d, p), rows in zip(
                    tasks, pool.imap(_run_chunk, (t[0] for t in tasks))):
                for idx, res in rows:
                    yield cell_index, d, p, idx, res


def run_sweep(cfg: SweepConfig, workers: int = 1):
    """Run the sweep; yields SweepRecord rows in deterministic order, those
    of ``cfg.methods`` in ``METHODS`` order."""
    written = [(m, _SLOT[m]) for m in METHODS if m in cfg.methods]
    for _, d, p, idx, (n_clustered, radius2, results) in _iter_sample_evals(cfg, workers):
        growth_db = scaled_to_db(float(radius2) / 2.0)
        for m, slot in written:
            value, visited, extra, _ = results[slot]
            yield SweepRecord(d, p, idx, m, value is not None,
                              None if value is None else scaled_to_db(value),
                              visited, extra, growth_db, n_clustered)


class _Welford:
    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x: float):
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        return math.sqrt(self.m2 / self.n) if self.n else 0.0


class AggregateRow(NamedTuple):
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


def _below_threshold(r: SweepRecord, eps_scaled: int) -> bool:
    """The one below-threshold rule: a defined gap at most the scaled
    threshold, compared as exact integers like ``rule_violations`` and the
    bounded search.  A CSV gap round-trips to its scaled value exactly."""
    return r.defined and db_to_scaled(r.gap_db) <= eps_scaled


def aggregate(records, samples_per_cell: int, epsilon_max_db: float):
    """Single-pass aggregation of sweep records.

    Pass the sweep's own ``samples`` and ``epsilon_max_db`` (a sweep
    CSV's header carries its config): the bounded and extra gaps are
    undefined beyond the threshold the sweep ran with, so no other
    threshold reads every method alike.
    Visited/extra statistics exclude empty-syndrome records (those with
    nodes_in_clusters == 0); the below-threshold fraction counts every
    configured sample, so skipped empty samples act as above-threshold.
    """
    eps_scaled = db_to_scaled(epsilon_max_db)
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
        if _below_threshold(r, eps_scaled):
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


def rule_violations(gaps, eps: int) -> list:
    """Names of the consistency rules one sample's gaps break.

    ``gaps`` is the (cluster, bounded, extra, extra_cg) tuple of scaled
    gap values, None where undefined; ``eps`` is the scaled threshold.
    Comparisons are exact integer ones.
    """
    g_c, g_b, g_e, g_cg = gaps
    broken = []
    if g_c <= eps:
        if g_b != g_c:
            broken.append("bounded_agrees_with_cluster_below_threshold")
        if g_e is None:
            broken.append("extra_defined_when_cluster_below_threshold")
        if g_cg != g_c:
            broken.append("extra_cg_equals_cluster_below_threshold")
    elif g_b is not None:
        broken.append("bounded_agrees_with_cluster_below_threshold")
    if g_e is not None and g_e > g_c:
        broken.append("extra_not_above_cluster")
    if g_cg is not None and g_cg < g_c:
        broken.append("cluster_not_above_extra_cg")
    return broken


class SwitchCheck(NamedTuple):
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


def switch_check(records, threshold: float, epsilon_max_db: float,
                 attempted: int, method: str | None = None) -> SwitchCheck:
    """Compare the measured below-threshold rate against a budget.

    The rate is the fraction of samples with a defined gap at most the
    sweep's ``epsilon_max_db``; ``threshold`` is the rate budget above
    which a slow fallback decoder could no longer keep up.  ``attempted``
    is the denominator: the samples attempted for the checked method
    (samples per cell times cells), which counts the empty samples a sweep
    skipped.  A method with no record has rate 0.  A ``threshold`` outside
    [0, 1], NaN included, raises ConfigError.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must be a rate in [0, 1], got {threshold!r}")
    rows = [r for r in records if method is None or r.method == method]
    if attempted < max(len(rows), 1):
        raise ValueError(f"{len(rows)} records but only {attempted} samples attempted")
    eps_scaled = db_to_scaled(epsilon_max_db)
    k = sum(1 for r in rows if _below_threshold(r, eps_scaled))
    rate = k / attempted
    low, high = wilson_interval(k, attempted)
    return SwitchCheck(measured_rate=rate, user_threshold=threshold,
                       verdict="pass" if rate <= threshold else "fail",
                       n=attempted, wilson_low=low, wilson_high=high)


# ---------------------------------------------------------------------------
# Emission

class _FloatText(dict):
    """``repr(float(x))`` per distinct value, None as the empty field.

    Equal values print alike, except 0.0 and -0.0: those are formatted on
    every use and never stored.
    """

    def __missing__(self, x):
        text = repr(float(x))
        if x:
            self[x] = text
        return text


def list_parser(kind):
    """The parser of comma-separated ``kind`` values into a tuple, for a
    tuple field of ``SweepConfig`` in a sweep header or an option."""
    def parse(text):
        return tuple(kind(x) for x in text.split(","))
    parse.__name__ = f"{kind.__name__} list"     # argparse names it in errors
    return parse


def _int_or_none(text):
    return None if text == "None" else int(text)


def _true_or_false(text):
    if text not in ("True", "False"):
        raise ValueError("must be True or False")
    return text == "True"


# The parser of a header value, by the type of its SweepConfig field.
_PARSE = {int: int, float: float, int | None: _int_or_none, bool: _true_or_false,
          tuple[int, ...]: list_parser(int), tuple[float, ...]: list_parser(float),
          tuple[str, ...]: list_parser(str)}


def sweep_metadata(cfg: SweepConfig) -> dict:
    """The ``# key=value`` header of a sweep's CSV: each ``SweepConfig``
    field under its name, a tuple as comma-separated values.  Every rate
    read back from the records takes its denominator and threshold from
    it, and ``methods`` tells a method with no record from one not swept."""
    return {k: ",".join(map(str, v)) if isinstance(v, tuple) else v
            for k, v in cfg._asdict().items()}


class _CsvField(dict):
    """A string field as ``csv.writer`` writes it between two others, per
    distinct value: quoted only where it holds a comma, quote or line
    break, with its quotes doubled."""

    def __missing__(self, s):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow((s, ""))
        text = self[s] = buf.getvalue()[:-2]  # less the "," and "\n"
        return text


def records_to_csv(records, metadata: dict | None = None) -> str:
    """The ``# key=value`` lines of ``metadata`` in key order, ``CSV_HEADER``,
    one row per record and, after a header, the closing ``# records=<n>``.
    With ``sweep_metadata(cfg)`` it is the sweep's file, which
    ``read_sweep`` reads; with no ``metadata`` it writes the rows only,
    which ``read_sweep`` refuses (``perfbench`` hashes that text)."""
    lines = [f"# {k}={metadata[k]}\n" for k in sorted(metadata or ())]
    lines.append(CSV_HEADER + "\n")
    text = _FloatText({None: ""})
    field = _CsvField()
    rows = [f"{d},{text[p]},{sample},{field[method]},{'true' if defined else 'false'},"
            f"{text[gap_db]},{visited},{extra},{text[growth_db]},{n_clustered}\n"
            for (d, p, sample, method, defined, gap_db, visited, extra, growth_db,
                 n_clustered) in records]
    lines += rows
    if metadata:
        lines.append(f"# records={len(rows)}\n")
    return "".join(lines)


class SweepFile(NamedTuple):
    """A sweep's CSV read back by ``read_sweep``: the sweep's config, which
    every rate takes its denominator and threshold from, and its records."""
    config: SweepConfig
    records: list


def read_sweep(text: str) -> SweepFile:
    """Inverse of ``emit(records, path, cfg)``: the config and
    records of the CSV text of one whole sweep.  Read the file first.

    The ``#`` lines before the CSV header give each ``SweepConfig`` field
    once, and the config must pass ``validate``.  A row needs a (d, p) of
    ``cfg.cells()``, a method of ``cfg.methods``, a sample in
    ``range(cfg.samples)``, fields that parse, a ``defined`` flag that
    agrees with its finite gap, a finite growth, and a (d, p, sample,
    method) of no earlier row.  The last non-empty line must be
    ``# records=<n>``, n the rows read, so a file cut at a line, short of
    a row or joined to another is refused.  Each refusal raises
    ValueError naming the line, or the header key it misses.
    """
    lines = text.rstrip().splitlines()
    types = SweepConfig.__annotations__
    values = {}
    for lineno, line in enumerate(lines, 1):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key not in types:
                raise ValueError(f"line {lineno}: '# {key}=' is not a SweepConfig field")
            if key in values:
                raise ValueError(f"line {lineno}: a second '# {key}=' line")
            try:
                values[key] = _PARSE[types[key]](value)
            except ValueError as err:
                raise ValueError(f"line {lineno}: # {key}={value}: {err}") from None
        elif line:
            break
    else:
        raise ValueError(f"line {len(lines) + 1}: no CSV header")
    if line != CSV_HEADER:
        raise ValueError(f"line {lineno}: unexpected CSV header: {line!r}")
    for key in types:
        if key not in values:
            raise ValueError(f"no '# {key}=' line; write it with `softgap sweep`")
    cfg = SweepConfig(**values)
    cfg.validate()

    cells = {(d, p) for _, d, p in cfg.cells()}
    records = []
    seen = set()  # (d, p, sample, method) of the rows read
    for lineno, line in enumerate(lines[lineno:-1], lineno + 1):
        if not line:
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: a '#' line that is not the last line")
        row = next(csv.reader([line]))
        if len(row) != len(SweepRecord._fields):
            raise ValueError(f"line {lineno}: {len(row)} fields, "
                             f"expected {len(SweepRecord._fields)}")
        if row[3] not in cfg.methods:
            raise ValueError(f"line {lineno}: method {row[3]!r} is not among "
                             f"# methods={','.join(cfg.methods)}")
        if row[4] not in ("true", "false"):
            raise ValueError(f"line {lineno}: defined must be true or false, got {row[4]!r}")
        defined = row[4] == "true"
        if defined != (row[5] != ""):
            raise ValueError(f"line {lineno}: defined is {row[4]} but gap_db is "
                             f"{repr(row[5]) if row[5] else 'empty'}")
        try:
            r = SweepRecord(
                d=int(row[0]), p=float(row[1]), sample=int(row[2]), method=row[3],
                defined=defined, gap_db=float(row[5]) if defined else None,
                visited_nodes=int(row[6]), extra_nodes=int(row[7]),
                max_growth_db=float(row[8]), nodes_in_clusters=int(row[9]))
        except ValueError as err:
            raise ValueError(f"line {lineno}: {err}") from None
        for name in ("gap_db", "max_growth_db"):
            value = getattr(r, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"line {lineno}: {name} must be finite, got {value!r}")
        if (r.d, r.p) not in cells:
            raise ValueError(f"line {lineno}: d={r.d} p={r.p!r} is not a cell of this sweep")
        if r.sample not in range(cfg.samples):
            raise ValueError(f"line {lineno}: sample {r.sample} is outside "
                             f"0..{cfg.samples - 1} (samples={cfg.samples})")
        if r[:4] in seen:
            raise ValueError(f"line {lineno}: repeats d={r.d} p={r.p!r} "
                             f"sample={r.sample} method={r.method} of an earlier row")
        seen.add(r[:4])
        records.append(r)
    if lines[-1] != f"# records={len(records)}":
        raise ValueError(f"line {len(lines)}: the last line must be "
                         f"'# records={len(records)}', got {lines[-1]!r}")
    return SweepFile(cfg, records)


def emit(records, path, cfg: SweepConfig) -> None:
    """Write the records of the sweep ``cfg`` ran to ``path`` as its CSV,
    with the sweep's header (``sweep_metadata``), which ``read_sweep``
    reads back."""
    text = records_to_csv(records, sweep_metadata(cfg))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
