"""Independent edge-error sampling and syndrome extraction.

Each sample's random stream is a pure function of (master_seed,
sample_index), so sweeps are reproducible regardless of execution order or
worker count.  Word j of sample i under master seed s is the j-th
little-endian uint64 of the 64-byte blake2b digests of the messages
``i (16 bytes LE) || b (8 bytes LE)`` for b = 0, 1, ..., each keyed by
``s mod 2**64`` (8 bytes LE).  So every index in [0, 2**128) owns its own
stream, and no state is carried from one sample to the next.

The sampler draws flips, not edges.  It groups the edges by distinct
p > 0, in order of first appearance, and walks each group by geometric
skips: a word w skips the next ``bisect_right(F, w)`` edges of the group,
where ``F[k - 1] = int((1 - (1-p)**k) * 2**64)``, and the edge after the
skip flips.  So each edge flips with probability p, independently, and a
sample costs one word per flip plus one per group, not one per edge.  The
survival (1-p)**k is built by repeated float multiplication, and the table
stops at the group's size or at its first entry that no word reaches;
``_skip_plan`` memoizes the groups and tables on the graph.

``sample_syndrome`` goes from the flipped edges to the detection events
without building an ``ErrorPattern``, and returns one shared empty
``Syndrome`` when nothing flipped; it and ``syndrome_of`` share one parity
helper.

The value types are ``NamedTuple``s (README, "Value types").
"""

import struct
from bisect import bisect_right
from hashlib import blake2b
from itertools import count
from typing import NamedTuple

from .graphs import DecodingGraph


class MissingProbabilityError(ValueError):
    """An edge has no error probability, so it cannot be sampled."""


class SeedSpec(NamedTuple):
    """Addresses one sample inside a master-seeded stream."""
    master_seed: int
    sample_index: int


class ErrorPattern(NamedTuple):
    """Set of flipped edge indices."""
    flipped_edges: frozenset


class Syndrome(NamedTuple):
    """Set of detector ids with odd incident flipped-edge count.

    Boundary nodes never appear; they absorb parity.
    """
    events: frozenset


_TWO64 = 2**64
_WORDS = struct.Struct("<8Q").unpack          # one digest -> its eight words


def _words(seed: SeedSpec):
    """The sample's stream of 64-bit words, one digest of eight at a time."""
    key = (seed.master_seed % _TWO64).to_bytes(8, "little")
    prefix = seed.sample_index.to_bytes(16, "little")
    for block in count():
        yield from _WORDS(blake2b(prefix + block.to_bytes(8, "little"), key=key).digest())


def _skip_table(p: float, size: int) -> list:
    """``F[k - 1] = int((1 - (1-p)**k) * 2**64)`` for k = 1, 2, ...: a word
    w skips ``bisect_right(F, w)`` edges.  Stops after ``size`` entries, or
    before the first entry of 2**64, which no word reaches."""
    q = 1.0 - p
    survival = 1.0
    table = []
    while len(table) < size:
        survival *= q
        f = int((1.0 - survival) * _TWO64)
        if f >= _TWO64:
            break
        table.append(f)
    return table


def _skip_plan(g: DecodingGraph) -> tuple:
    """Memoized (edge indices, skip table) of each distinct p > 0, in order
    of first appearance; an edge with p <= 0 never flips."""
    plan = getattr(g, "_skip_plan", None)
    if plan is None:
        groups = {}
        for i, e in enumerate(g.edges):
            if e.prob is None:
                raise MissingProbabilityError(
                    f"edge {i} ({e.u},{e.v}) has no probability; sampling needs p on every edge")
            if e.prob > 0:
                groups.setdefault(e.prob, []).append(i)
        plan = tuple((edges, _skip_table(p, len(edges))) for p, edges in groups.items())
        object.__setattr__(g, "_skip_plan", plan)
    return plan


def _flipped(g: DecodingGraph, seed: SeedSpec) -> list:
    """Indices of the edges the sample flips, ascending."""
    if not 0 <= seed.sample_index < 2**128:
        raise ValueError(f"sample_index must be in [0, 2**128), got {seed.sample_index}")
    plan = _skip_plan(g)
    words = _words(seed)
    flipped = []
    for edges, table in plan:
        n = len(edges)
        pos = bisect_right(table, next(words))
        while pos < n:
            flipped.append(edges[pos])
            pos += 1 + bisect_right(table, next(words))
    flipped.sort()
    return flipped


def sample_errors(g: DecodingGraph, seed: SeedSpec) -> ErrorPattern:
    """Flip each edge independently with its own probability."""
    return ErrorPattern(frozenset(_flipped(g, seed)))


def _odd_detectors(g: DecodingGraph, flipped) -> frozenset:
    """Detectors with an odd number of endpoints among the flipped edges."""
    odd = set()
    edges = g.edges
    for i in flipped:
        u, v, _, _ = edges[i]
        odd ^= {u, v}
    odd.difference_update(g.boundaries)
    return frozenset(odd)


def syndrome_of(g: DecodingGraph, pattern: ErrorPattern) -> Syndrome:
    """Detection events produced by an error pattern (parity per detector)."""
    return Syndrome(_odd_detectors(g, pattern.flipped_edges))


_NO_EVENTS = Syndrome(frozenset())


def sample_syndrome(g: DecodingGraph, seed: SeedSpec) -> Syndrome:
    """The syndrome of ``sample_errors(g, seed)``, without building the
    error pattern; one shared empty ``Syndrome`` when no edge flipped."""
    flipped = _flipped(g, seed)
    if not flipped:
        return _NO_EVENTS
    return Syndrome(_odd_detectors(g, flipped))
