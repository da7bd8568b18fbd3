"""Independent edge-error sampling and syndrome extraction.

Each sample's random stream is a pure function of (master_seed,
sample_index), so sweeps are reproducible regardless of execution order or
worker count: it is the stream of ``Philox(key=master_seed,
counter=sample_index << 128)``, so each sample owns a disjoint 2^128-step
block of one keyed stream.  Building a Philox and its Generator costs
more than twice the draws at d = 9, so the sampler keeps one bit
generator per 64-bit key and, per sample, only resets its counter and
clears its buffer and its uint32 carry, which is exactly the state a fresh
construction starts in.  That rewind state is kept as plain Python ints,
because the bit generator's state setter reads it word by word, and a
word read from a numpy array is a new numpy scalar.  The sampler compares
the stream's raw 64-bit draws with per-edge integer thresholds, which
flips exactly the edges whose ``Generator.random`` draws fall below p,
without making those floats.

``sample_syndrome`` goes from the flipped edges to the detection events
without building an ``ErrorPattern``, and returns one shared empty
``Syndrome`` when nothing flipped; it and ``syndrome_of`` share one parity
helper.

The value types are ``NamedTuple``s, not frozen dataclasses: a sweep makes
a ``SeedSpec`` and a ``Syndrome`` per sample, and a frozen dataclass sets
each field with one ``object.__setattr__`` call.
"""

from typing import NamedTuple

import numpy as np

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


def _flip_thresholds(g: DecodingGraph) -> np.ndarray:
    """Memoized per-edge uint64 thresholds: a raw draw below an edge's
    threshold flips it.

    ``Generator.random`` turns a raw 64-bit draw into ``(raw >> 11) * 2**-53``,
    so it lies below p exactly when ``raw >> 11 < ceil(p * 2**53)``, that is
    when ``raw < ceil(p * 2**53) << 11``.  Scaling by a power of two is exact
    and p <= 0.5 keeps the threshold within 2**63; p <= 0 never flips.
    """
    arr = getattr(g, "_flip_thresholds", None)
    if arr is None:
        raw = [e.prob for e in g.edges]
        for i, p in enumerate(raw):
            if p is None:
                e = g.edges[i]
                raise MissingProbabilityError(
                    f"edge {i} ({e.u},{e.v}) has no probability; sampling needs p on every edge")
        steps = np.ceil(np.asarray(raw, dtype=np.float64) * 2.0**53)
        arr = np.where(steps > 0, steps, 0).astype(np.uint64) << np.uint64(11)
        object.__setattr__(g, "_flip_thresholds", arr)
    return arr


_MASK64 = 2**64 - 1


class _Stream:
    """One Philox bit generator, rewound per sample from a fresh state held
    as plain Python ints."""

    def __init__(self, key: int):
        self.bits = np.random.Philox(key=key)
        self.state = state = self.bits.state   # fresh: empty buffer, no carry
        state["state"] = {k: words.tolist() for k, words in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
        self.counter = state["state"]["counter"]

    def at(self, sample_index: int) -> np.random.Philox:
        """The bit generator positioned at the start of the sample's block."""
        if not 0 <= sample_index < 2**128:
            raise ValueError(f"sample_index must be in [0, 2**128), got {sample_index}")
        counter = self.counter
        counter[2] = sample_index & _MASK64    # counter = sample_index << 128
        counter[3] = sample_index >> 64
        self.bits.state = self.state
        return self.bits


_streams = {}                                  # 64-bit key -> _Stream


def _flipped(g: DecodingGraph, seed: SeedSpec) -> list:
    """Indices of the edges the sample flips, ascending.

    Edge i flips when the stream's i-th uniform draw is below its p; the
    raw 64-bit draws are compared with ``_flip_thresholds`` instead, which
    flips exactly the same edges without converting a draw to a float.
    """
    thresholds = _flip_thresholds(g)
    key = seed.master_seed & _MASK64
    stream = _streams.get(key)
    if stream is None:
        stream = _streams[key] = _Stream(key)
    draws = stream.at(seed.sample_index).random_raw(g.num_edges)
    return (draws < thresholds).nonzero()[0].tolist()


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
