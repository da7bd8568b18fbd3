"""Independent edge-error sampling and syndrome extraction.

Each sample's random stream is a pure function of (master_seed,
sample_index), so sweeps are reproducible regardless of execution order or
worker count.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import DecodingGraph


class MissingProbabilityError(ValueError):
    """An edge has no error probability, so it cannot be sampled."""


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one sample inside a master-seeded stream."""
    master_seed: int
    sample_index: int

    def generator(self) -> np.random.Generator:
        # Counter-based: Philox keyed by the master seed, with the sample
        # index placed in the high counter word.  Each sample owns a
        # disjoint 2^128-step block of the stream.
        bits = np.random.Philox(key=self.master_seed & (2**64 - 1),
                                counter=self.sample_index << 128)
        return np.random.Generator(bits)


@dataclass(frozen=True)
class ErrorPattern:
    """Set of flipped edge indices."""
    flipped_edges: frozenset


@dataclass(frozen=True)
class Syndrome:
    """Set of detector ids with odd incident flipped-edge count.

    Boundary nodes never appear; they absorb parity.
    """
    events: frozenset


def _prob_array(g: DecodingGraph) -> np.ndarray:
    arr = getattr(g, "_prob_array", None)
    if arr is None:
        raw = [e.prob for e in g.edges]
        for i, p in enumerate(raw):
            if p is None:
                e = g.edges[i]
                raise MissingProbabilityError(
                    f"edge {i} ({e.u},{e.v}) has no probability; sampling needs p on every edge")
        arr = np.asarray(raw, dtype=np.float64)
        object.__setattr__(g, "_prob_array", arr)
    return arr


def sample_errors(g: DecodingGraph, seed: SeedSpec) -> ErrorPattern:
    """Flip each edge independently with its own probability."""
    probs = _prob_array(g)
    rng = seed.generator()
    draws = rng.random(g.num_edges)
    flipped = np.flatnonzero(draws < probs)
    return ErrorPattern(frozenset(int(i) for i in flipped))


def syndrome_of(g: DecodingGraph, pattern: ErrorPattern) -> Syndrome:
    """Detection events produced by an error pattern (parity per detector)."""
    odd = set()
    edges = g.edges
    for i in pattern.flipped_edges:
        e = edges[i]
        odd ^= {e.u, e.v}
    for b in g.boundaries:
        odd.discard(b)
    return Syndrome(frozenset(odd))


def sample_syndrome(g: DecodingGraph, seed: SeedSpec) -> Syndrome:
    """Convenience: sample errors and return the resulting syndrome."""
    return syndrome_of(g, sample_errors(g, seed))
