import random

import numpy as np
import pytest

from softgap import sampling
from softgap.graphs import DecodingGraph, Edge, build_phenomenological, weight_from_prob
from softgap.sampling import (
    ErrorPattern,
    MissingProbabilityError,
    SeedSpec,
    sample_errors,
    sample_syndrome,
    syndrome_of,
)

from oracles import oracle_flipped_edges, oracle_syndrome, random_rough_graph


def chain_graph(probs):
    """Path graph b1 - d0 - d1 - ... - b2 with given per-edge probabilities."""
    n = len(probs) + 1
    edges = [Edge(i, i + 1, weight_from_prob(p) if p > 0 else 1_000_000, p)
             for i, p in enumerate(probs)]
    return DecodingGraph(n, (0, n - 1), edges)


class TestSampleErrors:
    def test_zero_probability_never_flips(self):
        g = chain_graph([0.0, 0.0, 0.0])
        for idx in range(50):
            assert sample_errors(g, SeedSpec(1, idx)).flipped_edges == frozenset()

    def test_bernoulli_mean_half(self):
        g = chain_graph([0.5, 0.5])
        flips = 0
        n = 100_000
        for idx in range(n):
            if 0 in sample_errors(g, SeedSpec(3, idx)).flipped_edges:
                flips += 1
        assert abs(flips / n - 0.5) < 0.01

    def test_deterministic_per_seed_spec(self):
        g = build_phenomenological(5, 5, 0.01)
        a = sample_errors(g, SeedSpec(42, 7))
        b = sample_errors(g, SeedSpec(42, 7))
        assert a == b
        c = sample_errors(g, SeedSpec(42, 8))
        d = sample_errors(g, SeedSpec(43, 7))
        # overwhelmingly likely distinct streams
        assert len({a.flipped_edges, c.flipped_edges, d.flipped_edges}) >= 2

    def test_missing_probability(self):
        g = DecodingGraph(2, (0, 1), [Edge(0, 1, 5)])
        with pytest.raises(MissingProbabilityError):
            sample_errors(g, SeedSpec(0, 0))


class TestStream:
    def test_matches_a_fresh_philox_per_sample(self):
        # Philox makes four draws per counter step and no edge count here is
        # a multiple of 4, so a buffer or carry left from the previous
        # sample would shift the next one's draws; p = 0.5 shows the shift.
        graphs = [chain_graph([0.5] * m) for m in (1, 2, 3, 5, 7)]
        graphs += [build_phenomenological(3, 2, 0.3), build_phenomenological(5, 1, 0.1)]
        assert all(g.num_edges % 4 for g in graphs)
        rng = random.Random(4099)
        indices = [0, 1, 2, 3, 2**64 - 1, 2**64, 2**64 + 1, 2**127, 2**128 - 1]
        indices += [rng.randrange(2**64) for _ in range(60)]
        indices += [rng.randrange(2**64, 2**128) for _ in range(60)]
        seeds = (7, 2**63 + 11, 7 + 2**64, -1)        # 7 + 2**64 keys like 7
        for i, idx in enumerate(indices):
            for j, seed in enumerate(seeds):
                g = graphs[(i + j) % len(graphs)]
                got = sample_errors(g, SeedSpec(seed, idx)).flipped_edges
                assert got == oracle_flipped_edges(g, seed, idx), (seed, idx, g.num_edges)

    def test_rewind_after_a_partial_draw(self):
        # A partial draw leaves words in the buffer and a 32-bit carry; the
        # rewind must clear both and set the counter to index << 128.
        key = 2**64 - 5
        stream = sampling._Stream(key)
        for idx in (0, 3, 2**64 + 9, 2**128 - 1):
            bits = stream.at(123)
            bits.random_raw(5)
            np.random.Generator(bits).integers(2**32, dtype=np.uint32)
            state = bits.state
            assert state["buffer_pos"] < 4 and state["has_uint32"] == 1
            got = stream.at(idx)
            fresh = np.random.Philox(key=key, counter=idx << 128)
            for name in ("buffer_pos", "has_uint32", "uinteger"):
                assert got.state[name] == fresh.state[name]
            assert got.random_raw(7).tolist() == fresh.random_raw(7).tolist()
            ints = [np.random.Generator(b).integers(2**32, size=3, dtype=np.uint32)
                    for b in (got, fresh)]
            assert ints[0].tolist() == ints[1].tolist()

    def test_rejects_index_outside_the_counter(self):
        g = chain_graph([0.5])
        for idx in (-1, 2**128):
            with pytest.raises(ValueError):
                oracle_flipped_edges(g, 1, idx)
            with pytest.raises(ValueError):
                sample_errors(g, SeedSpec(1, idx))
        assert sample_errors(g, SeedSpec(1, 5)).flipped_edges == oracle_flipped_edges(g, 1, 5)

    def test_raw_draws_flip_the_oracle_edges_at_the_extremes(self):
        # p from 1e-9 up to 0.5, the largest key and the last counter block:
        # the integer thresholds flip what the float draws flip.
        graphs = [chain_graph([1e-9, 2**-53, 0.001, 0.3, 0.5 - 2**-54, 0.5, 0.0]),
                  chain_graph([0.5] * 9), build_phenomenological(5, 3, 0.01)]
        rng = random.Random(6173)
        indices = [0, 1, 2**64 - 1, 2**64, 2**127, 2**128 - 1]
        indices += [rng.randrange(2**128) for _ in range(250)]
        for seed in (0, 2**64 - 1, -1, 12345):
            for idx in indices:
                for g in graphs:
                    got = sample_errors(g, SeedSpec(seed, idx)).flipped_edges
                    assert got == oracle_flipped_edges(g, seed, idx), (seed, idx, g.num_edges)

    def test_thresholds_match_the_float_draw(self):
        # Generator.random makes (raw >> 11) * 2**-53 of a raw draw, so a raw
        # draw must fall below an edge's threshold exactly when that float
        # falls below p, on either side of every threshold.
        probs = [1e-9, 2**-53, 2**-54, 1 / 3, 0.001, 0.5 - 2**-54, 0.5, 0.0]
        thresholds = sampling._flip_thresholds(chain_graph(probs)).tolist()
        rng = random.Random(2053)
        for p, t in zip(probs, thresholds):
            raws = {0, 2**64 - 1, t - 2048, t - 1, t, t + 1, t + 2047, t + 2048}
            raws |= {rng.randrange(2**64) for _ in range(200)}
            raws |= {t + rng.randrange(-2**20, 2**20) for _ in range(200)}
            for raw in raws:
                if 0 <= raw < 2**64:
                    assert ((raw >> 11) * 2.0**-53 < p) == (raw < t), (p, raw)

    def test_draw_at_its_threshold_does_not_flip(self):
        # A raw draw whose low 11 bits are 0 equals the threshold of the p
        # its float draw equals, and the float is not below that p: the
        # edge must not flip.  One step of 2**-53 higher, it must.
        seed, idx = 99, 5
        raws = np.random.Philox(key=seed, counter=idx << 128).random_raw(20_000).tolist()
        j = next(i for i, r in enumerate(raws) if r % 2048 == 0 and 0 < r < 2**63)
        for step, flips in ((0, False), (1, True)):
            probs = [0.0] * (j + 1)
            probs[j] = ((raws[j] >> 11) + step) * 2.0**-53
            g = chain_graph(probs)
            assert sampling._flip_thresholds(g).tolist()[j] == raws[j] + step * 2048
            got = sample_errors(g, SeedSpec(seed, idx)).flipped_edges
            assert got == oracle_flipped_edges(g, seed, idx) == ({j} if flips else set())


class TestSampleSyndrome:
    @staticmethod
    def rough_graph_with_probs(rng):
        """A ``random_rough_graph`` (parallel, zero-weight and
        boundary-boundary edges) with a probability on every edge: p = 0.5
        where the weight is 0, a random p with its own weight elsewhere."""
        g = random_rough_graph(rng)
        edges = []
        for e in g.edges:
            p = 0.5 if e.weight == 0 else rng.choice((0.05, 0.2, 0.4))
            edges.append(Edge(e.u, e.v, weight_from_prob(p), p))
        return DecodingGraph(g.num_nodes, g.boundaries, edges)

    def test_is_the_syndrome_of_the_sampled_errors(self):
        rng = random.Random(5309)
        graphs = [self.rough_graph_with_probs(rng) for _ in range(40)]
        assert any(g.is_boundary[e.u] and g.is_boundary[e.v]
                   for g in graphs for e in g.edges)
        graphs += [build_phenomenological(d, 2, p)
                   for d in (3, 5) for p in (1e-9, 0.001, 0.5)]
        seen = {"empty": 0, "events": 0}
        for i, g in enumerate(graphs):
            for idx in range(60):
                seed = SeedSpec(i, rng.randrange(2**70))
                got = sample_syndrome(g, seed)
                flips = sample_errors(g, seed).flipped_edges
                assert got == syndrome_of(g, ErrorPattern(flips)), (i, seed)
                assert got.events == oracle_syndrome(g, flips), (i, seed)
                seen["events" if got.events else "empty"] += 1
        assert sum(seen.values()) >= 2000
        assert min(seen.values()) >= 200, seen

    def test_empty_sample_returns_the_shared_empty_syndrome(self):
        g = build_phenomenological(3, 1, 1e-9)
        for idx in range(20):
            assert sample_syndrome(g, SeedSpec(2, idx)) is sampling._NO_EVENTS
        assert sampling._NO_EVENTS.events == frozenset()


class TestSyndromeOf:
    def test_empty(self):
        g = build_phenomenological(3, 1, 0.001)
        assert syndrome_of(g, ErrorPattern(frozenset())).events == frozenset()

    def test_single_interior_edge(self):
        g = build_phenomenological(3, 1, 0.001)
        interior = next(i for i, e in enumerate(g.edges)
                        if not g.is_boundary[e.u] and not g.is_boundary[e.v])
        e = g.edges[interior]
        s = syndrome_of(g, ErrorPattern(frozenset({interior})))
        assert s.events == frozenset({e.u, e.v})

    def test_single_half_edge(self):
        g = build_phenomenological(3, 1, 0.001)
        half = next(i for i, e in enumerate(g.edges)
                    if g.is_boundary[e.u] or g.is_boundary[e.v])
        e = g.edges[half]
        det = e.v if g.is_boundary[e.u] else e.u
        s = syndrome_of(g, ErrorPattern(frozenset({half})))
        assert s.events == frozenset({det})

    def test_matches_parity_oracle(self):
        g = build_phenomenological(5, 3, 0.01)
        rng = random.Random(11)
        for _ in range(200):
            flips = frozenset(rng.sample(range(g.num_edges), rng.randrange(0, 9)))
            assert syndrome_of(g, ErrorPattern(flips)).events == oracle_syndrome(g, flips)

    def test_linearity_under_symmetric_difference(self):
        g = build_phenomenological(5, 3, 0.01)
        rng = random.Random(17)
        for _ in range(200):
            e1 = frozenset(rng.sample(range(g.num_edges), rng.randrange(0, 7)))
            e2 = frozenset(rng.sample(range(g.num_edges), rng.randrange(0, 7)))
            s1 = syndrome_of(g, ErrorPattern(e1)).events
            s2 = syndrome_of(g, ErrorPattern(e2)).events
            s12 = syndrome_of(g, ErrorPattern(e1 ^ e2)).events
            assert s12 == s1 ^ s2

    def test_even_event_count_without_half_edges(self):
        g = build_phenomenological(5, 3, 0.01)
        interior = [i for i, e in enumerate(g.edges)
                    if not g.is_boundary[e.u] and not g.is_boundary[e.v]]
        rng = random.Random(23)
        for _ in range(100):
            flips = frozenset(rng.sample(interior, rng.randrange(0, 10)))
            events = syndrome_of(g, ErrorPattern(flips)).events
            assert len(events) % 2 == 0

    def test_boundaries_never_appear(self):
        g = build_phenomenological(3, 1, 0.01)
        all_edges = frozenset(range(g.num_edges))
        events = syndrome_of(g, ErrorPattern(all_edges)).events
        for b in g.boundaries:
            assert b not in events
