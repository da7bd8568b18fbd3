import itertools
import math
import random

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

from oracles import oracle_flipped_edges, oracle_syndrome, oracle_words, random_rough_graph


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


def rough_graph_with_probs(rng):
    """A ``random_rough_graph`` (parallel, zero-weight and boundary-boundary
    edges) with a probability on every edge: p = 0.5 where the weight is 0,
    a random p with its own weight elsewhere, so most have several
    distinct p."""
    g = random_rough_graph(rng)
    edges = []
    for e in g.edges:
        p = 0.5 if e.weight == 0 else rng.choice((0.05, 0.2, 0.4))
        edges.append(Edge(e.u, e.v, weight_from_prob(p), p))
    return DecodingGraph(g.num_nodes, g.boundaries, edges)


def fixed_words(words):
    """A stand-in for ``sampling._words`` that yields ``words``, then words
    that skip every remaining edge."""
    def stream(seed):
        yield from words
        while True:
            yield 2**64 - 1
    return stream


class TestStream:
    def test_words_match_the_documented_stream(self):
        # Past the first digest's eight words, at both ends of the index
        # range, and with seeds that agree mod 2**64.
        rng = random.Random(4099)
        indices = [0, 1, 2**64 - 1, 2**64, 2**127, 2**128 - 1]
        indices += [rng.randrange(2**128) for _ in range(20)]
        for seed in (0, 7, 2**63 + 11, 2**64 - 1, -1, 7 + 2**64):
            for idx in indices:
                got = list(itertools.islice(sampling._words(SeedSpec(seed, idx)), 19))
                assert got == oracle_words(seed, idx, 19), (seed, idx)
        assert oracle_words(-1, 5, 9) == oracle_words(2**64 - 1, 5, 9)
        assert oracle_words(7, 5, 9) != oracle_words(7, 6, 9)

    def test_flips_match_the_oracle_on_the_pinned_graphs(self):
        graphs = [build_phenomenological(d, r, p)
                  for d, r, p in ((3, 3, 0.02), (5, 5, 0.001), (5, 2, 0.3), (3, 1, 0.5))]
        rng = random.Random(6151)
        indices = [0, 1, 2, 2**64 - 1, 2**64, 2**127, 2**128 - 1]
        indices += [rng.randrange(2**128) for _ in range(40)]
        seen = 0
        for seed in (7, 2**63 + 11, -1):
            for idx in indices:
                for g in graphs:
                    got = sampling._flipped(g, SeedSpec(seed, idx))
                    assert got == sorted(oracle_flipped_edges(g, seed, idx)), (seed, idx)
                    assert sample_errors(g, SeedSpec(seed, idx)).flipped_edges == set(got)
                    seen += len(got)
        assert seen > 1000

    def test_flips_match_the_oracle_with_several_probabilities(self):
        rng = random.Random(5309)
        graphs = [rough_graph_with_probs(rng) for _ in range(40)]
        assert sum(len({e.prob for e in g.edges}) >= 3 for g in graphs) >= 20
        for i, g in enumerate(graphs):
            for idx in range(30):
                seed = SeedSpec(i, rng.randrange(2**70))
                got = sampling._flipped(g, seed)
                assert got == sorted(oracle_flipped_edges(g, *seed)), (i, seed)

    def test_raw_draws_flip_the_oracle_edges_at_the_extremes(self):
        # p from 1e-9 up to 0.5, the largest key and the last index.  p = 0
        # and tiny p at the front: an edge that never flips takes no word,
        # and a group that flips nothing takes exactly one.
        graphs = [chain_graph([0.0, 1e-9, 2**-53, 0.001, 0.3, 0.5 - 2**-54, 0.5,
                               0.0, 0.3, 1e-9, 0.5]),
                  chain_graph([0.5] * 70 + [0.2] * 9), build_phenomenological(5, 3, 0.01)]
        rng = random.Random(6173)
        indices = [0, 1, 2**64 - 1, 2**64, 2**127, 2**128 - 1]
        indices += [rng.randrange(2**128) for _ in range(60)]
        for seed in (0, 2**64 - 1, -1, 12345):
            for idx in indices:
                for g in graphs:
                    got = sampling._flipped(g, SeedSpec(seed, idx))
                    assert got == sorted(oracle_flipped_edges(g, seed, idx)), (seed, idx)

    def test_draw_at_its_threshold_does_not_flip(self, monkeypatch):
        # bisect_right: a word equal to F_k skips k edges, so edge k - 1
        # does not flip and edge k does; one less skips k - 1.  After a
        # flip, the next skip starts at the edge after it; a skip past the
        # group's end flips nothing more.
        g = chain_graph([0.3] * 10)
        (edges, table), = sampling._skip_plan(g)
        assert edges == list(range(10)) and len(table) == 10
        for k in range(1, 11):
            for word, first in ((table[k - 1], k), (table[k - 1] - 1, k - 1)):
                monkeypatch.setattr(sampling, "_words", fixed_words([word]))
                expect = [first] if first < 10 else []
                assert sampling._flipped(g, SeedSpec(0, 0)) == expect, (k, word)
        for words, expect in (([0, 0, 0], [0, 1, 2]), ([0, table[0], table[5]], [0, 2, 9]),
                              ([table[8]], [9]), ([table[8], 0], [9]), ([2**64 - 1], [])):
            monkeypatch.setattr(sampling, "_words", fixed_words(words))
            assert sampling._flipped(g, SeedSpec(0, 0)) == expect, words

    def test_each_group_takes_its_own_words_in_order_of_first_appearance(self, monkeypatch):
        # Groups p = 0.4 (edges 0, 2, 4), seen first, then p = 0.2 (edges 1,
        # 3); the zero edge takes no word.
        g = chain_graph([0.4, 0.2, 0.4, 0.2, 0.4, 0.0])
        plan = sampling._skip_plan(g)
        assert [edges for edges, _ in plan] == [[0, 2, 4], [1, 3]]
        (_, t4), _ = plan
        monkeypatch.setattr(sampling, "_words", fixed_words([t4[1], 2**64 - 1, 0, 0]))
        assert sampling._flipped(g, SeedSpec(0, 0)) == [1, 3, 4]

    def test_skip_table_stops_at_the_group_size_or_below_two_to_the_64(self):
        # For p = 1/2 the survival 2**-k is exact to k = 53, and at k = 54
        # 1 - 2**-54 rounds to 1: its entry would be 2**64, which no word
        # reaches, so the table ends before it.
        assert sampling._skip_table(0.5, 100) == [2**64 - 2**(64 - k) for k in range(1, 54)]
        assert sampling._skip_table(0.5, 3) == [2**63, 3 * 2**62, 7 * 2**61]
        table = sampling._skip_table(0.001, 5000)
        assert len(table) == 5000 and table == sorted(table) and table[-1] < 2**64
        assert table[0] == int((1.0 - (1.0 - 0.001)) * 2**64)

    def test_rejects_index_outside_the_counter(self):
        for g in (chain_graph([0.5]), chain_graph([0.0])):
            for idx in (-1, 2**128, 2**130):
                with pytest.raises(ValueError):
                    oracle_flipped_edges(g, 1, idx)
                with pytest.raises(ValueError):
                    sample_errors(g, SeedSpec(1, idx))
                with pytest.raises(ValueError):
                    sample_syndrome(g, SeedSpec(1, idx))
        g = chain_graph([0.5])
        for idx in (0, 2**128 - 1):
            assert sample_errors(g, SeedSpec(1, idx)).flipped_edges == \
                oracle_flipped_edges(g, 1, idx)

    def test_per_edge_flip_frequency(self):
        # 10^4 samples of 24 edges, 2.4 * 10^5 edge draws: each edge's flip
        # count, and the joint count of each pair of same-p edges eight
        # apart, lies within five standard deviations of its binomial mean.
        probs = [0.5, 0.01, 0.2, 0.05, 0.5, 0.01, 0.2, 0.05] * 3
        g = chain_graph(probs)
        n = 10_000
        flips = [0] * len(probs)
        pairs = [0] * len(probs)
        for idx in range(n):
            got = sample_errors(g, SeedSpec(2024, idx)).flipped_edges
            for i in got:
                flips[i] += 1
                if i + 8 in got:
                    pairs[i] += 1
        for i, p in enumerate(probs):
            assert abs(flips[i] - n * p) <= 5 * math.sqrt(n * p * (1 - p)) + 1, (i, p, flips[i])
            if i + 8 < len(probs):
                q = p * p
                assert abs(pairs[i] - n * q) <= 5 * math.sqrt(n * q * (1 - q)) + 1, (i, p)


class TestSampleSyndrome:
    def test_is_the_syndrome_of_the_sampled_errors(self):
        rng = random.Random(5309)
        graphs = [rough_graph_with_probs(rng) for _ in range(40)]
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
