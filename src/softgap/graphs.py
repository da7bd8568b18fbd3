"""Decoding graphs with inequivalent boundary nodes.

A decoding graph is a weighted graph whose nodes are detectors plus two or
more virtual boundary nodes, and whose edges are candidate physical errors.
Edge weights are log-likelihood weights ln((1-p)/p) stored as scaled
integers so that every comparison downstream is exact.
"""

import heapq
import math
from dataclasses import dataclass

# Global weight scale: one natural-log unit equals 2 * WEIGHT_SCALE scaled
# units.  The factor 2 keeps half-weights (growth radii) on an exact grid.
WEIGHT_SCALE = 10**6
SCALED_PER_NAT = 2 * WEIGHT_SCALE

_LN10 = math.log(10.0)


class InvalidProbabilityError(ValueError):
    """Edge probability outside (0, 0.5]."""


class InvalidParameterError(ValueError):
    """Bad construction parameter (even distance, too-small distance, ...)."""


class GraphFormatError(ValueError):
    """Malformed graph file; message names the offending line number."""


def weight_from_prob(p_e: float) -> int:
    """Scaled integer weight ln((1-p)/p) * SCALED_PER_NAT for an error probability.

    Strictly decreasing on (0, 0.5]; p_e = 0.5 maps to weight 0.
    """
    if not (0.0 < p_e <= 0.5):
        raise InvalidProbabilityError(f"edge probability must be in (0, 0.5], got {p_e}")
    return round(math.log((1.0 - p_e) / p_e) * SCALED_PER_NAT)


def nat_to_db(w_nat: float) -> float:
    """Convert a natural-log weight to decibels: dB = 10 * w / ln(10)."""
    return 10.0 * w_nat / _LN10

def db_to_nat(x_db: float) -> float:
    """Inverse of nat_to_db."""
    return x_db * _LN10 / 10.0

def scaled_to_nat(scaled: float) -> float:
    return scaled / SCALED_PER_NAT

def nat_to_scaled(w_nat: float) -> int:
    return round(w_nat * SCALED_PER_NAT)

def scaled_to_db(scaled: float) -> float:
    return nat_to_db(scaled / SCALED_PER_NAT)

def db_to_scaled(x_db: float) -> int:
    return round(db_to_nat(x_db) * SCALED_PER_NAT)


@dataclass(frozen=True)
class Edge:
    """Weighted edge between two node ids.

    ``weight`` is a scaled integer; ``prob`` is the underlying error
    probability when known (None for graphs loaded with explicit weights).
    A half-edge is an ordinary edge whose second endpoint is a boundary node.
    """
    u: int
    v: int
    weight: int
    prob: float | None = None


class DecodingGraph:
    """Immutable decoding graph: detectors plus ordered boundary nodes.

    Nodes are 0-based ids; boundary ids are listed in ``boundaries``.
    ``neighbors[n]`` holds the (other_node, weight, edge_index) triple of
    every edge incident to n, and ``edge_arrays()`` the same edges as flat
    per-edge lists.  Weights are non-negative integers.
    """

    def __init__(self, num_nodes: int, boundaries, edges,
                 distance_params: tuple | None = None):
        boundaries = tuple(boundaries)
        if len(boundaries) < 2:
            raise InvalidParameterError("a decoding graph needs at least two boundaries")
        if len(set(boundaries)) != len(boundaries):
            raise InvalidParameterError("duplicate boundary ids")
        for b in boundaries:
            if not (0 <= b < num_nodes):
                raise InvalidParameterError(f"boundary id {b} out of range")
        self.num_nodes = num_nodes
        self.boundaries = boundaries
        self.distance_params = distance_params

        is_boundary = [False] * num_nodes
        for b in boundaries:
            is_boundary[b] = True
        self.is_boundary = is_boundary

        checked = []
        for i, e in enumerate(edges):
            if not (0 <= e.u < num_nodes) or not (0 <= e.v < num_nodes):
                raise InvalidParameterError(f"edge {i} references node outside graph")
            if e.u == e.v:
                raise InvalidParameterError(f"edge {i} is a self-loop")
            if not isinstance(e.weight, int):
                raise InvalidParameterError(
                    f"edge {i} ({e.u},{e.v}) has non-integer weight {e.weight!r}")
            if e.weight < 0:
                raise InvalidParameterError(f"edge {i} has negative weight")
            if e.prob is not None and e.prob > 0 and e.weight != weight_from_prob(e.prob):
                raise InvalidParameterError(
                    f"edge {i}: weight {e.weight} inconsistent with probability {e.prob}")
            checked.append(e)
        self.edges = tuple(checked)

        neighbors = [[] for _ in range(num_nodes)]
        for i, e in enumerate(self.edges):
            neighbors[e.u].append((e.v, e.weight, i))
            neighbors[e.v].append((e.u, e.weight, i))
        self.neighbors = tuple(tuple(n) for n in neighbors)

        self._check_connected()

    @property
    def num_detectors(self) -> int:
        return self.num_nodes - len(self.boundaries)

    def edge_arrays(self):
        """Memoized flat (endpoint_u, endpoint_v, weight) edge arrays."""
        cached = getattr(self, "_edge_arrays", None)
        if cached is None:
            cached = ([e.u for e in self.edges],
                      [e.v for e in self.edges],
                      [e.weight for e in self.edges])
            object.__setattr__(self, "_edge_arrays", cached)
        return cached

    def bare_distances(self):
        """Memoized shortest distances from the first boundary, plus their
        ascending (distance * num_nodes + node) keys.

        The keys order nodes by (distance, node id), the order in which a
        Dijkstra search from that boundary settles them when every edge
        weight is positive.
        """
        cached = getattr(self, "_bare_distances", None)
        if cached is None:
            n = self.num_nodes
            dist = [None] * n
            start = self.boundaries[0]
            dist[start] = 0
            heap = [(0, start)]
            neighbors = self.neighbors
            while heap:
                d, x = heapq.heappop(heap)
                if d > dist[x]:
                    continue
                for y, w, _ in neighbors[x]:
                    nd = d + w
                    old = dist[y]
                    if old is None or nd < old:
                        dist[y] = nd
                        heapq.heappush(heap, (nd, y))
            cached = (dist, sorted(d * n + x for x, d in enumerate(dist)))
            object.__setattr__(self, "_bare_distances", cached)
        return cached

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def detector_ids(self):
        return [n for n in range(self.num_nodes) if not self.is_boundary[n]]

    def _check_connected(self):
        if self.num_nodes == 0:
            return
        seen = [False] * self.num_nodes
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            x = stack.pop()
            for y, _, _ in self.neighbors[x]:
                if not seen[y]:
                    seen[y] = True
                    count += 1
                    stack.append(y)
        if count != self.num_nodes:
            raise InvalidParameterError("decoding graph is not connected")

    def __eq__(self, other):
        if not isinstance(other, DecodingGraph):
            return NotImplemented
        return (self.num_nodes == other.num_nodes
                and self.boundaries == other.boundaries
                and self.edges == other.edges)

    def __repr__(self):
        return (f"DecodingGraph(nodes={self.num_nodes}, "
                f"edges={len(self.edges)}, boundaries={self.boundaries})")


def build_phenomenological(d: int, rounds: int, p: float) -> DecodingGraph:
    """Matching graph of a rotated surface code idled for ``rounds`` rounds,
    for a single error type under uniform phenomenological noise.

    Checks are laid out in (d+1)/2 rows of d-1 columns per time slice, with
    rounds+1 slices.  Column 0 attaches to boundary b1 and column d-2 to b2
    via half-edges; horizontally adjacent checks share a space-like edge and
    the same check in consecutive slices shares a time-like edge.  Every edge
    carries probability p.  Construction is deterministic, including edge
    order.
    """
    if d < 3 or d % 2 == 0:
        raise InvalidParameterError(f"code distance must be an odd integer >= 3, got {d}")
    if rounds < 1:
        raise InvalidParameterError(f"rounds must be >= 1, got {rounds}")
    w = weight_from_prob(p)

    rows = (d + 1) // 2
    cols = d - 1
    per_slice = rows * cols           # == (d*d - 1) // 2
    slices = rounds + 1
    num_det = per_slice * slices
    b1 = num_det
    b2 = num_det + 1

    def det(row, col, t):
        return t * per_slice + row * cols + col

    edges = []
    for t in range(slices):
        for row in range(rows):
            edges.append(Edge(det(row, 0, t), b1, w, p))
            for col in range(cols - 1):
                edges.append(Edge(det(row, col, t), det(row, col + 1, t), w, p))
            edges.append(Edge(det(row, cols - 1, t), b2, w, p))
    for t in range(slices - 1):
        for row in range(rows):
            for col in range(cols):
                edges.append(Edge(det(row, col, t), det(row, col, t + 1), w, p))

    return DecodingGraph(num_det + 2, (b1, b2), edges,
                         distance_params=(d, rounds, p))


def save_graph(g: DecodingGraph, path) -> None:
    """Write a graph in the line-oriented text format (see load_graph)."""
    lines = []
    bnd = ",".join(str(b) for b in g.boundaries)
    lines.append(f"graph v1 nodes={g.num_nodes} boundaries={bnd}\n")
    for e in g.edges:
        if e.prob is not None:
            lines.append(f"edge {e.u} {e.v} p={e.prob!r}\n")
        else:
            lines.append(f"edge {e.u} {e.v} w={e.weight / SCALED_PER_NAT!r}\n")
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def load_graph(path) -> DecodingGraph:
    """Parse a graph file.

    Format (UTF-8, one record per line, '#' starts a comment):

        graph v1 nodes=<N> boundaries=<id0>,<id1>[,...]
        edge <u> <v> w=<natural-log weight>
        edge <u> <v> p=<error probability>

    ``p=`` lines derive their weight; ``w=`` lines carry no probability.
    Malformed input raises GraphFormatError naming the line number.
    """
    num_nodes = None
    boundaries = None
    edges = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if num_nodes is None:
                if len(parts) != 4 or parts[0] != "graph" or parts[1] != "v1":
                    raise GraphFormatError(f"line {lineno}: expected 'graph v1 nodes=... boundaries=...' header")
                try:
                    if not parts[2].startswith("nodes=") or not parts[3].startswith("boundaries="):
                        raise ValueError
                    num_nodes = int(parts[2][len("nodes="):])
                    boundaries = tuple(int(x) for x in parts[3][len("boundaries="):].split(","))
                except ValueError:
                    raise GraphFormatError(f"line {lineno}: malformed graph header") from None
                for b in boundaries:
                    if not (0 <= b < num_nodes):
                        raise GraphFormatError(f"line {lineno}: boundary id {b} out of range")
                continue
            if parts[0] != "edge" or len(parts) != 4:
                raise GraphFormatError(f"line {lineno}: expected 'edge <u> <v> w=|p=...'")
            try:
                u = int(parts[1])
                v = int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: node ids must be integers") from None
            if not (0 <= u < num_nodes) or not (0 <= v < num_nodes):
                raise GraphFormatError(f"line {lineno}: edge references node outside 0..{num_nodes - 1}")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop edge")
            spec = parts[3]
            if spec.startswith("w="):
                try:
                    w_nat = float(spec[2:])
                except ValueError:
                    raise GraphFormatError(f"line {lineno}: bad weight value") from None
                if w_nat < 0:
                    raise GraphFormatError(f"line {lineno}: negative weight")
                edges.append(Edge(u, v, round(w_nat * SCALED_PER_NAT), None))
            elif spec.startswith("p="):
                try:
                    prob = float(spec[2:])
                except ValueError:
                    raise GraphFormatError(f"line {lineno}: bad probability value") from None
                try:
                    w = weight_from_prob(prob)
                except InvalidProbabilityError:
                    raise GraphFormatError(f"line {lineno}: probability must be in (0, 0.5]") from None
                edges.append(Edge(u, v, w, prob))
            else:
                raise GraphFormatError(f"line {lineno}: edge needs exactly one of w= or p=")
    if num_nodes is None:
        raise GraphFormatError("line 0: missing graph header")
    try:
        return DecodingGraph(num_nodes, boundaries, edges)
    except InvalidParameterError as exc:
        raise GraphFormatError(str(exc)) from None
