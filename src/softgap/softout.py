"""Soft-output estimators on top of a finished cluster decoding.

Four estimators share one contracted (quotient) view of the decoding graph,
in which every cluster is condensed to a single node and intra-cluster edges
drop to weight zero:

* ``cluster_gap``            -- exact shortest b1..b2 distance on the quotient.
* ``bounded_cluster_gap``    -- the same distance when it is at most a
                                threshold, undefined beyond it.
* ``extra_cluster_gap``      -- smallest additional-growth budget at which
                                simultaneously grown clusters and boundaries
                                connect b1 to b2 (bottleneck connectivity).
* ``extra_cluster_gap_cg``   -- same growth, then an exact shortest path over
                                the region the growth covered, which recovers
                                the exact quotient distance whenever it is
                                within the threshold.

They come in two families, each computed once per sample.  ``cluster_gaps``
returns the first two from one search.  It does not start each search anew:
the bare graph's distances from b1 are computed once per graph, and per
sample only the decreases that the clusters cause are propagated.
The reported ``visited_nodes`` is still the number of parts a plain Dijkstra
search from b1 settles, rebuilt from the final distances, so for
``cluster`` it measures the paper's cost model while the wall time no longer
scales with it.  ``extra_gaps`` returns the last two from one
``grow_clusters`` pass and one replay of its collisions;
``multi_boundary_extra_gap`` reads the same growth for every boundary pair.
The four single estimators are thin wrappers over the two families.

All values are scaled integers; every comparison is exact.  During extra
growth each covered node remembers its nearest originating cluster, so a
collision between merged super-sets is attributed to the correct original
pair.
"""

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, compress

from .decoder import ClusterState
from .graphs import DecodingGraph


@dataclass(frozen=True)
class GapResult:
    """One soft-output value plus instrumentation counters.

    ``value`` is a scaled integer weight, or None when the estimator found no
    answer within its budget.  ``extra_nodes`` counts nodes newly covered by
    extra growth (extra kinds).  ``visited_nodes`` (cluster/bounded kinds)
    is the exact number of parts a plain Dijkstra search from b1 settles,
    popping in (distance, part id) order: the parts with (distance, part id)
    <= (gap, b2's part), or, for an undefined bounded gap, the parts within
    the threshold.  It is rebuilt from final distances, not counted during a
    search.  When b1 and b2 share a part it is 1.  Where a zero-weight edge
    joins two parts, a heap search may settle the parts at the gap's
    distance in another order; this count depends on distances and ids
    alone.
    """
    kind: str
    value: int | None
    visited_nodes: int = 0
    extra_nodes: int = 0
    cluster_graph_invoked: bool = False

    @property
    def defined(self) -> bool:
        return self.value is not None


class ContractedView:
    """Quotient of a decoding graph by a cluster partition.

    Nodes of the quotient are cluster roots plus unclustered detectors; the
    representative of a contracted cluster is its union-find root id.
    ``sources`` lists the parts that grow during extra growth: every cluster
    and every boundary, but not bare detectors.
    """

    def __init__(self, graph: DecodingGraph, rep, members, sources):
        self.graph = graph
        self.rep = rep                    # node id -> part id
        self.members = members            # part id -> list of nodes (multi-node parts only)
        self.sources = sources            # tuple of part ids that grow
        self.boundary_parts = tuple(rep[b] for b in graph.boundaries)


def contract(g: DecodingGraph, cs: ClusterState) -> ContractedView:
    """Build the contracted view of ``g`` under the clusters in ``cs``.

    Only covered nodes can belong to a cluster, so only they are visited;
    every other node is its own part.
    """
    rep = list(range(g.num_nodes))
    members = {}
    source_set = set()
    find = cs.find
    for x in compress(range(g.num_nodes), cs.covered):
        r = find(x)
        rep[x] = r
        source_set.add(r)
        if r != x:
            members.setdefault(r, [r]).append(x)
    for lst in members.values():
        lst.sort()
    return ContractedView(g, rep, members, tuple(sorted(source_set)))


def cluster_gaps(view: ContractedView, eps_max: int):
    """The cluster gap and the bounded cluster gap at threshold ``eps_max``
    (scaled), from one search.  Returns (cluster, bounded) GapResults.

    The search starts from the bare graph's memoized distances from b1.
    Contraction can only shorten paths, so each multi-node part starts at
    its nearest member's bare distance and only decreases are propagated,
    in Dijkstra order from those parts.  Unlowered bare detectors already
    satisfy every edge, so the search touches the parts whose distance the
    clusters lower, and stops once it pops a distance beyond b2's.
    ``visited_nodes`` is then counted from the bare (distance, node) keys by
    one bisection, corrected for the nodes inside clusters and the lowered
    detectors.
    """
    if eps_max < 0:
        raise ValueError("eps_max must be >= 0")
    b1, b2 = view.boundary_parts[0], view.boundary_parts[1]
    if b1 == b2:
        return (GapResult("cluster", 0, visited_nodes=1),
                GapResult("bounded", 0, visited_nodes=1))
    graph = view.graph
    n = graph.num_nodes
    bare, bare_keys = graph.bare_distances()
    rep = view.rep
    members = view.members
    neighbors = graph.neighbors

    # Every part starts at its bare distance, a multi-node part at that of
    # its nearest member; ``lowered`` records the parts the search lowers.
    dist = bare[:]
    heap = []                                     # keys order (distance, part)
    for x, lst in members.items():
        d = min(map(bare.__getitem__, lst))
        dist[x] = d
        heap.append(d * n + x)
    heapq.heapify(heap)
    lowered = []
    gap = dist[b2]
    stop = (gap + 1) * n                          # first key beyond the gap
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        key = pop(heap)
        if key >= stop:
            break
        d, x = divmod(key, n)
        if d > dist[x]:
            continue
        for node in members.get(x, (x,)):
            for other, w, _ in neighbors[node]:
                y = rep[other]
                if y == x:
                    continue
                nd = d + w
                if nd < dist[y]:
                    dist[y] = nd
                    push(heap, nd * n + y)
                    lowered.append(y)
                    if y == b2:
                        gap = nd
                        stop = (gap + 1) * n

    # Parts with key <= limit, from the bare keys: drop the bare keys of the
    # nodes in changed parts, add those parts' own keys.
    changed = set(lowered).union(members)
    replaced = [bare[x] * n + x for x in changed if x not in members]
    for lst in members.values():
        replaced.extend(bare[x] * n + x for x in lst)
    current = [dist[x] * n + x for x in changed]

    def settled(limit):
        return (bisect_right(bare_keys, limit)
                - sum(1 for k in replaced if k <= limit)
                + sum(1 for k in current if k <= limit))

    visited = settled(gap * n + b2)
    cluster = GapResult("cluster", gap, visited_nodes=visited)
    if gap <= eps_max:
        bounded = GapResult("bounded", gap, visited_nodes=visited)
    else:
        bounded = GapResult("bounded", None,
                            visited_nodes=settled(eps_max * n + n - 1))
    return cluster, bounded


def cluster_gap(view: ContractedView) -> GapResult:
    """Exact shortest distance between the first two boundaries on the
    contracted graph.  Always defined on a connected graph."""
    return cluster_gaps(view, 0)[0]


def bounded_cluster_gap(view: ContractedView, eps_max: int) -> GapResult:
    """Cluster gap with early stopping at threshold ``eps_max`` (scaled).

    Exactly equals the cluster gap whenever that is <= eps_max; undefined
    otherwise, having settled only the parts within the threshold.
    """
    return cluster_gaps(view, eps_max)[1]


class Growth:
    """Result of one simultaneous-growth pass over a contracted view.

    ``settled``: (part, distance) pairs in settle order, distance being the
    exact contracted-graph distance to the nearest source (<= eps_max/2,
    enforced), so no node beyond half the budget is ever covered.
    ``collisions``: (epsilon, edge_index, origin_a, origin_b) sorted events;
    epsilon is the exact budget at which the two origins' regions meet
    through that edge (covered length of both sides plus the edge weight).
    """

    def __init__(self, settled, collisions):
        self.settled = settled
        self.collisions = collisions


def grow_clusters(view: ContractedView, eps_max: int) -> Growth:
    """Grow all source parts simultaneously up to radius eps_max/2.

    Multi-source bounded search with origin tracking: each covered part
    records the source whose ball reached it first, and every inter-origin
    edge whose two sides are both covered yields a collision event at the
    exact combined distance.  A part beyond the radius is never queued.
    """
    if eps_max < 0:
        raise ValueError("eps_max must be >= 0")
    rep = view.rep
    members = view.members
    neighbors = view.graph.neighbors

    n = view.graph.num_nodes
    dist = [None] * n
    origin = [None] * n
    is_settled = [False] * n
    settled = []
    collisions = []
    heap = []
    for srt in view.sources:
        dist[srt] = 0
        origin[srt] = srt
        heap.append((0, srt))
    heapq.heapify(heap)

    while heap:
        d, x = heapq.heappop(heap)
        if is_settled[x]:
            continue
        is_settled[x] = True
        settled.append((x, d))
        ox = origin[x]
        for node in members.get(x, (x,)):
            for other, w, eidx in neighbors[node]:
                y = rep[other]
                if y == x:
                    continue
                if is_settled[y]:
                    oy = origin[y]
                    if oy != ox:
                        eps_c = d + w + dist[y]
                        if eps_c <= eps_max:
                            a, b = (ox, oy) if ox < oy else (oy, ox)
                            collisions.append((eps_c, eidx, a, b))
                    continue
                nd = d + w
                if 2 * nd > eps_max:        # beyond the radius: never covered
                    continue
                old = dist[y]
                if old is None or nd < old:
                    dist[y] = nd
                    origin[y] = ox
                    heapq.heappush(heap, (nd, y))

    collisions.sort()
    return Growth(settled, collisions)


class _PartUnion:
    """Tiny union-find over sparse part ids."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _new_node_radii(view: ContractedView, settled):
    """Twice the distance of each part the growth newly covered, ascending.

    Sources were covered before growth, and every other part is one bare
    detector, so ``bisect_right(radii, t)`` nodes are newly covered within
    radius t/2.
    """
    sources = set(view.sources)
    return [2 * d for part, d in settled if part not in sources]


def _extra_results(growth: Growth, radii, pairs):
    """Plain extra-cluster gaps for (part, part) pairs, from one replay of
    the collisions through one union-find that stops once every pair has
    joined.

    A pair's value is the budget of the first collision after which both
    parts share a merged set, None when that never happens within the
    budget.  Its ``extra_nodes`` counts the nodes newly covered by that
    instant, or within the growth radius when undefined.  A pair the
    decoder already joined needs no growth: value 0, no extra nodes.
    """
    values = [0 if a == b else None for a, b in pairs]
    waiting = [i for i, (a, b) in enumerate(pairs) if a != b]
    uf = _PartUnion()
    find = uf.find
    for eps_c, _, a, b in growth.collisions:
        if not waiting:
            break
        uf.union(a, b)
        still = []
        for i in waiting:
            if find(pairs[i][0]) == find(pairs[i][1]):
                values[i] = eps_c
            else:
                still.append(i)
        waiting = still
    results = []
    for (a, b), v in zip(pairs, values):
        if a == b:
            nodes = 0
        elif v is None:
            nodes = len(radii)
        else:
            nodes = bisect_right(radii, v)
        results.append(GapResult("extra", v, extra_nodes=nodes))
    return results


def _covered_distance(view: ContractedView, growth: Growth, eps_max: int):
    """Exact b1..b2 distance over the region the growth covered.

    An edge of the contracted graph is fully covered exactly when
    d(u) + w + d(v) <= eps_max, d being the recorded distance to the
    nearest original cluster/boundary, so the covered region is rebuilt
    from the growth labels alone.
    """
    b1, b2 = view.boundary_parts[0], view.boundary_parts[1]
    label = dict(growth.settled)
    rep = view.rep
    adj = {}
    for e in view.graph.edges:
        a, b = rep[e.u], rep[e.v]
        if a == b:
            continue
        da = label.get(a)
        db = label.get(b)
        if da is None or db is None or da + e.weight + db > eps_max:
            continue
        adj.setdefault(a, []).append((b, e.weight))
        adj.setdefault(b, []).append((a, e.weight))

    dist = {b1: 0}
    done = set()
    heap = [(0, b1)]
    while heap:
        d, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        if x == b2:
            return d
        for y, w in adj.get(x, ()):
            if y in done:
                continue
            nd = d + w
            if y not in dist or nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    raise RuntimeError("growth reported a connection the covered region lacks")


def extra_gaps(view: ContractedView, eps_max: int):
    """The extra-cluster gap and its refinement through the graph of grown
    clusters at budget ``eps_max`` (scaled), from one growth pass and one
    replay of its collisions.  Returns (extra, extra_cg) GapResults.

    ``extra`` is the smallest budget at which simultaneous growth of the
    clusters and boundaries connects b1 to b2: the bottleneck (minimax
    consecutive-hop) distance between them over the contracted graph,
    undefined beyond the budget.  Union-find only merges, so b1 and b2 end
    in one set exactly when ``extra`` is defined; only then does
    ``extra_cg`` search the covered region for the exact b1..b2 distance.
    That can exceed eps_max, but equals the cluster gap whenever the
    cluster gap is within the budget.  Its ``extra_nodes`` counts every
    node the growth covered.
    """
    b1, b2 = view.boundary_parts[0], view.boundary_parts[1]
    growth = grow_clusters(view, eps_max)
    radii = _new_node_radii(view, growth.settled)
    extra, = _extra_results(growth, radii, [(b1, b2)])
    if extra.value is None:
        return extra, GapResult("extra_cg", None, extra_nodes=len(radii))
    return extra, GapResult("extra_cg", _covered_distance(view, growth, eps_max),
                            extra_nodes=len(radii), cluster_graph_invoked=True)


def extra_cluster_gap(g: DecodingGraph, cs: ClusterState, eps_max: int,
                      view: ContractedView | None = None) -> GapResult:
    """Smallest growth budget epsilon <= eps_max at which simultaneous
    growth of the clusters and boundaries connects the first two
    boundaries; undefined when no connection forms within the budget.
    ``extra_nodes`` counts the nodes covered by the connection instant."""
    return extra_gaps(contract(g, cs) if view is None else view, eps_max)[0]


def extra_cluster_gap_cg(g: DecodingGraph, cs: ClusterState, eps_max: int,
                         view: ContractedView | None = None) -> GapResult:
    """Extra-cluster gap refined through the graph of grown clusters: the
    exact b1..b2 distance over the covered region whenever the growth
    connects the boundaries, undefined otherwise."""
    return extra_gaps(contract(g, cs) if view is None else view, eps_max)[1]


def multi_boundary_extra_gap(g: DecodingGraph, cs: ClusterState,
                             eps_max: int) -> dict:
    """Extra-cluster gaps for every pair among M boundaries from one growth
    pass and one replay of its collisions.

    Returns {(b_i, b_j): GapResult} for i < j in boundary order.  Each pair
    follows the rule of ``extra_cluster_gap``, including value 0 and no
    extra nodes for a pair the decoder already joined.
    """
    view = contract(g, cs)
    growth = grow_clusters(view, eps_max)
    radii = _new_node_radii(view, growth.settled)
    pairs = list(combinations(view.boundary_parts, 2))
    results = _extra_results(growth, radii, pairs)
    return dict(zip(combinations(g.boundaries, 2), results))
