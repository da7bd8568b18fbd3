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
sample only the decreases that the clusters cause are propagated, and only
while they can change the gap: a member at its bare distance is not
expanded, no part is lowered beyond the current gap, and the search stops
at the gap less the lightest edge weight.  The reported ``visited_nodes``
is still the number of parts a plain Dijkstra search from b1 settles,
rebuilt from the final distances, so for ``cluster`` it measures the
paper's cost model while the wall time no longer scales with it.
``extra_gaps`` returns the last two from at most one ``grow_clusters``
pass and one replay of its collisions;
``multi_boundary_extra_gap`` reads the same growth for every boundary pair.
The four single estimators are thin wrappers over the two families.
The growth stops as early as its budget allows, w being the graph's
lightest edge weight.  Below w it can cover no part and join no two, so
neither family runs it: the decoder's joins are the answer.  Below 2w it
covers no part and joins sources only through a direct edge, so
``grow_clusters`` returns the sources and those contacts from one scan
of the sources' detector members, with no heap.  Beyond that, every
boundary lies in a part that grows from distance 0, so the growth
records an edge between a detector and a boundary from the detector's
side, and a boundary's own scan walks only its edges light enough to
cover a detector, from a weight-sorted list memoized on the graph.

``contract`` rebuilds, copies and sorts no labels: the decoder's are flat
(``cs.parent[x]`` is the cluster root of every covered node and
``cs.members`` lists each cluster's nodes), and a finished state never
changes them, so the view reads ``cs.parent`` and the member lists
themselves.  The covered-region search of ``extra_cg`` walks only the
edges of the parts the growth settled.

All values are scaled integers; every comparison is exact.  During extra
growth each covered node remembers its nearest originating cluster, so a
collision between merged super-sets is attributed to the correct original
pair.  The growth records the radii of the parts it newly covers as it
settles them, and its collisions are replayed once, Kruskal-style, over a
plain dict of merged parts.

``GapResult`` is a ``NamedTuple``, not a frozen dataclass: every sample
makes four, and a frozen dataclass sets each field with one
``object.__setattr__`` call.  Built with timeit on Python 3.11 and a
2-core x86-64 host, one cost 1.7 µs as a dataclass, 0.7 µs as a named
tuple.
"""

import heapq
from bisect import bisect_right
from itertools import combinations
from typing import NamedTuple

from .decoder import ClusterState
from .graphs import DecodingGraph


class GapResult(NamedTuple):
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
    ``rep`` is the cluster state's own ``parent`` list and ``members`` holds
    its own member lists, not copies: nothing ever writes to them.
    ``sources`` lists the parts that grow during extra growth: every
    cluster and every boundary, but not bare detectors.  Member lists and
    ``sources`` are in no particular order; no estimator reads it.
    """

    def __init__(self, graph: DecodingGraph, rep, members, sources):
        self.graph = graph
        self.rep = rep                    # node id -> part id
        self.members = members            # part id -> list of nodes (multi-node parts only)
        self.sources = sources            # tuple of part ids that grow, unordered
        self.boundary_parts = tuple(rep[b] for b in graph.boundaries)


def contract(g: DecodingGraph, cs: ClusterState) -> ContractedView:
    """Build the contracted view of ``g`` under the clusters in ``cs``.

    The decoder keeps flat labels, so the part of every node is already
    ``cs.parent``: the cluster root of a covered node, the node itself
    otherwise.  The view reads that list and the member lists themselves;
    a finished state never changes them.  Every cluster root is a source.
    Nothing is sorted: the search relaxes within one part at a time, the
    growth orders its parts by (distance, part id) and sorts its
    collisions.
    """
    members = {r: lst for r, lst in cs.members.items() if len(lst) > 1}
    return ContractedView(g, cs.parent, members, tuple(cs.members))


def cluster_gaps(view: ContractedView, eps_max: int):
    """The cluster gap and the bounded cluster gap at threshold ``eps_max``
    (scaled), from one search.  Returns (cluster, bounded) GapResults.

    The search starts from the bare graph's memoized distances from b1.
    Contraction can only shorten paths, so each multi-node part starts at
    its nearest member's bare distance and only decreases are propagated,
    in Dijkstra order from those parts.  Unlowered bare detectors already
    satisfy every edge, and so does a member whose bare distance is its
    part's: the search expands only the other members of the parts whose
    distance the clusters lower.  Only distances up to the gap reach an
    output, so no part is lowered beyond the current gap, and the search
    stops once it pops a distance beyond the gap less the lightest edge
    weight: such a part lowers nothing within the gap, so every distance
    up to the gap is final.  ``visited_nodes`` is then counted from the
    bare (distance, node) keys by one bisection per limit, corrected for
    the nodes inside clusters and the lowered detectors in one pass that
    serves both limits.
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
    w_min = graph.min_weight()
    stop = (gap - w_min + 1) * n                  # first key that lowers nothing
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
            if bare[node] <= d:                   # bare distances hold on its edges
                continue
            for other, w, _ in neighbors[node]:
                nd = d + w
                if nd > gap:
                    continue
                y = rep[other]
                if nd < dist[y]:                  # never x itself: d + w >= d
                    dist[y] = nd
                    push(heap, nd * n + y)
                    lowered.append(y)
                    if y == b2:
                        gap = nd
                        stop = (gap - w_min + 1) * n

    # Parts with key <= limit, from the bare keys: drop the bare keys of the
    # nodes in changed parts, add those parts' own keys.  Both limits are
    # counted in one pass; the bounded one, when the gap is beyond the
    # threshold, lies below the cluster one, and -1 otherwise admits no key.
    high = gap * n + b2
    low = eps_max * n + n - 1 if gap > eps_max else -1
    visited = bisect_right(bare_keys, high)
    within = bisect_right(bare_keys, low)
    for x in set(lowered).union(members):
        for node in members.get(x, (x,)):
            key = bare[node] * n + node
            if key <= high:
                visited -= 1
                if key <= low:
                    within -= 1
        key = dist[x] * n + x
        if key <= high:
            visited += 1
            if key <= low:
                within += 1

    cluster = GapResult("cluster", gap, visited_nodes=visited)
    if gap <= eps_max:
        bounded = GapResult("bounded", gap, visited_nodes=visited)
    else:
        bounded = GapResult("bounded", None, visited_nodes=within)
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
    ``radii``: twice the distance of each settled part that is not a
    source, ascending.  Every such part is one bare detector, so
    ``bisect_right(radii, t)`` nodes are newly covered within radius t/2.
    """

    def __init__(self, settled, collisions, radii):
        self.settled = settled
        self.collisions = collisions
        self.radii = radii


def grow_clusters(view: ContractedView, eps_max: int) -> Growth:
    """Grow all source parts simultaneously up to radius eps_max/2.

    Multi-source bounded search with origin tracking: each covered part
    records the source whose ball reached it first, and every inter-origin
    edge whose two sides are both covered yields a collision event at the
    exact combined distance.  A part beyond the radius is never queued.
    Each part settled from another part's origin adds twice its distance
    to ``radii``; the heap settles them in distance order.

    Below twice the lightest edge weight w no search is needed: no part is
    within the radius, and sources collide only through a direct edge of
    weight <= eps_max, of which there is none below w.  The growth is the
    sources, settled at 0 in id order with no radii, plus those contacts,
    from one scan of the sources' detector members' edges, each edge
    recorded once, from its higher-id part or from its detector end when
    it reaches a boundary.  A graph with a zero-weight edge never takes
    this path.

    The search keeps its distances, origins and settled parts in dicts,
    so its work is sized by what it covers.  Every boundary is in a
    source part, at distance 0 and its own origin from the start, so an
    edge from a detector to a boundary node is recorded by the detector's
    scan, whether or not the boundary's part has settled.  A boundary
    node's own scan then needs only its edges to detectors light enough
    to cover them, 2w <= eps_max, from the graph's memoized weight-sorted
    list; the edges between two boundaries are recorded once, from the
    graph's memoized list of them.
    """
    if eps_max < 0:
        raise ValueError("eps_max must be >= 0")
    graph = view.graph
    w_min = graph.min_weight()
    if eps_max < 2 * w_min:
        sources = sorted(view.sources)
        return Growth([(x, 0) for x in sources], _contacts(view, sources, eps_max), [])
    rep = view.rep
    members = view.members
    neighbors = graph.neighbors
    is_boundary = graph.is_boundary
    light, between = graph.boundary_edges()
    half = eps_max // 2                     # 2w <= eps_max exactly when w <= half

    n = graph.num_nodes
    dist = dict.fromkeys(view.sources, 0)
    origin = {srt: srt for srt in view.sources}
    done = set()
    settled = []
    radii = []
    collisions = _between_contacts(rep, between, eps_max)
    heap = list(view.sources)               # keys d * n + part, here d = 0
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush

    while heap:
        d, x = divmod(pop(heap), n)
        if x in done:
            continue
        done.add(x)
        settled.append((x, d))
        ox = origin[x]
        if ox != x:
            radii.append(2 * d)
        for node in members.get(x, (x,)):
            if is_boundary[node]:           # d == 0: relax the light edges
                weights, entries = light[node]
                for other, w in entries[:bisect_right(weights, half)]:
                    y = rep[other]
                    if y == x or y in done:
                        continue
                    old = dist.get(y)
                    if old is None or w < old:
                        dist[y] = w
                        origin[y] = ox
                        push(heap, w * n + y)
                continue
            for other, w, eidx in neighbors[node]:
                y = rep[other]
                if y == x:
                    continue
                if y in done or is_boundary[other]:
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
                old = dist.get(y)
                if old is None or nd < old:
                    dist[y] = nd
                    origin[y] = ox
                    push(heap, nd * n + y)

    collisions.sort()
    return Growth(settled, collisions, radii)


def _between_contacts(rep, between, eps_max):
    """Collisions through the edges that join two boundaries: the edge's
    weight, when both ends lie in different parts and it fits the budget."""
    collisions = []
    for w, eidx, u, v in between:
        a, b = rep[u], rep[v]
        if a != b and w <= eps_max:
            collisions.append((w, eidx, a, b) if a < b else (w, eidx, b, a))
    return collisions


def _contacts(view: ContractedView, sources, eps_max: int):
    """Sorted collisions of a growth whose radius covers no part: every
    edge of weight <= eps_max between two source parts, at its weight.

    Each source's detector members scan their edges once.  A detector's
    edge to a boundary is recorded from the detector; an edge between two
    detectors from the part with the higher id, the one a growth would
    settle second.  Boundary-boundary edges come from the memoized list.
    """
    rep = view.rep
    members = view.members
    neighbors = view.graph.neighbors
    is_boundary = view.graph.is_boundary
    grown = set(sources)
    collisions = _between_contacts(rep, view.graph.boundary_edges()[1], eps_max)
    for x in sources:
        for node in members.get(x, (x,)):
            if is_boundary[node]:
                continue
            for other, w, eidx in neighbors[node]:
                if w > eps_max:
                    continue
                y = rep[other]
                if y == x:
                    continue
                if is_boundary[other]:
                    collisions.append((w, eidx, x, y) if x < y else (w, eidx, y, x))
                elif y < x and y in grown:
                    collisions.append((w, eidx, y, x))
    collisions.sort()
    return collisions


def _extra_results(growth: Growth, pairs):
    """Plain extra-cluster gaps for (part, part) pairs, from one Kruskal
    replay of the sorted collisions over a dict of merged parts.

    Only a collision that joins two sets can join a pair, so only then are
    the waiting pairs checked, and the replay stops once none waits.  A
    pair's value is the budget of that collision, None when it never comes
    within the budget; its ``extra_nodes`` counts the nodes newly covered
    by then, or within the growth radius when undefined.  A pair the
    decoder already joined needs no growth: value 0, no extra nodes.
    """
    radii = growth.radii
    values = [0 if a == b else None for a, b in pairs]
    waiting = [i for i, (a, b) in enumerate(pairs) if a != b]
    parent = {}                             # merged part -> smaller part of its set

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    for eps_c, _, a, b in growth.collisions:
        if not waiting:
            break
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
            for i in waiting:
                if find(pairs[i][0]) == find(pairs[i][1]):
                    values[i] = eps_c
            waiting = [i for i in waiting if values[i] is None]
    results = []
    for (a, b), v in zip(pairs, values):
        nodes = 0 if a == b else len(radii) if v is None else bisect_right(radii, v)
        results.append(GapResult("extra", v, extra_nodes=nodes))
    return results


def _covered_distance(view: ContractedView, growth: Growth, eps_max: int):
    """Exact b1..b2 distance over the region the growth covered.

    An edge of the contracted graph is fully covered exactly when
    d(u) + w + d(v) <= eps_max, d being the recorded distance to the
    nearest original cluster/boundary, so the search walks only the
    incident edges of settled parts and keeps those the labels cover.
    """
    b1, b2 = view.boundary_parts[0], view.boundary_parts[1]
    label = dict(growth.settled)
    rep = view.rep
    members = view.members
    neighbors = view.graph.neighbors

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
        room = eps_max - label[x]
        for node in members.get(x, (x,)):
            for other, w, _ in neighbors[node]:
                y = rep[other]
                if y == x or y in done:
                    continue
                dy = label.get(y)
                if dy is None or w + dy > room:
                    continue
                nd = d + w
                if y not in dist or nd < dist[y]:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
    raise RuntimeError("growth reported a connection the covered region lacks")


# (extra, extra_cg) when no growth can join the boundaries
_JOINED = (GapResult("extra", 0), GapResult("extra_cg", 0, cluster_graph_invoked=True))
_APART = (GapResult("extra", None), GapResult("extra_cg", None))


def extra_gaps(view: ContractedView, eps_max: int):
    """The extra-cluster gap and its refinement through the graph of grown
    clusters at budget ``eps_max`` (scaled), from at most one growth pass
    and one replay of its collisions.  Returns (extra, extra_cg) GapResults.

    ``extra`` is the smallest budget at which simultaneous growth of the
    clusters and boundaries connects b1 to b2: the bottleneck (minimax
    consecutive-hop) distance between them over the contracted graph,
    undefined beyond the budget.  The replay only merges, so b1 and b2 end
    in one set exactly when ``extra`` is defined; only then does
    ``extra_cg`` search the covered region for the exact b1..b2 distance.
    That can exceed eps_max, but equals the cluster gap whenever the
    cluster gap is within the budget.  Its ``extra_nodes`` counts every
    node the growth covered.

    Below the lightest edge weight no growth is run: it would cover no
    part and record no collision, so the boundaries are joined, at 0,
    exactly when the decoder joined them.
    """
    if eps_max < 0:
        raise ValueError("eps_max must be >= 0")
    b1, b2 = view.boundary_parts[0], view.boundary_parts[1]
    if eps_max < view.graph.min_weight():
        return _JOINED if b1 == b2 else _APART
    growth = grow_clusters(view, eps_max)
    extra, = _extra_results(growth, [(b1, b2)])
    covered = len(growth.radii)
    if extra.value is None:
        return extra, GapResult("extra_cg", None, extra_nodes=covered)
    return extra, GapResult("extra_cg", _covered_distance(view, growth, eps_max),
                            extra_nodes=covered, cluster_graph_invoked=True)


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
    """Extra-cluster gaps for every pair among M boundaries from at most one
    growth pass and one replay of its collisions.

    Returns {(b_i, b_j): GapResult} for i < j in boundary order.  Each pair
    follows the rule of ``extra_cluster_gap``, including value 0 and no
    extra nodes for a pair the decoder already joined, and no growth is
    run below the lightest edge weight: there the replay reads an empty
    growth, which joins no pair.
    """
    if eps_max < 0:
        raise ValueError("eps_max must be >= 0")
    view = contract(g, cs)
    pairs = list(combinations(view.boundary_parts, 2))
    if eps_max < g.min_weight():
        growth = Growth([], [], [])
    else:
        growth = grow_clusters(view, eps_max)
    return dict(zip(combinations(g.boundaries, 2), _extra_results(growth, pairs)))
