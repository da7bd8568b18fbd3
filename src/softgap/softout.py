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
pass; ``multi_boundary_extra_gap`` reads the same growth for every
boundary pair.  The four single estimators are thin wrappers over the two
families.

The growth returns distances only: each part within half the budget, with
its distance to the nearest cluster or boundary.  Every gap is read from
them by a search over the covered edges, the edges with
d(x) + w + d(y) within the budget.  ``extra`` is the bottleneck (minimax)
distance over them, each edge costing d(x) + w + d(y), the budget at
which the growth from both sides meets on it; ``extra_cg`` is the
shortest-path distance over them.  The growth stops as early as its budget
allows, w being the graph's lightest edge weight.  Below w it can cover
no part and no edge, so neither family runs it: the decoder's joins are
the answer.  Below 2w it covers no part but the sources, so
``grow_clusters`` returns them with no scan.

``contract`` rebuilds, copies and sorts no labels: the decoder's are flat
(``cs.parent[x]`` is the cluster root of every covered node and
``cs.members`` lists each cluster's nodes), and a finished state never
changes them, so the view reads ``cs.parent`` and the member lists
themselves.  The searches over the covered region walk only the edges of
covered parts.  All values are scaled integers; every comparison is
exact.

``GapResult`` is a ``NamedTuple`` (README, "Value types").
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
    Nothing is sorted: every search relaxes within one part at a time.
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


def grow_clusters(view: ContractedView, eps_max: int) -> dict:
    """Grow all source parts simultaneously up to radius eps_max/2.

    Returns ``{part: distance}`` for every part within eps_max/2 of its
    nearest source, that distance being exact on the contracted graph; the
    sources are at 0.  A part beyond the radius is never queued.

    Below twice the lightest edge weight w no part but a source is within
    the radius, so the growth is the sources alone, built with no scan.  A
    graph with a zero-weight edge never takes this path.  Otherwise one
    multi-source Dijkstra pass scans the edges of each part it settles; its
    distances live in a dict, so its work is sized by what it covers.
    """
    if eps_max < 0:
        raise ValueError("eps_max must be >= 0")
    radius = dict.fromkeys(view.sources, 0)
    graph = view.graph
    if eps_max < 2 * graph.min_weight():
        return radius
    rep = view.rep
    members = view.members
    neighbors = graph.neighbors
    half = eps_max // 2                     # 2 * d <= eps_max exactly when d <= half
    n = graph.num_nodes
    get = radius.get
    heap = list(view.sources)               # keys d * n + part, here d = 0
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, x = divmod(pop(heap), n)
        if d > radius[x]:
            continue
        room = half - d
        for node in members.get(x, (x,)):
            for other, w, _ in neighbors[node]:
                if w > room:
                    continue
                y = rep[other]
                nd = d + w
                old = get(y)
                if old is None or nd < old:
                    radius[y] = nd
                    push(heap, nd * n + y)
    return radius


def _bottleneck(view: ContractedView, radius: dict, eps_max: int, start, targets):
    """Bottleneck (minimax) distances from part ``start`` to the parts in
    ``targets`` over the region a growth covered: ``{target: value}`` for
    each target the region joins to ``start``.

    An edge between covered parts x and y costs d(x) + w + d(y), the budget
    at which the growth from both sides meets on it, d being the distance
    in ``radius``; it is covered when that is <= eps_max.  A path's cost is
    its costliest edge.  The search pops parts in order of that cost and
    stops once it has popped every target.
    """
    rep = view.rep
    members = view.members
    neighbors = view.graph.neighbors
    n = view.graph.num_nodes
    covered = radius.get
    waiting = set(targets)
    found = {}
    best = {start: 0}
    heap = [start]                          # keys cost * n + part, here cost = 0
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        c, x = divmod(pop(heap), n)
        if c > best[x]:
            continue
        if x in waiting:
            found[x] = c
            waiting.remove(x)
            if not waiting:
                break
        dx = radius[x]
        room = eps_max - dx
        for node in members.get(x, (x,)):
            for other, w, _ in neighbors[node]:
                y = rep[other]
                dy = covered(y)
                if dy is None:
                    continue
                nc = w + dy
                if nc > room:
                    continue
                nc += dx
                if nc < c:
                    nc = c
                old = best.get(y)
                if old is None or nc < old:
                    best[y] = nc
                    push(heap, nc * n + y)
    return found


def _extra(view: ContractedView, radius: dict, a, b, value) -> GapResult:
    """The ``extra`` result of parts a and b at bottleneck ``value``.

    ``extra_nodes`` counts the non-source parts the growth covers by then,
    those within value/2, or every one it covers when ``value`` is None.  A
    pair the decoder already joined needs no growth: value 0, no extra
    nodes.
    """
    if a == b:
        return GapResult("extra", 0)
    if value is None:
        covered = len(radius)
    else:
        half = value // 2
        covered = len([d for d in radius.values() if d <= half])
    return GapResult("extra", value, extra_nodes=covered - len(view.sources))


def _covered_distance(view: ContractedView, radius: dict, eps_max: int):
    """Exact b1..b2 distance over the region the growth covered.

    An edge of the contracted graph is fully covered exactly when
    d(u) + w + d(v) <= eps_max, d being the distance in ``radius``, so the
    search walks only the incident edges of covered parts and keeps those
    the distances cover.
    """
    b1, b2 = view.boundary_parts[0], view.boundary_parts[1]
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
        room = eps_max - radius[x]
        for node in members.get(x, (x,)):
            for other, w, _ in neighbors[node]:
                y = rep[other]
                if y == x or y in done:
                    continue
                dy = radius.get(y)
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
    clusters at budget ``eps_max`` (scaled), from at most one growth pass.
    Returns (extra, extra_cg) GapResults.

    ``extra`` is the smallest budget at which simultaneous growth of the
    clusters and boundaries connects b1 to b2: the bottleneck distance
    between them over the region the growth covers, undefined beyond the
    budget.  Only when it is defined does ``extra_cg`` search the covered
    region for the exact b1..b2 distance.  That can exceed eps_max, but
    equals the cluster gap whenever the cluster gap is within the budget.
    Its ``extra_nodes`` counts every node the growth covered.

    Below the lightest edge weight no growth is run: it would cover no
    part and no edge, so the boundaries are joined, at 0, exactly when the
    decoder joined them.
    """
    if eps_max < 0:
        raise ValueError("eps_max must be >= 0")
    b1, b2 = view.boundary_parts[0], view.boundary_parts[1]
    if eps_max < view.graph.min_weight():
        return _JOINED if b1 == b2 else _APART
    radius = grow_clusters(view, eps_max)
    extra = _extra(view, radius, b1, b2,
                   _bottleneck(view, radius, eps_max, b1, (b2,)).get(b2))
    covered = len(radius) - len(view.sources)
    if extra.value is None:
        return extra, GapResult("extra_cg", None, extra_nodes=covered)
    return extra, GapResult("extra_cg", _covered_distance(view, radius, eps_max),
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
    growth pass, then one bottleneck search from each boundary's part
    toward the parts of the boundaries after it.

    Returns {(b_i, b_j): GapResult} for i < j in boundary order.  Each pair
    follows the rule of ``extra_cluster_gap``, including value 0 and no
    extra nodes for a pair the decoder already joined, and no growth is
    run below the lightest edge weight, where no other pair is joined.
    """
    if eps_max < 0:
        raise ValueError("eps_max must be >= 0")
    view = contract(g, cs)
    parts = view.boundary_parts
    pairs = list(combinations(range(len(parts)), 2))
    if eps_max < g.min_weight():
        return {(g.boundaries[i], g.boundaries[j]):
                GapResult("extra", 0 if parts[i] == parts[j] else None) for i, j in pairs}
    radius = grow_clusters(view, eps_max)
    found = [_bottleneck(view, radius, eps_max, a, parts[i + 1:])
             for i, a in enumerate(parts[:-1])]
    return {(g.boundaries[i], g.boundaries[j]):
            _extra(view, radius, parts[i], parts[j], found[i].get(parts[j]))
            for i, j in pairs}
