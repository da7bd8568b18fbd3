"""Union-Find cluster decoder with exact event-driven growth.

Clusters grow from detection events until every event is paired inside a
cluster or matched to a boundary.  Growth is continuous and event-driven:
all active (odd-parity, boundary-free) clusters advance their radii together
to the next collision or node-coverage instant, computed exactly.

Internal units: edge coverage and growth radii are tracked in "h-units"
(1 h-unit = 1/2 scaled weight unit), so a frontier meeting in the middle of
an edge stays on an integer grid.  With integer edge weights (which
``DecodingGraph`` enforces) every event instant is an integer clock value,
so event ordering is exact: each seed starts at clock 0, a node is
absorbed when one growing side alone covers an edge of even h-length 2w,
and two clusters merge when their two sides sum to 2w.  So all side
coverages of a cluster share one parity, which for every active cluster is
the clock's, and the remaining h-length of an edge grown from both sides is
even.  An odd remainder would break that argument and raises
InvariantViolationError.

Cluster labels are flat: ``parent[x]`` is the root of every covered node
(uncovered nodes are their own roots), and ``members`` maps each root to
its covered nodes.  A union moves the losing root's members to the
winner and relabels them.  The root rule is union by rank with the lower id
winning ties, so a relabelled node's cluster rank strictly rises, and rank
is at most log2 of the cluster size: each node is relabelled at most
log2(n) times, O(n log n) in all.  Every label lookup is then one list
read, and the contraction reads the labels instead of rebuilding them.

Per-decode work is bounded by the syndrome, not by the graph.  The growth
state (activity, radii, frontiers, per-edge coverage and anchors) lives in
per-graph scratch lists, allocated at the graph's first decode; each
decode writes only the entries of the nodes it covers and the edges of
their frontiers, and resets exactly those when it ends, also when it
raises.  A new ``ClusterState`` copies its node-sized lists from per-graph
templates.  So two decodes on one graph must not run at the same time
(from two threads).  The event loop stops when a union leaves no cluster
growing: with no growing side no edge can close, so the state is final and
the predictions still queued are dropped unpopped.  Each queued prediction
is an integer key ``t * num_edges + edge``, so the queue orders by
(instant, edge) and a popped edge needs one prediction only.
``op_count`` is the number of heap pushes plus heap pops.
"""

import heapq

from .graphs import DecodingGraph
from .sampling import Syndrome


class InvariantViolationError(RuntimeError):
    """Internal decoder state violated a structural invariant."""


class _Scratch:
    """Per-graph decode scratch, allocated at a graph's first decode.

    ``parent0`` and ``covered0`` are the templates a new ``ClusterState``
    copies.  The other lists are ``decode``'s own: clean (False, 0 or
    None) between decodes, because each decode resets the entries it
    wrote.  ``t_u``/``t_v`` are exempt: a side's anchor is always written
    before it is read.
    """

    __slots__ = ("parent0", "covered0", "w2", "active", "radius2", "anchor_t",
                 "frontier", "closed", "cov2u", "cov2v", "t_u", "t_v")

    def __init__(self, graph: DecodingGraph):
        n, m = graph.num_nodes, graph.num_edges
        self.parent0 = list(range(n))
        self.covered0 = [False] * n
        for b in graph.boundaries:
            self.covered0[b] = True
        self.w2 = [2 * w for w in graph.edge_arrays()[2]]
        self.active = [False] * n       # valid at roots
        self.radius2 = [0] * n          # banked growth radius per root, h-units
        self.anchor_t = [0] * n         # clock anchor while active
        self.frontier = [None] * n      # per-root list of (edge, side) entries
        self.closed = [False] * m
        self.cov2u = [0] * m            # anchored coverage per side, h-units
        self.cov2v = [0] * m
        self.t_u = [0] * m              # anchor clock per side
        self.t_v = [0] * m


def _scratch(graph: DecodingGraph) -> _Scratch:
    """The graph's memoized decode scratch."""
    scratch = getattr(graph, "_decode_scratch", None)
    if scratch is None:
        scratch = _Scratch(graph)
        object.__setattr__(graph, "_decode_scratch", scratch)
    return scratch


class ClusterState:
    """Final cluster partition produced by :func:`decode`.

    Boundary nodes are covered from the start as their own passive
    zero-radius clusters; a cluster that reaches one becomes inactive.
    ``parent[x]`` is the root of every covered node and ``members`` maps
    each root to its covered nodes, in no particular order.
    ``coverage2`` maps each edge the decode grew into to its covered
    length in h-units, both sides summed; an edge it lacks is uncovered.
    """

    def __init__(self, graph: DecodingGraph, events=frozenset()):
        n = graph.num_nodes
        scratch = _scratch(graph)
        self.graph = graph
        self.events = frozenset(events)
        self.parent = scratch.parent0[:]
        self.rank = [0] * n
        self.covered = scratch.covered0[:]
        self.parity = [0] * n          # valid at cluster roots
        self.touches_boundary = graph.is_boundary[:]
        self.members = {b: [b] for b in graph.boundaries}  # root -> covered nodes
        self.coverage2 = {}
        self.radius2_log = 0           # max growth radius ever used, h-units
        self.forest = []               # edge ids that closed causing merge/absorb
        self.op_count = 0              # heap pushes plus heap pops

    def find(self, x: int) -> int:
        return self.parent[x]

    def clusters(self) -> dict:
        """Map root -> sorted covered members, one entry per cluster,
        ordered by smallest member.

        Includes boundary nodes' clusters (possibly still singletons).
        """
        parent = self.parent
        return {parent[lst[0]]: lst for lst in sorted(map(sorted, self.members.values()))}

    @classmethod
    def from_partition(cls, graph: DecodingGraph, groups) -> "ClusterState":
        """Build a state with the given clusters, for externally supplied
        partitions (loaded graphs, randomized tests).

        Each group is an iterable of node ids forming one cluster; nodes not
        listed stay unclustered, and unlisted boundaries remain their own
        passive clusters.
        """
        cs = cls(graph)
        parent = cs.parent
        for group in groups:
            members = sorted(set(group))
            if not members:
                continue
            for x in members:
                if not (0 <= x < graph.num_nodes):
                    raise ValueError(f"cluster member {x} out of range")
                if not cs.covered[x]:
                    cs.covered[x] = True
                    cs.members[x] = [x]
            head = members[0]
            for x in members[1:]:
                _union_meta(cs, parent[head], parent[x])
        return cs


def _union_meta(cs: ClusterState, ra: int, rb: int) -> int:
    """Union by rank (lower root id wins ties); merges root metadata and
    relabels the loser's members."""
    if ra == rb:
        return ra
    if cs.rank[ra] < cs.rank[rb]:
        ra, rb = rb, ra
    elif cs.rank[ra] == cs.rank[rb]:
        if rb < ra:
            ra, rb = rb, ra
        cs.rank[ra] += 1
    moved = cs.members.pop(rb)
    parent = cs.parent
    for x in moved:
        parent[x] = ra
    cs.members[ra].extend(moved)
    cs.parity[ra] = (cs.parity[ra] + cs.parity[rb]) % 2
    cs.touches_boundary[ra] = cs.touches_boundary[ra] or cs.touches_boundary[rb]
    return ra


def decode(g: DecodingGraph, s: Syndrome) -> ClusterState:
    """Grow clusters around the detection events until all are neutral.

    Every returned cluster has even parity or touches a boundary.  The
    process is deterministic: simultaneous closures fire in ascending edge
    order, and unions follow rank with lower-id tie-breaking.
    """
    cs = ClusterState(g, s.events)
    for x in cs.events:
        if not (0 <= x < g.num_nodes) or g.is_boundary[x]:
            raise ValueError(f"detection event {x} is not a detector of this graph")
    if not cs.events:
        return cs

    covered = cs.covered
    parity = cs.parity
    touches = cs.touches_boundary
    parent = cs.parent                 # flat: the root of every covered node
    members = cs.members

    sc = _scratch(g)
    active, radius2, anchor_t, frontier = sc.active, sc.radius2, sc.anchor_t, sc.frontier
    closed, cov2u, cov2v, t_u, t_v = sc.closed, sc.cov2u, sc.cov2v, sc.t_u, sc.t_v
    w2 = sc.w2
    e_u, e_v, _ = g.edge_arrays()
    neighbors = g.neighbors
    m = g.num_edges

    heap = []                          # keys t * m + edge: (instant, edge) order
    heappush, heappop = heapq.heappush, heapq.heappop
    op_count = 0
    clock = 0

    def push(eidx):
        # Predict the edge's closing instant from the current rates and
        # queue it; an edge with no growing side is not queued.
        nonlocal op_count
        if active[parent[e_u[eidx]]]:          # uncovered nodes are never active
            if active[parent[e_v[eidx]]]:
                rem = (w2[eidx] - cov2u[eidx] - cov2v[eidx]
                       - (clock - t_u[eidx]) - (clock - t_v[eidx]))
                if rem & 1:
                    raise InvariantViolationError(
                        f"edge {eidx} has odd remaining coverage {rem} between two growing sides")
                t = clock + (rem >> 1)
            else:
                t = t_u[eidx] + w2[eidx] - cov2u[eidx] - cov2v[eidx]
        elif active[parent[e_v[eidx]]]:
            t = t_v[eidx] + w2[eidx] - cov2u[eidx] - cov2v[eidx]
        else:
            return
        heappush(heap, t * m + eidx)
        op_count += 1

    def set_activity(r, new_active):
        if active[r] == new_active:
            return
        if active[r]:                  # pause: bank radius, freeze coverages
            radius2[r] += clock - anchor_t[r]
            if radius2[r] > cs.radius2_log:
                cs.radius2_log = radius2[r]
            active[r] = False
            for eidx, side in frontier[r]:
                if closed[eidx]:
                    continue
                if side == 0:
                    cov2u[eidx] += clock - t_u[eidx]
                    t_u[eidx] = clock
                else:
                    cov2v[eidx] += clock - t_v[eidx]
                    t_v[eidx] = clock
        else:                          # resume: re-anchor, re-arm predictions
            anchor_t[r] = clock
            active[r] = True
            for eidx, side in frontier[r]:
                if closed[eidx]:
                    continue
                if side == 0:
                    t_u[eidx] = clock
                else:
                    t_v[eidx] = clock
                push(eidx)

    try:
        for b in g.boundaries:
            frontier[b] = []
        # Seed: one active cluster per detection event, anchored at clock 0.
        for x in cs.events:
            covered[x] = True
            members[x] = [x]
            parity[x] = 1
            active[x] = True
            lst = []
            for _, _, eidx in neighbors[x]:
                if e_u[eidx] == x:
                    t_u[eidx] = 0
                    lst.append((eidx, 0))
                else:
                    t_v[eidx] = 0
                    lst.append((eidx, 1))
            frontier[x] = lst
        num_active = len(cs.events)
        for x in cs.events:
            for eidx, _ in frontier[x]:
                push(eidx)

        while heap:
            key = heappop(heap)
            op_count += 1
            t, eidx = divmod(key, m)
            if closed[eidx]:
                continue
            u, v = e_u[eidx], e_v[eidx]
            grow_u = active[parent[u]]
            grow_v = active[parent[v]]
            if not (grow_u or grow_v):
                continue
            cu = cov2u[eidx] + (t - t_u[eidx]) if grow_u else cov2u[eidx]
            cv = cov2v[eidx] + (t - t_v[eidx]) if grow_v else cov2v[eidx]
            if cu + cv != w2[eidx]:   # stale: queue the true instant
                push(eidx)
                continue

            clock = t
            cov2u[eidx], cov2v[eidx] = cu, cv
            closed[eidx] = True

            if covered[u] and covered[v]:
                ru, rv = parent[u], parent[v]
                if ru == rv:
                    continue                      # internal cycle edge
                a_u, a_v = active[ru], active[rv]
                cur_ru = radius2[ru] + (clock - anchor_t[ru]) if a_u else radius2[ru]
                cur_rv = radius2[rv] + (clock - anchor_t[rv]) if a_v else radius2[rv]
                new_active = bool((parity[ru] + parity[rv]) % 2) and not (touches[ru] or touches[rv])
                set_activity(ru, new_active)
                set_activity(rv, new_active)
                fa, fb = frontier[ru], frontier[rv]
                winner = _union_meta(cs, ru, rv)
                active[winner] = new_active
                radius2[winner] = max(cur_ru, cur_rv)
                anchor_t[winner] = clock
                if len(fa) < len(fb):
                    fa, fb = fb, fa
                fa.extend(fb)
                frontier[winner] = fa
                cs.forest.append(eidx)
                num_active += new_active - a_u - a_v
                if not num_active:
                    break                 # nothing grows, so no edge can close
            else:
                x, r = (u, parent[v]) if not covered[u] else (v, parent[u])
                was_active = active[r]
                cur = radius2[r]
                cur_anchor = anchor_t[r]
                covered[x] = True
                members[x] = [x]
                winner = _union_meta(cs, r, x)
                active[winner] = was_active
                radius2[winner] = cur
                anchor_t[winner] = cur_anchor
                lst = frontier[winner] = frontier[r]
                for _, _, e2 in neighbors[x]:
                    if closed[e2]:
                        continue
                    if e_u[e2] == x:
                        t_u[e2] = clock
                        lst.append((e2, 0))
                    else:
                        t_v[e2] = clock
                        lst.append((e2, 1))
                    push(e2)
                cs.forest.append(eidx)
    finally:
        # Every written edge is a frontier entry of a current root, and
        # every written node is covered: copy the coverages out, then
        # reset exactly those entries.
        coverage2 = cs.coverage2
        for r, lst in members.items():
            for eidx, _ in frontier[r] or ():
                if eidx in coverage2:
                    continue              # the entry of the other side
                coverage2[eidx] = cov2u[eidx] + cov2v[eidx]
                closed[eidx] = False
                cov2u[eidx] = 0
                cov2v[eidx] = 0
            for x in lst:
                active[x] = False
                radius2[x] = 0
                anchor_t[x] = 0
                frontier[x] = None

    cs.op_count = op_count
    return cs


def max_growth_radius(cs: ClusterState):
    """Largest growth radius any cluster used, in scaled weight units.

    May be half-integral (frontiers meeting mid-edge); the value is exact.
    """
    return cs.radius2_log / 2


def nodes_in_clusters(cs: ClusterState) -> int:
    """Number of detector nodes absorbed into any cluster.

    Boundary nodes are covered from the start, so they are the covered
    nodes that are not detectors.
    """
    return sum(map(len, cs.members.values())) - len(cs.graph.boundaries)


def peel(g: DecodingGraph, cs: ClusterState, s: Syndrome) -> frozenset:
    """Extract a correction from the spanning forest of each cluster.

    Leaves are stripped one at a time; an edge joins the correction when the
    leaf below it carries unmatched parity.  In every tree, one boundary node
    (the lowest id, when present) is kept as the sink that absorbs leftover
    parity; other boundary leaves absorb silently.  The returned edge set
    reproduces the syndrome ``s`` exactly.
    """
    if frozenset(s.events) != cs.events:
        raise InvariantViolationError("cluster state was produced for a different syndrome")

    tree_adj = {}
    for eidx in cs.forest:
        e = g.edges[eidx]
        tree_adj.setdefault(e.u, []).append((e.v, eidx))
        tree_adj.setdefault(e.v, []).append((e.u, eidx))

    # One sink boundary per tree: walk components of the forest.
    sinks = set()
    seen = set()
    for start in sorted(tree_adj):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            node = stack.pop()
            for other, _ in tree_adj[node]:
                if other not in seen:
                    seen.add(other)
                    comp.append(other)
                    stack.append(other)
        comp_boundaries = sorted(x for x in comp if g.is_boundary[x])
        if comp_boundaries:
            sinks.add(comp_boundaries[0])

    pending = {x: True for x in cs.events}
    degree = {x: len(nbrs) for x, nbrs in tree_adj.items()}
    correction = set()
    removed = set()

    leaves = [x for x in tree_adj if degree[x] == 1 and x not in sinks]
    heapq.heapify(leaves)
    while leaves:
        x = heapq.heappop(leaves)
        if x in removed or degree.get(x, 0) != 1:
            continue
        removed.add(x)
        link = None
        for other, eidx in tree_adj[x]:
            if other not in removed:
                link = (other, eidx)
                break
        if link is None:
            continue
        other, eidx = link
        if pending.get(x, False) and not g.is_boundary[x]:
            correction.add(eidx)
            pending[other] = not pending.get(other, False)
        pending[x] = False
        degree[x] = 0
        degree[other] -= 1
        if degree[other] == 1 and other not in sinks:
            heapq.heappush(leaves, other)

    for x, flag in pending.items():
        if flag and not g.is_boundary[x]:
            raise InvariantViolationError(
                f"odd residual parity at node {x} in a boundary-free cluster")
    return frozenset(correction)
