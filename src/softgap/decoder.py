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
"""

import heapq

from .graphs import DecodingGraph
from .sampling import Syndrome


class InvariantViolationError(RuntimeError):
    """Internal decoder state violated a structural invariant."""


class ClusterState:
    """Final cluster partition produced by :func:`decode`.

    Boundary nodes are covered from the start as their own passive
    zero-radius clusters; a cluster that reaches one becomes inactive.
    ``parent[x]`` is the root of every covered node and ``members`` maps
    each root to its covered nodes, in no particular order.
    """

    def __init__(self, graph: DecodingGraph, events=frozenset()):
        n = graph.num_nodes
        self.graph = graph
        self.events = frozenset(events)
        self.parent = list(range(n))
        self.rank = [0] * n
        self.covered = [False] * n
        self.parity = [0] * n          # valid at cluster roots
        self.touches_boundary = list(graph.is_boundary)
        self.members = {}              # root -> covered nodes of its cluster
        self.cov2_u = None             # per-edge coverage from the u side, h-units
        self.cov2_v = None
        self.radius2_log = 0           # max growth radius ever used, h-units
        self.forest = []               # edge ids that closed causing merge/absorb
        self.op_count = 0              # event-queue operations, for complexity checks
        for b in graph.boundaries:
            self.covered[b] = True
            self.members[b] = [b]

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

    active = [False] * g.num_nodes     # valid at roots
    radius2 = [0] * g.num_nodes        # banked growth radius per root, h-units
    anchor_t = [0] * g.num_nodes       # clock anchor while active
    frontier = [None] * g.num_nodes    # per-root list of (edge, side) entries

    e_u, e_v, _w = g.edge_arrays()
    w2 = getattr(g, "_w2_array", None)
    if w2 is None:
        w2 = [2 * wv for wv in _w]
        object.__setattr__(g, "_w2_array", w2)
    num_edges = g.num_edges
    closed = [False] * num_edges
    cov2u = [0] * num_edges            # anchored coverage per side, h-units
    cov2v = [0] * num_edges
    t_u = [0] * num_edges              # anchor clock per side
    t_v = [0] * num_edges

    heap = []
    op_count = 0
    clock = 0

    def predict(eidx):
        if closed[eidx]:
            return None
        grow_u = active[parent[e_u[eidx]]]     # uncovered nodes are never active
        grow_v = active[parent[e_v[eidx]]]
        rate = grow_u + grow_v
        if rate == 0:
            return None
        cu = cov2u[eidx] + (clock - t_u[eidx]) if grow_u else cov2u[eidx]
        cv = cov2v[eidx] + (clock - t_v[eidx]) if grow_v else cov2v[eidx]
        rem = w2[eidx] - cu - cv
        if rate == 1:
            return clock + rem
        if rem & 1:
            raise InvariantViolationError(
                f"edge {eidx} has odd remaining coverage {rem} between two growing sides")
        return clock + (rem >> 1)

    def push(eidx):
        nonlocal op_count
        t = predict(eidx)
        if t is not None:
            heapq.heappush(heap, (t, eidx))
            op_count += 1

    def current_radius(r):
        if active[r]:
            return radius2[r] + (clock - anchor_t[r])
        return radius2[r]

    def set_activity(r, new_active):
        nonlocal op_count
        if active[r] == new_active:
            return
        entries = frontier[r]
        op_count += len(entries)
        if active[r]:                  # pause: bank radius, freeze coverages
            radius2[r] += clock - anchor_t[r]
            if radius2[r] > cs.radius2_log:
                cs.radius2_log = radius2[r]
            active[r] = False
            for eidx, side in entries:
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
            for eidx, side in entries:
                if closed[eidx]:
                    continue
                if side == 0:
                    t_u[eidx] = clock
                else:
                    t_v[eidx] = clock
                push(eidx)

    # Seed: one active cluster per detection event.
    for x in sorted(cs.events):
        covered[x] = True
        members[x] = [x]
        parity[x] = 1
        active[x] = True
        lst = []
        for _, _, eidx in g.neighbors[x]:
            side = 0 if e_u[eidx] == x else 1
            lst.append((eidx, side))
        frontier[x] = lst
        for eidx, _ in lst:
            push(eidx)
    for b in g.boundaries:
        frontier[b] = []

    while heap:
        t_pred, eidx = heapq.heappop(heap)
        op_count += 1
        if closed[eidx]:
            continue
        t_now = predict(eidx)
        if t_now is None:
            continue
        if t_now != t_pred:
            heapq.heappush(heap, (t_now, eidx))
            op_count += 1
            continue

        clock = t_pred
        u, v = e_u[eidx], e_v[eidx]
        grow_u = active[parent[u]]
        grow_v = active[parent[v]]
        cu = cov2u[eidx] + (clock - t_u[eidx]) if grow_u else cov2u[eidx]
        cv = cov2v[eidx] + (clock - t_v[eidx]) if grow_v else cov2v[eidx]
        if cu + cv != w2[eidx]:
            raise InvariantViolationError(
                f"edge {eidx} closed with coverage {cu}+{cv} != {w2[eidx]}")
        cov2u[eidx], cov2v[eidx] = cu, cv
        t_u[eidx] = t_v[eidx] = clock
        closed[eidx] = True

        if covered[u] and covered[v]:
            ru, rv = parent[u], parent[v]
            if ru == rv:
                continue                      # internal cycle edge
            cur_ru = current_radius(ru)
            cur_rv = current_radius(rv)
            new_parity = (parity[ru] + parity[rv]) % 2
            new_touch = touches[ru] or touches[rv]
            new_active = bool(new_parity) and not new_touch
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
            lst = frontier[r]
            for _, _, e2 in g.neighbors[x]:
                if e2 == eidx or closed[e2]:
                    continue
                if e_u[e2] == x:
                    cov2u[e2] = 0
                    t_u[e2] = clock
                    lst.append((e2, 0))
                else:
                    cov2v[e2] = 0
                    t_v[e2] = clock
                    lst.append((e2, 1))
                push(e2)
            frontier[winner] = lst
            cs.forest.append(eidx)

    cs.cov2_u = cov2u
    cs.cov2_v = cov2v
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
    return cs.covered.count(True) - len(cs.graph.boundaries)


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
