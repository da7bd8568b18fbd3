"""Union-Find cluster decoder with exact event-driven growth.

Clusters grow from detection events until every event is paired inside a
cluster or matched to a boundary.  Growth is continuous and event-driven:
all active (odd-parity, boundary-free) clusters advance their radii together
to the next collision or node-coverage instant, computed exactly.

Internal units: edge coverage and the clock are tracked in "h-units"
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

The growth state is one flag per cluster and one number per edge side.
The clock is every active cluster's growth radius: seeds start active at
clock 0, absorbing a node keeps the radius, a merge keeps the larger one,
and a paused cluster's radius is at most the clock at which it paused.  So
the largest radius any cluster used, ``radius2_log``, is the clock at
which the last cluster stopped.  A stopped side stores its coverage and a
growing side its coverage less the clock, so at instant t it covers
``stored + t``: a pause adds the clock to each open side of the cluster, a
resume subtracts it, and a side that starts growing starts at ``-clock``.
No cluster keeps its parity either: a boundary-free cluster is active
exactly when it holds an odd number of events.  Seeds are odd and active,
an absorption keeps both, and a merge of two boundary-free clusters is
odd, and active, exactly when one of the two was.

Cluster labels are flat: ``parent[x]`` is the root of every covered node
(uncovered nodes are their own roots), and ``members`` maps each root to
its covered nodes.  A union moves the losing root's members to the
winner and relabels them.  The root rule is union by rank with the lower id
winning ties, so a relabelled node's cluster rank strictly rises, and rank
is at most log2 of the cluster size: each node is relabelled at most
log2(n) times, O(n log n) in all.  Every label lookup is then one list
read, and the contraction reads the labels instead of rebuilding them.

Per-decode work is bounded by the syndrome, not by the graph.  The growth
state (coverage flags, activity, per-edge coverage) lives in per-graph
scratch lists, allocated at the graph's first decode; each decode writes
only the entries of the detectors it covers and of their incident edges,
and resets exactly those when it ends, also when it raises.  A cluster
keeps one flag (``active``) and its member list, and no list of its open
sides: a pause, a resume and the reset walk the ``(edge, side)`` template
of each of its members and skip closed edges.  No boundary side is ever
written, because a cluster that reaches a boundary never grows again.  A
new ``ClusterState`` copies one node-sized list, ``parent``: ranks and
boundary flags are per-root dicts holding only the roots that have them.
So two decodes on one graph must not run at the same time (from two
threads).  The event loop stops when a union leaves no cluster growing:
with no growing side no edge can close, so the state is final and the
predictions still queued are dropped unpopped.  Each queued prediction
is an integer key ``t * num_edges + edge``, so the queue orders by
(instant, edge) and a popped edge needs one prediction only.
``op_count`` is the number of heap pushes plus heap pops.  Seeding reads
no state: every seed side starts at coverage 0 at clock 0, so a seed edge
closes at its h-length, or at half of it when both ends are events.  All
seed keys are built as one list from per-node ``(edge, side)`` templates
and heapified, each counted as one push; equal keys are equal integers,
so the pops come in the same order as from one push per key.

``peel`` roots each forest tree at its lowest-id boundary (at any node if
it has none) and walks it once, children first: an odd detector flips the
edge to its parent and passes the parity up, and a boundary absorbs it.
"""

import heapq

from .graphs import DecodingGraph
from .sampling import Syndrome


class InvariantViolationError(RuntimeError):
    """Internal decoder state violated a structural invariant."""


class _Scratch:
    """Per-graph decode scratch, allocated at a graph's first decode.

    ``e_u``, ``e_v`` and ``w2`` are the edges as flat lists (endpoints and
    weight in h-units).  ``sides[x]`` lists node x's ``(edge, side)``
    entries in edge order, side 1 when x is the edge's ``v`` end: seeding,
    an absorption, a pause, a resume and the reset walk it.  ``parent0``
    is the template a new ``ClusterState`` copies.  The other lists are
    ``decode``'s own: clean between decodes, because each decode resets
    the entries it wrote.  Clean is False or 0, except that
    ``covered`` holds the graph's ``is_boundary``: boundaries are covered
    from the start.
    """

    __slots__ = ("e_u", "e_v", "w2", "sides", "parent0", "covered", "active",
                 "closed", "cov2u", "cov2v")

    def __init__(self, graph: DecodingGraph):
        n, m = graph.num_nodes, graph.num_edges
        self.e_u = e_u = [e.u for e in graph.edges]
        self.e_v = e_v = [e.v for e in graph.edges]
        self.w2 = [2 * e.weight for e in graph.edges]
        self.sides = sides = [[] for _ in range(n)]
        for eidx in range(m):
            sides[e_u[eidx]].append((eidx, 0))
            sides[e_v[eidx]].append((eidx, 1))
        self.parent0 = list(range(n))
        self.covered = graph.is_boundary[:]
        self.active = [False] * n       # valid at roots
        self.closed = [False] * m
        self.cov2u = [0] * m            # per side: coverage, less the clock if growing
        self.cov2v = [0] * m


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
    each root to its covered nodes, in no particular order.  Neither
    changes once ``decode`` or ``from_partition`` has returned.
    ``rank_of`` maps a root to its rank, 0 when absent, and
    ``boundary_roots`` holds the roots whose cluster touches a boundary.
    A root that loses a union keeps its entries in both.
    ``coverage2`` maps each edge the decode grew into to its covered
    length in h-units, both sides summed; an edge it lacks is uncovered.
    """

    def __init__(self, graph: DecodingGraph, events=frozenset()):
        self.graph = graph
        self.events = frozenset(events)
        self.parent = _scratch(graph).parent0[:]
        self.rank_of = {}
        self.boundary_roots = set(graph.boundaries)
        self.members = {b: [b] for b in graph.boundaries}  # root -> covered nodes
        self.coverage2 = {}
        self.radius2_log = 0           # max growth radius ever used, h-units
        self.forest = []               # edge ids that closed causing merge/absorb
        self.op_count = 0              # heap pushes plus heap pops

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
        covered = set(graph.boundaries)
        for group in groups:
            members = sorted(set(group))
            if not members:
                continue
            for x in members:
                if not (0 <= x < graph.num_nodes):
                    raise ValueError(f"cluster member {x} out of range")
                if x not in covered:
                    covered.add(x)
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
    rank = cs.rank_of
    ka, kb = rank.get(ra, 0), rank.get(rb, 0)
    if ka < kb:
        ra, rb = rb, ra
    elif ka == kb:
        if rb < ra:
            ra, rb = rb, ra
        rank[ra] = ka + 1
    moved = cs.members.pop(rb)
    parent = cs.parent
    for x in moved:
        parent[x] = ra
    cs.members[ra].extend(moved)
    if rb in cs.boundary_roots:
        cs.boundary_roots.add(ra)
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

    touches = cs.boundary_roots
    parent = cs.parent                 # flat: the root of every covered node
    members = cs.members

    sc = _scratch(g)
    covered, active, closed = sc.covered, sc.active, sc.closed
    cov2u, cov2v = sc.cov2u, sc.cov2v
    e_u, e_v, w2, sides = sc.e_u, sc.e_v, sc.w2, sc.sides
    m = g.num_edges

    heap = []                          # keys t * m + edge: (instant, edge) order
    heappush, heappop = heapq.heappush, heapq.heappop
    op_count = 0
    clock = 0

    def push(eidx):
        # Predict the edge's closing instant from the current rates and
        # queue it.  Every caller pushes an edge with a growing side: a
        # resumed or absorbing cluster, or a stale pop that still grows.
        # A growing side covers stored + t at instant t, a stopped one
        # stored.
        nonlocal op_count
        grow_u = active[parent[e_u[eidx]]]     # uncovered nodes are never active
        grow_v = active[parent[e_v[eidx]]]
        t = w2[eidx] - cov2u[eidx] - cov2v[eidx]
        if grow_u and grow_v:
            if t & 1:
                raise InvariantViolationError(
                    f"edge {eidx} has odd remaining coverage {t - 2 * clock} "
                    "between two growing sides")
            t >>= 1
        heappush(heap, t * m + eidx)
        op_count += 1

    def set_activity(r, new_active):
        # Pause (add the clock to each open side of r's members) or resume
        # (subtract it).
        if active[r] == new_active:
            return
        active[r] = new_active
        shift = -clock if new_active else clock
        for x in members[r]:
            for eidx, side in sides[x]:
                if not closed[eidx]:
                    (cov2v if side else cov2u)[eidx] += shift
        if new_active:                 # once all are converted: an internal
            for x in members[r]:       # edge reads both its sides
                for eidx, _ in sides[x]:
                    if not closed[eidx]:
                        push(eidx)

    try:
        # Seed: one active cluster per detection event.  Its sides start at
        # clock 0 with coverage 0, which the clean scratch already holds, so
        # each seed edge closes at w2, or at w2 / 2 when both its ends are
        # events (then it is queued once per end).  No key depends on the
        # state, so they are heapified at once and counted as pushes.
        events = cs.events
        for x in events:
            covered[x] = True
            members[x] = [x]
            active[x] = True
            for eidx, side in sides[x]:
                if (e_u if side else e_v)[eidx] in events:
                    heap.append((w2[eidx] >> 1) * m + eidx)
                else:
                    heap.append(w2[eidx] * m + eidx)
        heapq.heapify(heap)
        op_count += len(heap)
        num_active = len(events)

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
            cu = cov2u[eidx] + t if grow_u else cov2u[eidx]
            cv = cov2v[eidx] + t if grow_v else cov2v[eidx]
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
                new_active = a_u != a_v and not (ru in touches or rv in touches)
                set_activity(ru, new_active)
                set_activity(rv, new_active)
                winner = _union_meta(cs, ru, rv)
                active[winner] = new_active
                cs.forest.append(eidx)
                num_active += new_active - a_u - a_v
                if not num_active:
                    break                 # nothing grows, so no edge can close
            else:
                x, r = (u, parent[v]) if not covered[u] else (v, parent[u])
                covered[x] = True
                members[x] = [x]
                winner = _union_meta(cs, r, x)
                active[winner] = active[r]
                for e2, side in sides[x]:
                    if not closed[e2]:    # r grows: a new side starts at -clock
                        (cov2v if side else cov2u)[e2] = -clock
                        push(e2)
                cs.forest.append(eidx)
    finally:
        # Every written node is a covered detector and every written edge
        # is incident to one: copy the coverages out, then reset exactly
        # those entries.  Boundaries stay covered.
        coverage2 = cs.coverage2
        is_boundary = g.is_boundary
        for lst in members.values():
            for x in lst:
                if is_boundary[x]:
                    continue
                covered[x] = False
                active[x] = False
                for eidx, _ in sides[x]:
                    if eidx in coverage2:
                        continue          # the entry of the other side
                    coverage2[eidx] = cov2u[eidx] + cov2v[eidx]
                    closed[eidx] = False
                    cov2u[eidx] = 0
                    cov2v[eidx] = 0

    cs.radius2_log = clock
    cs.op_count = op_count
    return cs


def nodes_in_clusters(cs: ClusterState) -> int:
    """Number of detector nodes absorbed into any cluster.

    Boundary nodes are covered from the start, so they are the covered
    nodes that are not detectors.
    """
    return sum(map(len, cs.members.values())) - len(cs.graph.boundaries)


def peel(g: DecodingGraph, cs: ClusterState, s: Syndrome) -> frozenset:
    """Extract a correction from the spanning forest of each cluster.

    Each tree is rooted at its lowest-id boundary, or at any node if it has
    none, and walked once, children first: a detector with odd parity puts
    the edge to its parent in the correction and passes the parity up,
    and a boundary absorbs it.  The returned edge set reproduces the
    syndrome ``s`` exactly; a detector left with odd parity (a root or a
    node outside the forest) raises InvariantViolationError.
    """
    if frozenset(s.events) != cs.events:
        raise InvariantViolationError("cluster state was produced for a different syndrome")

    tree_adj = {}
    for eidx in cs.forest:
        e = g.edges[eidx]
        tree_adj.setdefault(e.u, []).append((e.v, eidx))
        tree_adj.setdefault(e.v, []).append((e.u, eidx))

    is_boundary = g.is_boundary
    up = {}                            # node -> (parent, edge), None at roots
    order = []                         # parents before children
    for root in sorted(x for x in tree_adj if is_boundary[x]) + list(tree_adj):
        if root in up:
            continue
        up[root] = None
        stack = [root]
        while stack:
            x = stack.pop()
            order.append(x)
            for y, eidx in tree_adj[x]:
                if y not in up:
                    up[y] = (x, eidx)
                    stack.append(y)

    odd = dict.fromkeys(cs.events, True)
    correction = set()
    for x in reversed(order):
        if up[x] is not None and not is_boundary[x] and odd.pop(x, False):
            parent, eidx = up[x]
            correction.add(eidx)
            odd[parent] = not odd.get(parent, False)

    residual = [x for x, flag in odd.items() if flag and not is_boundary[x]]
    if residual:
        raise InvariantViolationError(
            f"odd residual parity at node {min(residual)} in a boundary-free cluster")
    return frozenset(correction)
