"""Independent reference implementations used to check the library.

Everything here deliberately avoids the library's search code: shortest
paths come from plain Bellman-Ford relaxation (or exhaustive path
enumeration on tiny graphs), bottleneck connectivity from threshold
enumeration over all-pairs part distances, syndromes from a direct
parity recount, each sample's flips from its own blake2b calls and a
linear scan for each geometric skip, cluster roots from a tree
union-find with path compression, the contraction from a scan over every
node, and sweep CSV text from one list of strings per record, each float
printed by ``repr(float(x))``.
The per-node views of a ``ClusterState`` (``state_covered`` and the
others) are rebuilt here from its per-root fields.
"""

import csv
import hashlib
import heapq
import io
import random

from softgap.graphs import DecodingGraph, Edge
from softgap.harness import CSV_HEADER


def quotient_edges(graph, rep):
    """Edge list of the contracted graph: (part_u, part_v, weight)."""
    out = []
    for e in graph.edges:
        a, b = rep[e.u], rep[e.v]
        if a != b:
            out.append((a, b, e.weight))
    return out


def rep_map(graph, cs):
    return [cs.parent[x] for x in range(graph.num_nodes)]


# Per-node views of a ClusterState, rebuilt from its per-root fields.

def state_covered(cs):
    """Per node: whether it is in a cluster."""
    members = cs.members
    return [r in members for r in cs.parent]


def state_rank(cs):
    """Per node: its ``rank_of`` entry, 0 when absent."""
    get = cs.rank_of.get
    return [get(x, 0) for x in range(len(cs.parent))]


def state_touches_boundary(cs):
    """Per node: whether it is in ``boundary_roots``."""
    flags = cs.boundary_roots
    return [x in flags for x in range(len(cs.parent))]


def state_clusters(cs):
    """Map root -> sorted covered members, one entry per cluster (boundary
    singletons included), ordered by smallest member."""
    parent = cs.parent
    return {parent[lst[0]]: lst for lst in sorted(map(sorted, cs.members.values()))}


def oracle_contract(graph, cs):
    """(rep, members, sources) of the contraction, from ``cs.find`` over
    every node: members only for multi-node parts, sorted; sources are
    the sorted parts of the covered nodes."""
    rep = rep_map(graph, cs)
    covered = state_covered(cs)
    members = {}
    for x in range(graph.num_nodes):
        if covered[x]:
            members.setdefault(rep[x], []).append(x)
    sources = tuple(sorted(members))
    return rep, {r: lst for r, lst in members.items() if len(lst) > 1}, sources


def oracle_partition_roots(graph, groups):
    """Node -> root after ``ClusterState.from_partition(graph, groups)``,
    from a parent-pointer union-find with path compression and the same
    root rule: union by rank, the lower id winning ties; each group's
    smallest node is joined with each of its other nodes in ascending
    order."""
    parent = list(range(graph.num_nodes))
    rank = [0] * graph.num_nodes

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for group in groups:
        nodes = sorted(set(group))
        for x in nodes[1:]:
            ra, rb = find(nodes[0]), find(x)
            if ra == rb:
                continue
            if rank[ra] < rank[rb] or (rank[ra] == rank[rb] and rb < ra):
                ra, rb = rb, ra
            if rank[ra] == rank[rb]:
                rank[ra] += 1
            parent[rb] = ra
    return [find(x) for x in range(graph.num_nodes)]


def oracle_words(master_seed, sample_index, count):
    """The first ``count`` words of a sample's stream: word j is the j-th
    little-endian uint64 of the blake2b digests, keyed by the master seed
    mod 2**64 as 8 bytes, of the index as 16 bytes and a block number as 8
    bytes, block after block."""
    if sample_index < 0 or sample_index >= 2**128:
        raise ValueError(f"sample index {sample_index} is outside [0, 2**128)")
    key = (master_seed % 2**64).to_bytes(8, "little")
    stream = b""
    block = 0
    while len(stream) < 8 * count:
        message = sample_index.to_bytes(16, "little") + block.to_bytes(8, "little")
        stream += hashlib.blake2b(message, key=key, digest_size=64).digest()
        block += 1
    return [int.from_bytes(stream[8 * j:8 * j + 8], "little") for j in range(count)]


def oracle_skip(p, size, word):
    """Edges a word skips in a group of ``size`` edges of probability p: the
    largest k <= size with int((1 - (1-p)**k) * 2**64) <= word, the
    survival (1-p)**k built one multiplication at a time, by a linear
    scan."""
    survival = 1.0
    k = 0
    while k < size:
        survival = survival * (1.0 - p)
        if int((1.0 - survival) * 2**64) > word:
            break
        k += 1
    return k


def oracle_flipped_edges(graph, master_seed, sample_index):
    """Edges flipped in one sample: the edges grouped by distinct p > 0 in
    order of first appearance, each group walked by geometric skips, one
    word of the sample's stream per skip."""
    groups = {}
    for i, e in enumerate(graph.edges):
        if e.prob > 0:
            groups.setdefault(e.prob, []).append(i)
    words = iter(oracle_words(master_seed, sample_index, graph.num_edges + len(groups)))
    flipped = set()
    for p, edges in groups.items():
        pos = oracle_skip(p, len(edges), next(words))
        while pos < len(edges):
            flipped.add(edges[pos])
            pos = pos + 1 + oracle_skip(p, len(edges), next(words))
    return frozenset(flipped)


def bellman_ford(parts, qedges, source):
    """Plain repeated-relaxation shortest paths over part ids."""
    dist = {p: None for p in parts}
    dist[source] = 0
    changed = True
    while changed:
        changed = False
        for a, b, w in qedges:
            da, db = dist[a], dist[b]
            if da is not None and (db is None or da + w < db):
                dist[b] = da + w
                changed = True
            elif db is not None and (da is None or db + w < da):
                dist[a] = db + w
                changed = True
    return dist


def oracle_cluster_gap(graph, cs):
    """Shortest contracted b1..b2 distance via Bellman-Ford."""
    rep = rep_map(graph, cs)
    parts = set(rep)
    qedges = quotient_edges(graph, rep)
    b1, b2 = rep[graph.boundaries[0]], rep[graph.boundaries[1]]
    if b1 == b2:
        return 0
    return bellman_ford(parts, qedges, b1)[b2]


def oracle_visited(graph, cs, bound=None):
    """Parts a Dijkstra search from b1 settles, popping in (distance, part
    id) order, from the Bellman-Ford part distances.

    Those with (distance, part id) <= (gap, b2's part); with ``bound`` set
    and the gap beyond it, those with distance <= bound.  One when b1 and
    b2 share a part.
    """
    rep = rep_map(graph, cs)
    parts = set(rep)
    b1, b2 = rep[graph.boundaries[0]], rep[graph.boundaries[1]]
    if b1 == b2:
        return 1
    dist = bellman_ford(parts, quotient_edges(graph, rep), b1)
    gap = dist[b2]
    if bound is not None and gap > bound:
        return sum(1 for x in parts if dist[x] is not None and dist[x] <= bound)
    return sum(1 for x in parts if dist[x] is not None and (dist[x], x) <= (gap, b2))


def oracle_all_paths_gap(graph, cs, max_nodes=12):
    """Exhaustive simple-path minimum for very small graphs."""
    rep = rep_map(graph, cs)
    if graph.num_nodes > max_nodes + len(graph.boundaries):
        raise ValueError("graph too large for exhaustive enumeration")
    adj = {}
    for a, b, w in quotient_edges(graph, rep):
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    b1, b2 = rep[graph.boundaries[0]], rep[graph.boundaries[1]]
    if b1 == b2:
        return 0
    best = None

    def walk(x, seen, total):
        nonlocal best
        if best is not None and total >= best:
            return
        if x == b2:
            best = total
            return
        for y, w in adj.get(x, ()):
            if y not in seen:
                walk(y, seen | {y}, total + w)

    walk(b1, {b1}, 0)
    return best


def oracle_part_distances(graph, cs):
    """All-pairs contracted distances between grown parts (clusters and
    boundaries), via one Bellman-Ford per part."""
    rep = rep_map(graph, cs)
    parts = set(rep)
    qedges = quotient_edges(graph, rep)
    covered = state_covered(cs)
    sources = sorted({rep[x] for x in range(graph.num_nodes) if covered[x]})
    table = {}
    for srt in sources:
        dist = bellman_ford(parts, qedges, srt)
        for other in sources:
            if other > srt and dist[other] is not None:
                table[(srt, other)] = dist[other]
    return sources, table


def oracle_covered_labels(graph, cs, eps_max):
    """{part: distance to the nearest grown part} for every part within
    eps_max/2 of one, from one Bellman-Ford per grown part (cluster or
    boundary): what simultaneous growth of every grown part covers at
    budget ``eps_max``."""
    rep = rep_map(graph, cs)
    parts = set(rep)
    qedges = quotient_edges(graph, rep)
    label = {}
    covered = state_covered(cs)
    for srt in {rep[x] for x in range(graph.num_nodes) if covered[x]}:
        for part, d in bellman_ford(parts, qedges, srt).items():
            if d is not None and 2 * d <= eps_max and d < label.get(part, d + 1):
                label[part] = d
    return label


def oracle_covered_gap(graph, cs, eps_max):
    """Shortest b1..b2 distance over the region that simultaneous growth of
    every grown part covers at budget ``eps_max``: the parts within
    eps_max/2 of their nearest grown part, joined by the edges with
    d(a) + w + d(b) <= eps_max.  None when that region does not join them.
    """
    rep = rep_map(graph, cs)
    label = oracle_covered_labels(graph, cs, eps_max)
    covered = [(a, b, w) for a, b, w in quotient_edges(graph, rep)
               if a in label and b in label and label[a] + w + label[b] <= eps_max]
    b1, b2 = rep[graph.boundaries[0]], rep[graph.boundaries[1]]
    return bellman_ford(set(label), covered, b1)[b2]


def oracle_bottleneck_gap(graph, cs, eps_max):
    """Minimax bottleneck connection threshold between the two boundaries.

    Sorts every pairwise part distance and unions pairs in increasing
    order; the answer is the first threshold at which the boundary parts
    become connected, capped at eps_max (None beyond it).
    """
    rep = rep_map(graph, cs)
    sources, table = oracle_part_distances(graph, cs)
    b1, b2 = rep[graph.boundaries[0]], rep[graph.boundaries[1]]
    if b1 == b2:
        return 0
    parent = {s: s for s in sources}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b), dist in sorted(table.items(), key=lambda kv: kv[1]):
        if dist > eps_max:
            break
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
        if find(b1) == find(b2):
            return dist
    return None


def oracle_syndrome(graph, flipped_edges):
    """Parity recount over the incident flipped edges of every detector."""
    odd = set()
    for i in flipped_edges:
        e = graph.edges[i]
        for x in (e.u, e.v):
            if not graph.is_boundary[x]:
                if x in odd:
                    odd.remove(x)
                else:
                    odd.add(x)
    return frozenset(odd)


def oracle_records_csv(records, metadata=None):
    """``records_to_csv`` text, read field by field from each record's
    attributes: one row of strings per record, each float formatted on
    its own, one ``writerow`` call per row, and after a header the
    closing line with the number of rows."""
    def fmt(x):
        return repr(float(x))

    buf = io.StringIO()
    if metadata:
        for k in sorted(metadata):
            buf.write(f"# {k}={metadata[k]}\n")
    buf.write(CSV_HEADER + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for r in records:
        writer.writerow([str(r.d), fmt(r.p), str(r.sample), r.method,
                         "true" if r.defined else "false",
                         "" if r.gap_db is None else fmt(r.gap_db),
                         str(r.visited_nodes), str(r.extra_nodes),
                         fmt(r.max_growth_db), str(r.nodes_in_clusters)])
    if metadata:
        buf.write(f"# records={len(records)}\n")
    return buf.getvalue()


def random_graph(rng: random.Random, max_nodes=200,
                 min_nodes=6, max_weight_nat=8.0):
    """Random connected graph with two boundaries and integer weights."""
    n = rng.randrange(min_nodes, max_nodes + 1)
    scale = 2_000_000
    edges = []
    order = list(range(1, n))
    rng.shuffle(order)
    attached = [0]
    for x in order:                     # random spanning tree
        y = rng.choice(attached)
        w = rng.randrange(0, int(max_weight_nat * scale) + 1)
        edges.append(Edge(min(x, y), max(x, y), w))
        attached.append(x)
    extra = rng.randrange(0, n)
    for _ in range(extra):
        x = rng.randrange(n)
        y = rng.randrange(n)
        if x != y:
            w = rng.randrange(0, int(max_weight_nat * scale) + 1)
            edges.append(Edge(min(x, y), max(x, y), w))
    b1, b2 = rng.sample(range(n), 2)
    return DecodingGraph(n, (b1, b2), edges)


def random_clusters(rng: random.Random, graph, max_clusters=6, max_size=8):
    """Random connected node groups to stand in for decoder clusters.

    Groups are grown by BFS from random seeds and kept disjoint; they may
    swallow a boundary node.
    """
    taken = set()
    groups = []
    for _ in range(rng.randrange(0, max_clusters + 1)):
        seed = rng.randrange(graph.num_nodes)
        if seed in taken:
            continue
        size = rng.randrange(1, max_size + 1)
        group = [seed]
        taken.add(seed)
        frontier = [seed]
        while frontier and len(group) < size:
            x = frontier.pop(rng.randrange(len(frontier)))
            for y, _, _ in graph.neighbors[x]:
                if y not in taken and len(group) < size:
                    taken.add(y)
                    group.append(y)
                    frontier.append(y)
        groups.append(group)
    return groups


def random_rough_graph(rng: random.Random, max_nodes=40):
    """Random connected graph with the cases the phenomenological graphs
    lack: zero-weight edges, parallel edges and two to five boundaries.

    Weights are small multiples of one unit, so equal distances (ties)
    are common.
    """
    n = rng.randrange(6, max_nodes + 1)
    unit = 1_000_000
    edges = []
    for x in range(1, n):               # random spanning tree
        y = rng.randrange(x)
        edges.append(Edge(y, x, rng.choice((0, 0, 1, 2, 3)) * unit))
    for _ in range(rng.randrange(n)):
        if rng.random() < 0.3:          # parallel copy of an existing edge
            e = rng.choice(edges)
            edges.append(Edge(e.u, e.v, rng.choice((0, 1, 2)) * unit))
        else:
            x, y = rng.sample(range(n), 2)
            edges.append(Edge(min(x, y), max(x, y), rng.choice((0, 1, 2, 3)) * unit))
    boundaries = rng.sample(range(n), rng.randrange(2, 6))
    return DecodingGraph(n, boundaries, edges)


def random_groups(rng: random.Random, graph, max_groups=4, max_size=6):
    """Random disjoint node sets, not necessarily connected, for
    ``ClusterState.from_partition``; one in three swallows the first
    boundary."""
    free = list(range(graph.num_nodes))
    rng.shuffle(free)
    groups = []
    for _ in range(rng.randrange(0, max_groups + 1)):
        size = rng.randrange(1, max_size + 1)
        group, free = free[:size], free[size:]
        if group:
            groups.append(group)
    b1 = graph.boundaries[0]
    if groups and rng.random() < 1 / 3 and b1 in free:
        groups[0].append(b1)
    return groups


class CountingHeapq:
    """Stand-in for the ``heapq`` module that counts pushes and pops, to
    be patched into a module under test.  ``heapify`` counts one push per
    item, as if each had been pushed."""

    def __init__(self):
        self.pushes = 0
        self.pops = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        self.pops += 1
        return heapq.heappop(heap)

    def heapify(self, heap):
        self.pushes += len(heap)
        heapq.heapify(heap)
