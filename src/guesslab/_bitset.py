"""Branch-and-bound helpers over Python-int bitsets."""

from __future__ import annotations

import itertools


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset_masks(n, size):
    """Bitmasks of the size-subsets of 0..n-1, in itertools.combinations order."""
    return [sum(c) for c in itertools.combinations([1 << v for v in range(n)], size)]


def _complement(adj, universe):
    """Adjacency of the complement graph within universe, by vertex."""
    return {v: ~adj[v] & universe & ~(1 << v) for v in bits(universe)}


def clique_search(adj, universe, seed=0, target=None, orbits=None, charge=None):
    """(clique, nodes, orbit_pruned): a maximum clique within universe, as a
    bitmask, with the search nodes expanded and the root candidates dropped
    by orbits.

    Tomita-style search: candidates are greedily coloured and visited in
    reverse colour order, pruning when size + colour cannot beat the best.
    The incumbent starts as the larger of `seed`, a clique within universe,
    and a greedy clique.  The search returns its incumbent early once that
    has `target` vertices.  charge(1), if given, runs as each node is
    expanded.  orbits[v] is a bitmask of vertices that automorphisms of the
    graph within universe map to v: a clique through one of them is the
    image of one through v, so once the root has branched on v they leave
    its candidates.  Depth first over an explicit stack.

    The search colours in label order.  If it has not finished after
    |universe| nodes, it starts again in reverse degeneracy order (label 0
    is the last vertex a min-degree peel removes), from its incumbent.  The
    peel and the relabelling are not charged: they take O(|universe| +
    edges) word operations, no more than colouring those nodes did, but
    they walk the edges one at a time in Python, so on a large dense graph
    they can take longer than the first pass.  nodes, orbit_pruned and the
    charge cover both passes.  clique_by_parts splits universe first.
    """
    m = universe.bit_count()
    if target is None:
        target = m + 1
    best, nodes, pruned, done = _search(adj, universe, seed, target, orbits, charge, m)
    if done:
        return best, nodes, pruned
    old = _peel_order(adj, universe)[::-1]  # the vertex given each new label
    new = {v: i for i, v in enumerate(old)}

    def relabel(mask):
        return sum(1 << new[v] for v in bits(mask & universe))

    best, more, dropped, _ = _search(
        [relabel(adj[v]) for v in old], (1 << m) - 1, relabel(best), target,
        None if orbits is None else [relabel(orbits[v]) for v in old], charge, None,
    )
    return sum(1 << old[i] for i in bits(best)), nodes + more, pruned + dropped


def clique_by_parts(adj, universe, seed=0, target=None, orbits=None, charge=None):
    """clique_search on each part of universe, with its return value.  The
    parts are the connected components of the complement within universe,
    lowest vertex first: a maximum clique joins a maximum one from each.
    Each part starts from `seed` within it and aims at `target` less what
    the others hold; once the parts hold `target`, no more are searched.
    An automorphism taking a vertex of a part into it maps the part onto
    itself, so `orbits` serve every part."""
    clique, nodes, pruned, left = seed, 0, 0, universe
    while left and (target is None or clique.bit_count() < target):
        part = todo = left & -left
        while todo:  # the part's vertices not yet expanded, lowest first
            low = todo & -todo
            new = ~adj[low.bit_length() - 1] & left & ~part
            part |= new
            todo = (todo ^ low) | new
        left &= ~part
        rest = clique & ~part
        goal = None if target is None else target - rest.bit_count()
        found, spent, dropped = clique_search(adj, part, seed & part, goal, orbits, charge)
        clique, nodes, pruned = rest | found, nodes + spent, pruned + dropped
    return clique, nodes, pruned


def _peel_order(adj, universe):
    """The vertices of universe in the order a min-degree peel removes them,
    ties to the smallest label, over buckets of vertices by degree."""
    degree = {v: (adj[v] & universe).bit_count() for v in bits(universe)}
    buckets = [0] * (max(degree.values(), default=0) + 1)
    for v, d in degree.items():
        buckets[d] |= 1 << v
    out = []
    left = universe
    d = 0
    while left:
        while not buckets[d]:
            d += 1
        low = buckets[d] & -buckets[d]
        buckets[d] ^= low
        left ^= low
        v = low.bit_length() - 1
        out.append(v)
        for u in bits(adj[v] & left):
            buckets[degree[u]] ^= 1 << u
            degree[u] -= 1
            buckets[degree[u]] |= 1 << u
        d = max(d - 1, 0)
    return out


def _search(adj, universe, seed, target, orbits, charge, limit):
    """clique_search in label order, (clique, nodes, orbit_pruned, done):
    done is False if it stopped with `limit` nodes expanded."""
    best = seed
    greedy = 0
    cand = universe
    while cand:
        v = (cand & -cand).bit_length() - 1
        greedy |= 1 << v
        cand &= adj[v]
    if greedy.bit_count() > best.bit_count():
        best = greedy
    best_size = best.bit_count()
    nodes = pruned = 0
    if best_size >= target:
        return best, nodes, pruned, True
    # the open ancestors of the node in hand, each as (clique, size,
    # candidates, colour order, bounds, next index, vertex branched on)
    frames = []
    r, size, p = 0, 0, universe
    while True:
        if nodes == limit:
            return best, nodes, pruned, False
        nodes += 1
        if charge is not None:
            charge(1)
        # colour every candidate, but list only the colours that can beat
        # the incumbent: it only grows, so the rest would never branch
        order = []
        bound = []
        colour = 0
        skip = best_size - size
        rest = p
        while rest:
            colour += 1
            avail = rest
            if colour <= skip:
                while avail:
                    low = avail & -avail
                    rest ^= low
                    avail = (avail ^ low) & ~adj[low.bit_length() - 1]
                continue
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append(v)
                bound.append(colour)
                rest ^= low
                avail = (avail ^ low) & ~adj[v]
        i = len(order) - 1
        if not p and size > best_size:
            best, best_size = r, size
            if best_size >= target:
                return best, nodes, pruned, True
        # the next candidate to branch on, back up the stack past finished nodes
        while True:
            while i >= 0 and size + bound[i] > best_size and not p >> order[i] & 1:
                i -= 1  # the root dropped order[i] with an orbit
            if i >= 0 and size + bound[i] > best_size:
                break
            if not frames:
                return best, nodes, pruned, True
            r, size, p, order, bound, i, v = frames.pop()
            p &= ~(1 << v)
            if orbits is not None and not frames:
                pruned += (p & orbits[v]).bit_count()
                p &= ~orbits[v]
        v = order[i]
        frames.append((r, size, p, order, bound, i - 1, v))
        r, size, p = r | 1 << v, size + 1, p & adj[v]


def max_clique(adj, n, universe=None):
    """Bitmask of a maximum clique of the graph given by adjacency bitmasks,
    by clique_by_parts, refused past params.WORK_CAP nodes, read when called."""
    # read here, not passed in: perfbench/spans.py counts this function's
    # work from (adj, n, universe) alone; params imports this module
    from . import params

    universe = (1 << n) - 1 if universe is None else universe
    return clique_by_parts(adj, universe, charge=params._meter("max clique search nodes"))[0]


def maximal_cliques_containing(adj, seed_mask, allowed, charge=None):
    """All maximal cliques within `allowed` that contain `seed_mask`.

    Bron-Kerbosch with pivoting on the common neighbourhood of the seed,
    depth first over an explicit stack; charge(1), if given, runs before
    each call.
    """
    out, frames = [], []  # frames: the open calls, as [r, p, x, branch vertices left]

    def call(r, p, x):
        if charge is not None:
            charge(1)
        if p | x:
            pivot = ((p | x) & -(p | x)).bit_length() - 1
            frames.append([r, p, x, p & ~adj[pivot]])
        else:
            out.append(r)

    p = allowed & ~seed_mask
    for v in bits(seed_mask):
        p &= adj[v]
    call(seed_mask, p, 0)
    while frames:
        r, p, x, left = frame = frames[-1]
        if not left:
            frames.pop()
            continue
        v = (left & -left).bit_length() - 1
        frame[1:] = p & ~(1 << v), x | 1 << v, left & ~(1 << v)
        call(r | 1 << v, p & adj[v], x & adj[v])
    return out
