"""The max-clique search over an explicit stack, against the recursive
search it replaced, past the node count at which it reorders, one part of
the complement at a time, and on a clique deeper than Python's recursion
limit."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guesslab import params
from guesslab._bitset import _complement, _peel_order, bits, clique_by_parts, clique_search
from guesslab.cli import main
from guesslab.digraph import Digraph
from guesslab.errors import ResourceBoundError
from guesslab.params import acyclic_number
from guesslab.serialize import emit_dot


def recursive_clique_search(adj, universe, seed=0, target=None, orbits=None):
    """Reference: the same Tomita-style search with one Python call per
    node, unbounded; (clique, nodes, orbit_pruned) as clique_search."""
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
    if target is None:
        target = universe.bit_count() + 1
    nodes = pruned = 0

    class Stop(Exception):
        pass

    def expand(r_mask, r_size, p, drop):
        nonlocal best, best_size, nodes, pruned
        nodes += 1
        if p == 0:
            if r_size > best_size:
                best, best_size = r_mask, r_size
                if best_size >= target:
                    raise Stop
            return
        order = []
        bound = []
        colour = 0
        rest = p
        while rest:
            colour += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append(v)
                bound.append(colour)
                rest &= ~(1 << v)
                avail &= rest & ~adj[v]
        for i in range(len(order) - 1, -1, -1):
            if r_size + bound[i] <= best_size:
                return
            v = order[i]
            if p >> v & 1:
                expand(r_mask | (1 << v), r_size + 1, p & adj[v], None)
                p &= ~(1 << v)
                if drop is not None:
                    pruned += (p & drop[v]).bit_count()
                    p &= ~drop[v]

    if best_size < target:
        try:
            expand(0, 0, universe, orbits)
        except Stop:
            pass
    return best, nodes, pruned


def _orbits(rng, n):
    """A random partition of range(n), as the block bitmask of each vertex."""
    label = [rng.randrange(max(1, n // 2)) for _ in range(n)]
    blocks = {}
    for v, b in enumerate(label):
        blocks[b] = blocks.get(b, 0) | 1 << v
    return [blocks[b] for b in label]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.integers(0, 22), st.sampled_from([0.2, 0.5, 0.8]),
       st.booleans(), st.booleans(), st.booleans())
def test_stack_search_matches_the_recursive_one(seed, n, p, with_seed, with_target, with_orbits):
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    universe = sum(1 << v for v in range(n) if rng.random() < 0.9)
    start = 0
    if with_seed:  # a clique within universe, grown greedily from a random vertex
        cand = universe
        while cand and rng.random() < 0.8:
            v = rng.choice(list(bits(cand)))
            start |= 1 << v
            cand &= adj[v]
    target = rng.randint(0, n + 1) if with_target else None
    orbits = _orbits(rng, n) if with_orbits else None
    want = recursive_clique_search(adj, universe, start, target, orbits)
    # each of these searches ends within |universe| nodes, in label order
    # (an empty universe's root is searched again, as the same one node)
    assert want[1] <= universe.bit_count() or not universe
    assert clique_search(adj, universe, start, target, orbits) == want
    # a charge of one unit per node, with no cap, counts the nodes
    charged = []
    assert clique_search(adj, universe, start, target, orbits, charged.append) == want
    assert charged == [1] * want[1]


def _gnp_with_swap(rng, n, p):
    """Two copies of G(n / 2, p), for even n, joined by a random symmetric
    relation B (v ~ w' iff B(v, w)), and the orbits of the automorphism
    that swaps each vertex v with its copy v'."""
    h = n // 2
    adj = [0] * n

    def join(x, y):
        adj[x] |= 1 << y
        adj[y] |= 1 << x

    for u, v in itertools.combinations(range(h), 2):
        if rng.random() < p:
            join(u, v)
            join(u + h, v + h)
    for u, v in itertools.combinations_with_replacement(range(h), 2):
        if rng.random() < p:
            join(u, v + h)
            join(v, u + h)
    return adj, [1 << v | 1 << (v + h) % n for v in range(n)]


@pytest.mark.parametrize("with_seed, with_target, with_orbits", itertools.product([False, True], repeat=3))
def test_search_past_the_reorder(with_seed, with_target, with_orbits):
    crossed = 0
    for i, (n, p, _) in enumerate(itertools.product([26, 30, 34, 40], [0.3, 0.5, 0.7], range(3))):
        rng = random.Random(i)
        if with_orbits:
            adj, orbits = _gnp_with_swap(rng, n, p)
        else:
            adj, orbits = [0] * n, None
            for u, v in itertools.combinations(range(n), 2):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        universe = 0
        for v in range(n):
            if rng.random() < 0.9:  # with orbits, a union of them
                universe |= 1 << v if orbits is None else orbits[v]
        omega = recursive_clique_search(adj, universe)[0].bit_count()
        start = 0
        if with_seed:  # a clique within universe, grown from random vertices
            cand = universe
            while cand and rng.random() < 0.8:
                v = rng.choice(list(bits(cand)))
                start |= 1 << v
                cand &= adj[v]
        # a target of omega or omega + 1 still asks for a maximum clique
        target = omega + rng.randint(0, 1) if with_target else None
        charged = []
        clique, nodes, _ = clique_search(adj, universe, start, target, orbits, charged.append)
        assert clique & ~universe == 0
        assert all((adj[v] | 1 << v) & clique == clique for v in bits(clique))
        assert clique.bit_count() == omega
        assert charged == [1] * nodes
        crossed += nodes > universe.bit_count()
    assert crossed


def complement_parts(adj, universe):
    """The connected components of the complement within universe, as
    bitmasks, lowest vertex first, by a plain search over vertex lists."""
    parts, left = [], list(bits(universe))
    while left:
        part, todo = {left[0]}, [left[0]]
        while todo:
            v = todo.pop()
            more = [u for u in left if u not in part and not adj[v] >> u & 1]
            part.update(more)
            todo += more
        parts.append(sum(1 << v for v in part))
        left = [v for v in left if v not in part]
    return parts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.integers(1, 4), st.booleans(), st.booleans(), st.booleans())
def test_parts_add_up(seed, count, joined, with_seed, with_target):
    # 1-4 random graphs, side by side or each joined to all the others,
    # under shuffled labels: with no edges between them the complement is
    # one part, and joined the parts are (at most) the graphs themselves
    rng = random.Random(seed)
    sizes = [rng.randint(1, 7) for _ in range(count)]
    n = sum(sizes)
    label = rng.sample(range(n), n)
    block = [i for i, size in enumerate(sizes) for _ in range(size)]
    p = rng.choice([0.2, 0.5, 0.8])
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if (joined and block[u] != block[v]) or (block[u] == block[v] and rng.random() < p):
            adj[label[u]] |= 1 << label[v]
            adj[label[v]] |= 1 << label[u]
    universe = sum(1 << v for v in range(n) if rng.random() < 0.9)
    start = 0
    if with_seed:  # a clique within universe, grown from random vertices
        cand = universe
        while cand and rng.random() < 0.8:
            v = rng.choice(list(bits(cand)))
            start |= 1 << v
            cand &= adj[v]
    omega = recursive_clique_search(adj, universe)[0].bit_count()
    target = rng.randint(0, n + 1) if with_target else None
    charged = []
    clique, nodes, _ = clique_by_parts(adj, universe, start, target, None, charged.append)
    assert clique & ~universe == 0
    assert all((adj[v] | 1 << v) & clique == clique for v in bits(clique))
    if target is None:
        assert clique.bit_count() == omega
    else:
        assert clique.bit_count() >= min(target, omega)
    assert charged == [1] * nodes
    # the same as clique_search on each part in turn, from the seed inside
    # it, aiming at what the other parts leave of the target
    want = (start, 0, 0)
    for part in complement_parts(adj, universe):
        if target is not None and want[0].bit_count() >= target:
            break
        rest = want[0] & ~part
        goal = None if target is None else target - rest.bit_count()
        found, spent, dropped = clique_search(adj, part, start & part, goal)
        want = (rest | found, want[1] + spent, want[2] + dropped)
    assert (clique, nodes, 0) == want


def naive_peel(adj, universe):
    """Remove a vertex of least degree, the least such label, until none is left."""
    out, left = [], universe
    while left:
        v = min(bits(left), key=lambda v: ((adj[v] & left).bit_count(), v))
        out.append(v)
        left &= ~(1 << v)
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.integers(0, 30), st.sampled_from([0.1, 0.3, 0.5, 0.8]))
def test_peel_order_is_the_min_degree_peel(seed, n, p):
    rng = random.Random(seed)
    adj = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    universe = sum(1 << v for v in range(n) if rng.random() < 0.8)
    assert _peel_order(adj, universe) == naive_peel(adj, universe)


def _star():
    """1,100 vertices: vertex 0 joined to 2..1099, vertex 1 isolated.  Its
    maximum independent set, 1..1099, is a clique of 1,099 vertices of the
    complement, one search frame each."""
    n = 1100
    return Digraph.of(n, [(0, v) for v in range(2, n)] + [(v, 0) for v in range(2, n)])


def test_star_is_routing_solvable_from_the_cli(capsys, tmp_path):
    path = tmp_path / "star.dot"
    path.write_text(emit_dot(_star()))
    assert main(["solvable", str(path), "--routing", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"routing_solvable": True}


def test_star_acyclic_number_and_its_refusal(monkeypatch):
    g = _star()
    assert acyclic_number(g) == 1099
    adj = _complement(params._sym_adj(g), (1 << g.n) - 1)
    nodes = clique_search(adj, (1 << g.n) - 1)[1]
    monkeypatch.setattr(params, "WORK_CAP", nodes - 1)
    with pytest.raises(ResourceBoundError) as exc:
        acyclic_number(g)
    assert (exc.value.needed, exc.value.knob) == (nodes, "guesslab.params.WORK_CAP")
