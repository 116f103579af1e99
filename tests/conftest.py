import itertools
import random

import pytest
from hypothesis import strategies as st

from guesslab.coding import CodingFunction
from guesslab.digraph import Digraph, symmetrized
from guesslab.unicast import UnicastInstance


def complete_graph(n):
    return Digraph.of(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def undirected_cycle(n):
    return symmetrized(Digraph.of(n, [(i, (i + 1) % n) for i in range(n)]))


def directed_cycle(n):
    return Digraph.of(n, [(i, (i + 1) % n) for i in range(n)])


def random_digraph(rng, n, p=0.3, loops=False):
    arcs = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if (loops or u != v) and rng.random() < p
    }
    return Digraph.of(n, arcs)


@st.composite
def digraphs(draw, max_n=8):
    """Digraphs on 0..max_n vertices, loops allowed."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    arcs = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    return Digraph.of(n, arcs)


@st.composite
def coding_functions(draw, min_n=1, max_n=4, max_q=3):
    """Tables that ignore a drawn part of their declared support."""
    n = draw(st.integers(min_n, max_n))
    q = draw(st.integers(2, max_q))
    sups, tabs = [], []
    for _ in range(n):
        sup = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=3))))
        used = [p for p in range(len(sup)) if draw(st.booleans())]
        inner = draw(st.lists(st.integers(0, q - 1), min_size=q ** len(used), max_size=q ** len(used)))
        tab = []
        for assign in itertools.product(range(q), repeat=len(sup)):
            r = 0
            for p in used:
                r = r * q + assign[p]
            tab.append(inner[r])
        sups.append(sup)
        tabs.append(tuple(tab))
    return CodingFunction(n, q, tuple(sups), tuple(tabs))


@st.composite
def unicast_instances(draw, max_pairs=3, max_intermediates=3):
    """Valid instances: node ids shuffled over the roles, intermediates in any
    order, arcs only forward along a drawn node order (so acyclic), and no
    destination feeding its own source."""
    k = draw(st.integers(1, max_pairs))
    m = draw(st.integers(0, max_intermediates))
    ids = draw(st.permutations(range(2 * k + m)))
    pairs = tuple(zip(ids[:k], ids[k : 2 * k]))
    order = draw(st.permutations(range(2 * k + m)))
    forward = [
        (u, v) for i, u in enumerate(order) for v in order[i + 1 :] if (v, u) not in pairs
    ]
    arcs = draw(st.sets(st.sampled_from(forward))) if forward else set()
    return UnicastInstance(pairs, tuple(ids[2 * k :]), frozenset(arcs), draw(st.integers(2, 5)))


def product_table(sup, q, value):
    """The table of value(env) with env = dict(zip(sup, assignment)), over the
    assignments in itertools.product order: an oracle for the big-endian row
    convention that the library decodes with _kernels._digits."""
    return tuple(
        value(dict(zip(sup, assign))) for assign in itertools.product(range(q), repeat=len(sup))
    )


def random_coding_function(rng, n, q, max_indeg=3):
    sups = []
    tabs = []
    for v in range(n):
        d = rng.randint(0, min(n, max_indeg))
        sup = tuple(sorted(rng.sample(range(n), d)))
        tab = tuple(rng.randrange(q) for _ in range(q**d))
        sups.append(sup)
        tabs.append(tab)
    return CodingFunction(n, q, tuple(sups), tuple(tabs))


def acyclic_subsets(g, max_size=3):
    """Every non-empty vertex set of at most max_size vertices inducing an acyclic subgraph."""
    return [
        s
        for r in range(1, max_size + 1)
        for s in itertools.combinations(range(g.n), r)
        if g.is_acyclic_within(s)
    ]


def random_acyclic_subset(rng, g, max_size=3):
    cand = acyclic_subsets(g, max_size)
    return rng.choice(cand) if cand else None


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture
def fig1_function():
    # f1 = x3 & (x2 | x4), f2 = x1 | x4, f3 = x2, f4 = x3 (1-based labels)
    return CodingFunction.from_state_functions(
        4,
        2,
        [
            lambda x: x[2] & (x[1] | x[3]),
            lambda x: x[0] | x[3],
            lambda x: x[1],
            lambda x: x[2],
        ],
    )
