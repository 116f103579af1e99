"""Multiple-unicast instances in circuit representation and their
conversion to the merged guessing digraph."""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph
from .errors import PreconditionError


@dataclass(frozen=True)
class UnicastInstance:
    """k source/destination pairs, intermediate nodes, arcs, alphabet size.

    Node ids must partition 0..N-1 between sources, destinations and
    intermediates; the network must be acyclic and no destination may feed
    its own source.  Intermediates are held sorted: their order carries no
    meaning.
    """

    pairs: tuple
    intermediates: tuple
    arcs: frozenset
    q: int = 2

    def __post_init__(self):
        pairs = tuple((int(s), int(d)) for s, d in self.pairs)
        inter = tuple(sorted(int(i) for i in self.intermediates))
        arcs = frozenset((int(u), int(v)) for u, v in self.arcs)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "intermediates", inter)
        object.__setattr__(self, "arcs", arcs)
        if self.q < 2:
            raise PreconditionError("alphabet size must be at least 2")
        sources = [s for s, _ in pairs]
        dests = [d for _, d in pairs]
        ids = sources + dests + list(inter)
        known = set(ids)
        if len(known) != len(ids):
            raise PreconditionError("sources, destinations and intermediates must be distinct")
        if known != set(range(len(ids))):
            raise PreconditionError("node ids must cover 0..N-1")
        for u, v in arcs:
            if u not in known or v not in known:
                raise PreconditionError(f"arc ({u}, {v}) uses an unknown node")
        for s, d in pairs:
            if (d, s) in arcs:
                raise PreconditionError(f"destination {d} feeds its own source {s}")
        network = Digraph.of(len(ids), arcs)
        if not network.is_acyclic():
            raise PreconditionError("the network must be acyclic")

    @property
    def k(self):
        return len(self.pairs)


def to_guessing_digraph(inst):
    """Merge each source with its destination; merged vertex i keeps the
    in-arcs of d_i and the out-arcs of s_i, intermediates follow in
    ascending order."""
    k = inst.k
    relabel = {}
    for i, (s, d) in enumerate(inst.pairs):
        relabel[s] = i
        relabel[d] = i
    for rank, node in enumerate(inst.intermediates):
        relabel[node] = k + rank
    sources = {s for s, _ in inst.pairs}
    dests = {d for _, d in inst.pairs}
    arcs = set()
    for u, v in inst.arcs:
        if u in dests or v in sources:
            continue  # merged nodes keep out-arcs of the source, in-arcs of the destination
        arcs.add((relabel[u], relabel[v]))
    return Digraph.of(k + len(inst.intermediates), arcs)


def butterfly_instance(q=2):
    """The classic two-unicast butterfly; its merged graph is the clique K_3."""
    return UnicastInstance(
        pairs=((0, 2), (1, 3)),
        intermediates=(4,),
        arcs=frozenset({(0, 3), (0, 4), (1, 2), (1, 4), (4, 2), (4, 3)}),
        q=q,
    )


def crossed_instance(q=2):
    """The two-pair instance with the extra source-to-far-relay arc; the
    merged graph is solvable but not strictly solvable."""
    return UnicastInstance(
        pairs=((0, 2), (1, 3)),
        intermediates=(4, 5),
        arcs=frozenset({(0, 4), (4, 2), (0, 5), (1, 5), (5, 3)}),
        q=q,
    )
