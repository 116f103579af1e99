"""guesslab: exact guessing numbers, coding-function reductions, and
linear network-coding solvability at desk scale."""

from .coding import (
    CodingFunction,
    count_fixed_points,
    cumulative,
    fixed_points,
    interaction_graph,
    is_nondecreasing,
    min_net,
    mindim,
)
from .coding import reduce_sequence as reduce_function_sequence
from .coding import reduce_set as reduce_function_set
from .coding import reduce_vertex as reduce_function_vertex
from .digraph import (
    Digraph,
    add_loops,
    bidirectional_union,
    count_paths_through,
    is_compatible,
    reduce_sequence,
    reduce_set,
    reduce_vertex,
    strip_loops,
    symmetrized,
)
from .errors import (
    GuesslabError,
    NotAcyclicError,
    ParseError,
    PreconditionError,
    ResourceBoundError,
    VertexRangeError,
)
from .guessing import (
    GuessingReport,
    guessing_number,
    h_loops,
    is_routing_solvable,
    is_solvable,
    loopfull_witness,
    routing_witness,
    strict_guessing_number,
)
from .linear import (
    INCONCLUSIVE,
    NOT_LINEARLY_SOLVABLE,
    NOT_STRICTLY_LINEARLY_SOLVABLE,
    Certificate,
    LinearCodingFunction,
    LinearReport,
    count_fixed_linear,
    linear_guessing,
    linear_reduce,
    prove_not_linearly_solvable,
    weak_compat_certificate,
)
from .params import (
    GraphParams,
    acyclic_number,
    all_max_acyclic_sets,
    count_in_dominating_sets,
    feedback_number,
    graph_params,
    in_dominating_counts,
    intersection_number,
    is_edge_full,
    is_vertex_full,
    max_acyclic_set,
    max_disjoint_cycles,
    max_matching,
    min_clique_partition,
    min_feedback_vertex_sets,
    min_intersection_model,
)
from .unicast import UnicastInstance, butterfly_instance, crossed_instance, to_guessing_digraph

__version__ = "0.1.0"
