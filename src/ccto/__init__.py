"""Exact solvers for changing-cost temporal orienteering."""

from .colorcoding import (
    MinWalkTable,
    all_pairs_min_walk,
    solve_color_coding,
    solve_colourful,
)
from .core import (
    INF,
    CapabilityError,
    CctoInstance,
    NotApplicableError,
    TemporalCostGraph,
    WalkReport,
    distinct_vertices,
    validate_walk,
    walk_cost,
)
from .expanded import (
    ExpandedGraph,
    build_time_expanded,
    dag_min_cost_path,
    export_arcs,
)
from .instances import (
    InstanceFile,
    from_edge_labels,
    load_instance,
    parse_instance,
    random_instance,
    save_instance,
    serialize_instance,
    starexp_feasible,
    starexp_reduction,
)
from .oracle import min_cost_walk_oracle, solve_exact
from .result import SolveResult, budget_precheck, verify_result
from .tree_solvers import (
    partition_forest_paths,
    solve_sparse_triples,
    solve_subforest,
    solve_tree_closed,
    sparse_triples_applicable,
    subforest_applicable,
    tree_closed_applicable,
)
from .vitw import VitwSequence, solve_vitw, vitw_sequence

__all__ = [
    "INF",
    "CapabilityError",
    "CctoInstance",
    "ExpandedGraph",
    "InstanceFile",
    "MinWalkTable",
    "NotApplicableError",
    "SolveResult",
    "TemporalCostGraph",
    "VitwSequence",
    "WalkReport",
    "all_pairs_min_walk",
    "budget_precheck",
    "build_time_expanded",
    "dag_min_cost_path",
    "distinct_vertices",
    "export_arcs",
    "from_edge_labels",
    "load_instance",
    "min_cost_walk_oracle",
    "parse_instance",
    "partition_forest_paths",
    "random_instance",
    "save_instance",
    "serialize_instance",
    "solve_color_coding",
    "solve_colourful",
    "solve_exact",
    "solve_sparse_triples",
    "solve_subforest",
    "solve_tree_closed",
    "solve_vitw",
    "sparse_triples_applicable",
    "starexp_feasible",
    "starexp_reduction",
    "subforest_applicable",
    "tree_closed_applicable",
    "validate_walk",
    "verify_result",
    "vitw_sequence",
    "walk_cost",
]
