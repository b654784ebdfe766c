"""Fair division of indivisible items under graph connectivity constraints.

Items are vertices of a graph; every agent's bundle must induce a connected
subgraph.  The package provides exact-rational models, verifiers for
proportionality / envy-freeness / maximin-share fairness, an exhaustive
oracle, faster solvers for paths, stars, and trees, reduction-based instance
generators, and a command-line front end.
"""

from .graphs import (
    GraphClass,
    ItemGraph,
    RootedTreeView,
    classify,
    enumerate_connected_partitions,
    enumerate_connected_sets,
    induced_subgraph,
    is_connected_set,
    root_tree,
)
from .generators import (
    IndepSetInstance,
    PartitionInstance,
    X3cInstance,
    fixture_cycle8,
    gen_indepset_ef_star,
    gen_partition_bipartite,
    gen_random,
    gen_x3c_prop_path,
)
from .mms_tree import (
    DiminisherRound,
    DiminisherTrace,
    allocate_with_quotas,
    mms_value_tree,
    mms_values_tree,
    solve_mms_tree,
)
from .model import (
    AgentTypePartition,
    Allocation,
    BudgetExceeded,
    InputError,
    Instance,
    SolveReport,
    bundle_value,
    compute_type_partition,
    is_complete,
    is_envy_free,
    is_mms_allocation,
    is_proportional,
    is_valid,
    make_report,
    normalize_utilities,
)
from .oracle import (
    DEFAULT_BUDGET,
    OracleBudget,
    oracle_ef_complete,
    mms_values_raw,
    oracle_mms_exists,
    oracle_mms_values,
    oracle_prop,
)
from .serialize import (
    allocation_from_dict,
    allocation_to_dict,
    dumps,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    rational_from_str,
    rational_to_str,
)
from .solvers import (
    dispatch,
    ef_path_typed,
    prop_path_greedy,
    prop_path_typed,
    prop_star,
    prop_tree_fpt,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Instance",
    "Allocation",
    "SolveReport",
    "AgentTypePartition",
    "InputError",
    "BudgetExceeded",
    "normalize_utilities",
    "bundle_value",
    "compute_type_partition",
    "make_report",
    "is_valid",
    "is_proportional",
    "is_envy_free",
    "is_complete",
    "is_mms_allocation",
    # graphs
    "ItemGraph",
    "GraphClass",
    "RootedTreeView",
    "classify",
    "root_tree",
    "is_connected_set",
    "enumerate_connected_sets",
    "enumerate_connected_partitions",
    "induced_subgraph",
    # oracle
    "OracleBudget",
    "DEFAULT_BUDGET",
    "oracle_prop",
    "mms_values_raw",
    "oracle_ef_complete",
    "oracle_mms_values",
    "oracle_mms_exists",
    # solvers
    "prop_star",
    "prop_path_greedy",
    "prop_path_typed",
    "prop_tree_fpt",
    "ef_path_typed",
    "dispatch",
    # trees and maximin shares
    "DiminisherRound",
    "DiminisherTrace",
    "allocate_with_quotas",
    "mms_value_tree",
    "mms_values_tree",
    "solve_mms_tree",
    # serialization
    "rational_to_str",
    "rational_from_str",
    "dumps",
    "instance_to_dict",
    "instance_from_dict",
    "instance_to_json",
    "instance_from_json",
    "allocation_to_dict",
    "allocation_from_dict",
    # generators
    "X3cInstance",
    "PartitionInstance",
    "IndepSetInstance",
    "gen_x3c_prop_path",
    "gen_partition_bipartite",
    "gen_indepset_ef_star",
    "fixture_cycle8",
    "gen_random",
]
