"""Power graphs of finite groups: overfullness, edge-chromatic class, colorings.

The power graph of a finite group joins two distinct elements whenever one is
a power of the other. This package builds those graphs from explicit group
tables, decides overfullness and the edge-chromatic class exactly, and backs
every class decision with a machine-verified edge coloring: the round-robin
colors of K_n, edge by edge, for even orders, rotation schemes for odd
complete graphs, and a Kempe-chain edge-exchange transform for the dense odd
cases, with exhaustive search as the small-instance ground truth.
"""

from .coloring import (
    ColorConflict,
    ColoringError,
    EdgeColoring,
    VerificationReport,
    base_rotation_coloring,
    coloring_to_csv,
    coloring_to_json,
    parse_coloring_csv,
    parse_coloring_json,
    restrict_coloring,
    rotation_classes,
    round_robin_coloring,
    verify_assignment,
    verify_proper,
)
from .exchange import (
    ExchangeFailure,
    ExchangeState,
    GroupColoring,
    color_graph,
    color_power_graph,
    exchange_coloring,
)
from .groups import (
    Group,
    GroupSpecError,
    GroupTableError,
    construct_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    euler_phi,
    factorize,
    is_cyclic,
    load_table_file,
    load_table_text,
    quaternion_group,
    validate_table,
)
from .oracle import (
    ColorabilityResult,
    DEFAULT_NODE_BUDGET,
    OracleResult,
    exact_chromatic_index,
    is_k_edge_colorable,
    misra_gries_coloring,
)
from .overfull import (
    ClassPrediction,
    CoreWitness,
    GroupFacts,
    OverfullReport,
    core_class1_check,
    deficiency_report,
    edge_count_from_orders,
    is_overfull,
    predict_class,
)
from .powergraph import (
    Graph,
    MAX_JSON_ORDER,
    build_power_graph,
    complete_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    make_edge,
    max_degree,
    display_vertex,
)
from .toolkit import Catalog, ClassReport, SurveyResult, generate_catalog, run_survey, survey_group

__version__ = "0.1.0"
