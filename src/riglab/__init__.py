"""rig-lab: random intersection graphs, their compositions, and the
Monte Carlo machinery to probe their threshold laws at desk scale."""

from .errors import BudgetExceeded, ConfigError, EdgeListFormatError, ParameterError
from .graphs import (
    Graph,
    connected_components,
    intersect_graphs,
    is_connected,
    read_edge_list,
    write_edge_list,
)
from .models import (
    BinomialRigParams,
    ErParams,
    IntersectionSpec,
    ItemAssignment,
    RggParams,
    UniformRigParams,
    build_rig,
    sample_binomial_assignment,
    sample_er,
    sample_model,
    sample_rgg,
    sample_uniform_assignment,
)
from .montecarlo import (
    ExperimentConfig,
    ExperimentSummary,
    TrialRecord,
    run_experiment,
    sweep,
    threshold_experiment,
    wilson_interval,
)
from .properties import (
    DecisionBudget,
    PropertyKind,
    evaluate_property,
    has_hamilton_cycle,
    has_near_perfect_matching,
    is_k_connected,
    is_k_robust,
    k_robust_witness,
    max_matching_size,
)
from .rng import RngStream
from .scaling import (
    FamilyParams,
    ModelFamily,
    coupling_value,
    deviation_from_params,
    exact_edge_probability,
    limiting_probability,
    side_conditions,
    solve_param,
    threshold_spec,
)

__version__ = "0.1.0"
