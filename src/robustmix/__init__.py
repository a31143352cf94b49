"""Robust combinatorial optimization under weighted mixtures of
uncertainty sets."""

__version__ = "0.1.0"

from .errors import (
    CapExceededError,
    InfeasibleError,
    ParseError,
    RobustmixError,
    UnsupportedError,
)
from .uncertainty import (
    BudgetedSet,
    EllipsoidSet,
    HullSet,
    IntervalSet,
    Mixture,
    OracleCosts,
    PolyhedronSet,
    ScenarioMatrix,
    build_mixture,
    build_set,
    check_costs,
    worst_case,
)
from .instances import (
    Graph,
    Instance,
    Solution,
    gen_synthetic,
    graph_to_text,
    nominal_solve,
    nominal_values,
    parse_graph,
    sample_st_pairs,
)
from .solvers import (
    SolveReport,
    evaluate_wrp,
    solve_auto,
    solve_bnb,
    solve_brute_force,
    solve_budgeted_mix,
    solve_ellipsoid_parametric,
    solve_interval_mix,
    solve_local_search,
    solve_midpoint_approx,
)
from .verify import DualCertificate, check_ratio, check_submodular, dual_certificate
from .mip_emit import ModelStats, check_emitted, emit_model, parse_lp
from .evaluation import (
    Metrics,
    Split,
    scalarize,
    score,
    split_scenarios,
    weight_grid,
)
from .tuning import Config, ConfigSpace, baseline_grid, sample_config, tune
