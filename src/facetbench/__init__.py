"""facetbench: DEA benchmarking against robust and closest facet targets.

Pipeline: load a dataset, find the extreme-efficient units, enumerate the
full-dimensional efficient facets they span, partition the
maximal-participation units into robust groups, then score every DMU with
the signed-slack robust measure plus the closest-target and weighted
Russell comparison measures.  A separate scenario toolkit evaluates
revenue under price risk and simulates strategy coverage.
"""

from .dataset import Dataset, Violation, load_dataset, parse_dataset, save_dataset, validate_dataset
from .errors import DataError, FacetBenchError, FacetInfeasibleError, SolverError
from .facets import (
    Facet,
    FacetSet,
    FacetTolerances,
    enumerate_facets,
    envelope_violations,
    facet_contains,
    facet_normal,
    verify_facet_set,
)
from .lp import LpProblem, LpSolution, SolverConfig, solve_lp
from .measures import (
    ExtremeSetResult,
    MeasureResult,
    closest_on_efpps,
    extreme_efficiency_test,
    extreme_set,
    russell_farthest,
)
from .partition import RobustGroup, RobustPartition, membership_map, partition_export, partition_robust
from .report import RunReport, build_report, emit
from .robust import (
    EfficiencyResult,
    GroupResult,
    RobustConfig,
    RowError,
    batch_evaluate,
    evaluate_group,
    robust_efficiency,
)
from .scenario import (
    AssumptionReport,
    CoverageReport,
    Diagnosis,
    FacetTables,
    OptimalPoint,
    PriceSampler,
    PriceScenario,
    WithstandResult,
    check_assumptions,
    facet_optimum,
    facet_tables,
    global_optimum,
    load_scenario,
    price_at,
    revenue,
    simulate_coverage,
    uniqueness_diagnostics,
    withstand_capacity,
)
from .signpattern import SignPatternResult, solve_sign_pattern

__version__ = "0.1.0"
