"""Day-ahead energy management for an electric railway station with an EV lot.

The package assembles a stochastic mixed-integer program for station dispatch
(grid exchange, solar, braking-fed storage, flexible EV charging under a peak
cap), solves it exactly with its own simplex plus branch-and-bound stack, and
reports optimal schedules with independent constraint certification.
"""
from .config import (
    ConfigError,
    SiteConfig,
    config_from_dict,
    load_config,
    load_series_csv,
    load_timetable_csv,
    validate_config,
)
from .fleet import (
    flex_bounds,
    fulfillment_time,
    sample_bus_sessions,
    sample_car_sessions,
    uncoordinated_profile,
)
from .model import (
    EmsModel,
    EmsSolution,
    EmsSolveError,
    InfeasibleModelError,
    MODE_FULL,
    MODE_NO_ESS,
    MODE_NO_PV,
    MODES,
    SolutionCheckError,
    build_model,
    check_dispatch,
    extract_solution,
    repair_dispatch,
    solve_ems,
)
from .pipeline import RunResult, build_fleet, build_scenarios, compare_runs, \
    run_pipeline, write_outputs
from .pv import pv_power, pv_series
from .scenarios import (
    AxisMember,
    Scenario,
    ScenarioAxis,
    ScenarioSet,
    build_tree,
    single_scenario_axis,
    split_demand,
)
from .types import (
    EssSpec,
    EvClass,
    EvSession,
    FlexPolicy,
    GridSpec,
    ObjectiveWeights,
    PeakPolicy,
    PvSpec,
    TimeGrid,
)

__version__ = "1.0.0"

__all__ = [
    "AxisMember", "ConfigError", "EmsModel", "EmsSolution", "EmsSolveError",
    "EssSpec", "EvClass", "EvSession", "FlexPolicy", "GridSpec",
    "InfeasibleModelError", "MODES", "MODE_FULL", "MODE_NO_ESS", "MODE_NO_PV",
    "ObjectiveWeights", "PeakPolicy", "PvSpec", "RunResult", "Scenario",
    "ScenarioAxis", "ScenarioSet", "SiteConfig", "SolutionCheckError",
    "TimeGrid", "build_fleet", "build_model", "build_scenarios", "build_tree", "check_dispatch",
    "compare_runs", "config_from_dict", "extract_solution", "flex_bounds",
    "fulfillment_time", "load_config", "load_series_csv",
    "load_timetable_csv", "pv_power", "pv_series", "repair_dispatch",
    "run_pipeline", "sample_bus_sessions", "sample_car_sessions",
    "single_scenario_axis", "solve_ems", "split_demand",
    "uncoordinated_profile", "validate_config", "write_outputs",
]
