"""Event-based remote state estimation under stealthy innovation-scaling attacks.

The toolkit simulates the plant / event-based estimator / chi-square
detector loop, solves for the optimal forward-attack parameters via Marcum
Q-function boundaries, and verifies the predicted estimation-quality
degradation against Monte Carlo runs.
"""

from .analysis import (
    SweepPoint,
    attacked_covariance_fixed_point,
    attacked_covariance_step,
    event_based_covariance,
    mu_sweep,
    open_loop_fixed_point,
    steady_bias,
)
from .attack import (
    AttackParams,
    AttackState,
    SuccessCriteria,
    alarm_probability,
    attack_effect_update,
    feasible_delta_interval,
    forward_attack,
    solve_optimal_params,
    trigger_probability,
)
from .detector import DetectorConfig, design_threshold, statistic, test
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    ModelError,
    NumericError,
    ToolkitError,
)
from .estimator import (
    FilterState,
    SteadyState,
    initial_filter_state,
    innovation,
    measurement_update,
    op_h,
    op_q_tilde,
    riccati_fixed_point,
    schedule,
    time_update,
    transform_innovation,
)
from .harness import (
    RunResult,
    ScenarioConfig,
    SimulationSummary,
    Theory,
    config_from_dict,
    config_schema,
    load_config,
    paper_scenario,
    run_scenario,
    theory,
    trace_header,
    write_trace,
)
from .model import (
    PlantState,
    RandomSource,
    SystemModel,
    sample_initial_state,
    step,
)
from .special import (
    chi2_quantile,
    chi2_survival,
    gaussian_q,
    gaussian_q_inv,
    kappa,
    marcum_q,
)

__version__ = "0.1.0"
