"""Planning, simulation, and online learning for last-switch-dependent
bandits with monotone payoffs."""

from .analysis import (
    approximation_experiment,
    gamma_k,
    make_step_instance,
    make_tight_instance,
    regret_trend,
    tightness_experiment,
)
from .intervals import (
    RecurrentInterval,
    aggregated_payoff,
    decompose,
    normalize_schedule,
)
from .learning import (
    EtcConfig,
    estimate_payoffs,
    etc_config,
    etc_run,
    exploration_schedule,
    robustness_gap,
)
from .lp import (
    LpSolution,
    build_lp,
    check_feasible,
    solve_lp,
    tau_L_from_epsilon,
)
from .model import (
    Instance,
    PayoffTable,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    random_instance,
    save_instance,
)
from .oracle import dp_optimal, exhaustive_optimal
from .planner import (
    round_intervals,
    run_planner,
    simulate_planner,
)

__version__ = "0.1.0"
