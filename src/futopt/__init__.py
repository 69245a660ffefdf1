"""futopt: discrete-time futures market simulation and log-optimal trading.

The pipeline runs from correlated price simulation through drift filtering,
measure-change diagnostics, slippage-aware wealth accounting, and the
utility-duality toolkit, with a config-driven CLI on top.
"""

__version__ = "0.1.0"

from .config import ScenarioConfig, build_strategy, config_from_dict, load_config
from .errors import ConfigError, ModelError, NotPositiveDefiniteError, SingularModelError
from .experiments import ExperimentResult, ingest_prices, run_experiment
from .filtering import FilterHistory, KalmanSchedule, default_p_cov0, run_filter_batch
from .market import (
    PathBatch,
    build_batch,
    returns_from_prices,
    simulate_batch,
    simulate_drift,
)
from .measure import (
    MeasureState,
    build_measure_state,
    cap_relative_risk,
    change_measure,
    discount_and_density,
    exponential_martingale,
    martingale_recursion,
    relative_risk,
    zeta_projection,
)
from .params import MarketParams
from .strategies import (
    ConstantWeightStrategy,
    LaggedEstimateStrategy,
    LogOptimalStrategy,
    MaskedStrategy,
    RandomBoundedStrategy,
    ScaledStrategy,
    Strategy,
    StrategyObs,
    ZeroStrategy,
)
from .trading import (
    PositionBook,
    contract_price,
    cost_term,
    payoff_transform,
    position_from_weights,
)
from .utility import (
    BigXEstimate,
    LogOptimalReport,
    UtilitySpec,
    big_X,
    conjugate,
    conjugate_grid_sup,
    double_conjugate_grid,
    lagrange_multiplier,
    log_optimal_closed_forms,
    log_optimal_report,
    log_utility,
    optimal_terminal_wealth,
    power_utility,
    validate_utility,
)
from .montecarlo import RunningMoments, chunk_layout, resolve_workers, run_chunked
from .wealth import (
    WealthLedger,
    realized_monetary_vol,
    run_backtest,
    step_wealth,
    step_wealth_cash,
)
