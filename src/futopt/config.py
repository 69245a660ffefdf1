"""Scenario configuration: one human-editable YAML tree per experiment.

A config file has five sections (market, mc, strategy, outputs, plus the
experiment name) and optional experiment-specific blocks.  Scalars promote
to vectors or scalar-times-identity matrices where shapes allow, and
delta_t accepts fractions like "1/252" for readability.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError, ModelError
from .params import MarketParams, _as_matrix, _as_vector
from .strategies import (
    ConstantWeightStrategy,
    LogOptimalStrategy,
    RandomBoundedStrategy,
    Strategy,
    ZeroStrategy,
)

__all__ = [
    "McConfig",
    "StrategyConfig",
    "OutputConfig",
    "CostSweepConfig",
    "ScenarioConfig",
    "load_config",
    "config_from_dict",
    "build_strategy",
]

EXPERIMENTS = (
    "simulate",
    "backtest",
    "verify-measure",
    "duality-report",
    "cost-sweep",
    "optimality-probe",
)


@dataclass
class McConfig:
    n_paths: int = 1000
    seed: int = 0
    workers: int = 0          # 0 means: environment variable or serial


@dataclass
class StrategyConfig:
    policy: str = "log_optimal"
    mode: str = "soft_threshold"
    x0: float = 1_000_000.0
    theta_max: float = 10.0
    h_window: int = 20
    p_cov0: object = None
    caps: object = None
    gearing: object = None
    integer_contracts: bool = False
    literal_product: bool = False
    const_weights: object = None
    bound: float = 1.0
    seed: int = 0


@dataclass
class OutputConfig:
    dir: str = "out"
    formats: tuple = ("csv", "json")


@dataclass
class CostSweepConfig:
    delta_ts: tuple = (1.0 / 52, 1.0 / 252, 1.0 / 2520)
    P_prev: float = 10.0
    P_now: float = 12.0


@dataclass
class ScenarioConfig:
    experiment: str
    market: MarketParams
    mc: McConfig
    strategy: StrategyConfig
    outputs: OutputConfig
    cost_sweep: CostSweepConfig
    raw: dict = field(default_factory=dict)

    def config_hash(self) -> str:
        """Stable hash of the resolved config, excluding runtime-only fields.

        Worker count and the output directory do not influence any number
        an experiment produces, so they stay outside the hash and rerun
        artifacts remain byte-identical when only those vary.
        """
        resolved = json.loads(json.dumps(self.raw, sort_keys=True))
        resolved.get("mc", {}).pop("workers", None)
        resolved.get("outputs", {}).pop("dir", None)
        canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_delta_t(value) -> float:
    if isinstance(value, str):
        parts = value.split("/")
        if len(parts) == 2:
            try:
                return float(parts[0]) / float(parts[1])
            except (ValueError, ZeroDivisionError):
                pass
        raise ConfigError(f"market.delta_t: cannot parse {value!r}")
    return float(_as_float(value, "market.delta_t"))


def _section(tree: dict, name: str) -> dict:
    sub = tree.get(name, {})
    if sub is None:
        sub = {}
    if not isinstance(sub, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return sub


def _coerce_numbers(value):
    """Turn numeric-looking strings into floats, recursively through lists.

    YAML 1.1 only recognizes scientific notation with an explicit sign
    ("1.0e+6"), so values like "1.0e6" arrive as strings; non-numeric
    strings pass through untouched.
    """
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    if isinstance(value, list):
        return [_coerce_numbers(v) for v in value]
    return value


def _as_int(value, where: str) -> int:
    """An integer field; integral floats such as 1e4 pass, 1.5 or "abc" do not."""
    value = _coerce_numbers(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, where: str, inf_ok: bool = False):
    """A finite real field, or +-inf where inf_ok.

    An int keeps its type, so existing config hashes do not move.
    """
    value = _coerce_numbers(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if isinstance(value, float) and (np.isnan(value) or (np.isinf(value) and not inf_ok)):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return value


def _check_array(value, where: str):
    """An array field must convert to finite floats; its value is kept as given."""
    try:
        finite = np.all(np.isfinite(np.asarray(value, dtype=float)))
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ConfigError(f"{where} must be an array of finite numbers, got {value!r}")
    return value


_INT_FIELDS = {"n_paths", "seed", "workers", "h_window"}
_FLOAT_FIELDS = {"x0", "theta_max", "bound", "P_prev", "P_now"}
_LIST_FIELDS = {"formats", "delta_ts"}
_ARRAY_FIELDS = {"p_cov0", "caps", "gearing", "const_weights"}
_BOOL_FIELDS = {"integer_contracts", "literal_product"}
_MAX_BOUND = np.finfo(float).max / 2


def _build_dataclass(cls, data: dict, section: str):
    allowed = {f for f in cls.__dataclass_fields__}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        value = _coerce_numbers(value)
        where = f"{section}.{key}"
        if key in _INT_FIELDS and not (key == "workers" and value is None):
            value = _as_int(value, where)
        elif key in _FLOAT_FIELDS:
            # theta_max: .inf means no cap on the relative risk
            value = _as_float(value, where, inf_ok=key == "theta_max")
        elif key in _ARRAY_FIELDS and value is not None:
            value = _check_array(value, where)
        elif key in _BOOL_FIELDS and not isinstance(value, bool):
            raise ConfigError(f"{where} must be true or false, got {value!r}")
        elif key in _LIST_FIELDS:
            if not isinstance(value, list):
                raise ConfigError(f"{where} must be a list, got {value!r}")
            value = tuple(_as_float(v, where) for v in value) if key == "delta_ts" else tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(tree: dict) -> ScenarioConfig:
    """Validate a parsed config tree and fill defaults."""
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")

    experiment = tree.get("experiment", "simulate")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}"
        )

    mkt = dict(_section(tree, "market"))
    if "d" not in mkt:
        raise ConfigError("market.d is required")
    if "delta_t" in mkt:
        mkt["delta_t"] = _parse_delta_t(mkt["delta_t"])
    for key, value in list(mkt.items()):
        if key not in ("d", "n_steps", "delta_t"):
            mkt[key] = _coerce_numbers(value)
            try:
                np.asarray(mkt[key], dtype=float)
            except (TypeError, ValueError):
                raise ConfigError(f"market.{key} must be numeric, got {value!r}") from None
    mkt["d"] = _as_int(mkt["d"], "market.d")
    if "n_steps" in mkt:
        mkt["n_steps"] = _as_int(mkt["n_steps"], "market.n_steps")
    defaults = {
        "n_steps": 252,
        "delta_t": 1.0 / 252,
        "sigma": 0.2,
        "rho": 1.0,
        "alpha": 0.0,
        "varsigma": 0.0,
        "f": 1.0,
        "c_spread": 0.0,
        "m": 0.0,
        "r": 0.0,
        "k": 1.0,
        "F0": 100.0,
        "beta0": 0.0,
    }
    for key, value in defaults.items():
        mkt.setdefault(key, value)
    try:
        market = MarketParams(**mkt)
    except (TypeError, ValueError) as exc:   # ModelError is a ValueError
        raise ConfigError(f"market section: {exc}") from None

    mc = _build_dataclass(McConfig, _section(tree, "mc"), "mc")
    if mc.n_paths < 1:
        raise ConfigError("mc.n_paths must be positive")
    strategy = _build_dataclass(StrategyConfig, _section(tree, "strategy"), "strategy")
    # numpy seeds only from nonnegative integers; 0 workers means unset
    for where, value in (("mc.seed", mc.seed), ("strategy.seed", strategy.seed), ("mc.workers", mc.workers or 0)):
        if value < 0:
            raise ConfigError(f"{where} must be nonnegative, got {value}")
    if strategy.policy not in ("zero", "constant", "random", "log_optimal"):
        raise ConfigError(f"strategy.policy unknown: {strategy.policy!r}")
    if strategy.mode not in ("zero_cost", "soft_threshold", "literal"):
        raise ConfigError(f"strategy.mode unknown: {strategy.mode!r}")
    if strategy.x0 < 0:
        raise ConfigError("strategy.x0 must be nonnegative")
    if strategy.theta_max <= 0:
        raise ConfigError("strategy.theta_max must be positive")
    if not 0 <= strategy.bound <= _MAX_BOUND:   # numpy draws from [-bound, bound] only on a finite width
        raise ConfigError(f"strategy.bound must be in [0, {_MAX_BOUND:.6g}], got {strategy.bound!r}")
    if strategy.h_window < 2:   # a standard deviation needs two returns
        raise ConfigError(f"strategy.h_window must be at least 2, got {strategy.h_window}")
    shaped = {}
    for key, as_shape in (("p_cov0", _as_matrix), ("caps", _as_vector), ("gearing", _as_vector),
                          ("const_weights", _as_vector)):
        if getattr(strategy, key) is not None:   # a scalar, or (d, d) / (d,); the value stays as given
            try:
                shaped[key] = as_shape(getattr(strategy, key), market.d, f"strategy.{key}")
            except ModelError as exc:
                raise ConfigError(str(exc)) from None
    if "p_cov0" in shaped:
        p0 = shaped["p_cov0"]
        eig = np.linalg.eigvalsh(p0)
        if not np.array_equal(p0, p0.T) or eig.min() < -1e-12 * np.abs(eig).max():
            raise ConfigError("strategy.p_cov0 must be symmetric positive semidefinite")
    if "gearing" in shaped and np.any(shaped["gearing"] <= 0):
        raise ConfigError("strategy.gearing must be strictly positive")
    if "caps" in shaped and np.any(shaped["caps"] < 0):
        raise ConfigError("strategy.caps must be nonnegative")
    outputs = _build_dataclass(OutputConfig, _section(tree, "outputs"), "outputs")
    sweep = _build_dataclass(CostSweepConfig, _section(tree, "cost_sweep"), "cost_sweep")
    if not sweep.delta_ts or any(dt <= 0 for dt in sweep.delta_ts):
        raise ConfigError(f"cost_sweep.delta_ts must be a nonempty list of positive numbers, "
                          f"got {list(sweep.delta_ts)}")

    raw = {"experiment": experiment, "market": {k: _jsonable(v) for k, v in mkt.items()}}
    for name, obj in (("mc", mc), ("strategy", strategy), ("outputs", outputs), ("cost_sweep", sweep)):
        raw[name] = {k: _jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return ScenarioConfig(
        experiment=experiment,
        market=market,
        mc=mc,
        strategy=strategy,
        outputs=outputs,
        cost_sweep=sweep,
        raw=raw,
    )


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, tuple):
        return list(value)
    return value


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse and validate a YAML config file.

    Parse errors surface with the line and column reported by the loader;
    validation errors name the offending section and field.
    """
    text = Path(path).read_text()
    try:
        tree = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"cannot parse {path}{where}: {exc.problem}") from None
    return config_from_dict(tree or {})


def build_strategy(cfg: ScenarioConfig) -> Strategy:
    """Instantiate the configured trading policy."""
    s = cfg.strategy
    if s.policy == "zero":
        return ZeroStrategy()
    if s.policy == "constant":
        if s.const_weights is None:
            raise ConfigError("strategy.const_weights is required for the constant policy")
        return ConstantWeightStrategy(s.const_weights)
    if s.policy == "random":
        return RandomBoundedStrategy(bound=s.bound, seed=s.seed)
    return LogOptimalStrategy(mode=s.mode, literal_product=s.literal_product)
