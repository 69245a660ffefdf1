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


_MAX_BOUND = np.finfo(float).max / 2


def _field(kind: str, default, check=None, rule: str = "", null_ok: bool = False):
    """A config field's one declaration: its kind (a key of _KINDS), its default,
    and the range `check` on its parsed value, named by `rule` in the error
    "section.field must be <rule>, got <parsed value>".  A field whose default
    is None accepts null."""
    return field(default=default, metadata={"kind": kind, "check": check, "rule": rule,
                                            "null_ok": null_ok or default is None})


def _choice(default: str, *others: str):
    choices = (default, *others)
    return _field("str", default, choices.__contains__, f"one of {', '.join(choices)}")


def _symmetric_psd(p) -> bool:
    p = np.atleast_2d(np.asarray(p, dtype=float))   # a scalar s stands for s * I
    eig = np.linalg.eigvalsh(p)
    return np.array_equal(p, p.T) and eig.min() >= -1e-12 * np.abs(eig).max()


@dataclass
class McConfig:
    n_paths: int = _field("int", 1000, lambda n: n >= 1, "positive")
    # numpy seeds only from nonnegative integers
    seed: int = _field("int", 0, lambda s: s >= 0, "nonnegative")
    # 0 or null means: environment variable or serial
    workers: int = _field("int", 0, lambda w: w >= 0, "nonnegative", null_ok=True)


@dataclass
class StrategyConfig:
    policy: str = _choice("log_optimal", "zero", "constant", "random")
    mode: str = _choice("soft_threshold", "zero_cost", "literal")
    x0: float = _field("float", 1_000_000.0, lambda x: x >= 0, "nonnegative")
    # .inf means no cap on the relative risk
    theta_max: float = _field("float_or_inf", 10.0, lambda t: t > 0, "positive")
    # a standard deviation needs two returns
    h_window: int = _field("int", 20, lambda h: h >= 2, "at least 2")
    # the shaped fields keep their value as given: a scalar, or (d, d) / (d,)
    p_cov0: object = _field("matrix", None, _symmetric_psd, "symmetric positive semidefinite")
    caps: object = _field("vector", None, lambda c: np.all(np.asarray(c, dtype=float) >= 0), "nonnegative")
    gearing: object = _field("vector", None, lambda g: np.all(np.asarray(g, dtype=float) > 0),
                             "strictly positive")
    integer_contracts: bool = _field("bool", False)
    literal_product: bool = _field("bool", False)
    const_weights: object = _field("vector", None)
    # numpy draws from [-bound, bound] only on a finite width
    bound: float = _field("float", 1.0, lambda b: 0 <= b <= _MAX_BOUND, f"in [0, {_MAX_BOUND:.6g}]")
    seed: int = _field("int", 0, lambda s: s >= 0, "nonnegative")


@dataclass
class OutputConfig:
    dir: str = _field("str", "out")
    formats: tuple = _field("list", ("csv", "json"))


@dataclass
class CostSweepConfig:
    delta_ts: tuple = _field("floats", (1.0 / 52, 1.0 / 252, 1.0 / 2520),
                             lambda ts: len(ts) > 0 and min(ts) > 0, "a nonempty list of positive numbers")
    P_prev: float = _field("float", 10.0)
    P_now: float = _field("float", 12.0)


#: The sections the schema declares, in the order they are parsed.
SECTIONS = {"mc": McConfig, "strategy": StrategyConfig, "outputs": OutputConfig,
            "cost_sweep": CostSweepConfig}


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


def _parse_delta_t(value, where: str) -> float:
    """A number, numeric strings included, or a fraction string "a/b" such as "1/252"."""
    if isinstance(value, str) and value.count("/") == 1:
        num, den = value.split("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            pass
    return float(_as_float(value, where))


def _section(tree: dict, name: str, cls) -> dict:
    sub = tree.get(name, {})
    if sub is None:
        sub = {}
    if not isinstance(sub, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(sub) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
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


def _fail(where: str, rule: str, value):
    raise ConfigError(f"{where} must be {rule}, got {value!r}")


def _as_int(value, where: str, d=None) -> int:
    """An integer field; integral floats such as 1e4 pass, 1.5 or "abc" do not."""
    value = _coerce_numbers(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not value.is_integer()
    ):
        _fail(where, "an integer", value)
    return int(value)


def _as_float(value, where: str, d=None, inf_ok: bool = False):
    """A finite real field, or +-inf where inf_ok.

    An int keeps its type, so existing config hashes do not move.
    """
    value = _coerce_numbers(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, "a number", value)
    if isinstance(value, float) and (np.isnan(value) or (np.isinf(value) and not inf_ok)):
        _fail(where, "finite", value)
    return value


def _as_list(value, where: str, d=None) -> tuple:
    if not isinstance(value, list):
        _fail(where, "a list", value)
    return tuple(_coerce_numbers(value))


def _as_numeric(value, where: str, d=None):
    """A number or nested lists of numbers; MarketParams or the field's kind checks its shape."""
    value = _coerce_numbers(value)
    try:
        np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        _fail(where, "numeric", value)
    return value


def _shaped(as_shape):
    """A (d,) or (d, d) array field, checked against market.d; its value is kept as given."""
    def parse(value, where: str, d: int):
        value = _as_numeric(value, where)
        try:
            as_shape(value, d, where)
        except ModelError as exc:
            raise ConfigError(str(exc)) from None
        return value
    return parse


_KINDS = {
    "int": _as_int,
    "float": _as_float,
    "float_or_inf": lambda v, where, d: _as_float(v, where, inf_ok=True),
    "bool": lambda v, where, d: v if isinstance(v, bool) else _fail(where, "true or false", v),
    "str": lambda v, where, d: v if isinstance(v, str) else _fail(where, "a string", v),
    "list": _as_list,
    "floats": lambda v, where, d: tuple(_as_float(x, where) for x in _as_list(v, where)),
    "vector": _shaped(_as_vector),
    "matrix": _shaped(_as_matrix),
}
_MARKET_KINDS = {"d": _as_int, "n_steps": _as_int, "delta_t": _parse_delta_t}   # any other: _as_numeric


def parse_field(cls, name: str, value, where: str, d: int | None = None):
    """One value of field `name` of a schema dataclass, parsed by its kind and
    checked against its range; `where` names it in the error."""
    meta = cls.__dataclass_fields__[name].metadata
    if value is None and meta["null_ok"]:
        return None
    parsed = _KINDS[meta["kind"]](value, where, d)
    if meta["check"] is not None and not meta["check"](parsed):
        _fail(where, meta["rule"], parsed)
    return parsed


def config_from_dict(tree: dict) -> ScenarioConfig:
    """Validate a parsed config tree and fill defaults."""
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")

    experiment = tree.get("experiment", "simulate")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; got {experiment!r}"
        )

    mkt = {key: _MARKET_KINDS.get(key, _as_numeric)(value, f"market.{key}")
           for key, value in _section(tree, "market", MarketParams).items()}
    if "d" not in mkt:
        raise ConfigError("market.d is required")
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

    sections = {
        name: cls(**{key: parse_field(cls, key, value, f"{name}.{key}", market.d)
                     for key, value in _section(tree, name, cls).items()})
        for name, cls in SECTIONS.items()
    }
    raw = {"experiment": experiment, "market": {k: _jsonable(v) for k, v in mkt.items()}}
    for name, obj in sections.items():
        raw[name] = {k: _jsonable(getattr(obj, k)) for k in obj.__dataclass_fields__}
    return ScenarioConfig(experiment=experiment, market=market, raw=raw, **sections)


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
