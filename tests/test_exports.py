"""Every exported name resolves, and every exported name is used.

Tooling that wraps public functions (the span tracer under perfbench/) reads
each module's __all__; a listed name that no longer exists would silently
drop out of it, so a stale entry fails here instead.  A listed name that no
code in the package (beyond its re-export in __init__) and no script reads is
code the experiments never run, so it fails too, unless it is a kept oracle
or a documented entry point.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import futopt

MODULES = sorted(i.name for i in pkgutil.iter_modules(futopt.__path__) if i.name != "__main__")
SRC = Path(futopt.__file__).parent
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

#: Public names kept although only tests call them: independent oracles
#: (the return-form recursion, the first-order Z recursion, the primal
#: solution of the utility problem, the whole-path log-optimal closed forms,
#: and the whole-path measure state and zeta projection that the backtest's
#: density and verify-measure's step loop are pinned to) and the way in for
#: observed prices.
UNCALLED_ALLOWED = {"step_wealth", "martingale_recursion", "optimal_terminal_wealth",
                    "log_optimal_closed_forms", "build_measure_state", "zeta_projection",
                    "ingest_prices"}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_exists(name):
    module = importlib.import_module(f"futopt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"futopt.{name}.__all__ lists missing names {missing}"


def _referenced_names(path: Path) -> set[str]:
    """Names a file's code reads, as a bare name or as an attribute."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_is_read_by_src_or_scripts(name):
    module = importlib.import_module(f"futopt.{name}")
    code = [p for p in SRC.glob("*.py") if p.name != "__init__.py"] + list(SCRIPTS.glob("*.py"))
    used = set().union(*map(_referenced_names, code))
    unused = [n for n in getattr(module, "__all__", ()) if n not in used | UNCALLED_ALLOWED]
    assert not unused, f"futopt.{name}.__all__ lists names only tests call: {unused}"


def test_package_exports_no_deleted_name():
    deleted = ("PathState", "simulate_path", "build_path", "run_filter", "approx_cost_term",
               "filter_step", "FilterState", "discounted_series", "correlated_increments",
               "prices_from_returns", "read_path_csv", "neutrality_diagnostics", "DiagnosticsReport",
               "log_optimal_weights", "martingale_recursion_gap", "summary_dict",
               "write_wealth_csv", "write_position_ledger")
    assert [n for n in deleted if hasattr(futopt, n)] == []
    assert not any(hasattr(futopt.wealth, n) or hasattr(futopt.trading, n) for n in deleted)
    assert not hasattr(futopt.PathBatch, "to_csv")
    assert not hasattr(futopt.FilterHistory, "nu")
    assert "conj" not in futopt.UtilitySpec.__dataclass_fields__
