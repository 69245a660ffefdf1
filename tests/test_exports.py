"""Every exported name resolves.

Tooling that wraps public functions (the span tracer under perfbench/) reads
each module's __all__; a listed name that no longer exists would silently
drop out of it, so a stale entry fails here instead.
"""

import importlib
import pkgutil

import pytest

import futopt

MODULES = sorted(i.name for i in pkgutil.iter_modules(futopt.__path__) if i.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_exists(name):
    module = importlib.import_module(f"futopt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"futopt.{name}.__all__ lists missing names {missing}"


def test_package_exports_no_deleted_name():
    deleted = ("PathState", "simulate_path", "build_path", "run_filter", "approx_cost_term",
               "filter_step", "FilterState", "discounted_series")
    assert [n for n in deleted if hasattr(futopt, n)] == []
