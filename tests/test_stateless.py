"""The library keeps no state: no call writes onto the objects it is given,
and no module holds a value from one call to the next."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import spreekit
from spreekit import (
    BootstrapConfig,
    IpfConfig,
    UpdateRequest,
    bootstrap_mse,
    column_margins,
    distribute,
    fixed_shares,
    rng as rngmod,
    run_simulation,
    spree_update,
)
from spreekit.scenario import build_scenario, migration_shock_config
from spreekit.simulation import replicate_census

SRC = Path(spreekit.__file__).parent


def _setattr_lines(tree: ast.AST) -> set[int]:
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    }


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_object_setattr_only_in_post_init(module):
    """A frozen object is written only while it is being built."""
    tree = ast.parse((SRC / module).read_text(), module)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            allowed |= _setattr_lines(node)
    assert sorted(_setattr_lines(tree) - allowed) == []


def _plan():
    # Few enough rounds for one process, so that every round runs here.
    return build_scenario(migration_shock_config(replicates=4))


def _request(plan, **config):
    return UpdateRequest(
        seed=plan.truth_t0,
        col_margin=column_margins(plan.truth_t),
        large_totals=plan.large_totals_t,
        shares=fixed_shares(plan.truth_t0, plan.hierarchy),
        **config,
    )


# Each call, and the objects it is given.  A Generator has no ``vars()``;
# its state is the one input a draw must change.
CALLS = {
    "run_simulation": lambda plan: (run_simulation, plan),
    "bootstrap_mse": lambda plan: (
        bootstrap_mse, _request(plan), plan.survey_design, plan.aux_pool,
        BootstrapConfig(replicates=3),
    ),
    "spree_update": lambda plan: (spree_update, _request(plan)),
    "distribute": lambda plan: (
        distribute, plan.large_totals_t, fixed_shares(plan.truth_t0, plan.hierarchy),
    ),
    "replicate_census": lambda plan: (replicate_census, plan.truth_t0, rngmod.stream(1, 0)),
}


def _attributes(*roots) -> dict[int, tuple[object, dict]]:
    """``vars()`` of every object reachable from ``roots`` through
    attributes, tuples, lists and dict values, by ``id``: each value by its
    ``id``, and an array also by its bytes.  Each object is held beside its
    entry, so that its ``id`` cannot pass to another."""
    found: dict[int, tuple[object, dict]] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__") and not isinstance(obj, type) and id(obj) not in found:
            attrs = vars(obj)
            found[id(obj)] = obj, {
                k: (id(v), v.tobytes() if isinstance(v, np.ndarray) else None)
                for k, v in attrs.items()
            }
            stack.extend(attrs.values())
    return found


@pytest.mark.parametrize("name", CALLS)
def test_no_call_writes_onto_its_inputs(name):
    call, *args = CALLS[name](_plan())
    before = _attributes(*args)
    result = call(*args)
    if name == "spree_update":
        assert result.provenance["config_digest"]
    assert _attributes(*args) == before


def _module_globals() -> dict[tuple[str, str], object]:
    """Every ``dict``, ``list`` and ``set`` global of the spreekit modules,
    its entries by ``id``."""
    snapshot = {}
    for module_name, module in sorted(sys.modules.items()):
        if module_name != "spreekit" and not module_name.startswith("spreekit."):
            continue
        for name, value in vars(module).items():
            if name.startswith("__"):
                continue
            if isinstance(value, dict):
                snapshot[module_name, name] = {k: id(v) for k, v in value.items()}
            elif isinstance(value, list):
                snapshot[module_name, name] = [id(v) for v in value]
            elif isinstance(value, set):
                snapshot[module_name, name] = {id(v) for v in value}
    return snapshot


def test_no_call_leaves_state_in_a_module():
    """A request whose raking controls no other test uses, so that a value
    kept for it would be new here."""
    plan = _plan()
    calls = [CALLS[name](plan) for name in CALLS]
    request = _request(plan, ipf_config=IpfConfig(tolerance=3e-9, max_iterations=997))
    before = _module_globals()
    for call, *args in calls:
        call(*args)
    assert spree_update(request).provenance["config_digest"]
    assert _module_globals() == before
