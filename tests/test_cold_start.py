"""What a process imports: the package loads no layer, the CLI the core,
the consumers (`augment`, `graver`, `generate`) on first use, nothing
loads `dataclasses`, and every exported name is the object its defining
module holds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circuitkit

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = ("errors", "ratmat", "subspace", "lp", "imbalance", "proximity")
CONSUMERS = ("augment", "graver", "generate")

# Where each name of circuitkit.__all__ is defined.
DEFINED_IN = {
    "augment": (
        "AugmentationTrace", "audit_trace", "epsilon_of", "guided_walk", "run",
        "steepest_direction",
    ),
    "errors": ("AuditFailure", "CircuitKitError", "InternalError"),
    "generate": ("GeneratorSpec", "flow_to_lp", "generate", "max_flow_encoding"),
    "graver": (
        "appendix_counterexample", "conjecture_decompose", "ej_check", "graver_basis",
        "hk_check", "ip_proximity_check",
    ),
    "imbalance": (
        "ImbalanceReport", "chibar", "diameter_bound", "imbalances", "is_TU", "kappa_star",
        "pairwise", "rescale",
    ),
    "lp": (
        "INFEASIBLE", "OPTIMAL", "UNBOUNDED", "LPInstance", "LPResult", "edge_graph_diameter",
        "fractionality", "solve", "vertices",
    ),
    "proximity": (
        "feasibility_simplified", "fixing_sets_bounds", "hoffman_feasibility_witness",
        "hoffman_opt_witness", "transfer_bound",
    ),
    "ratmat": ("RatMatrix",),
    "subspace": ("Subspace", "circuits", "conformal_decompose", "dual", "lift_min_norm", "minor"),
}


def _fresh(code: str):
    """Run code in a new interpreter importing from src/; return its JSON line."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def _loaded(statement: str):
    return _fresh(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m.split('.')[1] for m in sys.modules "
        "if m.startswith('circuitkit.'))))"
    )


def test_importing_the_package_loads_no_layer():
    assert _loaded("import circuitkit") == []


def test_importing_the_cli_leaves_the_consumers_out():
    loaded = _loaded("import circuitkit.cli")
    assert set(CORE) <= set(loaded)
    assert not set(CONSUMERS) & set(loaded)


def test_generating_an_instance_leaves_the_walks_out():
    # `generate` builds its flows from `directed_incidence` and `lp` alone.
    assert "augment" not in _loaded("import circuitkit.generate")


def test_no_process_loads_the_dataclass_machinery():
    # Records are NamedTuples: nothing on any import path needs dataclasses,
    # nor the inspect, ast, dis and tokenize modules it would bring.
    loaded = _fresh(
        "import json, sys\n"
        "import circuitkit.cli, circuitkit.augment, circuitkit.graver, circuitkit.generate\n"
        "print(json.dumps([m for m in ('dataclasses', 'inspect') if m in sys.modules]))"
    )
    assert loaded == []


def test_every_exported_name_is_its_defining_modules_object():
    assert sorted(n for names in DEFINED_IN.values() for n in names) == sorted(circuitkit.__all__)
    # In a new interpreter, so that the consumers' names load on this access.
    wrong = _fresh(
        "import importlib, json\n"
        "import circuitkit\n"
        f"defined_in = {DEFINED_IN!r}\n"
        "wrong = [n for n in circuitkit.__all__ if n not in dir(circuitkit)]\n"
        "for module, names in defined_in.items():\n"
        "    for name in names:\n"
        "        ns = {}\n"
        "        exec(f'from circuitkit import {name}', ns)\n"
        "        mod = importlib.import_module(f'circuitkit.{module}')\n"
        "        if ns[name] is not getattr(mod, name):\n"
        "            wrong.append(name)\n"
        "print(json.dumps(wrong))"
    )
    assert wrong == []


@pytest.mark.parametrize("first", ["import circuitkit.generate", "import circuitkit"])
def test_generate_is_the_function_whatever_was_imported_first(first):
    same = _fresh(
        f"import json, sys\n{first}\n"
        "from circuitkit import generate\n"
        "import circuitkit.generate\n"
        "mod = sys.modules['circuitkit.generate']\n"
        "print(json.dumps([generate is mod.generate, circuitkit.generate is mod.generate]))"
    )
    assert same == [True, True]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        circuitkit.no_such_name
