"""Exact circuit-imbalance analysis for rational subspaces.

The core layers load with the package: `errors`, `ratmat`, `subspace`,
`lp`, `imbalance` and `proximity`.  The consumers `augment`, `graver` and
`generate` load on first use of one of their names (PEP 562), so a process
that never walks, scans a Graver basis or generates an instance does not
compile them.  `from circuitkit import X` returns the same object either way.
"""

import importlib
import sys
import types

from .errors import AuditFailure, CircuitKitError, InternalError
from .imbalance import (
    ImbalanceReport,
    chibar,
    diameter_bound,
    imbalances,
    is_TU,
    kappa_star,
    pairwise,
    rescale,
)
from .lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LPInstance,
    LPResult,
    edge_graph_diameter,
    fractionality,
    solve,
    vertices,
)
from .proximity import (
    feasibility_simplified,
    fixing_sets_bounds,
    hoffman_feasibility_witness,
    hoffman_opt_witness,
    transfer_bound,
)
from .ratmat import RatMatrix
from .subspace import Subspace, circuits, conformal_decompose, dual, lift_min_norm, minor

# name -> the consumer module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(
        (
            "AugmentationTrace",
            "audit_trace",
            "epsilon_of",
            "guided_walk",
            "run",
            "steepest_direction",
        ),
        "augment",
    ),
    **dict.fromkeys(
        (
            "appendix_counterexample",
            "conjecture_decompose",
            "ej_check",
            "graver_basis",
            "hk_check",
            "ip_proximity_check",
        ),
        "graver",
    ),
    **dict.fromkeys(
        ("GeneratorSpec", "flow_to_lp", "generate", "max_flow_encoding"), "generate"
    ),
}
_CONSUMERS = ("augment", "graver")  # `generate` is the function, as a name


def __getattr__(name):
    module = _LAZY.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    elif name in _CONSUMERS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_CONSUMERS))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on its package, which would let the
        # module `circuitkit.generate` shadow the function `generate`.
        if name == "generate" and isinstance(value, types.ModuleType):
            value = value.generate
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = [
    "AuditFailure",
    "AugmentationTrace",
    "CircuitKitError",
    "GeneratorSpec",
    "ImbalanceReport",
    "InternalError",
    "INFEASIBLE",
    "LPInstance",
    "LPResult",
    "OPTIMAL",
    "RatMatrix",
    "Subspace",
    "UNBOUNDED",
    "appendix_counterexample",
    "audit_trace",
    "chibar",
    "circuits",
    "conformal_decompose",
    "conjecture_decompose",
    "diameter_bound",
    "dual",
    "edge_graph_diameter",
    "ej_check",
    "epsilon_of",
    "feasibility_simplified",
    "fixing_sets_bounds",
    "flow_to_lp",
    "fractionality",
    "generate",
    "graver_basis",
    "guided_walk",
    "hk_check",
    "hoffman_feasibility_witness",
    "hoffman_opt_witness",
    "imbalances",
    "ip_proximity_check",
    "is_TU",
    "kappa_star",
    "lift_min_norm",
    "max_flow_encoding",
    "minor",
    "pairwise",
    "rescale",
    "run",
    "solve",
    "steepest_direction",
    "transfer_bound",
    "vertices",
]
