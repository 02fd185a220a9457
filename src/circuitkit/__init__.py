"""Exact circuit-imbalance analysis for rational subspaces.

Every public name loads on first use from the module that defines it
(PEP 562), and so does each of those modules read as an attribute, so
`import circuitkit` loads no layer: a process compiles only the layers
it uses, and `from circuitkit import X` returns the defining module's
object.  `_DEFINED_IN` is the one map from a public name to its module,
and `__all__` is its sorted key list.
"""

import importlib
import sys
import types

# module -> the public names it defines, read into name -> module
_DEFINED_IN = {
    name: module
    for module, names in {
        "augment": "AugmentationTrace audit_trace epsilon_of guided_walk run steepest_direction",
        "errors": "AuditFailure CircuitKitError InternalError",
        "generate": "GeneratorSpec flow_to_lp generate max_flow_encoding",
        "graver": "appendix_counterexample conjecture_decompose ej_check graver_basis "
        "hk_check ip_proximity_check",
        "imbalance": "ImbalanceReport chibar diameter_bound imbalances is_TU kappa_star "
        "pairwise rescale",
        "lp": "INFEASIBLE OPTIMAL UNBOUNDED LPInstance LPResult edge_graph_diameter "
        "fractionality solve vertices",
        "proximity": "feasibility_simplified fixing_sets_bounds hoffman_feasibility_witness "
        "hoffman_opt_witness transfer_bound",
        "ratmat": "RatMatrix",
        "subspace": "Subspace circuits conformal_decompose dual lift_min_norm minor",
    }.items()
    for name in names.split()
}
_MODULES = frozenset(_DEFINED_IN.values())  # `generate` is the function, as a name

__all__ = sorted(_DEFINED_IN)


def __getattr__(name):
    module = _DEFINED_IN.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    elif name in _MODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_DEFINED_IN) | _MODULES)


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on its package, which would let the
        # module `circuitkit.generate` shadow the function `generate`.
        if name == "generate" and isinstance(value, types.ModuleType):
            value = value.generate
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
