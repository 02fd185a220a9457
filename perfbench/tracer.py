"""Per-layer spans and counters for circuitkit, installed from outside it.

The tracer wraps each layer's entry functions and rebinds every name that
refers to them in every loaded `circuitkit` module, since consumer modules
import by name (`from .lp import solve` in proximity, augment and graver).
A span's self time is its duration minus the time its child spans cover,
read off the span stack.  A call into a layer already on top of the stack
(say `rref` inside `rref_kernel`) is not a new span, so each layer counts
the calls other layers make into it.  Counter hooks run after the span is
closed and their time is charged to no layer.

A name that no longer exists is reported under "missing" instead of
failing, so a later refactor shows up as a gap in the trace.
"""

from __future__ import annotations

import importlib
import sys
import time

# span name -> (module, entry attributes); "Class.method" for classmethods
LAYERS = {
    "ratmat": (
        "circuitkit.ratmat",
        ("rref", "rref_nonzero", "rank", "rref_kernel", "solve_linear",
         "invert", "basis_form", "bareiss_det"),
    ),
    "subspace.build": (
        "circuitkit.subspace",
        ("Subspace.from_kernel_matrix", "Subspace.from_span_matrix"),
    ),
    "subspace.enum": ("circuitkit.subspace", ("_enumerate_circuits",)),
    "imbalance.imbalances": ("circuitkit.imbalance", ("imbalances",)),
    "imbalance.kappa_star": ("circuitkit.imbalance", ("kappa_star",)),
    "imbalance.is_TU": ("circuitkit.imbalance", ("is_TU",)),
    "lp.solve": ("circuitkit.lp", ("solve",)),
    "proximity": (
        "circuitkit.proximity",
        ("hoffman_feasibility_witness", "hoffman_opt_witness", "transfer_bound",
         "fixing_sets_bounds", "feasibility_simplified"),
    ),
    "augment.run": ("circuitkit.augment", ("run",)),
    "augment.steepest_direction": ("circuitkit.augment", ("steepest_direction",)),
    "augment.epsilon_of": ("circuitkit.augment", ("epsilon_of",)),
    "augment.audit_trace": ("circuitkit.augment", ("audit_trace",)),
    "augment.guided_walk": ("circuitkit.augment", ("guided_walk",)),
    "graver.graver_basis": ("circuitkit.graver", ("graver_basis",)),
    "graver.conjecture_decompose": ("circuitkit.graver", ("conjecture_decompose",)),
    "graver.appendix": ("circuitkit.graver", ("appendix_counterexample",)),
    "cli.main": ("circuitkit.cli", ("main",)),
    "serialize": (
        "circuitkit.serialize",
        ("loads", "dumps", "lp_from_obj", "load_matrix", "matrix_from_obj",
         "vec_from_obj", "vec_to_obj", "frac_str", "make_report", "trace_to_obj"),
    ),
}

COUNTERS = (
    "lp.pivots",
    "lp.tableau_cells",
    "lp.result_max_bits",
    "subspace.enum.supports_tried",
    "subspace.enum.circuits",
    "subspace.enum.repeats",
    "imbalance.imbalances.repeats",
    "augment.steps",
    "graver.elements",
    "graver.conjecture.searched",
)
MAX_COUNTERS = ("lp.result_max_bits",)


def _subspace_key(W):
    return (W.ambient_dim, W.kernel_rep.data)


def _bits(values):
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


def _hook_solve(tr, args, kwargs, res):
    lp = args[0] if args else kwargs["lp"]
    bounded = sum(1 for x in lp.u if x is not None) if lp.u is not None else 0
    tr.add("lp.pivots", res.pivots)
    tr.add("lp.tableau_cells", (lp.A.rows + bounded) * (lp.A.cols + bounded))
    values = list(res.x or ()) + list(res.y or ())
    if res.objective is not None:
        values.append(res.objective)
    tr.counts["lp.result_max_bits"] = max(tr.counts["lp.result_max_bits"], _bits(values))


def _hook_enum(tr, args, kwargs, res):
    tr.add("subspace.enum.circuits", len(res))
    tr.seen_once("subspace.enum.repeats", ("enum",) + _subspace_key(args[0]))


def _hook_imbalances(tr, args, kwargs, res):
    W = args[0] if args else kwargs["W"]
    tr.seen_once("imbalance.imbalances.repeats", ("imb",) + _subspace_key(W))


def _hook_steps(tr, args, kwargs, res):
    tr.add("augment.steps", len(res.steps))


HOOKS = {
    "lp.solve": _hook_solve,
    "subspace.enum": _hook_enum,
    "imbalance.imbalances": _hook_imbalances,
    "augment.run": _hook_steps,
    "augment.guided_walk": _hook_steps,
    "graver.graver_basis": lambda tr, a, k, res: tr.add("graver.elements", len(res.elements)),
    "graver.conjecture_decompose": lambda tr, a, k, res: tr.add(
        "graver.conjecture.searched", res.searched
    ),
}


class Tracer:
    """Span stack plus per-layer totals for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # frames: [span name, time covered by children]
        self.missing = []
        self.seen = set()  # subspace keys, kept for the life of the process
        self.reset()

    def reset(self):
        self.spans = {name: [0, 0.0] for name in LAYERS}  # name -> [calls, self_s]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def add(self, counter, amount):
        self.counts[counter] += amount

    def seen_once(self, counter, key):
        if key in self.seen:
            self.counts[counter] += 1
        else:
            self.seen.add(key)

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        stack = self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if name == "ratmat" and parent is not None and parent[0] == "subspace.enum":
                self.counts["subspace.enum.supports_tried"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = self.spans[name]
                total[0] += 1
                total[1] += end - start - frame[1]
                if parent is not None:
                    parent[1] += end - start
            if hook is not None:
                hook(self, args, kwargs, result)
                if parent is not None:
                    parent[1] += clock() - end
            return result

        return traced

    def install(self):
        """Wrap every entry function and rebind it wherever circuitkit holds it."""
        for name, (module_name, attrs) in LAYERS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            for attr in attrs:
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(method) if owner is not None else None
                if raw is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(self.wrap(name, raw.__func__)))
                    continue
                wrapped = self.wrap(name, raw)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "circuitkit" or mod_name.startswith("circuitkit.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def snapshot(self) -> dict:
        """Totals since the last reset, as plain JSON data."""
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}
