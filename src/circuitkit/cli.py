"""Command-line front door.

Each verb imports what it runs: this module loads `serialize`, `errors` and
the core layers (`ratmat`, `subspace`, `lp`, `imbalance`, `proximity`), and
`augment`, `graver` and `generate` are imported inside the commands that
use them, so that `analyze` or `prox` never compiles them.

Each `_cmd_*` verb returns its report body: a payload dict, or the text
of `analyze --format csv` and `generate`.  `main` hands it to the one
writer, `_write_report`, which wraps a payload as the report of kind
`args.verb` and writes it to `--output` or stdout.  A verb whose result is
a finding raises `_Finding` with the body it built, so the report is still
written.  Exit codes and the `finding:` line are decided in `main` alone:
0 success, 1 mathematical finding (a verified bound failed or the
decomposition conjecture is violated; named on stderr as `finding:`), 2
input or usage error, 3 internal error (a broken invariant, i.e. a bug).
Infeasible or unbounded instances are ordinary results, reported with
exit 0.
"""

from __future__ import annotations

import argparse
import sys

from . import lp as lpmod, proximity, serialize
from .errors import (
    AuditFailure,
    CircuitKitError,
    InfeasibleSystem,
    InputFormatError,
    InternalError,
    OracleInfeasible,
    UnboundedDirection,
    UnboundedRegion,
)
from .imbalance import diameter_within, is_TU, kappa_star
from .ratmat import vec_dot
from .subspace import Subspace

# augment.RULES and generate.FAMILIES, spelled out so that building the
# parser imports neither module; tests/test_cli.py checks that they agree.
RULES = ("steepest", "dantzig", "deepest", "ratio", "support", "guided")
FAMILIES = ("flow", "incidence", "dumbbell", "tu-network", "random-rational")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return serialize.loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _write_text(path, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc


class _Finding(AuditFailure):
    """A finding about a result whose report body is still written."""

    def __init__(self, message, body):
        super().__init__(message)
        self.body = body


def _write_report(args, body):
    if not isinstance(body, str):
        body = serialize.dumps(serialize.make_report(args.verb, body))
    _write_text(args.output, body)


def _load_lp(path: str) -> lpmod.LPInstance:
    return serialize.lp_from_obj(_read_json(path))


def _load_matrix(path: str):
    return serialize.load_matrix(_read_json(path))


def _load_vector(obj_or_key, doc, length=None):
    if obj_or_key not in doc:
        raise InputFormatError(f"document is missing {obj_or_key!r}")
    return serialize.vec_from_obj(doc[obj_or_key], length=length)


def _cmd_analyze(args):
    A = _load_matrix(args.input)
    W = Subspace.from_kernel_matrix(A)
    rep = W.measures
    star = kappa_star(W)
    payload = {
        "ambient_dim": A.cols,
        "subspace_dim": W.dim,
        "kappa": serialize.frac_str(rep.kappa),
        "kappa_dot": serialize.frac_str(rep.kappa_dot),
        "kappa_bar": serialize.frac_str(rep.kappa_bar),
        "kappa_star_power": {
            "product": serialize.frac_str(star.value.product),
            "length": star.value.length,
        },
        "kappa_star_cycle": list(star.witness_cycle),
        "is_tu": is_TU(A)[0] if A.is_integral() else False,
    }
    if args.format == "csv":
        return "".join(f"{key},{payload[key]}\n" for key in ("kappa", "kappa_dot", "kappa_bar"))
    return payload


def _result_payload(res: lpmod.LPResult) -> dict:
    payload = {"status": res.status, "pivots": res.pivots}
    if res.x is not None:
        payload["x"] = serialize.vec_to_obj(res.x)
        payload["objective"] = serialize.frac_str(res.objective)
    if res.y is not None:
        payload["y"] = serialize.vec_to_obj(res.y)
    if res.certificate is not None:
        payload["certificate"] = serialize.vec_to_obj(res.certificate)
    return payload


def _cmd_solve(args):
    lp = _load_lp(args.input)
    if args.rule is None:
        return _result_payload(lpmod.solve(lp))
    from . import augment

    try:
        if args.rule == "guided":
            res = lpmod.solve(lp)
            if res.status != lpmod.OPTIMAL:
                return _result_payload(res)
            # holding the live subspace lets both walks share one enumeration
            W = Subspace.from_kernel_matrix(lp.A)
            start = augment.run(lp, rule="support").final_x
            trace = augment.guided_walk(lp, start, res.x)
        else:
            trace = augment.run(lp, rule=args.rule, cap=args.cap)
    except InfeasibleSystem:
        return {"status": "infeasible"}
    except UnboundedDirection:
        return {"status": "unbounded"}
    trace_obj = serialize.trace_to_obj(trace)
    if args.trace:
        _write_text(args.trace, serialize.dumps(trace_obj))
    final_x = trace.final_x
    cost = vec_dot(lp.c, final_x)
    payload = {
        "rule": args.rule,
        "terminated": trace.terminated,
        "steps": len(trace.steps),
        "x": serialize.vec_to_obj(final_x),
        "objective": serialize.frac_str(cost),
    }
    if not args.trace:
        payload["trace"] = trace_obj
    return payload


def _cmd_prox(args):
    doc = _read_json(args.input)
    A = serialize.load_matrix(doc)
    n = A.cols
    payload = {"check": args.check}
    try:
        if args.check in ("feasibility", "optimal"):
            W = Subspace.from_kernel_matrix(A)
            d = _load_vector("d", doc, length=n)
            c = _load_vector("c", doc, length=n) if args.check == "optimal" else None
            if c is None:
                wit = proximity.hoffman_feasibility_witness(W, d)
                payload["status"] = "feasible"
            else:
                wit = proximity.hoffman_opt_witness(W, d, c)
                payload["lambda_set"] = list(proximity.lambda_set(d, c))
            payload["point"] = serialize.vec_to_obj(wit.point)
            payload["bound"] = serialize.frac_str(wit.bound)
            payload["distance"] = serialize.frac_str(wit.distance)
        elif args.check == "transfer":
            d = _load_vector("d", doc, length=n)
            x_tilde = _load_vector("x_tilde", doc, length=n)
            s = _load_vector("s", doc, length=n)
            bound, R = proximity.transfer_bound(Subspace.from_kernel_matrix(A), x_tilde, s, d)
            payload["bound"] = serialize.frac_str(bound)
            payload["fixed_to_zero"] = list(R)
        else:
            b = _load_vector("b", doc, length=A.rows)
            u = serialize.bounds_from_obj(doc.get("u"), n)
            c1 = _load_vector("c1", doc, length=n)
            c2 = _load_vector("c2", doc, length=n)
            x1 = _load_vector("x1", doc, length=n)
            y1 = _load_vector("y1", doc, length=A.rows)
            R0, Ru = proximity.fixing_sets_bounds(A, b, u, c1, c2, x1, y1)
            payload["fixed_to_zero"] = list(R0)
            payload["fixed_to_upper"] = list(Ru)
    except InfeasibleSystem as exc:
        # W + d misses the nonnegative orthant: an answer, not an input error.
        payload = {"check": args.check, "status": "infeasible"}
        if exc.certificate is not None:
            payload["certificate"] = serialize.vec_to_obj(exc.certificate)
    return payload


def _cmd_blackbox(args):
    doc = _read_json(args.input)
    A = serialize.load_matrix(doc)
    W = Subspace.from_kernel_matrix(A)
    d = _load_vector("d", doc, length=A.cols)
    eps = serialize.parse_frac(args.epsilon) if args.epsilon else None
    try:
        x = proximity.feasibility_simplified(W, d, epsilon=eps, seed=args.seed)
    except OracleInfeasible as exc:
        return {"status": "infeasible", "detail": str(exc)}
    return {
        "status": "feasible",
        "x": serialize.vec_to_obj(x),
        "seed": args.seed,
        "epsilon": serialize.frac_str(eps) if eps is not None else None,
    }


def _cmd_graver(args):
    from . import graver

    A = _load_matrix(args.input)
    basis = graver.graver_basis(A)
    return {
        "count": len(basis.elements),
        "elements": [serialize.vec_to_obj(g) for g in basis.elements],
        "g1": serialize.frac_str(basis.g1),
        "ginf": serialize.frac_str(basis.ginf),
    }


def _cmd_conjecture(args):
    from . import graver

    A = _load_matrix(args.input)
    W = Subspace.from_kernel_matrix(A)
    doc = _read_json(args.target)
    if isinstance(doc, dict):
        z = _load_vector("z", doc, length=A.cols)
    else:
        z = serialize.vec_from_obj(doc, length=A.cols)
    report = graver.conjecture_decompose(W, z)
    payload = {
        "status": report.status,
        "target": serialize.vec_to_obj(report.target),
        "searched": report.searched,
        "decomposition": [
            {"coefficient": serialize.frac_str(lam), "circuit": serialize.vec_to_obj(g)}
            for lam, g in report.decomposition
        ],
    }
    if report.status == "violated":
        raise _Finding("the decomposition conjecture is violated", payload)
    return payload


def _cmd_appendix(args):
    from . import graver

    rep = graver.appendix_counterexample()
    return {
        "kappa_dot": serialize.frac_str(rep.kappa_dot),
        "qualifying_vectors": [serialize.vec_to_obj(w) for w in rep.vectors],
        "pair_products": [
            {"v": list(v), "w": list(w), "rows": [list(r) for r in rows]}
            for v, w, rows in rep.products
        ],
        "witness_columns": [list(w) for w in rep.witnesses],
    }


def _cmd_generate(args):
    from .generate import GeneratorSpec, generate

    spec = GeneratorSpec(family=args.family, size=args.size, rows=args.rows, seed=args.seed)
    made = generate(spec)
    if isinstance(made, lpmod.LPInstance):
        if args.format == "csv":
            return serialize.lp_to_csv(made)
        return serialize.dumps(serialize.lp_to_obj(made))
    if args.format == "csv":
        return serialize.matrix_to_csv(made)
    return serialize.dumps(
        {"schema_version": serialize.SCHEMA_VERSION, "A": serialize.matrix_to_obj(made)}
    )


def _cmd_diameter(args):
    lp = _load_lp(args.input)
    W = Subspace.from_kernel_matrix(lp.A)
    rep = W.measures
    # The bound is for the measured system, standardized with a slack column
    # and a row per finite upper bound: kappa of ker A, rank m = rank A + f.
    f = len(lp.bounded_idx)
    n = lp.A.cols + f
    m = W.codim + f
    try:
        diam = lpmod.edge_graph_diameter(lp)
    except UnboundedRegion:
        return {"status": "unbounded"}
    except InfeasibleSystem:
        return {"status": "infeasible"}
    within, bound = diameter_within(diam, n, m, rep.kappa)
    payload = {
        "status": "ok",
        "diameter": diam,
        "bound": serialize.frac_str(bound),
        "within": within,
    }
    if not within:
        raise _Finding("the edge-graph diameter exceeds the kappa bound", payload)
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circuitkit",
        description="Exact circuit-imbalance analysis for rational subspaces.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--output", help="write the report here (default stdout)")

    p = sub.add_parser("analyze", help="circuit imbalance measures of ker(A)")
    p.add_argument("--input", required=True, help="matrix JSON")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("solve", help="exact LP solve or augmentation walk")
    p.add_argument("--input", required=True, help="LP JSON")
    p.add_argument("--rule", choices=RULES, help="augmentation rule (default: simplex)")
    p.add_argument("--cap", type=int, help="iteration cap for augmentation")
    p.add_argument("--trace", help="write the augmentation trace JSON here")
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("prox", help="proximity bounds with exact verification")
    p.add_argument("--input", required=True, help="JSON with A plus check-specific fields")
    p.add_argument(
        "--check",
        choices=("feasibility", "optimal", "transfer", "fixing"),
        default="feasibility",
    )
    common(p)
    p.set_defaults(func=_cmd_prox)

    p = sub.add_parser("blackbox", help="exact feasibility from approximate oracles")
    p.add_argument("--input", required=True, help="JSON with A and d")
    p.add_argument("--epsilon", help="oracle accuracy as p/q")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_blackbox)

    p = sub.add_parser("graver", help="Graver basis with norm bounds")
    p.add_argument("--input", required=True, help="integer matrix JSON")
    common(p)
    p.set_defaults(func=_cmd_graver)

    p = sub.add_parser("conjecture", help="circuit decomposition with integer scaling")
    p.add_argument("--input", required=True, help="matrix JSON (kernel of A)")
    p.add_argument("--target", required=True, help="integer kernel vector JSON")
    common(p)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("appendix", help="worked 2x4 counterexample, verified end to end")
    common(p)
    p.set_defaults(func=_cmd_appendix)

    p = sub.add_parser("generate", help="seeded fixture families")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--size", type=int, default=5, help="node count or column count")
    p.add_argument("--rows", type=int, default=3, help="row count (random-rational)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("diameter", help="polytope graph diameter against the kappa bound")
    p.add_argument("--input", required=True, help="LP JSON")
    common(p)
    p.set_defaults(func=_cmd_diameter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact values may be long: read and write numbers of any length, for
    # this call only (callers in the same process keep their own limit).
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            _write_report(args, args.func(args))
        except _Finding as exc:
            _write_report(args, exc.body)
            raise
        return 0
    except AuditFailure as exc:
        print(f"finding: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except CircuitKitError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
