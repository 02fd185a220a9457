"""Exact output checks for every benchmark op, standard library only.

Each check mirrors the acceptance-suite assertion for that output and uses
the reference data the generator kept (matrices, flow optima, targets).
`classify` returns one of
  ("ok", "")                 the output passed its check,
  ("refused", <defect>)      the op hit the known defect that the
                             reference data expects on this input,
  ("failed", <reason>)       wrong output, unexpected error, a refusal the
                             reference does not expect, or a time-out.
"""

from __future__ import annotations

import json
from fractions import Fraction

from gen import matvec, rref, separable

# name -> (exit code, text in stderr); each is a defect of the program at
# the commit that defined this benchmark, counted at its natural rate in the
# workload's op mix (see NOTES.md for the baseline shares).  An op may be
# refused only with the defect the reference expects on its input.
KNOWN_DEFECTS = {
    "analyze-separable": (2, "non-separable subspace"),
    "support-did-not-shrink": (1, "support did not shrink"),
    "guided-dependent-target": (2, "support columns of x_target are dependent"),
    "graver-box-too-large": (2, "coefficient box has"),
}

APPENDIX_SIGNED = {
    (9, -4), (-9, 4), (10, -3), (-10, 3), (13, -3), (-13, 3), (0, 1), (0, -1),
}


class CheckFailed(Exception):
    pass


def need(cond, what):
    if not cond:
        raise CheckFailed(what)


def F(values):
    return [Fraction(v) for v in values]


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def reduced_costs(A, c, y):
    """c - A^T y."""
    return [ci - dot((row[i] for row in A), y) for i, ci in enumerate(c)]


def check_prox(op, out):
    """The test_07 assertions on one instance, plus exact optimality
    certificates for the two LPs it solves."""
    inst = op["inst"]
    A0, d, c, u = inst["A"], F(inst["d"]), F(inst["c"]), Fraction(inst["u"])
    A = [F(row) for row in out["A"]]
    rank = rref(A0)[0]
    need(rref(A)[0] == rank and rref(A)[2][:rank] == rref(A0)[2][:rank],
         "kernel representation does not span the rows of A")
    b = matvec(A, d)
    feas, opt, lp = out["feas"], out["opt"], out["lp"]
    point = F(feas["point"])
    need(Fraction(feas["slack"]) >= 0, "feasibility slack < 0")
    need(all(v >= 0 for v in point), "feasibility point not >= 0")
    need(matvec(A0, point) == matvec(A0, d), "feasibility point not in W + d")
    # min c x, A x = A d, x >= 0: primal and dual feasible, equal objectives
    x, y, objective = F(lp["x"]), F(lp["y"]), Fraction(lp["objective"])
    s = reduced_costs(A, c, y)
    need(matvec(A, x) == b and all(v >= 0 for v in x), "LP x infeasible")
    need(all(v >= 0 for v in s), "LP y dual infeasible")
    need(dot(c, x) == objective == dot(b, y), "LP objective is not c x = b y")
    p = F(opt["point"])
    need(Fraction(opt["slack"]) >= 0, "optimality slack < 0")
    need(matvec(A0, p) == matvec(A0, d) and all(v >= 0 for v in p), "optimal witness infeasible")
    need(dot(c, p) == objective, "optimal witness cost != LP optimum")
    if out["transfer"] != "infeasible":
        bound = Fraction(out["transfer"]["bound"])
        need(bound >= 0, "transfer bound < 0")
        need(all(x[i] > bound for i in out["transfer"]["R"]), "transfer set R too large")
    bounded = out["bounded"]
    need(bounded["status"] == "optimal", f"bounded LP {bounded['status']}")
    # min c x, A x = A d, 0 <= x <= u, feasible by construction (x* <= 4 < u):
    # c - A^T y + t >= 0, t >= 0 and c x = b y - u t
    x, y, t = F(bounded["x"]), F(bounded["y"]), F(bounded["dual_upper"])
    need(matvec(A, x) == b and all(0 <= v <= u for v in x), "bounded LP x infeasible")
    need(all(v >= 0 for v in t), "bounded LP t < 0")
    need(all(si + ti >= 0 for si, ti in zip(reduced_costs(A, c, y), t)),
         "bounded LP dual infeasible")
    need(dot(c, x) == Fraction(bounded["objective"]) == dot(b, y) - u * sum(t),
         "bounded LP objective is not c x = b y - u t")
    need(out["fixing"] is not None, "fixing sets missing")
    need(out["fixing"]["tuples"] == ["tuple", "tuple"], "fixing sets are not tuples")


def check_analyze(op, rep):
    rows = op["rows"]
    n = len(rows[0])
    need(rep["kind"] == "analyze", "wrong report kind")
    need(rep["ambient_dim"] == n, "ambient_dim")
    need(rep["subspace_dim"] == n - rref(rows)[0], "subspace_dim != n - rank")
    kappa, kbar, kdot = (Fraction(rep[k]) for k in ("kappa", "kappa_bar", "kappa_dot"))
    need(1 <= kappa <= kbar <= kdot, "1 <= kappa <= kappa_bar <= kappa_dot fails")
    power = rep["kappa_star_power"]
    product, length = Fraction(power["product"]), power["length"]
    need(length >= 1 and 1 <= product <= kappa**length, "kappa_star outside [1, kappa]")
    need(isinstance(rep["is_tu"], bool), "is_tu")


def check_walk(op, rep):
    """A walk reaches the simplex optimum; the support rule a vertex.

    `support` stops at the first basic point (it is the start of the
    guided walk), which is optimal only by chance; `guided` walks to the
    simplex optimum and reports "target-reached".
    """
    need(rep["kind"] == "solve" and rep["rule"] == op["kind"], "wrong report")
    x = F(rep["x"])
    need(matvec(op["A"], x) == F(op["b"]), "final point violates A x = b")
    need(all(v >= 0 for v in x), "final point not >= 0")
    need(all(u is None or v <= u for v, u in zip(x, op["u"])), "final point above u")
    ended = rep["terminated"]
    if op["kind"] == "support" and ended == "basic":
        cols = [j for j, v in enumerate(x) if v != 0]
        sub = [[row[j] for j in cols] for row in op["A"]]
        need(not cols or rref(sub)[0] == len(cols), "basic point has dependent support")
        return
    need(ended == ("target-reached" if op["kind"] == "guided" else "optimal"), f"walk ended {ended!r}")
    need(Fraction(rep["objective"]) == op["optimum"], "final objective != simplex optimum")


def check_graver(op, rep):
    elements = [[int(v) for v in g] for g in rep["elements"]]
    need(rep["count"] == len(elements) > 0, "count")
    for g in elements:
        need(any(g), "zero element")
        need(all(v == 0 for v in matvec(op["rows"], g)), "element with A g != 0")
    need(int(rep["g1"]) == max(sum(map(abs, g)) for g in elements), "g1")
    need(int(rep["ginf"]) == max(max(map(abs, g)) for g in elements), "ginf")


def check_conjecture(op, rep):
    z = op["z"]
    need(rep["status"] == "holds", f"status {rep['status']!r}")
    need([int(v) for v in rep["target"]] == z, "target")
    total = [Fraction(0)] * len(z)
    for term in rep["decomposition"]:
        lam, g = Fraction(term["coefficient"]), [int(v) for v in term["circuit"]]
        need(lam > 0, "coefficient <= 0")
        need(all(v == 0 for v in matvec(op["rows"], g)), "circuit not in the kernel")
        need(all(gi * zi >= 0 and (gi == 0 or zi != 0) for gi, zi in zip(g, z)), "not conformal")
        total = [t + lam * gi for t, gi in zip(total, g)]
    need(total == F(z), "decomposition does not sum to the target")


def check_appendix(op, rep):
    need(rep["kappa_dot"] == "5850", "kappa_dot != 5850")
    vectors = {tuple(int(v) for v in w) for w in rep["qualifying_vectors"]}
    signed = vectors | {(-a, -b) for a, b in vectors}
    need(signed == APPENDIX_SIGNED, "qualifying vectors")
    need(len(rep["pair_products"]) == 6 and len(rep["witness_columns"]) == 6, "witnesses")


CLI_CHECKS = {
    "analyze": check_analyze,
    "graver": check_graver,
    "conjecture": check_conjecture,
    "appendix": check_appendix,
}


def expected_refusal(op):
    """The known defect the reference expects on this op's input, or None:
    separability of ker A is decided here, the walk set's refusals come
    from refusals.json (gen.walk_op)."""
    if op["kind"] == "analyze":
        return "analyze-separable" if separable(op["rows"], len(op["rows"][0])) else None
    return op.get("refusal")


def classify(op, record):
    """Status of one op from the child's record (None when it timed out)."""
    if record is None:
        return "failed", "timed out"
    if op["kind"] == "prox":
        if "error" in record:
            return "failed", record["error"]
        check = lambda: check_prox(op, record["out"])  # noqa: E731
    else:
        code, stderr = record["exit"], record["stderr"]
        for name, (want_code, text) in KNOWN_DEFECTS.items():
            if code == want_code and text in stderr:
                if name == expected_refusal(op):
                    return "refused", name
                return "failed", f"refused by {name}, which the reference does not expect here"
        if code != 0:
            return "failed", f"exit {code}: {stderr.strip()[:200]}"
        fn = CLI_CHECKS.get(op["kind"], check_walk)
        check = lambda: fn(op, json.loads(record["stdout"]))  # noqa: E731
    try:
        check()
    except (CheckFailed, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return "failed", f"check: {exc}"
    return "ok", ""


def canonical(op, record) -> str:
    """The op's outputs without timings, for the bit-for-bit digest."""
    if record is None:
        return "timeout"
    if op["kind"] == "prox":
        return json.dumps(record.get("out", record.get("error")), sort_keys=True)
    return json.dumps([record["exit"], record["stdout"], record["stderr"]])
