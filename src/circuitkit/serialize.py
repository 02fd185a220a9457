"""JSON and CSV encoding with exact fraction strings.

Numbers travel as strings like ``"-3/4"`` or ``"7"``; float literals are
rejected on input so nothing silently loses precision.  Every emitted
document re-parses to an equal value.
"""

from __future__ import annotations

import io
import json
import re
from fractions import Fraction

from .errors import InputFormatError
from .lp import LPInstance
from .ratmat import RatMatrix

SCHEMA_VERSION = "1"

_FRACTION_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def frac_str(x) -> str:
    """An int or a Fraction as "p" or "p/q", read off its numerator and
    denominator, so an int is not made a Fraction first."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(value) -> Fraction:
    if isinstance(value, bool):
        raise InputFormatError(f"expected a fraction, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _FRACTION_RE.match(value):
            raise InputFormatError(f"not an exact fraction string: {value!r}")
        # The match leaves p or p/q with q > 0, which int() reads as
        # Fraction(str) would, without its string parser.
        p, _, q = value.partition("/")
        try:
            return Fraction(int(p), int(q)) if q else Fraction(int(p))
        except ValueError as exc:  # e.g. past the int/str digit limit
            raise InputFormatError(f"cannot read the fraction: {exc}") from exc
    raise InputFormatError(f"expected a fraction string, got {type(value).__name__}")


def vec_to_obj(v) -> list:
    return [frac_str(x) for x in v]


def vec_from_obj(obj, length=None) -> tuple:
    if not isinstance(obj, list):
        raise InputFormatError("vector must be a JSON list")
    out = tuple(parse_frac(x) for x in obj)
    if length is not None and len(out) != length:
        raise InputFormatError(f"vector length {len(out)}, expected {length}")
    return out


def matrix_to_obj(M: RatMatrix) -> list:
    return [vec_to_obj(row) for row in M.data]


def matrix_from_obj(obj) -> RatMatrix:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError("matrix must be a nonempty list of rows")
    width = None
    rows = []
    for row in obj:
        r = vec_from_obj(row)
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise InputFormatError("matrix rows have unequal lengths")
        rows.append(r)
    if width == 0:
        raise InputFormatError("matrix rows must be nonempty")
    return RatMatrix.from_rows(rows, cols=width)


def lp_to_obj(lp: LPInstance) -> dict:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "A": matrix_to_obj(lp.A),
        "b": vec_to_obj(lp.b),
        "c": vec_to_obj(lp.c),
        "u": None,
    }
    if lp.u is not None:
        obj["u"] = [None if x is None else frac_str(x) for x in lp.u]
    return obj


def lp_from_obj(obj) -> LPInstance:
    if not isinstance(obj, dict):
        raise InputFormatError("LP document must be a JSON object")
    for key in ("A", "b", "c"):
        if key not in obj:
            raise InputFormatError(f"LP document is missing {key!r}")
    A = matrix_from_obj(obj["A"])
    b = vec_from_obj(obj["b"], length=A.rows)
    c = vec_from_obj(obj["c"], length=A.cols)
    if obj.get("u") is None:
        return LPInstance.standard(A, b, c)
    return LPInstance.bounded(A, b, c, bounds_from_obj(obj["u"], A.cols))


def bounds_from_obj(obj, length) -> tuple:
    """Upper bounds, one entry per column: a fraction, or null for none."""
    if not isinstance(obj, list) or len(obj) != length:
        raise InputFormatError(f"u needs {length} entries, each a fraction or null")
    return tuple(None if x is None else parse_frac(x) for x in obj)


def load_matrix(obj) -> RatMatrix:
    """Accept either a bare row list or an object with an "A" key."""
    if isinstance(obj, dict):
        if "A" not in obj:
            raise InputFormatError('matrix document needs an "A" key')
        return matrix_from_obj(obj["A"])
    return matrix_from_obj(obj)


def make_report(kind: str, payload: dict) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "kind": kind}
    out.update(payload)
    return out


def trace_to_obj(trace) -> dict:
    steps = []
    for s in trace.steps:
        steps.append(
            {
                "direction": vec_to_obj(s.direction.vector),
                "alpha": frac_str(s.alpha),
                "x_after": vec_to_obj(s.x_after),
                "objective_after": frac_str(s.objective_after),
            }
        )
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "trace",
        "rule": trace.rule,
        "start": vec_to_obj(trace.start),
        "objective_start": frac_str(trace.objective_start),
        "steps": steps,
        "terminated": trace.terminated,
        "epsilons": None,
    }
    if trace.epsilons is not None:
        obj["epsilons"] = vec_to_obj(trace.epsilons)
    return obj


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads(text: str):
    try:
        return json.loads(text, parse_float=_reject_float)
    # JSONDecodeError, an int past the digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc


def _reject_float(token):
    raise InputFormatError(f"float literal {token!r} not allowed; use p/q strings")


def matrix_to_csv(M: RatMatrix) -> str:
    import csv  # only the CSV writers need it

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    for row in M.data:
        w.writerow(vec_to_obj(row))
    return buf.getvalue()


def lp_to_csv(lp: LPInstance) -> str:
    """Sectioned CSV: header cell naming the block, then its rows."""
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["A"])
    for row in lp.A.data:
        w.writerow(vec_to_obj(row))
    w.writerow(["b"])
    w.writerow(vec_to_obj(lp.b))
    w.writerow(["c"])
    w.writerow(vec_to_obj(lp.c))
    if lp.u is not None:
        w.writerow(["u"])
        w.writerow(["" if x is None else frac_str(x) for x in lp.u])
    return buf.getvalue()


