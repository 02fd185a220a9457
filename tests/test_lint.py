"""Static rules on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "circuitkit"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so a runtime check must raise instead.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def _imported_names(tree):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def test_no_unused_imports_in_the_package():
    # __init__.py imports to re-export, so it is the one module left out.
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        found += [
            f"{path.name}:{line} {name}" for name, line in _imported_names(tree) if name not in used
        ]
    assert found == []


# Where the package may call float(): the spectral estimator, whose value
# is irrational by nature.
FLOAT_ALLOWED = {
    ("imbalance.py", "chibar"),
}


def _float_calls(node, function=None):
    """(enclosing function, line) for each float(...) call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _float_calls(child, child.name)
            continue
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "float"
        ):
            yield function, child.lineno
        yield from _float_calls(child, function)


def test_float_only_in_the_allowed_functions():
    # A float on a decision path would make an exact answer depend on rounding.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{line} in {function}"
            for function, line in _float_calls(tree)
            if (path.name, function) not in FLOAT_ALLOWED
        ]
    assert found == []


def test_only_lp_names_the_simplex_internals():
    # One simplex: every solve, plain or lexicographic, goes through lp.solve.
    internals = {"_Tableau", "_solve_standard"}
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "lp.py"]
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {name for name, _ in _imported_names(tree)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
        found += [f"{path.name} {name}" for name in sorted(names & internals)]
    assert found == []


def test_cli_formats_no_number_itself():
    # Numbers leave through serialize.frac_str / vec_to_obj, one format for
    # every report; the CLI may str() only an exception it caught.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    caught = {n.name for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler) and n.name}
    found = [
        f"cli.py:{n.lineno}"
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "str"
        and not (len(n.args) == 1 and isinstance(n.args[0], ast.Name) and n.args[0].id in caught)
    ]
    assert found == []


def _is_bareiss_step(node) -> bool:
    """(x * y - z * w) // d: a fraction-free elimination step written out."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.FloorDiv)
        and isinstance(node.left, ast.BinOp)
        and isinstance(node.left.op, ast.Sub)
        and all(
            isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
            for side in (node.left.left, node.left.right)
        )
    )


def test_only_ratmat_takes_a_bareiss_step():
    # One elimination step: the simplex, the circuit enumeration and the
    # determinant all call ratmat.bareiss_step.
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "ratmat.py" for p in paths)
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        steps = [n.lineno for n in ast.walk(tree) if _is_bareiss_step(n)]
        if path.name == "ratmat.py":
            assert steps, "ratmat.bareiss_step no longer has the step it guards"
        else:
            found += [f"{path.name}:{line}" for line in steps]
    assert found == []


def _is_fraction_dot(node) -> bool:
    """sum(<generator of products>, Fraction(...)): a dot product written
    out as a per-term Fraction sum."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    starts = [*node.args[1:], *(k.value for k in node.keywords if k.arg == "start")]
    return (
        node.func.id == "sum"
        and len(node.args) >= 1
        and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
        and isinstance(node.args[0].elt, ast.BinOp)
        and isinstance(node.args[0].elt.op, ast.Mult)
        and any(
            isinstance(a, ast.Call) and isinstance(a.func, ast.Name) and a.func.id == "Fraction"
            for a in starts
        )
    )


def test_dot_products_go_through_ratmat():
    # One dot kernel: ratmat.vec_dot adds integer numerators and reduces
    # once; a per-term Fraction sum normalises after every term.
    sample = "sum((ci * xi for ci, xi in zip(c, x)), Fraction(0))"
    assert _is_fraction_dot(ast.parse(sample).body[0].value)
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if _is_fraction_dot(n)]
    assert found == []


def test_only_ratmat_reads_integer_ratios():
    # One rational-to-integer reader: ratmat.over_common_den (and _int_rows,
    # row by row) writes a vector as integers over its least common
    # denominator; every other module goes through it or reads
    # .numerator and .denominator.
    sample = "pairs = [x.as_integer_ratio() for x in row]"
    assert _calls(ast.parse(sample), "as_integer_ratio")
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "ratmat.py"]
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in _calls(tree, "as_integer_ratio")]
    assert found == []


def _matrix_rereads(tree):
    """Lines of `_int_rows(<expr>.data)` calls under tree outside a class
    named RatMatrix: a matrix's Fractions read into integers again."""
    inside = {
        id(n)
        for c in ast.walk(tree)
        if isinstance(c, ast.ClassDef) and c.name == "RatMatrix"
        for n in ast.walk(c)
    }
    return [
        n.lineno
        for n in _calls(tree, "_int_rows")
        if id(n) not in inside
        and n.args
        and isinstance(n.args[0], ast.Attribute)
        and n.args[0].attr == "data"
    ]


def test_only_ratmat_matrix_reads_its_rows_into_integers():
    # Each matrix is read once: RatMatrix.int_rows keeps the integer rows
    # of its data, and every other reader takes them from there.
    assert _matrix_rereads(ast.parse("rows, scales = _int_rows(A.data)")) == [1]
    kept = "class RatMatrix:\n    def int_rows(self):\n        return _int_rows(self.data)"
    assert _matrix_rereads(ast.parse(kept)) == []
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "ratmat.py" for p in paths)
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line in _matrix_rereads(tree)]
    assert found == []


def test_the_package_reads_no_environment():
    # ROADMAP item 4: "Add no environment variable."  The column cap is the
    # constant ratmat.MAX_ENUM_COLS, and no knob outside the arguments may
    # change an answer.
    names = {"environ", "getenv", "putenv", "unsetenv"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{n.lineno} os.{n.attr}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name)
            and n.value.id == "os"
            and n.attr in names
        ]
        found += [
            f"{path.name}:{n.lineno} from os import {alias.name}"
            for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.module == "os"
            for alias in n.names
            if alias.name in names
        ]
    assert found == []


def test_no_module_imports_dataclasses():
    # `import dataclasses` pulls in inspect, ast, dis and tokenize, and each
    # @dataclass compiles generated source: a CLI process pays for both on
    # every run.  Records are NamedTuples.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                modules = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom):
                modules = [n.module]
            else:
                continue
            found += [f"{path.name}:{n.lineno}" for m in modules if m == "dataclasses"]
    assert found == []


def test_no_module_rebuilds_a_record_past_its_constructor():
    # `_replace` and `_make` skip __new__, so on LPInstance and GeoMeanValue
    # they would skip the input check; the package calls neither anywhere.
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{n.lineno} {n.attr}"
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in ("_replace", "_make")
        ]
    assert found == []


def _calls(node, name):
    """Calls under node of `name` (a bare name) or `x.name` (an attribute)."""
    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
        and (
            (isinstance(n.func, ast.Name) and n.func.id == name)
            or (isinstance(n.func, ast.Attribute) and n.func.attr == name)
        )
    ]


def test_cli_writes_every_report_in_one_place():
    # Verbs return their report body; `_write_report` alone wraps it and
    # writes it, and `main` alone prints `finding:` and picks the exit code,
    # so a change to what every report carries is a change in one place.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    sites = _calls(tree, "make_report")
    assert len(sites) == 1 and sites[0] in _calls(functions["_write_report"], "make_report")
    found = []
    for name, fn in functions.items():
        if not name.startswith("_cmd_"):
            continue
        found += [f"{name}:{n.lineno} print" for n in _calls(fn, "print")]
        found += [
            f"{name}:{n.lineno} sys.stderr"
            for n in ast.walk(fn)
            if isinstance(n, ast.Attribute)
            and n.attr == "stderr"
            and isinstance(n.value, ast.Name)
            and n.value.id == "sys"
        ]
    # _write_text: from the one writer, and for the --trace file of `solve`
    for name, fn in functions.items():
        for n in _calls(fn, "_write_text"):
            trace = (
                name == "_cmd_solve"
                and isinstance(n.args[0], ast.Attribute)
                and n.args[0].attr == "trace"
            )
            if name != "_write_report" and not trace:
                found.append(f"{name}:{n.lineno} _write_text")
    assert found == []


def test_every_layer_the_benchmark_traces_exists():
    # perfbench/tracer.py reports a traced name that no longer resolves as
    # "missing" and carries on, so a rename would only leave a gap in the
    # traced runs; here it fails.  The tracer is loaded, not installed.
    import importlib
    import importlib.util

    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_circuitkit_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = []
    for module_name, attrs in tracer.LAYERS.values():
        module = importlib.import_module(module_name)
        for attr in attrs:
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or vars(owner).get(name) is None:
                missing.append(f"{module_name}.{attr}")
    assert missing == []


def _plain_methods():
    """Names of the functions defined in a class body of the package that
    are not properties, less every name the package also gives a property
    or a class field, so that an uncalled read of one is a bound method."""
    methods, other = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = {getattr(d, "id", getattr(d, "attr", "")) for d in node.decorator_list}
                    is_property = bool(names & {"property", "cached_property"})
                    (other if is_property else methods).add(node.name)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    other.add(node.target.id)
                elif isinstance(node, ast.Assign):
                    other.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return methods - other


def _truth_reads(tree):
    """The expressions whose truth value is read: the test of an `if`
    (statement, expression or comprehension clause), `while` or `assert`,
    the operand of `not`, and each operand of `and` and `or`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.IfExp, ast.While, ast.Assert)):
            yield node.test
        elif isinstance(node, ast.comprehension):
            yield from node.ifs
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node.operand
        elif isinstance(node, ast.BoolOp):
            yield from node.values


def _uncalled_method_reads(tree, methods):
    return [
        f"{e.lineno} .{e.attr}"
        for e in _truth_reads(tree)
        if isinstance(e, ast.Attribute) and e.attr in methods
    ]


def test_no_method_is_read_as_a_truth_value():
    # A bound method is always true, so `assert W.is_trivial` or
    # `if W.is_trivial: return` checks nothing; call it.
    methods = _plain_methods()
    assert {"is_trivial", "contains", "verify"} <= methods
    assert "rows" not in methods and "kappa" not in methods
    sample = "assert W.is_trivial\nif not W.is_trivial() and W.contains: pass"
    assert _uncalled_method_reads(ast.parse(sample), methods) == ["1 .is_trivial", "2 .contains"]
    root = SRC.parent.parent
    paths = sorted([*(root / "tests").glob("*.py"), *(root / "scripts").glob("*.py")])
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{hit}" for hit in _uncalled_method_reads(tree, methods)]
    assert found == []
