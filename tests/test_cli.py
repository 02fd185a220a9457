import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from circuitkit import cli, graver, imbalance, proximity, subspace
from circuitkit.errors import InternalError
from circuitkit.graver import ConjectureReport
from circuitkit.lp import INFEASIBLE, LPResult
from circuitkit.serialize import dumps, loads, parse_frac, vec_to_obj

SRC = Path(__file__).resolve().parent.parent / "src"


def write_json(path, obj):
    path.write_text(dumps(obj))
    return str(path)


@pytest.fixture
def app_matrix_file(tmp_path):
    return write_json(
        tmp_path / "app.json",
        {"schema_version": "1", "A": [["1", "3", "4", "3"], ["0", "13", "9", "10"]]},
    )


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_json(capsys, app_matrix_file):
    code, out = run_cli(capsys, ["analyze", "--input", app_matrix_file])
    assert code == 0
    doc = loads(out)
    assert doc["schema_version"] == "1"
    assert doc["kind"] == "analyze"
    assert doc["kappa"] == "25/9"
    assert doc["kappa_dot"] == "5850"
    assert doc["kappa_bar"] == "25"


def test_analyze_csv(capsys, app_matrix_file):
    code, out = run_cli(capsys, ["analyze", "--input", app_matrix_file, "--format", "csv"])
    assert code == 0
    assert "kappa_dot,5850" in out


def test_generate_analyze_pipeline(tmp_path, capsys):
    mat = tmp_path / "dumbbell.json"
    code, _ = run_cli(
        capsys,
        ["generate", "--family", "dumbbell", "--output", str(mat)],
    )
    assert code == 0
    code, out = run_cli(capsys, ["analyze", "--input", str(mat)])
    assert code == 0
    assert loads(out)["kappa_dot"] == "2"


@pytest.mark.parametrize(
    "rows, power, cycle",
    [
        ([["1", "2", "0", "0"], ["0", "0", "1", "3"]], {"product": "1", "length": 1}, [0, 1]),
        ([["1", "0"], ["0", "1"]], {"product": "1", "length": 1}, []),
    ],
    ids=["block-diagonal", "identity"],
)
def test_analyze_answers_separable_and_trivial_kernels(tmp_path, capsys, rows, power, cycle):
    path = write_json(tmp_path / "m.json", {"schema_version": "1", "A": rows})
    code, out = run_cli(capsys, ["analyze", "--input", path])
    assert code == 0
    doc = loads(out)
    assert doc["kappa_star_power"] == power
    assert doc["kappa_star_cycle"] == cycle


def test_generate_flow_solve(tmp_path, capsys):
    lp_path = tmp_path / "flow.json"
    code, _ = run_cli(
        capsys,
        ["generate", "--family", "flow", "--size", "5", "--seed", "3", "--output", str(lp_path)],
    )
    assert code == 0
    code, out = run_cli(capsys, ["solve", "--input", str(lp_path)])
    assert code == 0
    doc = loads(out)
    assert doc["status"] == "optimal"
    assert "objective" in doc


def test_solve_with_rule_and_trace(tmp_path, capsys):
    lp_path = tmp_path / "flow.json"
    run_cli(capsys, ["generate", "--family", "flow", "--size", "4", "--seed", "1",
                     "--output", str(lp_path)])
    trace_path = tmp_path / "trace.json"
    code, out = run_cli(
        capsys,
        ["solve", "--input", str(lp_path), "--rule", "steepest", "--trace", str(trace_path)],
    )
    assert code == 0
    doc = loads(out)
    assert doc["terminated"] == "optimal"
    trace = loads(trace_path.read_text())
    assert trace["rule"] == "steepest"
    assert isinstance(trace["steps"], list)


def test_solve_guided(tmp_path, capsys):
    lp_path = tmp_path / "flow.json"
    run_cli(capsys, ["generate", "--family", "flow", "--size", "4", "--seed", "2",
                     "--output", str(lp_path)])
    code, out = run_cli(capsys, ["solve", "--input", str(lp_path), "--rule", "guided"])
    assert code == 0
    assert loads(out)["terminated"] == "target-reached"


@pytest.mark.parametrize("cap, code, steps", [("-3", 2, None), ("0", 0, 0)])
def test_solve_iteration_cap_must_not_be_negative(tmp_path, capsys, cap, code, steps):
    # a negative cap once reported "iteration-cap" after 0 steps with exit 0
    lp_path = tmp_path / "flow.json"
    run_cli(capsys, ["generate", "--family", "flow", "--size", "4", "--seed", "1",
                     "--output", str(lp_path)])
    assert cli.main(["solve", "--input", str(lp_path), "--rule", "dantzig", "--cap", cap]) == code
    out, err = capsys.readouterr()
    if steps is None:
        assert out == "" and err.startswith("input error: the iteration cap")
    else:
        assert loads(out)["steps"] == steps


def test_solve_infeasible_is_ordinary(tmp_path, capsys):
    lp_path = write_json(
        tmp_path / "bad.json",
        {"schema_version": "1", "A": [["1", "1"]], "b": ["-1"], "c": ["0", "0"], "u": None},
    )
    code, out = run_cli(capsys, ["solve", "--input", lp_path])
    assert code == 0
    doc = loads(out)
    assert doc["status"] == "infeasible"
    assert "certificate" in doc


@pytest.mark.parametrize("rule", ["steepest", "dantzig"])
def test_solve_with_a_huge_kappa(tmp_path, capsys, rule):
    # kappa is 10^400, far past the float range; the walk's step cap is exact
    lp_path = write_json(
        tmp_path / "huge.json",
        {"schema_version": "1", "A": [["1", str(10**400), "0"], ["0", "1", "1"]],
         "b": ["1", "1"], "c": ["1", "1", "1"], "u": None},
    )
    code, out = run_cli(capsys, ["solve", "--input", lp_path, "--rule", rule])
    assert code == 0
    assert loads(out)["terminated"] == "optimal"


def test_prox_feasibility(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "A": [["1", "1", "0"], ["0", "1", "1"]],
        "d": ["2", "-1", "2"],
    }
    path = write_json(tmp_path / "prox.json", doc)
    code, out = run_cli(capsys, ["prox", "--input", path, "--check", "feasibility"])
    assert code == 0
    rep = loads(out)
    assert rep["status"] == "feasible"
    assert rep["kind"] == "prox"


def test_prox_transfer_to_an_empty_shift_reports_infeasible(tmp_path, capsys):
    # W + d misses the orthant: an answer with its certificate, as for feasibility
    doc = {
        "schema_version": "1",
        "A": [["1", "1", "1"]],
        "d": ["-1", "-1", "-1"],
        "x_tilde": ["1", "0", "0"],
        "s": ["0", "1", "1"],
    }
    path = write_json(tmp_path / "prox.json", doc)
    code, out = run_cli(capsys, ["prox", "--input", path, "--check", "transfer"])
    assert code == 0
    rep = loads(out)
    assert (rep["status"], rep["certificate"]) == ("infeasible", ["-1"])


@pytest.mark.parametrize("check, extra", [("feasibility", {}), ("optimal", {"c": ["1", "1", "0"]})])
def test_an_infeasible_nearest_point_lp_exits_three(tmp_path, capsys, monkeypatch, check, extra):
    # The witness solve has just shown W + d to meet the orthant, so an
    # infeasible nearest-point LP is a broken invariant, not an answer.
    # The cost (1, 1, 0) lies in the row space, so every reduced cost is 0
    # and the optimal face is the whole region, an edge: the LP runs.
    solve = proximity.solve

    def broken(lp, tiebreak=None, start=None):
        if tiebreak is None:
            return solve(lp)
        return LPResult(status=INFEASIBLE, certificate=(1,) * lp.A.rows)

    monkeypatch.setattr(proximity, "solve", broken)
    doc = {"schema_version": "1", "A": [["1", "1", "0"], ["0", "1", "1"]], "d": ["2", "-1", "2"]}
    path = write_json(tmp_path / "prox.json", {**doc, **extra})
    assert cli.main(["prox", "--input", path, "--check", check]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: nearest-point LP of a nonempty region is infeasible\n"


def test_blackbox(tmp_path, capsys):
    doc = {
        "schema_version": "1",
        "A": [["1", "1", "0"], ["0", "1", "1"]],
        "d": ["2", "-1", "2"],
    }
    path = write_json(tmp_path / "bb.json", doc)
    code, out = run_cli(capsys, ["blackbox", "--input", path, "--seed", "4"])
    assert code == 0
    assert loads(out)["status"] == "feasible"


def test_graver_verb(tmp_path, capsys):
    path = write_json(
        tmp_path / "m.json",
        {"schema_version": "1", "A": [["1", "1", "0"], ["0", "1", "1"]]},
    )
    code, out = run_cli(capsys, ["graver", "--input", path])
    assert code == 0
    rep = loads(out)
    assert rep["count"] == 2
    assert rep["ginf"] == "1"


def test_conjecture_holds(tmp_path, capsys):
    mat = write_json(
        tmp_path / "m.json",
        {"schema_version": "1", "A": [["1", "1", "0"], ["0", "1", "1"]]},
    )
    target = write_json(tmp_path / "z.json", ["2", "-2", "2"])
    code, out = run_cli(capsys, ["conjecture", "--input", mat, "--target", target])
    assert code == 0
    assert loads(out)["status"] == "holds"


def test_conjecture_violated_exits_one(tmp_path, capsys, monkeypatch):
    mat = write_json(
        tmp_path / "m.json",
        {"schema_version": "1", "A": [["1", "1", "0"], ["0", "1", "1"]]},
    )
    target = write_json(tmp_path / "z.json", ["2", "-2", "2"])

    def fake(W, z):
        return ConjectureReport(
            target=(2, -2, 2), status="violated", decomposition=(), searched=99
        )

    monkeypatch.setattr(graver, "conjecture_decompose", fake)
    code = cli.main(["conjecture", "--input", mat, "--target", target])
    out, err = capsys.readouterr()
    assert code == 1
    assert loads(out)["status"] == "violated"
    assert err == "finding: the decomposition conjecture is violated\n"


def test_appendix(capsys):
    code, out = run_cli(capsys, ["appendix"])
    assert code == 0
    rep = loads(out)
    assert rep["kappa_dot"] == "5850"
    assert len(rep["pair_products"]) == 6


def test_diameter(tmp_path, capsys):
    lp = write_json(
        tmp_path / "cube.json",
        {
            "schema_version": "1",
            "A": [["0", "0", "0"]],
            "b": ["0"],
            "c": ["0", "0", "0"],
            "u": ["1", "1", "1"],
        },
    )
    code, out = run_cli(capsys, ["diameter", "--input", lp])
    assert code == 0
    rep = loads(out)
    assert rep["diameter"] == 3
    assert rep["within"] is True


def test_diameter_above_the_bound_exits_one(tmp_path, capsys, monkeypatch):
    lp = write_json(
        tmp_path / "cube.json",
        {"schema_version": "1", "A": [["0", "0"]], "b": ["0"], "c": ["0", "0"], "u": ["1", "1"]},
    )
    monkeypatch.setattr(cli, "diameter_within", lambda diam, n, m, kappa: (False, 1))
    code = cli.main(["diameter", "--input", lp])
    out, err = capsys.readouterr()
    assert code == 1
    assert loads(out)["within"] is False
    assert err == "finding: the edge-graph diameter exceeds the kappa bound\n"


def test_diameter_with_a_huge_kappa(tmp_path, capsys):
    # float(kappa) overflowed here once, and the traceback exited 1
    big = str(10**400)
    lp = write_json(
        tmp_path / "big.json",
        {
            "schema_version": "1",
            "A": [["1", big, "0"], ["0", "1", "1"]],
            "b": ["1", "1"],
            "c": ["1", "1", "1"],
        },
    )
    code, out = run_cli(capsys, ["diameter", "--input", lp])
    assert code == 0
    rep = loads(out)
    assert rep["status"] == "ok"
    assert rep["within"] is True
    assert rep["diameter"] <= parse_frac(rep["bound"])
    assert parse_frac(rep["bound"]) > 10**400


@pytest.mark.parametrize(
    "A, b",
    [
        ([["1", "1"], ["1", "1"]], ["1", "1"]),
        ([["1", "1"], ["1", "1"], ["2", "2"]], ["1", "1", "2"]),
    ],
)
def test_diameter_counts_independent_rows_only(tmp_path, capsys, A, b):
    # Redundant rows leave the segment x1 + x2 = 1 as it is; the bound
    # once took m as the row count, read 0 (exit 1) or refused m > n (exit 2).
    lp = write_json(
        tmp_path / "seg.json", {"schema_version": "1", "A": A, "b": b, "c": ["0", "0"]}
    )
    code, out = run_cli(capsys, ["diameter", "--input", lp])
    assert code == 0
    rep = loads(out)
    assert rep["diameter"] == 1
    assert rep["within"] is True
    assert rep["diameter"] <= parse_frac(rep["bound"])


def test_diameter_bounds_the_standardized_unit_square(tmp_path, capsys):
    # The measured graph is that of the standardized system, n = 2 + 2 slack
    # columns of rank m = 0 + 2; read with A's own n = 2 and m = 1 the bound
    # was log2(3) < 2 and the square exited 1.
    lp = write_json(
        tmp_path / "square.json",
        {"schema_version": "1", "A": [["0", "0"]], "b": ["0"], "c": ["0", "0"], "u": ["1", "1"]},
    )
    code, out = run_cli(capsys, ["diameter", "--input", lp])
    assert code == 0
    rep = loads(out)
    assert rep["diameter"] == 2
    assert rep["within"] is True
    assert abs(float(parse_frac(rep["bound"])) - 16 * math.log2(5)) < 1e-9


def test_prox_fixing_accepts_an_unbounded_coordinate(tmp_path, capsys):
    doc = write_json(
        tmp_path / "fix.json",
        {
            "schema_version": "1",
            "A": [["1", "1", "1"]],
            "b": ["2"],
            "u": ["1", None, "1"],
            "c1": ["1", "2", "3"],
            "c2": ["1", "2", "3"],
            "x1": ["1", "1", "0"],
            "y1": ["2"],
        },
    )
    code, out = run_cli(capsys, ["prox", "--check", "fixing", "--input", doc])
    assert code == 0
    rep = loads(out)
    assert rep["fixed_to_zero"] == [2]
    assert rep["fixed_to_upper"] == [0]


def test_prox_fixing_eliminates_the_matrix_once(tmp_path, capsys, monkeypatch):
    # The fixing sets build their own subspace from the raw A, whose RREF
    # differs from A; the verb builds none beside it.
    calls = []
    original = subspace.rref_nonzero
    monkeypatch.setattr(subspace, "rref_nonzero", lambda M: calls.append(M.shape) or original(M))
    doc = write_json(
        tmp_path / "fix.json",
        {
            "schema_version": "1",
            "A": [["1", "1", "1"], ["0", "1", "2"]],
            "b": ["2", "1"],
            "u": ["1", "1", "1"],
            "c1": ["-1", "-1", "1"],
            "c2": ["-1", "-1", "1"],
            "x1": ["1", "1", "0"],
            "y1": ["0", "0"],
        },
    )
    code, out = run_cli(capsys, ["prox", "--check", "fixing", "--input", doc])
    assert code == 0
    rep = loads(out)
    assert rep["fixed_to_zero"] == [2]
    assert rep["fixed_to_upper"] == [0, 1]
    assert calls == [(2, 3)]


def test_the_generate_choices_are_the_generator_families():
    from circuitkit.generate import FAMILIES

    assert cli.FAMILIES == FAMILIES


def test_the_solve_rule_choices_are_the_walk_rules():
    from circuitkit.augment import RULES

    assert cli.RULES == RULES


def test_missing_file_is_input_error(capsys):
    code = cli.main(["analyze", "--input", "/nonexistent/nope.json"])
    assert code == 2


def test_analyze_past_the_column_cap_is_input_error(tmp_path, capsys):
    path = write_json(tmp_path / "wide.json", {"schema_version": "1", "A": [["1"] * 13]})
    assert cli.main(["analyze", "--input", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "input error: circuit enumeration over 13 columns exceeds the cap of 12\n"


def test_a_file_that_is_not_utf8_is_input_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b'\xff\xfe[["1"]]')
    assert cli.main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot read {path}: ")


def test_an_unwritable_output_is_input_error(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "lp.json"
    assert cli.main(["generate", "--family", "flow", "--output", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: cannot write {path}: ")


# One argv per report verb and format; {name} is an input file made below.
OUTPUT_CASES = {
    "analyze-json": ["analyze", "--input", "{matrix}"],
    "analyze-csv": ["analyze", "--input", "{matrix}", "--format", "csv"],
    "solve": ["solve", "--input", "{flow}"],
    "solve-steepest": ["solve", "--input", "{flow}", "--rule", "steepest"],
    "prox": ["prox", "--input", "{prox}", "--check", "feasibility"],
    "blackbox": ["blackbox", "--input", "{prox}", "--seed", "4"],
    "graver": ["graver", "--input", "{small}"],
    "conjecture": ["conjecture", "--input", "{small}", "--target", "{z}"],
    "appendix": ["appendix"],
    "diameter": ["diameter", "--input", "{cube}"],
    "diameter-finding": ["diameter", "--input", "{cube}"],
    "generate": ["generate", "--family", "flow", "--size", "4", "--seed", "1"],
}


@pytest.mark.parametrize("case", sorted(OUTPUT_CASES))
def test_output_holds_exactly_what_stdout_would(tmp_path, capsys, monkeypatch, case):
    inputs = {
        "matrix": write_json(
            tmp_path / "m.json",
            {"schema_version": "1", "A": [["1", "3", "4", "3"], ["0", "13", "9", "10"]]},
        ),
        "small": write_json(
            tmp_path / "s.json", {"schema_version": "1", "A": [["1", "1", "0"], ["0", "1", "1"]]}
        ),
        "z": write_json(tmp_path / "z.json", ["2", "-2", "2"]),
        "prox": write_json(
            tmp_path / "p.json",
            {"schema_version": "1", "A": [["1", "1", "0"], ["0", "1", "1"]], "d": ["2", "-1", "2"]},
        ),
        "cube": write_json(
            tmp_path / "cube.json",
            {"schema_version": "1", "A": [["0", "0", "0"]], "b": ["0"], "c": ["0", "0", "0"],
             "u": ["1", "1", "1"]},
        ),
        "flow": str(tmp_path / "flow.json"),
    }
    assert cli.main(["generate", "--family", "flow", "--size", "4", "--seed", "1",
                     "--output", inputs["flow"]]) == 0
    if case == "diameter-finding":
        monkeypatch.setattr(cli, "diameter_within", lambda diam, n, m, kappa: (False, 1))
    argv = [arg.format(**inputs) for arg in OUTPUT_CASES[case]]
    capsys.readouterr()
    code = cli.main(argv)
    printed = capsys.readouterr()
    out_path = tmp_path / "report.out"
    assert cli.main([*argv, "--output", str(out_path)]) == code
    captured = capsys.readouterr()
    assert printed.out
    assert out_path.read_text(encoding="utf-8") == printed.out
    assert captured.out == ""
    assert captured.err == printed.err
    if case == "diameter-finding":
        assert code == 1
        assert loads(printed.out)["within"] is False
        assert printed.err == "finding: the edge-graph diameter exceeds the kappa bound\n"
    else:
        assert (code, printed.err) == (0, "")


def test_float_literal_is_input_error(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"schema_version": "1", "A": [[1.5, 1]]}')
    code = cli.main(["analyze", "--input", str(path)])
    assert code == 2


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken():
        raise InternalError("decomposition failed verification")

    monkeypatch.setattr(graver, "appendix_counterexample", broken)
    assert cli.main(["appendix"]) == 3
    assert capsys.readouterr().err == "internal error: decomposition failed verification\n"


def test_unconverged_rescaling_exits_three(capsys, monkeypatch, app_matrix_file):
    # Below the optimum some cycle of the rescaling system stays too heavy,
    # so Bellman-Ford keeps lowering it past its round bound.
    def halved(value):
        return imbalance.GeoMeanValue(value.product / 2, value.length)

    monkeypatch.setattr(imbalance.GeoMeanValue, "shortest", halved)
    assert cli.main(["analyze", "--input", app_matrix_file]) == 3
    assert capsys.readouterr().err == "internal error: rescaling system failed to converge\n"


def test_missing_conformal_circuit_exits_three(tmp_path, capsys, monkeypatch):
    lp_path = tmp_path / "flow.json"
    run_cli(capsys, ["generate", "--family", "flow", "--size", "4", "--seed", "3",
                     "--output", str(lp_path)])
    monkeypatch.setattr(subspace, "conformal_circuit", lambda W, z: None)
    assert cli.main(["solve", "--input", str(lp_path), "--rule", "guided"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: no conformal circuit found for a nonzero remainder\n"


def test_analyze_answers_a_large_prime_entry_promptly(tmp_path):
    # kappa_dot = 2^61 - 1 is prime: trial division to its square root
    # would take about 1.5e9 steps.
    p = 2**61 - 1
    path = write_json(tmp_path / "m.json", {"schema_version": "1", "A": [["1", str(p)]]})
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-m", "circuitkit.cli", "analyze", "--input", path],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == 0, out.stderr
    doc = loads(out.stdout)
    assert doc["kappa"] == doc["kappa_dot"] == doc["kappa_bar"] == str(p)


@contextmanager
def any_length_ints():
    """Lift the int/str digit limit to read back what the CLI wrote."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("as_string", [True, False], ids=["string", "json-literal"])
def test_analyze_reads_an_entry_of_5000_digits(tmp_path, capsys, as_string):
    big = "1" + "0" * 4998 + "7"
    entry = f'"{big}"' if as_string else big
    path = tmp_path / "m.json"
    path.write_text(f'{{"schema_version": "1", "A": [[{entry}, "1", "1"]]}}')
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, ["analyze", "--input", str(path)])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    doc = loads(out)
    assert doc["kappa"] == doc["kappa_dot"] == doc["kappa_bar"] == big
    with any_length_ints():
        assert parse_frac(big) == 10**4999 + 7


def test_analyze_writes_a_kappa_of_4516_digits(tmp_path, capsys):
    # The input entries have 1,506 digits; kappa = a^3 has 4,516.
    a = 2**5000
    rows = [[a, 1, 0, 0], [0, a, 1, 0], [0, 0, a, 1]]
    path = write_json(tmp_path / "m.json", {"schema_version": "1", "A": [vec_to_obj(r) for r in rows]})
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, ["analyze", "--input", path])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    doc = loads(out)
    with any_length_ints():
        for key in ("kappa", "kappa_dot", "kappa_bar"):
            assert parse_frac(doc[key]) == a**3
            assert len(doc[key]) == 4516


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--nonsense"])
    assert exc.value.code == 2


def test_unknown_verb_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_reports_are_json(capsys, app_matrix_file):
    _, out = run_cli(capsys, ["analyze", "--input", app_matrix_file])
    json.loads(out)
