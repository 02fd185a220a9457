"""One analysis per subspace: circuits, measures and the pair-ratio table are
computed once per Subspace and read by every consumer."""

import gc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from circuitkit import cli, imbalance, subspace
from circuitkit.augment import run
from circuitkit.errors import SeparableInput
from circuitkit.generate import GeneratorSpec, generate
from circuitkit.imbalance import pairwise
from circuitkit.lp import LPInstance, solve
from circuitkit.proximity import (
    fixing_sets_bounds,
    hoffman_feasibility_witness,
    hoffman_opt_witness,
    transfer_bound,
)
from circuitkit.ratmat import RatMatrix, vec
from circuitkit.serialize import dumps, loads, lp_to_obj
from circuitkit.subspace import Subspace
from util import (
    brute_circuits,
    brute_kappa,
    check_kappa_star_one,
    estimate_kappa,
    small_int_matrices,
)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "rule, size, seed, capped, steps",
    [("support", 6, 7, True, 3), ("ratio", 7, 4, False, 2)],
)
def test_a_walk_enumerates_circuits_once(monkeypatch, rule, size, seed, capped, steps):
    lp = generate(GeneratorSpec("flow", size=size, seed=seed))
    if not capped:
        lp = LPInstance.standard(lp.A, lp.b, lp.c)
    calls = _counting(monkeypatch, subspace, "_enumerate_circuits")
    trace = run(lp, rule=rule)
    assert len(trace.steps) == steps
    assert len(calls) == 1


def test_a_guided_solve_enumerates_circuits_once(monkeypatch, tmp_path, capsys):
    # the support walk to the start and the guided walk share one subspace
    lp = generate(GeneratorSpec("flow", size=6, seed=4))
    path = tmp_path / "flow.json"
    path.write_text(dumps(lp_to_obj(lp)))
    calls = _counting(monkeypatch, subspace, "_enumerate_circuits")
    assert cli.main(["solve", "--input", str(path), "--rule", "guided"]) == 0
    assert loads(capsys.readouterr().out)["steps"] > 0
    assert len(calls) == 1


def test_witnesses_on_one_subspace_compute_imbalances_once(monkeypatch):
    A = RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3)
    W = Subspace.from_kernel_matrix(A)
    calls = _counting(monkeypatch, imbalance, "imbalances")
    d = vec([1, 1, 1])
    hoffman_feasibility_witness(W, d)
    hoffman_opt_witness(W, d, vec([1, 0, 1]))
    transfer_bound(W, vec([0, 2, 0]), vec([1, 0, 1]), d)
    assert len(calls) == 1


def test_a_kernel_has_one_live_subspace():
    A = RatMatrix.from_rows([[1, 2, 0, -1], [0, 1, 1, 3]], cols=4)
    W = Subspace.from_kernel_matrix(A)
    assert Subspace.from_kernel_matrix(W.kernel_rep) is W
    # other rows with the same kernel, and the dual of the dual
    B = RatMatrix.from_rows([[1, 3, 1, 2], [2, 4, 0, -2]], cols=4)
    assert Subspace.from_kernel_matrix(B) is W
    assert subspace.dual(subspace.dual(W)) is W
    key = W.kernel_rep
    assert subspace._LIVE[key] is W
    del W
    gc.collect()
    assert key not in subspace._LIVE


def test_a_live_kernel_rep_is_looked_up_with_no_elimination(monkeypatch):
    # A raw A is eliminated to its canonical kernel_rep; that kernel_rep
    # itself, or an equal matrix, gives back the same object with no RREF.
    A = RatMatrix.from_rows([[2, 4, 0, -2], [1, 3, 1, 2]], cols=4)
    W = Subspace.from_kernel_matrix(A)
    assert W.kernel_rep != A
    rrefs = _counting(monkeypatch, subspace, "rref_nonzero")
    copy = RatMatrix.from_rows([list(r) for r in W.kernel_rep.data], cols=4)
    assert Subspace.from_kernel_matrix(W.kernel_rep) is W
    assert Subspace.from_kernel_matrix(copy) is W
    assert rrefs == []
    assert Subspace.from_kernel_matrix(A) is W
    assert len(rrefs) == 1


def test_fixing_sets_on_a_live_subspace_enumerate_no_circuits(monkeypatch):
    # the caller holds W, so fixing_sets_bounds(W.kernel_rep, ...) reuses its measures
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 1, 0, 1], [0, 1, 1, 2]], cols=4))
    A = W.kernel_rep
    W.measures  # computed before the count starts
    b, u = vec([3, 4]), vec([9] * 4)
    c1, c2 = vec([1, 0, 2, 1]), vec([1, 1, 2, 1])
    res = solve(LPInstance.bounded(A, b, c1, u))
    calls = _counting(monkeypatch, subspace, "_enumerate_circuits")
    fixing_sets_bounds(A, b, u, c1, c2, res.x, res.y)
    assert calls == []


def _oracle(A):
    """Pair-ratio sets, smallest-support picks and components from brute_circuits."""
    n = A.cols
    sets, first = {}, {}
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in sorted(brute_circuits(A), key=lambda g: tuple(i for i, v in enumerate(g) if v)):
        supp = [i for i, v in enumerate(g) if v]
        for i in supp:
            parent[find(i)] = find(supp[0])
            for j in supp:
                if i != j:
                    r = Fraction(abs(g[j]), abs(g[i]))
                    sets.setdefault((i, j), set()).add(r)
                    first.setdefault((i, j), (r, g))
    separable = len({find(i) for i in range(n)}) > 1
    return sets, first, separable


@given(small_int_matrices())
@settings(max_examples=150, deadline=None)
# separable: each component's scaling must be normalized on its own
@example(RatMatrix.from_rows([[2, 1, 1, 2], [2, 0, 1, 0]], cols=4))
def test_pair_ratio_readers_match_brute_force(A):
    sets, first, separable = _oracle(A)
    W = Subspace.from_kernel_matrix(A)
    if separable:
        with pytest.raises(SeparableInput):
            pairwise(W)
        with pytest.raises(SeparableInput):
            estimate_kappa(W)
    else:
        G = pairwise(W)
        assert G.sets == {k: frozenset(v) for k, v in sets.items()}
        assert G.kappa == {k: max(v) for k, v in sets.items()}
        xi, table = estimate_kappa(W)
        assert {k: (r, ev.vector) for k, (r, ev) in table.items()} == first
        assert xi == max((r for r, _ in first.values()), default=Fraction(1))
    # kappa_star = 1 exactly when every 2-cycle of largest ratios has product 1
    products = {(i, j): max(v) * max(sets[(j, i)]) for (i, j), v in sets.items() if i < j}
    res = check_kappa_star_one(A)
    assert res.rescaled_tu == all(p == 1 for p in products.values())
    if res.rescaled_tu:
        scaled = RatMatrix.from_rows(
            [[x * s for x, s in zip(row, res.scaling)] for row in A.data], cols=A.cols
        )
        assert brute_kappa(scaled) == 1
    else:
        assert res.witness_product == max(products.values()) == products[res.witness_cycle]
