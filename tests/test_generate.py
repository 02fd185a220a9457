import pytest

from circuitkit.errors import BadParameters
from circuitkit.generate import (
    DUMBBELL_EDGES,
    FAMILIES,
    GeneratorSpec,
    complete_graph_incidence,
    dumbbell_incidence,
    flow_to_lp,
    generate,
)
from circuitkit.imbalance import imbalances, is_TU
from circuitkit.lp import OPTIMAL, solve
from circuitkit.ratmat import RatMatrix
from circuitkit.serialize import dumps, lp_to_obj, matrix_to_obj
from circuitkit.subspace import Subspace


def test_complete_graph_shape():
    A = complete_graph_incidence(6)
    assert A.shape == (6, 15)
    for j in range(15):
        assert sum(int(A.entry(i, j)) for i in range(6)) == 2


def test_complete_graph_needs_two_nodes():
    with pytest.raises(BadParameters):
        complete_graph_incidence(1)


def test_dumbbell_kappa_dot():
    A = dumbbell_incidence()
    assert A.shape == (6, len(DUMBBELL_EDGES))
    assert imbalances(Subspace.from_kernel_matrix(A)).kappa_dot == 2


def test_flow_instances_feasible():
    for seed in range(8):
        lp = generate(GeneratorSpec("flow", size=5, seed=seed))
        res = solve(lp)
        assert res.status == OPTIMAL
        # supply balances demand by construction
        assert sum(lp.b) == 0


def test_tu_network_certified():
    for seed in range(6):
        A = generate(GeneratorSpec("tu-network", size=5, rows=4, seed=seed))
        assert is_TU(A)[0]
        for j in range(A.cols):
            col = [int(A.entry(i, j)) for i in range(A.rows)]
            assert sorted(v for v in col if v) in ([-1, 1], [-1], [1])


def test_random_rational_bounds():
    A = generate(GeneratorSpec("random-rational", size=4, rows=3, seed=2))
    assert A.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            v = A.entry(i, j)
            assert -9 <= v <= 9
            assert 1 <= v.denominator <= 4


def test_generation_is_reproducible():
    for family in FAMILIES:
        spec = GeneratorSpec(family, size=5, rows=3, seed=7)
        first = generate(spec)
        second = generate(spec)
        if isinstance(first, RatMatrix):
            assert dumps(matrix_to_obj(first)) == dumps(matrix_to_obj(second))
        else:
            assert dumps(lp_to_obj(first)) == dumps(lp_to_obj(second))


def test_seed_changes_output():
    a = generate(GeneratorSpec("random-rational", size=5, rows=3, seed=0))
    b = generate(GeneratorSpec("random-rational", size=5, rows=3, seed=1))
    assert a.data != b.data


def test_unknown_family():
    with pytest.raises(BadParameters):
        generate(GeneratorSpec("parade", size=5, seed=0))


def test_flow_needs_three_nodes():
    with pytest.raises(BadParameters):
        generate(GeneratorSpec("flow", size=2, seed=0))


def test_an_arc_to_a_missing_node_is_bad_parameters():
    with pytest.raises(BadParameters, match=r"^arc \(0, 2\) names a node that is not in nodes$"):
        flow_to_lp([0, 1], [(0, 2)], [1], [1], [0, 0])
