"""The records: immutable, checked on construction, compared, hashed and
printed by their fields, as the frozen dataclasses they replace were."""

import copy
import pickle
from fractions import Fraction

import pytest

from circuitkit.errors import BadParameters, DimensionMismatch
from circuitkit.imbalance import GeoMeanValue, imbalances
from circuitkit.lp import LPInstance, LPResult, solve
from circuitkit.ratmat import RatMatrix
from circuitkit.subspace import Subspace

A = RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
ONES = (Fraction(1),) * 3


@pytest.mark.parametrize(
    "b, c, u",
    [
        ((Fraction(1),), ONES, None),  # b too short
        ((Fraction(1),) * 2, ONES[:2], None),  # c too short
        ((Fraction(1),) * 2, ONES, (Fraction(1),)),  # u too short
    ],
)
def test_an_lp_instance_of_the_wrong_shape_is_refused(b, c, u):
    with pytest.raises(DimensionMismatch):
        LPInstance(A, b, c, u)
    with pytest.raises(DimensionMismatch):
        LPInstance(A=A, b=b, c=c, u=u)


def test_an_lp_instance_keeps_its_fields_and_default():
    lp = LPInstance(A, (Fraction(1),) * 2, ONES)
    assert (lp.A, lp.b, lp.c, lp.u) == (A, (Fraction(1),) * 2, ONES, None)
    assert lp == LPInstance(A=A, b=lp.b, c=lp.c) and hash(lp) == hash(LPInstance(A, lp.b, lp.c))


@pytest.mark.parametrize("product, length", [(Fraction(2), 0), (Fraction(0), 1), (Fraction(-2), 1)])
def test_a_bad_geometric_mean_is_refused(product, length):
    with pytest.raises(BadParameters):
        GeoMeanValue(product, length)
    with pytest.raises(BadParameters):
        GeoMeanValue(product=product, length=length)


def test_records_refuse_assignment():
    W = Subspace.from_kernel_matrix(A)
    with pytest.raises(AttributeError):
        W.kernel_rep = A
    with pytest.raises(AttributeError):
        del W.ambient_dim
    res = LPResult("optimal")
    with pytest.raises(AttributeError):
        res.status = "infeasible"
    # The cached properties still fill on first use.
    assert W.circuit_list is W.circuit_list


def test_a_matrix_refuses_assignment():
    M = RatMatrix.from_rows([[1, 2], [3, 4]])
    M.int_rows  # the kept integer rows and hash are set by the class alone
    for name in ("data", "cols", "_ints", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(M, name, None)
    with pytest.raises(AttributeError):
        del M.data
    assert M == RatMatrix.from_rows([[1, 2], [3, 4]])
    assert repr(M) == (
        "RatMatrix(data=((Fraction(1, 1), Fraction(2, 1)), (Fraction(3, 1), Fraction(4, 1))), cols=2)"
    )
    assert M != (M.data, M.cols)
    # pickle and copy go through the constructor
    assert pickle.loads(pickle.dumps(M)) == M and copy.deepcopy(M) == M
    W = Subspace.from_kernel_matrix(M)
    assert pickle.loads(pickle.dumps(W)) == W


def test_subspace_equality_and_hash_follow_its_fields():
    W = Subspace.from_kernel_matrix(A)
    twin = Subspace(3, W.kernel_rep)  # not interned: another object
    assert twin is not W and twin == W and hash(twin) == hash(W)
    assert hash(W) == hash((W.ambient_dim, W.kernel_rep))
    other = Subspace.from_kernel_matrix(RatMatrix.from_rows([[1, 0, 1]]))
    assert other != W
    assert W != (W.ambient_dim, W.kernel_rep)


def test_reprs_are_the_dataclass_reprs():
    W = Subspace.from_kernel_matrix(A)
    assert repr(W) == (
        "Subspace(ambient_dim=3, kernel_rep=RatMatrix(data=((Fraction(1, 1), Fraction(0, 1), "
        "Fraction(-1, 1)), (Fraction(0, 1), Fraction(1, 1), Fraction(1, 1))), cols=3))"
    )
    assert repr(imbalances(W)) == (
        "ImbalanceReport(kappa=Fraction(1, 1), kappa_dot=1, kappa_bar=1, "
        "witnesses=MeasureWitnesses(kappa=(ElementaryVector(support=(0, 1, 2), "
        "vector=(1, -1, 1)), (0, 0)), kappa_bar=(ElementaryVector(support=(0, 1, 2), "
        "vector=(1, -1, 1)), 0)))"
    )
    assert repr(solve(LPInstance.standard(A, [1, 1], [1, 0, 1]))) == (
        "LPResult(status='optimal', x=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), "
        "objective=Fraction(0, 1), basis=(1, 2), y=(Fraction(-1, 1), Fraction(1, 1)), "
        "dual_upper=None, certificate=None, pivots=3)"
    )
    assert repr(LPResult("infeasible", certificate=(Fraction(1),))) == (
        "LPResult(status='infeasible', x=None, objective=None, basis=None, y=None, "
        "dual_upper=None, certificate=(Fraction(1, 1),), pivots=0)"
    )
