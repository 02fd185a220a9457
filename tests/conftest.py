import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from circuitkit.generate import dumbbell_incidence
from circuitkit.ratmat import RatMatrix
from circuitkit.subspace import Subspace

A_APP_ROWS = ((1, 3, 4, 3), (0, 13, 9, 10))


@pytest.fixture(scope="session")
def A_app() -> RatMatrix:
    return RatMatrix.from_rows([list(r) for r in A_APP_ROWS], cols=4)


@pytest.fixture(scope="session")
def A_int() -> RatMatrix:
    return RatMatrix.from_rows([[1, 1, 0], [0, 1, 1]], cols=3)


@pytest.fixture(scope="session")
def A_db() -> RatMatrix:
    return dumbbell_incidence()


def W_M(M: int) -> Subspace:
    return Subspace.from_span_matrix(RatMatrix.from_rows([[0, 1, 1, M], [1, 0, M, 1]]))


@pytest.fixture(scope="session")
def W3() -> Subspace:
    return W_M(3)
