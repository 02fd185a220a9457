"""Seeded generators for test matrices and LP instances.

Every family draws all randomness from a single ``random.Random(seed)``,
so the same spec reproduces the same instance byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .errors import AuditFailure, BadParameters, DimensionMismatch, UnbalancedDemands
from .imbalance import is_TU
from .lp import LPInstance
from .ratmat import RatMatrix, vec

FAMILIES = ("flow", "incidence", "dumbbell", "tu-network", "random-rational")

DUMBBELL_EDGES = ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5))


class GeneratorSpec(NamedTuple):
    family: str
    size: int = 5
    rows: int = 3
    seed: int = 0


def undirected_incidence(n_nodes, edges) -> RatMatrix:
    rows = [[0] * len(edges) for _ in range(n_nodes)]
    for j, (u, v) in enumerate(edges):
        rows[u][j] = 1
        rows[v][j] = 1
    return RatMatrix.from_rows(rows, cols=len(edges))


def complete_graph_incidence(k: int) -> RatMatrix:
    if k < 2:
        raise BadParameters("complete graph needs at least 2 nodes")
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    return undirected_incidence(k, edges)


def dumbbell_incidence() -> RatMatrix:
    return undirected_incidence(6, DUMBBELL_EDGES)


def _random_connected_arcs(rng: random.Random, n: int, extra: int):
    """Spanning tree plus `extra` random arcs, no self-loops, no duplicates."""
    arcs = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v))
    seen = set(arcs)
    attempts = 0
    while extra > 0 and attempts < 50 * (extra + 1):
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        arcs.append((u, v))
        extra -= 1
    return arcs


def directed_incidence(n_nodes, arcs) -> RatMatrix:
    """+1 at u and -1 at v in the column of arc (u, v); a self-loop's
    column is zero."""
    rows = [[0] * len(arcs) for _ in range(n_nodes)]
    for j, (u, v) in enumerate(arcs):
        rows[u][j] += 1
        rows[v][j] -= 1
    return RatMatrix.from_rows(rows, cols=len(arcs))


def flow_to_lp(nodes, arcs, capacities, costs, demands) -> LPInstance:
    """Min-cost flow as a bounded LP over the node-arc incidence matrix.

    Row convention: inflow minus outflow equals the node's demand.  An arc
    naming a node that is not in `nodes` raises BadParameters.
    """
    if len(arcs) != len(costs) or len(arcs) != len(capacities):
        raise DimensionMismatch("arc data lengths disagree")
    if len(nodes) != len(demands):
        raise DimensionMismatch("one demand per node required")
    b = vec(demands)
    if sum(b) != 0:
        raise UnbalancedDemands("node demands must sum to zero")
    index = {v: i for i, v in enumerate(nodes)}
    pairs = []
    for tail, head in arcs:
        if tail not in index or head not in index:
            raise BadParameters(f"arc ({tail}, {head}) names a node that is not in nodes")
        pairs.append((index[head], index[tail]))
    A = directed_incidence(len(nodes), pairs)
    return LPInstance.bounded(A, b, costs, capacities)


def max_flow_encoding(nodes, arcs, capacities, s, t):
    """Max s-t flow as min-cost circulation: extra (t, s) arc at cost -1."""
    all_arcs = list(arcs) + [(t, s)]
    caps = list(capacities) + [None]
    costs = [0] * len(arcs) + [-1]
    lp = flow_to_lp(nodes, all_arcs, caps, costs, [0] * len(nodes))
    return lp, all_arcs


def flow_instance(size: int, seed: int) -> LPInstance:
    """Feasible min-cost flow LP with balanced integer demands.

    Demands are read off a random capacity-respecting flow, so the
    instance is feasible by construction and the demand vector sums
    to zero.
    """
    if size < 3:
        raise BadParameters("flow family needs at least 3 nodes")
    rng = random.Random(seed)
    arcs = _random_connected_arcs(rng, size, extra=max(1, size // 2))
    m = len(arcs)
    capacities = [rng.randint(2, 9) for _ in range(m)]
    costs = [rng.randint(0, 9) for _ in range(m)]
    hidden = [rng.randint(0, capacities[j]) for j in range(m)]
    demands = [0] * size
    for j, (u, v) in enumerate(arcs):
        demands[u] -= hidden[j]
        demands[v] += hidden[j]
    return flow_to_lp(list(range(size)), arcs, capacities, costs, demands)


def tu_network_matrix(size: int, seed: int) -> RatMatrix:
    if size < 2:
        raise BadParameters("tu-network family needs at least 2 nodes")
    rng = random.Random(seed)
    arcs = _random_connected_arcs(rng, size, extra=max(1, size - 2))
    A = directed_incidence(size, arcs)
    if not is_TU(A)[0]:
        raise AuditFailure("tu-network", detail="generated matrix is not TU")
    return A


def random_rational_matrix(rows: int, cols: int, seed: int) -> RatMatrix:
    if rows < 1 or cols < 1:
        raise BadParameters("matrix dimensions must be positive")
    rng = random.Random(seed)
    data = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return RatMatrix.from_rows(data, cols=cols)


def generate(spec: GeneratorSpec):
    if spec.family == "flow":
        return flow_instance(spec.size, spec.seed)
    if spec.family == "incidence":
        return complete_graph_incidence(spec.size)
    if spec.family == "dumbbell":
        return dumbbell_incidence()
    if spec.family == "tu-network":
        return tu_network_matrix(spec.size, spec.seed)
    if spec.family == "random-rational":
        return random_rational_matrix(spec.rows, spec.size, spec.seed)
    raise BadParameters(f"unknown family {spec.family!r}")
