"""Seeded inputs for the circuitkit benchmark, standard library only.

Everything here is independent of circuitkit: the benchmark makes its
inputs and the reference answers it checks against with its own exact
arithmetic, so the program under test only ever sees generated documents.
The same (workload, seed) gives byte-identical files.

Each workload is a fixed set of ops, drawn once from fixed seeds and
stratified into cycles by input property (shape, flow size, rule, fixture
kind).  The `--seed` orders the set: it shuffles the cycles and the ops
within each cycle, so every prefix of a run keeps the cycles' mix.  A run
loops over the set; the set is small enough that a run passes over all of
it at least once, so every run measures the same ops whatever the seed or
the host's speed, and the reference knows which walk ops hit a known
defect (refusals.json).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Set sizes: a 2-core VM passes over each set in 20-30 s, within one run.
PROX_ROUND = 10  # prox-sweep instances per fresh process: one (n, m) period
PROX_ROUNDS = 8
ANALYZE_CYCLES = 8
WALK_CYCLES = 4  # one per graver and conjecture fixture

ANALYZE_ROWS = (3, 7, 4, 6, 5)  # m per slot of a five-op analyze cycle
ANALYZE_COLS = (10, 11, 12, 10, 11)  # n per slot, rotated against m each cycle

WALK_RULES = ("steepest", "deepest", "dantzig", "support", "guided", "ratio")
WALK_CYCLE = WALK_RULES + ("graver", "conjecture", "appendix")
WALK_SIZES = (6, 7, 8, 9, 7, 8)  # flow sizes per cycle, rotated against the rules
# acceptance-2x5/k is the k-th 2x5 matrix of the acceptance fixture list:
# the program refuses matrix 0 (BoxTooLarge) and computes the Graver basis
# of matrix 2, its costliest graver op (about 3 s).
GRAVER_KINDS = ("appendix-matrix", "acceptance-2x5/0", "dumbbell", "acceptance-2x5/2")
CONJECTURE_KINDS = ("appendix-matrix", "k4-incidence", "dumbbell", "tu-network-5")

APPENDIX_ROWS = ((1, 3, 4, 3), (0, 13, 9, 10))
DUMBBELL_EDGES = ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5))

# walk slot -> the known defect the baseline program hits on it;
# written by record_refusals.py
REFUSALS_FILE = HERE / "refusals.json"
WALK_REFUSALS = (
    json.loads(REFUSALS_FILE.read_text(encoding="utf-8")) if REFUSALS_FILE.exists() else {}
)


# ----------------------------------------------------------- exact algebra


def rref(rows):
    """(rank, pivot columns, reduced rows) of a rational matrix given as rows."""
    R = [[Fraction(x) for x in r] for r in rows]
    ncols = len(R[0]) if R else 0
    pivots = []
    r = 0
    for j in range(ncols):
        p = next((i for i in range(r, len(R)) if R[i][j] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        pv = R[r][j]
        R[r] = [x / pv for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][j] != 0:
                f = R[i][j]
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(j)
        r += 1
        if r == len(R):
            break
    return r, pivots, R


def separable(rows, ncols) -> bool:
    """True when ker(rows) is the direct sum of its parts on two nonempty
    coordinate sets, i.e. its circuit hypergraph has more than one component
    (a coordinate in no circuit is a component of its own).

    The components of a matroid are those of its fundamental circuits for
    any one basis; here those circuits are the supports of the rows of the
    reduced echelon form of a basis of the kernel.
    """
    parent = list(range(ncols))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    K = kernel_basis(rows, ncols)
    if K:
        rank, _, R = rref(K)
        for row in R[:rank]:
            support = [j for j, v in enumerate(row) if v != 0]
            for j in support[1:]:
                parent[find(j)] = find(support[0])
    return len({find(j) for j in range(ncols)}) > 1


def kernel_basis(rows, ncols):
    """Integer vectors spanning {x : rows x = 0}, one per free column."""
    _, pivots, R = rref(rows)
    out = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -R[i][f]
        out.append(integer_scale(v))
    return out


def integer_scale(v):
    """The primitive integer multiple of a nonzero rational vector."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


def matvec(A, x):
    return [sum((Fraction(a) * Fraction(b) for a, b in zip(row, x)), Fraction(0)) for row in A]


def frac_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ----------------------------------------------------------- families


def _rng(workload: str, slot: int) -> random.Random:
    """The fixed random source of one op of a workload's set."""
    return random.Random(f"{workload}/set/{slot}")


def run_order(workload: str, seed: int, cycles: int, width: int):
    """Slots c * width + k of a set of `cycles` cycles of `width` ops, in
    the seed's run order: the cycles shuffled, and the ops within each."""
    rng = random.Random(f"{workload}/order/{seed}")
    return [c * width + k for c in rng.sample(range(cycles), cycles)
            for k in rng.sample(range(width), width)]


def random_int_rows(rng, m, n, lo, hi):
    """Nonzero random integer matrix, as in the acceptance suite's helper."""
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
        if any(any(row) for row in rows):
            return rows


def acceptance_2x5(k: int):
    """The k-th random 2x5 fixture of the acceptance suite's fixture list."""
    rng = random.Random(20)
    for _ in range(k + 1):
        rows = random_int_rows(rng, 2, 5, -3, 3)
    return rows


def connected_arcs(rng, n: int, extra: int):
    """Random spanning tree plus `extra` arcs, no loops or duplicates."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = []
    for i in range(1, n):
        u, v = order[rng.randrange(i)], order[i]
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v))
    seen = set(arcs)
    tries = 0
    while extra > 0 and tries < 50 * (extra + 1):
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            arcs.append((u, v))
            extra -= 1
    return arcs


def directed_incidence(n: int, arcs):
    rows = [[0] * len(arcs) for _ in range(n)]
    for j, (u, v) in enumerate(arcs):
        rows[u][j] = 1
        rows[v][j] = -1
    return rows


def undirected_incidence(n: int, edges):
    rows = [[0] * len(edges) for _ in range(n)]
    for j, (u, v) in enumerate(edges):
        rows[u][j] = 1
        rows[v][j] = 1
    return rows


def min_cost_flow(n, arcs, caps, costs, demands) -> int:
    """Optimal cost of min c x, inflow - outflow = demand, 0 <= x <= cap.

    Successive shortest paths with Bellman-Ford on integer data; `None`
    capacities are unbounded.  The instances are feasible by construction.
    """
    big = sum(d for d in demands if d > 0) + 1
    src, snk = n, n + 1
    graph = [[] for _ in range(n + 2)]  # edge: [head, residual, cost, twin index]

    def add(u, v, cap, cost):
        graph[u].append([v, cap, cost, len(graph[v])])
        graph[v].append([u, 0, -cost, len(graph[u]) - 1])

    for (u, v), cap, cost in zip(arcs, caps, costs):
        add(u, v, big if cap is None else cap, cost)
    for v, d in enumerate(demands):
        if d < 0:
            add(src, v, -d, 0)
        elif d > 0:
            add(v, snk, d, 0)
    need = sum(d for d in demands if d > 0)
    total = 0
    while need > 0:
        dist = [None] * (n + 2)
        prev = [None] * (n + 2)
        dist[src] = 0
        for _ in range(n + 1):
            changed = False
            for u in range(n + 2):
                if dist[u] is None:
                    continue
                for k, (v, res, cost, _) in enumerate(graph[u]):
                    if res > 0 and (dist[v] is None or dist[u] + cost < dist[v]):
                        dist[v] = dist[u] + cost
                        prev[v] = (u, k)
                        changed = True
            if not changed:
                break
        if dist[snk] is None:
            raise ValueError("generated flow instance is infeasible")
        push, v = need, snk
        while v != src:
            u, k = prev[v]
            push = min(push, graph[u][k][1])
            v = u
        v = snk
        while v != src:
            u, k = prev[v]
            edge = graph[u][k]
            edge[1] -= push
            graph[v][edge[3]][1] += push
            v = u
        need -= push
        total += push * dist[snk]
    return total


def flow_lp(rng, size: int, capped: bool):
    """A feasible min-cost flow LP document and its optimal objective.

    Same shape as circuitkit's `flow` family: spanning tree plus size//2
    arcs, capacities 2..9, costs 0..9, demands read off a hidden flow.
    """
    arcs = connected_arcs(rng, size, extra=max(1, size // 2))
    caps = [rng.randint(2, 9) for _ in arcs]
    costs = [rng.randint(0, 9) for _ in arcs]
    demands = [0] * size
    for (u, v), cap in zip(arcs, caps):
        f = rng.randint(0, cap)
        demands[u] -= f
        demands[v] += f
    A = [[0] * len(arcs) for _ in range(size)]
    for j, (u, v) in enumerate(arcs):
        A[u][j] -= 1
        A[v][j] += 1
    u_vec = caps if capped else [None] * len(arcs)
    doc = {
        "schema_version": "1",
        "A": [[str(x) for x in row] for row in A],
        "b": [str(x) for x in demands],
        "c": [str(x) for x in costs],
        "u": [str(x) for x in caps] if capped else None,
    }
    opt = min_cost_flow(size, arcs, u_vec, costs, demands)
    return doc, {"A": A, "b": demands, "u": u_vec, "c": costs, "optimum": opt}


def _matrix_doc(rows):
    return {"schema_version": "1", "A": [[str(x) for x in r] for r in rows]}


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


# ----------------------------------------------------------- workloads


def prox_instance(rng, n: int, m: int):
    """One test_07-shaped instance: W = ker(A) of codimension m in R^n and
    a shift d = x* + w with x* >= 0, w in W, so W + d meets the orthant."""
    while True:
        A = random_int_rows(rng, m, n, -3, 3)
        if rref(A)[0] == m:
            break
    K = kernel_basis(A, n)
    x_star = [rng.randint(0, 4) for _ in range(n)]
    w = K[rng.randrange(len(K))]
    d = [x + y for x, y in zip(x_star, w)]
    c = [rng.randint(0, 4) for _ in range(n)]
    d2 = [Fraction(v) + Fraction(rng.randint(-1, 1), 3) for v in d]
    c2 = [v + rng.randint(0, 1) for v in c]
    return {
        "A": A,
        "d": [frac_str(x) for x in d],
        "c": [frac_str(x) for x in c],
        "d2": [frac_str(x) for x in d2],
        "c2": [frac_str(x) for x in c2],
        "u": "9",
    }


def gen_prox_sweep(seed: int, work: Path):
    """PROX_ROUNDS rounds of PROX_ROUND library-API instances, one process
    a round; n = 4..8 and m = 2..3 cycle with period 10, so every round has
    the same shapes."""
    order = run_order("prox-sweep", seed, PROX_ROUNDS, PROX_ROUND)
    units = []
    for r in range(PROX_ROUNDS):
        ops = []
        for index in range(r * PROX_ROUND, (r + 1) * PROX_ROUND):
            i = order[index]
            n, m = 4 + i % 5, 2 + (i // 5) % 2
            inst = prox_instance(_rng("prox-sweep", i), n, m)
            ops.append({"index": index, "kind": "prox", "inst": inst})
        path = _write(work / f"round{r:03d}.json", [op["inst"] for op in ops])
        units.append({"mode": "prox", "args": [path], "ops": ops})
    return units


def analyze_rows(rng, m: int, n: int, block: bool):
    """Random integer matrix, or a two-block diagonal one (separable kernel)."""
    if not block:
        return random_int_rows(rng, m, n, -3, 3)
    m1 = m // 2
    n1 = n // 2
    top = random_int_rows(rng, m1, n1, -3, 3)
    bottom = random_int_rows(rng, m - m1, n - n1, -3, 3)
    return [row + [0] * (n - n1) for row in top] + [[0] * n1 + row for row in bottom]


def gen_analyze_cli(seed: int, work: Path):
    """`analyze` on ANALYZE_CYCLES five-op cycles of m x n integer
    matrices, m in 3..7, n in 10..12.

    Cycle c, slot k: m = ANALYZE_ROWS[k], n = ANALYZE_COLS[(c + k) % 5],
    so every cycle has the same shapes mix; the slot k == c % 5 is
    block-diagonal, so one op in five has a separable kernel.
    """
    width = len(ANALYZE_ROWS)
    units = []
    for index, i in enumerate(run_order("analyze-cli", seed, ANALYZE_CYCLES, width)):
        c, k = divmod(i, width)
        m, n = ANALYZE_ROWS[k], ANALYZE_COLS[(c + k) % width]
        rows = analyze_rows(_rng("analyze-cli", i), m, n, block=k == c % width)
        path = _write(work / f"analyze{index:03d}.json", _matrix_doc(rows))
        op = {
            "index": index,
            "kind": "analyze",
            "rows": rows,
            "argv": ["analyze", "--input", path],
        }
        units.append({"mode": "cli", "args": op["argv"], "ops": [op]})
    return units


def graver_fixture(kind: str, rng):
    if kind == "appendix-matrix":
        return [list(r) for r in APPENDIX_ROWS]
    if kind == "tu-network-5":
        return directed_incidence(5, connected_arcs(rng, 5, extra=3))
    if kind.startswith("acceptance-2x5/"):
        return acceptance_2x5(int(kind.split("/")[1]))
    if kind == "k4-incidence":
        return undirected_incidence(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    if kind == "dumbbell":
        return undirected_incidence(6, DUMBBELL_EDGES)
    raise ValueError(kind)


def walk_op(slot: int, index: int, work: Path):
    """Op `slot` of the walk set, written as op `index` of a run.

    Slot c * 9 + k is verb k of cycle c.  A rule slot walks a flow of size
    WALK_SIZES[(c + k) % 6] (capped, except uncapped for `ratio`), so the
    set holds every size for every rule at least once; graver and
    conjecture take fixture GRAVER_KINDS[c] and CONJECTURE_KINDS[c] from
    the <= 7-column acceptance fixture families; every cycle ends with
    `appendix`.  `refusal` is the known defect the op hits at baseline
    (refusals.json), or None.
    """
    c, k = divmod(slot, len(WALK_CYCLE))
    verb = WALK_CYCLE[k]
    rng = _rng("walks-graver-cli", slot)
    op = {"index": index, "slot": slot, "kind": verb, "refusal": WALK_REFUSALS.get(str(slot))}
    if verb in WALK_RULES:
        size = WALK_SIZES[(c + k) % len(WALK_SIZES)]
        doc, ref = flow_lp(rng, size, capped=verb != "ratio")
        path = _write(work / f"flow{index:03d}.json", doc)
        op.update(ref)
        op["argv"] = ["solve", "--input", path, "--rule", verb]
    elif verb == "graver":
        op["fixture"] = GRAVER_KINDS[c]
        op["rows"] = graver_fixture(op["fixture"], rng)
        path = _write(work / f"graver{index:03d}.json", _matrix_doc(op["rows"]))
        op["argv"] = ["graver", "--input", path]
    elif verb == "conjecture":
        op["fixture"] = CONJECTURE_KINDS[c]
        rows = graver_fixture(op["fixture"], rng)
        K = kernel_basis(rows, len(rows[0]))
        while True:
            lam = [rng.randint(-1, 1) for _ in K]
            if any(lam):
                break
        z = [sum(l * v[j] for l, v in zip(lam, K)) for j in range(len(rows[0]))]
        op["rows"], op["z"] = rows, z
        path = _write(work / f"conj{index:03d}.json", _matrix_doc(rows))
        target = _write(work / f"target{index:03d}.json", [str(x) for x in z])
        op["argv"] = ["conjecture", "--input", path, "--target", target]
    else:
        op["argv"] = ["appendix"]
    return op


def gen_walks_graver_cli(seed: int, work: Path):
    """The remaining CLI verbs: WALK_CYCLES nine-op cycles.

    The set is fixed so that the benchmark knows, per op, which known
    defect the baseline program hits (refusals.json); any other refusal is
    a failure.
    """
    units = []
    for index, slot in enumerate(run_order("walks-graver-cli", seed, WALK_CYCLES, len(WALK_CYCLE))):
        op = walk_op(slot, index, work)
        units.append({"mode": "cli", "args": op["argv"], "ops": [op]})
    return units


GENERATORS = {
    "prox-sweep": gen_prox_sweep,
    "analyze-cli": gen_analyze_cli,
    "walks-graver-cli": gen_walks_graver_cli,
}


def generate(workload: str, seed: int, work: Path):
    """Write the workload's input files under `work`; return its units.

    A unit is one fresh interpreter: a CLI invocation or a prox-sweep round.
    """
    work.mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](seed, work)
