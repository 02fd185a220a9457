"""In-process time and LP work of each proximity entry point.

Builds seeded instances shaped like the acceptance suite's test_07 (W the
kernel of a full-rank m x n integer matrix, n in 4..8, m in 2..3, entries
in [-3, 3]; a shift d = x* + w with x* >= 0 and w in W; costs in [0, 4];
a second shift d + {-1, 0, 1}/3, a second cost c + {0, 1} and the bound
u = 9) and runs on them the calls a proximity sweep makes: both Hoffman
witnesses, the transfer bound from the optimum of LP(W, d, c) to the
second shift, and the fixing sets of the bounded LP.  Each subspace reads
its measures before any timing, so each row is its entry point's own
work; the `measures` row times the circuit enumeration and the measures on
fresh objects, built by the constructor, which bypasses the table of live
subspaces.  A row's time is the best over --repeats passes over
every instance, in process time; its `lp.solve` calls and pivots come from
one more pass through a counting wrapper.  The digest covers every output,
so two versions of the package that agree print the same one.

Usage: python3 scripts/prox_layers.py [--instances 80] [--repeats 7] [--seed 0]
"""

import argparse
import hashlib
import random
import time
from fractions import Fraction

from circuitkit import proximity
from circuitkit.errors import InfeasibleSystem
from circuitkit.lp import OPTIMAL, LPInstance, solve
from circuitkit.ratmat import RatMatrix, rank, vec, vec_sub
from circuitkit.subspace import Subspace


def make_instances(count: int, seed: int) -> list:
    """`count` instances as (A, d, c, d2, c2, u), A a list of int rows."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n, m = 4 + k % 5, 2 + k % 2
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            if rank(RatMatrix.from_rows(rows, cols=n)) == m:
                break
        span = Subspace.from_kernel_matrix(RatMatrix.from_rows(rows, cols=n)).span_rep.data
        w = span[rng.randrange(len(span))]
        d = vec(rng.randint(0, 4) + v for v in w)
        c = vec(rng.randint(0, 4) for _ in range(n))
        d2 = vec(v + Fraction(rng.randint(-1, 1), 3) for v in d)
        c2 = vec(v + rng.randint(0, 1) for v in c)
        out.append((rows, d, c, d2, c2, vec([9] * n)))
    return out


def prepare(instances) -> list:
    """Per instance, the arguments of each entry point, built and solved
    outside any timing: (W, d, c, transfer args, fixing args or None)."""
    out = []
    for rows, d, c, d2, c2, u in instances:
        W = Subspace.from_kernel_matrix(RatMatrix.from_rows(rows, cols=len(d)))
        W.measures  # read once, so no timed row pays for the enumeration
        A = W.kernel_rep
        res = solve(LPInstance.from_subspace(W, d, c))
        s = vec_sub(c, A.vecmat(res.y))
        bres = solve(LPInstance.bounded(A, A.matvec(d), c, u))
        fixing = (A, A.matvec(d), u, c, c2, bres.x, bres.y) if bres.status == OPTIMAL else None
        out.append((W, d, c, (W, res.x, s, d2), fixing))
    return out


def entry_points(prepared):
    """(name, thunk) per row; each thunk makes one pass and returns its outputs."""

    def transfer(args):
        try:
            return proximity.transfer_bound(*args)
        except InfeasibleSystem:
            return "infeasible"

    return [
        ("measures", lambda: [
            Subspace(W.ambient_dim, W.kernel_rep).measures.kappa for W, *_ in prepared
        ]),
        ("hoffman_feasibility_witness", lambda: [
            proximity.hoffman_feasibility_witness(W, d) for W, d, *_ in prepared
        ]),
        ("hoffman_opt_witness", lambda: [
            proximity.hoffman_opt_witness(W, d, c) for W, d, c, *_ in prepared
        ]),
        ("transfer_bound", lambda: [transfer(p[3]) for p in prepared]),
        ("fixing_sets_bounds", lambda: [
            proximity.fixing_sets_bounds(*p[4]) for p in prepared if p[4] is not None
        ]),
    ]


def lp_work(thunk) -> tuple:
    """(outputs, lp.solve calls, pivots) of one pass of `thunk`, counted by
    wrapping the `solve` that the proximity module calls."""
    calls, pivots = 0, 0

    def counting(lp, tiebreak=None, start=None):
        nonlocal calls, pivots
        res = solve(lp, tiebreak=tiebreak, start=start)
        calls, pivots = calls + 1, pivots + res.pivots
        return res

    proximity.solve = counting
    try:
        outputs = thunk()
    finally:
        proximity.solve = solve
    return outputs, calls, pivots


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--instances", type=int, default=80)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.instances < 1 or args.repeats < 1:
        ap.error("--instances and --repeats must be at least 1")

    instances = make_instances(args.instances, args.seed)
    prepared = prepare(instances)
    digest = hashlib.sha256()
    print(f"{args.instances} instances, seed {args.seed}, best of {args.repeats} passes")
    print(f"{'entry point':<28} {'ms/pass':>9} {'ms/call':>8} {'solves':>7} {'pivots':>7}")
    total = 0.0
    for name, thunk in entry_points(prepared):
        outputs, calls, pivots = lp_work(thunk)
        digest.update(repr((name, outputs)).encode())
        best = float("inf")
        for _ in range(args.repeats):
            t0 = time.process_time()
            thunk()
            best = min(best, time.process_time() - t0)
        total += best
        per_call = 1000 * best / max(len(outputs), 1)
        print(f"{name:<28} {1000 * best:>9.2f} {per_call:>8.3f} {calls:>7} {pivots:>7}")
    print(f"{'total':<28} {1000 * total:>9.2f}")
    print(f"digest {digest.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
