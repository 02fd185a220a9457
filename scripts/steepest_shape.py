"""Iteration counts of the steepest walk against the worst-case shape.

Runs the steepest-descent rule on seeded min-cost-flow instances, audits
every trace, and compares observed iterations with n^2 * m * kappa *
log2(kappa + n).  The interesting output is the observed/shape ratio: it
stays far below 1 at these sizes, which is the expected slack of the
worst-case analysis.

Usage: python3 scripts/steepest_shape.py [--sizes 4,5,6] [--seeds 20]
"""

import argparse
import math

from circuitkit.augment import audit_trace, run
from circuitkit.generate import GeneratorSpec, generate
from circuitkit.lp import solve
from circuitkit.subspace import Subspace


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="4,5,6", help="comma-separated node counts")
    ap.add_argument("--seeds", type=int, default=20, help="instances per size")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"{'size':>4} {'seed':>4} {'n':>3} {'m':>3} {'kappa':>6} "
          f"{'steps':>5} {'shape':>9} {'ratio':>8}")
    total_steps = 0
    total_shape = 0.0
    for size in sizes:
        for seed in range(args.seeds):
            lp = generate(GeneratorSpec("flow", size=size, seed=seed))
            trace = run(lp, rule="steepest")
            audit_trace(trace, lp.A, u=lp.u)
            assert trace.final_objective == solve(lp).objective
            n, m = lp.A.cols, lp.A.rows
            kappa = Subspace.from_kernel_matrix(lp.A).measures.kappa
            shape = n * n * m * float(kappa) * math.log2(float(kappa) + n)
            steps = len(trace.steps)
            total_steps += steps
            total_shape += shape
            print(f"{size:>4} {seed:>4} {n:>3} {m:>3} {str(kappa):>6} "
                  f"{steps:>5} {shape:>9.1f} {steps / shape:>8.4f}")
    print(f"\nsuite: {total_steps} iterations, "
          f"observed/shape = {total_steps / total_shape:.5f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
