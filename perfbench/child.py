"""One fresh interpreter of the circuitkit benchmark: a CLI call or a round.

    python3 perfbench/child.py import <t_spawn> <trace 0|1>
    python3 perfbench/child.py cli <t_spawn> <trace 0|1> <circuitkit argv...>
    python3 perfbench/child.py prox <t_spawn> <trace 0|1> <round.json>

`t_spawn` is the parent's `time.monotonic()` just before it started this
process (a system-wide clock on Linux), so startup time covers interpreter
start and import.  Each op writes one JSON line to stdout; a prox op also
carries the host-speed probes (probe.py) taken just before and after it.  `cli` runs
`circuitkit.cli.main(argv)` as the console script would, capturing the
report and the error text.  `prox` runs each instance of the round as the
test_07 acceptance check does, and returns its outputs as exact strings
for the parent to check.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))


def peak_rss_kb() -> int:
    """This process's peak resident set since exec (VmHWM), in KiB.

    `getrusage` would also count the parent's pages shared before exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _strs(v):
    return [str(x) for x in v]


def prox_op(inst):
    """One proximity instance with the solves it needs; outputs as strings."""
    from circuitkit.errors import InfeasibleSystem
    from circuitkit.lp import OPTIMAL, LPInstance, solve
    from circuitkit.proximity import (
        fixing_sets_bounds,
        hoffman_feasibility_witness,
        hoffman_opt_witness,
        transfer_bound,
    )
    from circuitkit.ratmat import RatMatrix, vec
    from circuitkit.subspace import Subspace

    n = len(inst["A"][0])
    W = Subspace.from_kernel_matrix(RatMatrix.from_rows(inst["A"], cols=n))
    A = W.kernel_rep
    d, c, d2, c2 = (vec(inst[k]) for k in ("d", "c", "d2", "c2"))
    out = {}
    wit = hoffman_feasibility_witness(W, d)
    out["feas"] = {"point": _strs(wit.point), "bound": str(wit.bound), "slack": str(wit.slack)}
    owit = hoffman_opt_witness(W, d, c)
    out["opt"] = {"point": _strs(owit.point), "bound": str(owit.bound), "slack": str(owit.slack)}
    res = solve(LPInstance.standard(A, A.matvec(d), c))
    out["A"] = [_strs(row) for row in A.data]
    out["lp"] = {"objective": str(res.objective), "x": _strs(res.x), "y": _strs(res.y)}
    s = vec(c[i] - sum(A.data[r][i] * res.y[r] for r in range(A.rows)) for i in range(n))
    try:
        bound, R = transfer_bound(W, res.x, s, d2)
        out["transfer"] = {"bound": str(bound), "R": list(R)}
    except InfeasibleSystem:
        out["transfer"] = "infeasible"
    u = vec([inst["u"]] * n)
    b2 = A.matvec(d)
    bres = solve(LPInstance.bounded(A, b2, c, u))
    out["bounded"] = {"status": bres.status}
    out["fixing"] = None
    if bres.status == OPTIMAL:
        out["bounded"].update(
            objective=str(bres.objective), x=_strs(bres.x), y=_strs(bres.y),
            dual_upper=_strs(bres.dual_upper),
        )
        R0, Ru = fixing_sets_bounds(A, b2, u, c, c2, bres.x, bres.y)
        out["fixing"] = {"R0": list(R0), "Ru": list(Ru), "tuples": [type(R0).__name__, type(Ru).__name__]}
    return out


def cli_op(cli, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def main(argv) -> int:
    mode, t_spawn, traced, rest = argv[0], float(argv[1]), argv[2] == "1", argv[3:]
    import circuitkit
    from circuitkit import cli

    startup = time.monotonic() - t_spawn
    if Path(circuitkit.__file__).resolve().parent != SRC / "circuitkit":
        print(f"imported circuitkit from {circuitkit.__file__}, not {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if traced:
        sys.path.insert(1, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = sys.stdout

    def emit(record):
        record["rss_kb"] = peak_rss_kb()
        if tracer is not None:
            record["trace"] = tracer.snapshot()
            tracer.reset()
        out.write(json.dumps(record) + "\n")
        out.flush()

    if mode == "import":
        emit({"startup_s": startup})
    elif mode == "cli":
        record = cli_op(cli, rest)
        record["startup_s"] = startup
        emit(record)
    elif mode == "prox":
        sys.path.insert(1, str(HERE))
        from probe import probe_ms

        instances = json.loads(Path(rest[0]).read_text(encoding="utf-8"))
        before = probe_ms()
        for inst in instances:
            t0 = time.perf_counter()
            try:
                record = {"out": prox_op(inst)}
            except Exception as exc:  # reported to the parent as a failed op
                record = {"error": f"{type(exc).__name__}: {exc}"}
            record["ms"] = (time.perf_counter() - t0) * 1000.0
            after = probe_ms()
            record["probe_ms"] = [before, after]
            before = after
            emit(record)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
