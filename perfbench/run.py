"""The circuitkit benchmark: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload prox-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Standard library only.  One client runs a closed loop with one op
in flight: it starts the next op only when the previous one returned.
Every op runs in a fresh interpreter (see child.py), as a CLI user pays
for it, so no cache can carry work from one op to the next; a prox-sweep
op is one instance inside a round of PROX_ROUND instances, one process per
round.  Every op's output is checked exactly (checks.py).

--trace 0 loops over the workload's op set for --seconds and prints the
end-to-end metrics, each time scaled to a reference host speed by the
probes taken around it (probe.py); the times as measured are printed
beside them.
--trace 1 runs a fixed op prefix twice per unit, untraced then traced,
and prints the per-layer metrics; the counts are identical for a seed.

Human-readable lines come first; the last line of stdout is the JSON
result.  NOTES.md records the workloads, the known defects and the
baseline figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"  # scratch inputs, removed at exit
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
from tracer import LAYERS, MAX_COUNTERS  # noqa: E402

WORKLOADS = tuple(gen.GENERATORS)
SETUP_REPS = 9
OP_LIMIT_S = 60.0  # per op; about 20x the slowest op that completes at baseline (~3 s)
TRACE_UNITS = {"prox-sweep": 4, "analyze-cli": 15, "walks-graver-cli": 36}  # whole cycles

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Structural predictions the traced run asserts: (workload, span, calls > 0?).
PREDICTIONS = (
    ("prox-sweep", "lp.solve", True),
    ("prox-sweep", "proximity", True),
    ("prox-sweep", "augment.run", False),
    ("prox-sweep", "graver.graver_basis", False),
    ("prox-sweep", "cli.main", False),
    ("analyze-cli", "lp.solve", False),
    ("analyze-cli", "proximity", False),
    ("analyze-cli", "augment.run", False),
    ("analyze-cli", "graver.graver_basis", False),
    ("analyze-cli", "subspace.enum", True),
    ("analyze-cli", "imbalance.kappa_star", True),
    ("walks-graver-cli", "augment.run", True),
    ("walks-graver-cli", "graver.graver_basis", True),
    ("walks-graver-cli", "graver.conjecture_decompose", True),
    ("walks-graver-cli", "proximity", False),
)


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(mode, args, traced, stderr):
    t_spawn = time.monotonic()
    argv = [sys.executable, str(HERE / "child.py"), mode, repr(t_spawn), "1" if traced else "0"]
    return subprocess.Popen(
        argv + list(args), cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr,
    )


def read_records(proc, count):
    """Up to `count` JSON lines, each within OP_LIMIT_S; None marks a time-out."""
    fd = proc.stdout.fileno()
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        for _ in range(count):
            deadline = time.monotonic() + OP_LIMIT_S
            while b"\n" not in buf:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    yield None
                    return
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    return
                buf += chunk
            line, buf = buf.split(b"\n", 1)
            yield json.loads(line)


def run_unit(unit, traced, work):
    """Run one fresh interpreter; return ([(op, record, latency_ms)], wall_s).

    A record is None when its op timed out; the ops after a time-out or a
    crash of the child are not attempted.
    """
    ops = unit["ops"]
    err_path = work / "child.stderr"
    records = []
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = spawn(unit["mode"], unit["args"], traced, err)
        try:
            records.extend(read_records(proc, len(ops)))
        finally:
            if len(records) < len(ops) or records[-1] is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    wall = time.perf_counter() - t0
    if len(records) < len(ops) and (not records or records[-1] is not None):
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        if unit["mode"] == "cli":
            records.append({"exit": proc.returncode, "stdout": "", "stderr": tail})
        else:
            records.append({"error": f"child exited {proc.returncode}: {tail}", "ms": wall * 1000.0})
    out = []
    for op, rec in zip(ops, records):
        if rec is None:
            latency = OP_LIMIT_S * 1000.0
        elif unit["mode"] == "prox":
            latency = rec["ms"]
        else:
            latency = wall * 1000.0
        out.append((op, rec, latency))
    return out, wall


def setup(workload, seed, work):
    """Generate and write the inputs, then import the program once in a
    fresh interpreter (which also fills the bytecode cache).  Returns the
    units and the seconds it took."""
    t0 = time.perf_counter()
    if work.exists():
        shutil.rmtree(work)
    units = gen.generate(workload, seed, work)
    ran, _ = run_unit({"mode": "import", "args": [], "ops": [{"kind": "import"}]}, False, work)
    if not ran or ran[0][1] is None or "startup_s" not in ran[0][1]:
        raise RuntimeError(f"cannot import circuitkit from {ROOT / 'src'}")
    return units, time.perf_counter() - t0


def quantile(values, p, steps=16):
    """Harrell-Davis estimate of the p-quantile of `values`.

    A mean of all the order statistics, weighted by how much of the
    Beta(p (n + 1), (1 - p) (n + 1)) distribution falls in each of the n
    equal slices of [0, 1] (Simpson's rule, `steps` intervals a slice).
    A single order statistic jumps when two neighbouring values trade
    places, and the per-op latencies of a small op set have gaps: on
    walks-graver-cli the middle two of 32 ops were 202 and 303 ms.
    """
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    h = 1.0 / (n * steps)

    def pdf(t):  # up to a constant factor, which the weights cancel
        return t ** (a - 1) * (1 - t) ** (b - 1)

    weights = []
    for i in range(n):
        f = [pdf((i * steps + j) * h) for j in range(steps + 1)]
        weights.append(f[0] + f[-1] + 4 * sum(f[1:-1:2]) + 2 * sum(f[2:-1:2]))
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def tail_latency(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples beyond it (fewer only when there are under 11)."""
    n = len(latencies)
    rank = max(n - 10, 1)
    return quantile(latencies, rank / n), 100.0 * rank / n, n - rank


class Tally:
    """Outcomes of the ops run so far, in op order."""

    def __init__(self):
        self.samples = {}  # op index -> latencies scaled to the reference speed
        self.raw_samples = {}  # op index -> latencies as measured
        self.status = {"ok": 0, "refused": 0, "failed": 0}
        self.defects = {}
        self.failures = []
        self.digest = hashlib.sha256()
        self.canon = []
        self.rss_kb = 0

    def add(self, op, record, latency, scale=1.0):
        """Count one op whose latency `scale` maps to the reference speed;
        return its status.  A refused op is left out of the latencies, so
        the speed of a known defect moves no metric."""
        status, detail = checks.classify(op, record)
        self.status[status] += 1
        if status == "refused":
            self.defects[detail] = self.defects.get(detail, 0) + 1
        else:
            if status == "failed":
                # a failed op is slower than every completed one (OP_LIMIT_S)
                self.failures.append(f"op {op['index']} ({op['kind']}): {detail}")
                latency, scale = max(latency, OP_LIMIT_S * 1000.0), 1.0
            self.samples.setdefault(op["index"], []).append(latency * scale)
            self.raw_samples.setdefault(op["index"], []).append(latency)
        if record is not None and "rss_kb" in record:
            self.rss_kb = max(self.rss_kb, record["rss_kb"])
        text = checks.canonical(op, record)
        self.canon.append(text)
        self.digest.update(f"{op['index']}\t{status}\t{text}\n".encode())
        return status

    @property
    def attempted(self):
        return sum(self.status.values())

    def report(self):
        n = self.attempted
        lines = [
            f"failed_ratio {(self.status['failed'] + self.status['refused']) / n:.4f} "
            f"({self.status['failed']} failed, {self.status['refused']} refused by known "
            f"defects, of {n} attempted)"
        ]
        for name, count in sorted(self.defects.items()):
            lines.append(f"  refused {name}: {count}/{n} ({100.0 * count / n:.1f}%)")
        lines += [f"  FAILED {f}" for f in self.failures[:20]]
        lines.append(f"digest sha256:{self.digest.hexdigest()} over {n} ops")
        return lines


def per_op(samples):
    """Each op's median latency over its passes, or [OP_LIMIT_S] if none."""
    return [statistics.median(v) for v in samples.values()] or [OP_LIMIT_S * 1000.0]


def timed_run(units, seconds, work):
    """Closed loop over the units until `seconds` have passed.

    The units are a workload's whole op set, and the loop passes over it
    again and again; the latency metrics are over each op's median latency
    across its passes, so every run weighs the same ops alike however many
    passes it made.  A host-speed probe runs between units.  A CLI op's
    latency is scaled to the reference speed by the probes around its
    process, a prox op's by the probes its process took around it, and a
    process's wall time by all the probes taken around and inside it.
    ops_per_s is the number of ops of the set whose output passed its
    check over their summed cost, an op's cost being its median share of
    its process's wall time; refused ops count in neither.
    """
    tally = Tally()
    probes = [probe.probe_ms()]
    costs, raw_costs = {}, {}  # ok op index -> its share of its process's wall, a pass each
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end:
        ran, wall = run_unit(units[i % len(units)], False, work)
        i += 1
        probes.append(probe.probe_ms())
        around = probes[-2:]
        statuses = []
        for op, rec, latency in ran:
            own = rec.get("probe_ms") if rec else None  # a prox op's, from inside its process
            statuses.append(tally.add(op, rec, latency, probe.scale(*(own or probes[-2:]))))
            around += own or []
        share = wall / len(ran)
        for (op, _, _), status in zip(ran, statuses):
            if status == "ok":
                costs.setdefault(op["index"], []).append(
                    share * probe.PROBE_REF_MS / statistics.fmean(around))
                raw_costs.setdefault(op["index"], []).append(share)
    latencies, raw = per_op(tally.samples), per_op(tally.raw_samples)
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "ops_per_s": len(costs) / sum(per_op(costs)),
        "op_p50_ms": quantile(latencies, 0.5),
        "op_tail_ms": tail,
        "peak_rss_mb": tally.rss_kb / 1024.0,
    }
    notes = [
        f"{i / len(units):.2f} passes over the set of {sum(len(u['ops']) for u in units)} ops",
        f"op_tail_ms is p{pct:.1f} of the n={len(latencies)} ops not refused ({beyond} beyond)",
        f"as measured, not scaled: ops_per_s {len(raw_costs) / sum(per_op(raw_costs)):.6g}, "
        f"op_p50_ms {quantile(raw, 0.5):.6g}, op_tail_ms {tail_latency(raw)[0]:.6g}",
        f"host.calib_ms {statistics.median(probes):.3f} ms (probe median of {len(probes)}; "
        f"range {min(probes):.1f}-{max(probes):.1f}; reference {probe.PROBE_REF_MS})",
    ] + tally.report()
    return tally, metrics, notes


def aggregate(traced_ops):
    """Sum the per-op trace snapshots into per-layer metrics."""
    spans = {name: [0, 0.0] for name in LAYERS}
    counts = {}
    missing = set()
    startup = 0.0
    report_bytes = 0
    for _, rec, _ in traced_ops:
        if rec is None or "trace" not in rec:
            continue
        tr = rec["trace"]
        missing.update(tr["missing"])
        for name, (calls, self_s) in tr["spans"].items():
            spans.setdefault(name, [0, 0.0])
            spans[name][0] += calls
            spans[name][1] += self_s
        for key, value in tr["counts"].items():
            merge = max if key in MAX_COUNTERS else sum
            counts[key] = merge((counts.get(key, 0), value))
        if "startup_s" in rec:
            startup += rec["startup_s"]
            report_bytes += len(rec["stdout"].encode())

    def calls(name):
        return spans[name][0]

    def self_s(name):
        return spans[name][1]

    def ratio(a, b):
        return a / b if b else 0.0

    c = lambda key: counts.get(key, 0)  # noqa: E731
    metrics = {
        "lp.solve.calls": calls("lp.solve"),
        "lp.solve.self_s": self_s("lp.solve"),
        "lp.pivots": c("lp.pivots"),
        "lp.pivots_per_solve": ratio(c("lp.pivots"), calls("lp.solve")),
        "lp.tableau_cells": c("lp.tableau_cells"),
        "lp.result_max_bits": c("lp.result_max_bits"),
        "ratmat.calls": calls("ratmat"),
        "ratmat.self_s": self_s("ratmat"),
        "subspace.build.calls": calls("subspace.build"),
        "subspace.enum.calls": calls("subspace.enum"),
        "subspace.enum.self_s": self_s("subspace.enum"),
        "subspace.enum.supports_tried": c("subspace.enum.supports_tried"),
        "subspace.enum.circuits": c("subspace.enum.circuits"),
        "subspace.enum.yield": ratio(c("subspace.enum.circuits"), c("subspace.enum.supports_tried")),
        "subspace.enum.repeat_ratio": ratio(c("subspace.enum.repeats"), calls("subspace.enum")),
        "imbalance.imbalances.calls": calls("imbalance.imbalances"),
        "imbalance.imbalances.self_s": self_s("imbalance.imbalances"),
        "imbalance.imbalances.repeat_ratio": ratio(
            c("imbalance.imbalances.repeats"), calls("imbalance.imbalances")
        ),
        "imbalance.kappa_star.calls": calls("imbalance.kappa_star"),
        "imbalance.kappa_star.self_s": self_s("imbalance.kappa_star"),
        "imbalance.is_TU.self_s": self_s("imbalance.is_TU"),
        "proximity.calls": calls("proximity"),
        "proximity.self_s": self_s("proximity"),
        "augment.run.calls": calls("augment.run"),
        "augment.run.self_s": self_s("augment.run"),
        "augment.steps": c("augment.steps"),
        "augment.steepest_direction.self_s": self_s("augment.steepest_direction"),
        "augment.epsilon_of.self_s": self_s("augment.epsilon_of"),
        "augment.audit_trace.self_s": self_s("augment.audit_trace"),
        "augment.guided_walk.self_s": self_s("augment.guided_walk"),
        "graver.graver_basis.calls": calls("graver.graver_basis"),
        "graver.graver_basis.self_s": self_s("graver.graver_basis"),
        "graver.elements": c("graver.elements"),
        "graver.conjecture_decompose.calls": calls("graver.conjecture_decompose"),
        "graver.conjecture_decompose.self_s": self_s("graver.conjecture_decompose"),
        "graver.conjecture.searched": c("graver.conjecture.searched"),
        "graver.appendix.self_s": self_s("graver.appendix"),
        "cli.startup_s": startup,
        "cli.main.self_s": self_s("cli.main"),
        "serialize.self_s": self_s("serialize"),
        "cli.report_bytes": report_bytes,
    }
    return metrics, spans, sorted(missing)


def largest_layer(rec):
    spans = rec["trace"]["spans"]
    return max(spans, key=lambda name: spans[name][1])


def traced_run(workload, units, work):
    """Each unit of a fixed prefix runs untraced, then traced, in turn."""
    plain, traced = Tally(), Tally()
    traced_ops = []
    calib = []
    wall_plain = wall_traced = 0.0
    for unit in units[: TRACE_UNITS[workload]]:
        calib.append(probe.probe_ms())
        ran, wall = run_unit(unit, False, work)
        wall_plain += wall
        for op, rec, latency in ran:
            plain.add(op, rec, latency)
        ran, wall = run_unit(unit, True, work)
        wall_traced += wall
        for op, rec, latency in ran:
            traced.add(op, rec, latency)
            traced_ops.append((op, rec, latency))
    metrics, spans, missing = aggregate(traced_ops)
    metrics["host.calib_ms"] = statistics.median(calib)
    metrics["trace.overhead_ratio"] = wall_traced / wall_plain
    notes = [f"traced {traced.attempted} ops in {TRACE_UNITS[workload]} fresh interpreters"]
    problems = [f"untraced pass: {f}" for f in plain.failures]
    if plain.canon != traced.canon:
        problems.append("traced outputs differ from untraced outputs")
    if missing:
        notes.append("missing (not traced): " + ", ".join(missing))
    for wl, name, positive in PREDICTIONS:
        if wl == workload and (spans[name][0] > 0) != positive:
            problems.append(f"prediction failed: {name}.calls {'> 0' if positive else '== 0'}")
    op_s = sum(latency for _, _, latency in traced_ops) / 1000.0
    shares = sorted(((s[1] / op_s, name) for name, s in spans.items() if s[1] > 0), reverse=True)
    notes.append("self time share of traced op time: " + ", ".join(
        f"{name} {100 * share:.1f}%" for share, name in shares[:8]))
    done = [(op, rec, lat) for op, rec, lat in traced_ops if rec is not None and "trace" in rec]
    slow = sorted(done, key=lambda t: t[2], reverse=True)[: max(1, len(done) // 10)]
    notes.append("largest layer on the slowest 10% of ops: " + ", ".join(
        f"op {op['index']} {op['kind']} {lat:.0f} ms -> {largest_layer(rec)}" for op, rec, lat in slow))
    notes += traced.report()
    return traced, metrics, notes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="circuitkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "circuitkit" / "__init__.py").is_file():
        print(f"no circuitkit sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        times, raw_times = [], []
        before = probe.probe_ms()
        for _ in range(SETUP_REPS):
            units, took = setup(args.workload, args.seed, work)
            after = probe.probe_ms()
            times.append(took * probe.scale(before, after))
            raw_times.append(took)
            before = after
        setup_s = statistics.median(times)
        if args.trace:
            tally, metrics, notes, problems = traced_run(args.workload, units, work)
            units_of = PER_LAYER
        else:
            tally, metrics, notes = timed_run(units, args.seconds, work)
            metrics["setup_s"] = setup_s
            problems = []
            units_of = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, "
          f"1 client, 1 op in flight; setup_s {setup_s:.4f} s (median of {SETUP_REPS}; "
          f"{statistics.median(raw_times):.4f} s as measured)")
    for name in units_of:
        print(f"{name} {metrics[name]:.6g} {units_of[name]}")
    for line in notes + problems:
        print(line)
    correct = tally.status["failed"] == 0 and not problems
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.status["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units_of.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
