"""Record which ops of the walk set hit a known defect, and which.

    python3 perfbench/record_refusals.py

Run from the root of a source checkout, on the commit whose behaviour is
the reference.  Runs every op of the walks-graver-cli set once, each in a
fresh interpreter, and writes perfbench/refusals.json (slot -> known
defect).  Every op that hits no known defect must pass its check;
otherwise nothing is written and the exit code is 1.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import gen
import run


def main() -> int:
    work = run.WORK_ROOT / "record-refusals"
    refusals = {}
    failures = []
    try:
        work.mkdir(parents=True, exist_ok=True)
        for slot in range(gen.WALK_CYCLES * len(gen.WALK_CYCLE)):
            op = gen.walk_op(slot, slot, work)
            ran, _ = run.run_unit({"mode": "cli", "args": op["argv"], "ops": [op]}, False, work)
            _, record, _ = ran[0]
            for name, (code, text) in checks.KNOWN_DEFECTS.items():
                if record is not None and record["exit"] == code and text in record["stderr"]:
                    refusals[str(slot)] = name
                    break
            else:
                op["refusal"] = None
                status, detail = checks.classify(op, record)
                if status != "ok":
                    failures.append(f"slot {slot} ({op['kind']}): {detail}")
            print(slot, op["kind"], refusals.get(str(slot), "ok"), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    gen.REFUSALS_FILE.write_text(json.dumps(refusals, indent=0) + "\n",
                                  encoding="utf-8")
    print(f"{len(refusals)} refusals written to {gen.REFUSALS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
