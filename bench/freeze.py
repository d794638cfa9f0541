"""Write reference.json: the values that anchored benchmark ops must
reproduce, and the digests of every fixed CLI output.

Run once at a commit whose outputs are the reference:

    python3 bench/freeze.py
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    prog = workloads.Program()
    frozen = {}
    for workload in ("perturbative", "exact"):
        for op in workloads.build(workload, 0, prog, {}):
            if op.key is None and op.digest is None:
                continue
            result = op.run()
            if op.key is not None:
                frozen[op.key] = op.extract(result)
            if op.digest is not None:
                frozen[f"digest:{op.kind}"] = op.digest(result)
                if op.kind == "sweep-regime":
                    frozen[f"{op.kind}:regimes"] = [row.split(",")[1] for row in result[1].splitlines()[1:]]
    with tempfile.TemporaryDirectory(dir=ROOT) as work:
        runner = workloads.ColdCli(ROOT, Path(work))
        for op in workloads.build("cli-cold", 0, None, frozen, runner):
            frozen[f"digest:{op.kind}"] = op.digest(op.run())
    text = json.dumps(dict(sorted(frozen.items())), indent=0)
    workloads.REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(frozen)} entries to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
