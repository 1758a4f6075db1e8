"""Record the reference outputs the benchmark's correctness gate compares against.

Usage, from the repository root:

    PYTHONPATH=src python3 bench/record_reference.py OUT_DIR

``simulate`` and ``sweep`` are recorded through the CLI at their default seeds
with ``--workers 1``; the benchmark requires its outputs to match them byte for
byte, which is the determinism contract. ``enumerate`` is recorded from the
library at full float precision. Re-record only when a change deliberately
alters the contract, and say so where the change is described.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from titest.cli import main as cli_main
from titest.experiment import extended_fano_check
from titest.model import DiscreteJointModel
from titest.rules import DecisionRule
from titest.typicality import TypicalityParams, typical_set_census

from workloads import ENUMERATE_M, ENUMERATE_WORKLOAD, SIMULATE_WORKLOAD, SWEEP_WORKLOAD


def _cli_output(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"titest {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: record_reference.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    inputs = out / "inputs"
    for workload in (SIMULATE_WORKLOAD, SWEEP_WORKLOAD):
        workload.write_inputs(inputs)
        text = _cli_output(workload.argv(inputs, workload.default_seed, 1))
        (out / workload.reference).write_text(text)

    ENUMERATE_WORKLOAD.write_inputs(inputs)
    doc = json.loads((inputs / "bsc25.json").read_text())
    model = DiscreteJointModel.from_json_dict(doc)
    params = TypicalityParams(epsilon=0.25, extension=ENUMERATE_M)
    report = {
        "census": typical_set_census(model, params).to_json_dict(),
        "fano": extended_fano_check(model, DecisionRule.SAP, params).to_json_dict(),
    }
    (out / ENUMERATE_WORKLOAD.reference).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
