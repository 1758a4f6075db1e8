"""Write one workload's input files in a fresh process; the benchmark times it.

Usage, from the repository root:

    PYTHONPATH=src python3 bench/make_inputs.py WORKLOAD OUT_DIR

This is the set-up a CLI user pays on every call: interpreter start, the
import of ``titest.cli`` and building the files the command line names.
"""

import sys
from pathlib import Path

import titest.cli  # noqa: F401  -- the import is part of the timed set-up

from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in WORKLOADS:
        print(f"usage: make_inputs.py {{{','.join(WORKLOADS)}}} OUT_DIR", file=sys.stderr)
        return 2
    WORKLOADS[argv[0]].write_inputs(Path(argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
