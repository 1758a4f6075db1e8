"""Compare all four decision rules at a fixed extension length.

Prints an accuracy table (one row per alphabet size, one column per rule)
next to the TI ceiling, and writes the underlying sweep CSV. SAP should top
the deterministic rules once the alphabet is large enough; small alphabets
can invert the order because the estimator conditions on the success event.
"""

import argparse
import sys
from pathlib import Path

from titest import DecisionRule, sweep
from titest.experiment import render_sweep_csv


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[5, 15, 25, 35])
    ap.add_argument("--theta", type=float, default=0.4)
    ap.add_argument("--m", type=int, default=10)
    ap.add_argument("--epsilon", type=float, default=0.25)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--out", default="rule_comparison.csv")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    rules = list(DecisionRule)
    rows = sweep(
        args.n, [args.theta], [args.m], [args.epsilon], rules,
        args.trials, args.seed, workers=args.workers,
    )
    Path(args.out).write_text(render_sweep_csv(rows))

    by_cell = {(r["N"], r["rule"]): r for r in rows}
    names = sorted(rule.value for rule in rules)
    print("  N  " + "".join(f"{name:>9}" for name in names) + "       ti")
    for n in sorted(set(args.n)):
        cells = []
        for name in names:
            acc = by_cell[n, name]["accuracy_bits"]
            cells.append("      --" if acc is None else f"{acc:9.4f}")
        ti = by_cell[n, names[0]]["ti_bits"]
        print(f"{n:4d} " + "".join(cells) + f" {ti:8.4f}")
    print(f"\nwrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
