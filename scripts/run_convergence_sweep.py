"""Sweep SAP accuracy over extension lengths to watch it climb toward TI.

Writes the standard sweep CSV and prints one line per (N, M) cell with the
remaining gap to the information ceiling. Defaults reproduce the shape used
by the acceptance suite: theta = 0.4, epsilon = 0.25, 10^4 trials per cell.
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
    ap.add_argument("--m", type=int, nargs="+", default=[1, 2, 4, 6, 8, 10])
    ap.add_argument("--epsilon", type=float, default=0.25)
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--out", default="convergence.csv")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    rows = sweep(
        args.n, [args.theta], args.m, [args.epsilon], [DecisionRule.SAP],
        args.trials, args.seed, workers=args.workers,
    )
    Path(args.out).write_text(render_sweep_csv(rows))
    for row in rows:
        acc = row["accuracy_bits"]
        gap = "      (no successes)" if acc is None else f"gap={row['ti_bits'] - acc:+.4f}"
        acc_s = "   --  " if acc is None else f"{acc:.4f}"
        print(
            f"N={row['N']:3d} M={row['M']:3d}  accuracy={acc_s}  "
            f"ti={row['ti_bits']:.4f}  {gap}  pf={row['pf_hat']:.3f}"
        )
    print(f"\nwrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
