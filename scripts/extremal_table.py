#!/usr/bin/env python3
"""Exact small-n extremal values for the Y(h,s)/dual pair, compared with
the h-middle-layer count.

Whether the rank-preserving optimum already equals the layer count at very
small n is open; this script computes and reports it rather than asserting
anything.  Searches with n <= MAX_SYMMETRY_N prune families that are not
lex-minimal under coordinate permutations, which keeps every value and
witness; their nodes column counts the pruned tree.  Expect exponential
time as n grows; use --budget-ms for a best-effort value (reported with
exact=False).

Usage: python3 scripts/extremal_table.py [--h 2] [--s 2] [--n 4 5] [--budget-ms N]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from posetlab.family import sigma  # noqa: E402
from posetlab.poset import y_poset, y_prime_poset  # noqa: E402
from posetlab.search import MAX_SYMMETRY_N, SearchConfig, la_exact  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--h", type=int, default=2)
    ap.add_argument("--s", type=int, default=2)
    ap.add_argument("--n", type=int, nargs="+", default=[4])
    ap.add_argument("--budget-ms", type=int, default=None)
    args = ap.parse_args()
    forbidden = [y_poset(args.h, args.s), y_prime_poset(args.h, args.s)]
    print(f"forbidden: y({args.h},{args.s}) together with its dual; "
          f"nodes with symmetry pruning for n <= {MAX_SYMMETRY_N}")
    print(f"{'n':>3} {'mode':>16} {'value':>6} {'exact':>6} {'layers':>7} {'nodes':>10}")
    for n in args.n:
        cfg = SearchConfig(budget_ms=args.budget_ms, symmetry_pruning=n <= MAX_SYMMETRY_N)
        for mode in ("weak", "rank_preserving"):
            out = la_exact(n, forbidden, mode, cfg)
            print(
                f"{n:>3} {mode:>16} {out.value:>6} {str(out.exact):>6} "
                f"{sigma(n, args.h):>7} {out.nodes_explored:>10}"
            )


if __name__ == "__main__":
    main()
