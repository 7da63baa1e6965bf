#!/usr/bin/env python3
"""Empirical middle-layer probe: for each poset and mode, the largest k
such that the k middle layers of [n] stay free, over a range of n.

The probe is the fixed-n, centered version of the layer count that governs
the conjectured asymptotics of extremal family sizes.

Usage: python3 scripts/layer_probe.py [--n-min 5] [--n-max 9] [--mode rp]
       [--poset named:y(2,2) ...]
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from posetlab.cli import MODE_NAMES, parse_poset_spec  # noqa: E402
from posetlab.search import max_free_layers  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--poset", action="append",
                    default=None, help="named:... spec; repeatable")
    ap.add_argument("--mode", choices=sorted(MODE_NAMES), default="rp")
    ap.add_argument("--n-min", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=9)
    args = ap.parse_args()
    specs = args.poset or ["named:y(2,2)", "named:y'(2,2)", "named:t3(2)", "named:t3(3)"]
    mode = MODE_NAMES[args.mode]
    print(f"mode={mode}")
    header = "poset".ljust(18) + "".join(f"n={n}".rjust(6) for n in range(args.n_min, args.n_max + 1))
    print(header)
    for spec in specs:
        poset = parse_poset_spec(spec)
        row = spec.removeprefix("named:").ljust(18)
        for n in range(args.n_min, args.n_max + 1):
            row += str(max_free_layers(poset, n, mode)).rjust(6)
        print(row)


if __name__ == "__main__":
    main()
