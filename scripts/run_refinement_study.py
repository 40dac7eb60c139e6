#!/usr/bin/env python3
"""Grid-refinement study for the three main residual families.

Prints one table per family: flat-connection zero-curvature residuals,
rational spectral-parameter residuals, and the plane-wave Lax commutation
defect.  Second-order families should show ratios near 4; the composite
Lax evolution should beat 8 per halving.
"""

import argparse

from solgeo import cases, solitons
from solgeo import grid as sg


def print_study(title, column, sizes, study):
    print(title)
    print(f"{column:>6} {'defect':>14} {'ratio':>8}")
    ratios = [None] + study["ratios"]
    for size, defect, ratio in zip(sizes, study["defects"], ratios):
        shown = "       -" if ratio is None else f"{ratio:8.2f}"
        print(f"{size:>6} {defect:>14.3e} {shown}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--n0", type=int, default=8)
    args = ap.parse_args()
    levels = range(args.levels)

    sizes = [args.n0 * 2**lv + 1 for lv in levels]
    print_study("flat-connection zero-curvature residual (max)", "n", sizes,
                sg.refinement_study(
                    lambda lv: cases.pure_gauge_defect("mlxii", sizes[lv]),
                    args.levels))

    params = cases.LAMBDA_PARAMS[0]
    sizes = [max(args.n0 - 2, 6) * 2**lv for lv in levels]
    print_study(f"spectral-parameter residual (masked max), params {params}",
                "n", sizes,
                sg.refinement_study(
                    lambda lv: cases.lambda_defect(params, sizes[lv]),
                    args.levels))

    pw = cases.planewave("zi")
    print_study("plane-wave Lax commutation defect", "level", list(levels),
                solitons.lax_refinement_report(
                    "zi", pw["callables"], {"lam": 0.3}, levels=args.levels))


if __name__ == "__main__":
    main()
