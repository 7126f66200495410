#!/usr/bin/env python3
"""Grid-refinement experiment: sup-norm error and observed order for the
battery functions at several basis sizes.

Usage:
    python3 scripts/run_convergence.py [--levels N] [--h0 H] [--domain a,b]
"""

import argparse

from mlscert import error_analysis as ea


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--h0", type=float, default=0.2)
    ap.add_argument("--domain", default="0,3")
    ap.add_argument("--alpha0", type=float, default=1.0)
    ap.add_argument("--policy", choices=("scaled", "fixed"), default="scaled")
    args = ap.parse_args()
    a, b = (float(v) for v in args.domain.split(","))

    print(f"domain [{a}, {b}]  h0={args.h0}  levels={args.levels}  "
          f"alpha policy={args.policy}")
    names, fs = zip(*sorted(ea.TEST_FUNCTIONS.items()))
    # one set of solves per basis size, shared by every function
    by_l = {
        l: ea.convergence_studies(
            fs, l=l, domain=(a, b), h0=args.h0, n_levels=args.levels,
            alpha0=args.alpha0, policy=args.policy,
        )
        for l in (1, 2, 3)
    }
    for k, name in enumerate(names):
        print(f"\n{name}")
        print(f"  {'l':>2}  {'h_final':>9}  {'sup error':>12}  {'order':>7}  amp")
        for l, studies in by_l.items():
            study = studies[k]
            order = ("exact" if study.exact_reproduction
                     else f"{study.observed_order:7.3f}")
            print(f"  {l:>2}  {study.hs[-1]:9.4f}  {study.sup_errors[-1]:12.4e}"
                  f"  {order:>7}  {max(study.amplifications):.3f}")


if __name__ == "__main__":
    main()
