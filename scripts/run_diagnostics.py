#!/usr/bin/env python3
"""Sweep the random instance suite and summarize operator diagnostics.

With --seeds, repeats the battery across a seed range to demonstrate that
the verdicts are seed-independent (every seed should print PASS).  The
``lmax slack rel`` column is the smallest 1/d_min - lambda_max(sym(P D^-1))
relative to 1/d_min over the seed's systems.  The bound holds with equality
for a square system (P = I), so a value just below zero (-2.7e-13 at seed
42, a square system) is rounding, not a violation.
"""

import argparse

from mlscert import instances
from mlscert.config import Tolerances
from mlscert.selftest import suite_spectral


def sweep(seed: int, n: int) -> dict:
    suite = instances.random_suite(n, seed)
    r = suite_spectral(seed, Tolerances(), suite=suite)
    fams = {}
    for it in suite:
        fams[it.meta["family"]] = fams.get(it.meta["family"], 0) + 1
    return {"n_fail": r["n_fail"], "worst_sym": r["symmetry"], "worst_dev": r["eig_dev"],
            "worst_min_eig": r["psd_min_rel"], "lmax_slack_rel": r["lmax_slack_rel"],
            "families": fams}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--seeds", help="sweep a seed range, e.g. 1:10")
    args = ap.parse_args()

    if args.seeds:
        lo, hi = (int(v) for v in args.seeds.split(":"))
        print(f"{'seed':>5}  {'fail':>4}  {'worst sym':>11}  {'worst dev':>11}"
              f"  {'lmax slack rel':>14}  verdict")
        for seed in range(lo, hi + 1):
            r = sweep(seed, args.n)
            verdict = "PASS" if r["n_fail"] == 0 else "FAIL"
            print(f"{seed:>5}  {r['n_fail']:>4}  {r['worst_sym']:11.3e}"
                  f"  {r['worst_dev']:11.3e}  {r['lmax_slack_rel']:14.3e}  {verdict}")
        return

    r = sweep(args.seed, args.n)
    print(f"seed {args.seed}, {args.n} instances: {r['n_fail']} diagnostic failures")
    print(f"family mix           {r['families']}")
    print(f"worst symmetry       {r['worst_sym']:.3e}")
    print(f"worst cluster dev    {r['worst_dev']:.3e}")
    print(f"worst scaled min eig {r['worst_min_eig']:.3e}")
    print(f"min lmax slack rel   {r['lmax_slack_rel']:.3e}")


if __name__ == "__main__":
    main()
