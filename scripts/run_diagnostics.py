#!/usr/bin/env python3
"""Sweep the random instance suite and summarize operator diagnostics.

With --seeds, repeats the battery across a seed range to demonstrate that
the verdicts are seed-independent: each seed runs every selftest suite
(``spectral`` on ``--n`` instances, the others as ``mlscert selftest``
runs them) and should print PASS.  The spectral columns come first.  The
``lmax slack rel`` column is the smallest 1/d_min - lambda_max(sym(P D^-1))
relative to 1/d_min over the seed's systems.  The bound holds with equality
for a square system (P = I), so a value just below zero (-2.7e-13 at seed
42, a square system) is rounding, not a violation.  The last column names
the suites that failed, and after the table each suite lists its failing
seeds.
"""

import argparse

from mlscert import instances
from mlscert.config import Tolerances
from mlscert.selftest import SUITE_NAMES, run_selftest, suite_spectral


def sweep(seed: int, n: int) -> dict:
    suite = instances.random_suite(n, seed)
    r = suite_spectral(seed, Tolerances(), suite=suite)
    fams = {}
    for it in suite:
        fams[it.meta["family"]] = fams.get(it.meta["family"], 0) + 1
    return {"n_fail": r["n_fail"], "worst_sym": r["symmetry"], "worst_dev": r["eig_dev"],
            "worst_min_eig": r["psd_min_rel"], "lmax_slack_rel": r["lmax_slack_rel"],
            "pass": r["pass"], "families": fams}


def failing_suites(seed: int, n: int) -> tuple[dict, list]:
    """The spectral sweep of the seed, and every suite that fails there."""
    r = sweep(seed, n)
    others = run_selftest(seed, suites=[s for s in SUITE_NAMES if s != "spectral"])
    failed = {name for name, rep in others["suites"].items() if not rep["pass"]}
    if not r["pass"]:
        failed.add("spectral")
    return r, [s for s in SUITE_NAMES if s in failed]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--seeds", help="sweep a seed range, e.g. 1:10")
    args = ap.parse_args()

    if args.seeds:
        lo, hi = (int(v) for v in args.seeds.split(":"))
        print(f"{'seed':>5}  {'fail':>4}  {'worst sym':>11}  {'worst dev':>11}"
              f"  {'lmax slack rel':>14}  verdict  failing suites")
        by_suite = {name: [] for name in SUITE_NAMES}
        for seed in range(lo, hi + 1):
            r, failed = failing_suites(seed, args.n)
            for name in failed:
                by_suite[name].append(seed)
            verdict = "FAIL" if failed else "PASS"
            print(f"{seed:>5}  {r['n_fail']:>4}  {r['worst_sym']:11.3e}"
                  f"  {r['worst_dev']:11.3e}  {r['lmax_slack_rel']:14.3e}  {verdict:<7}"
                  f"  {','.join(failed) or '-'}")
        print(f"failing seeds per suite, seeds {lo}-{hi}:")
        for name, seeds in by_suite.items():
            print(f"  {name:<12} {' '.join(map(str, seeds)) or 'none'}")
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
