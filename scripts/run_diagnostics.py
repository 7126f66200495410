#!/usr/bin/env python3
"""Sweep the random instance suite and summarize operator diagnostics.

With --seeds, repeats the battery across a seed range to demonstrate that
the verdicts are seed-independent (every seed should print PASS).
"""

import argparse

import numpy as np

from mlscert import instances
from mlscert.config import Tolerances
from mlscert.spectral import diagnose_each


def _reports(systems, tol) -> list:
    """The diagnose report of every system, in order, computed in one
    ``diagnose_each`` call per shape (m, l)."""
    groups = {}
    for i, sysm in enumerate(systems):
        groups.setdefault((sysm.m, sysm.l), []).append(i)
    reports = [None] * len(systems)
    for rows in groups.values():
        for i, rep in zip(rows, diagnose_each([systems[i] for i in rows], tol)):
            reports[i] = rep
    return reports


def sweep(seed: int, n: int) -> dict:
    tol = Tolerances()
    worst_sym = worst_dev = 0.0
    worst_min_eig = 0.0
    n_fail = 0
    fams = {}
    suite = instances.random_suite(n, seed)
    reports = _reports([it.system() for it in suite], tol)
    # reduce in instance order, so a NaN lands where it did one call at a time
    for it, rep in zip(suite, reports):
        fams[it.meta["family"]] = fams.get(it.meta["family"], 0) + 1
        d = rep.to_dict()
        if not d["pass"]:
            n_fail += 1
        sym = d["symmetry"]
        worst_sym = max(worst_sym, sym["proj_dinv"], sym["comp_dinv"])
        worst_dev = max(worst_dev, d["eigen"]["proj"]["max_dev"],
                        d["eigen"]["comp"]["max_dev"])
        scale = d["psd"]["scale"]
        worst_min_eig = min(worst_min_eig,
                            d["psd"]["proj_dinv_min_eig"] / scale,
                            d["psd"]["neg_comp_dinv_min_eig"] / scale)
    return {"n_fail": n_fail, "worst_sym": worst_sym, "worst_dev": worst_dev,
            "worst_min_eig": worst_min_eig, "families": fams}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--seeds", help="sweep a seed range, e.g. 1:10")
    args = ap.parse_args()

    if args.seeds:
        lo, hi = (int(v) for v in args.seeds.split(":"))
        print(f"{'seed':>5}  {'fail':>4}  {'worst sym':>11}  {'worst dev':>11}  verdict")
        for seed in range(lo, hi + 1):
            r = sweep(seed, args.n)
            verdict = "PASS" if r["n_fail"] == 0 else "FAIL"
            print(f"{seed:>5}  {r['n_fail']:>4}  {r['worst_sym']:11.3e}"
                  f"  {r['worst_dev']:11.3e}  {verdict}")
        return

    r = sweep(args.seed, args.n)
    print(f"seed {args.seed}, {args.n} instances: {r['n_fail']} diagnostic failures")
    print(f"family mix           {r['families']}")
    print(f"worst symmetry       {r['worst_sym']:.3e}")
    print(f"worst cluster dev    {r['worst_dev']:.3e}")
    print(f"worst scaled min eig {r['worst_min_eig']:.3e}")


if __name__ == "__main__":
    main()
