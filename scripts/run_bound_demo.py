#!/usr/bin/env python3
"""Growth-envelope demo on a small 1-d node set.

Prints the envelope constants, then a table of coefficient norm vs. certified
envelope along the span, and the worst observed slack.
"""

import argparse

import numpy as np

from mlscert.bases import monomial_basis
from mlscert.bound1d import certify_bound
from mlscert.points import PointSet
from mlscert.weights import WeightSpec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nodes", type=int, default=5)
    # wide spans with stiff weights drive the envelope to the float cap
    # (still a valid certificate, just not an informative table)
    ap.add_argument("--span", type=float, default=2.0)
    ap.add_argument("--l", type=int, default=2)
    ap.add_argument("--alpha", type=float, default=0.5)
    ap.add_argument("--grid", type=int, default=200)
    args = ap.parse_args()

    xs = np.linspace(0.0, args.span, args.nodes)
    pts = PointSet(xs, values=np.sin(xs))
    cert = certify_bound(
        pts, monomial_basis(args.l), WeightSpec("exp", args.alpha),
        n_grid=args.grid,
    )

    c = cert.constants
    print(f"nodes={args.nodes} span={args.span} l={args.l} alpha={args.alpha}")
    print(f"growth rate      {c.growth_rate:.6g}")
    print(f"forcing bound    {c.forcing_bound:.6g}")
    print(f"coef norm bound  {c.coef_norm_bound:.6g}")

    print(f"\n{'x':>8}  {'||a(x)||':>10}  {'envelope':>12}  {'slack':>12}")
    step = max(1, args.grid // 12)
    for i in range(0, args.grid, step):
        print(f"{cert.xs[i]:8.3f}  {cert.lhs[i]:10.4f}  {cert.rhs[i]:12.4e}"
              f"  {cert.slack[i]:12.4e}")

    print(f"\nmin slack {float(np.min(cert.slack)):.3e}   "
          f"majorant margins {cert.majorants['comp_h_margin']:.3e} / "
          f"{cert.majorants['forcing_margin']:.3e}")
    print("certificate PASS" if cert.passed else "certificate FAIL")


if __name__ == "__main__":
    main()
