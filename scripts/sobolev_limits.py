#!/usr/bin/env python3
"""Tabulate the large-degree behaviour of the mean under higher-order metrics.

For r = 1 the mean grows linearly in the degree, with mean/N tending to
2*tanh(pi). For r >= 2 it converges to the exact limit 2*pi*lambda_inf/mu_inf,
where lambda_inf and mu_inf are the limits of lambda_sq(N, r) and mu(N, r);
at r = 2 that limit is pi. The last table compares the limit with 2*pi/r^2,
2*pi/(r+1) and 2*pi/(r+3); the large-r limits follow 2*pi/(r+3).
"""

import argparse
import math

from curvecross.exact import sobolev_limit_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degrees", type=int, nargs="+", default=[10, 25, 50, 100])
    args = ap.parse_args()
    if min(args.degrees) < 1:
        ap.error("--degrees must all be >= 1")
    ns = sorted(set(args.degrees))

    print("r = 1 (linear growth):")
    rep = sobolev_limit_report(1, ns)
    for N, mv in rep.rows:
        print(f"  N={N:>4}: mean = {mv.approx:.9f}   mean/N = {mv.approx / N:.9f}")
    print(f"  slope 2*tanh(pi) = {2 * math.tanh(math.pi):.9f}")

    print("\nr = 2 (finite limit):")
    rep = sobolev_limit_report(2, ns)
    for N, mv in rep.rows:
        print(f"  N={N:>4}: mean = {mv.approx:.12f}")
    print(f"  limit 2*pi*lambda_inf/mu_inf = {rep.candidate_limit:.15f}")
    print(f"  pi                           = {math.pi:.15f}")

    print("\nlarge-r scale comparison of the limit:")
    print(f"  {'r':>4} {'limit':>14} {'limit/(2pi/r^2)':>16} {'limit/(2pi/(r+1))':>18}"
          f" {'limit/(2pi/(r+3))':>18}")
    for r in (2, 5, 10, 20, 50):
        rep = sobolev_limit_report(r, [5, 10])
        ratio_rp3 = rep.candidate_limit / (2 * math.pi / (r + 3))
        print(f"  {r:>4} {rep.candidate_limit:>14.9f} "
              f"{rep.ratio_vs_2pi_over_r_sq:>16.6f} {rep.ratio_vs_2pi_over_r_plus_1:>18.6f}"
              f" {ratio_rp3:>18.12f}")


if __name__ == "__main__":
    main()
