"""Level crossings of the shifted oscillator as the coupling varies.

The two quasi-parity ladders E = 4n + 2 +/- 2 alpha move in opposite
directions as alpha grows, so levels cross whenever alpha passes an
integer.  These are unavoided crossings: at the crossing the matrix has
a genuine degeneracy and, in a tiny window around it, the discretized
operator briefly develops a complex-conjugate pair (an exceptional
point).  The scan solves once per sweep point, from a shift-invert
window that an argument-principle count certifies, and locates each
crossing by fitting a V to the level gaps sampled around a gap minimum.

Run:  python demos/demo_crossing_scan.py  (41 window solves at N=400,
about 1.4 s on two cores)
"""

import argparse

import ptspec as ps


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lo", type=float, default=0.5)
    ap.add_argument("--hi", type=float, default=2.5)
    ap.add_argument("--steps", type=int, default=41)
    ap.add_argument("--npoints", type=int, default=400)
    args = ap.parse_args()

    print("exact ladder: crossings at every integer alpha")
    analytic = ps.scan_parameter(
        lambda alpha: ps.ptho_levels(ps.PthoParams(alpha, 1.0), 6),
        args.lo, args.hi, args.steps, 6)
    print("  closed-form scan finds:",
          [f"{p:.4f}" for p in ps.crossing_params(analytic)])

    print(f"\nnumeric ladder ({args.npoints} grid points, "
          f"{args.steps} sweep steps) ...")
    model = ps.PthoParams(alpha=args.lo, c=1.0)
    g = ps.contour_for(model, npoints=args.npoints, halfwidth=10.0)
    family = ps.ptho_numeric_family(model, g, 6)
    numeric = ps.scan_parameter(family, args.lo, args.hi, args.steps, 6,
                                crossing_tol=5e-3)
    for c in numeric.crossings:
        print(f"  crossing near alpha={c.param:.4f}: levels {c.pair}, "
              f"residual gap {c.gap:.2e}")
    for p, msg in numeric.failures:
        print(f"  failed at alpha={p:.4f}: {msg}")


if __name__ == "__main__":
    main()
