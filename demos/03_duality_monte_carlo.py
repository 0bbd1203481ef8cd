"""
Monte Carlo checks of the factorization/disintegration pairs
============================================================

Each kernel here factors through an integral against a measure.  The
same identity can be checked two ways: deterministic quadrature of the
factor functions, and the empirical covariance of simulated paths.
"""

import numpy as np

import kernel_forge as kf

N_PATHS = 20000
SEED = 7

# --- white noise on a measure, integrated against chi_[0, x] ------------

paths = kf.ito_synthesize(kf.pair_ex1(kf.lebesgue()), 6, [0.25, 0.5, 1.0],
                          N_PATHS, SEED)
var = np.var(paths.paths, axis=0)
print("cumulative-path variance at x=0.25, 0.5, 1.0:", np.round(var, 4))
print("(Lebesgue base measure: variance should match x itself)")

paths = kf.ito_synthesize(kf.pair_ex1(kf.cantor4()), 6, [0.25, 0.5, 1.0],
                          N_PATHS, SEED)
var = np.var(paths.paths, axis=0)
print("same grid over the Cantor measure:", np.round(var, 4),
      " -- the staircase CDF shows through")

# --- full duality reports for the three bundled pairs -------------------

grid_real = [0.1 * k for k in range(1, 10)]
grid_disk = [r * np.exp(2j * np.pi * k / 3) for r in (0.2, 0.5, 0.8)
             for k in range(3)]

cases = [
    ("min kernel / Lebesgue", kf.pair_ex1(), kf.brownian_min(), grid_real),
    ("reciprocal kernel / unit circle", kf.pair_ex2(), kf.szego(), grid_disk),
    ("digit-product kernel / Cantor", kf.pair_ex3(), kf.cantor_product(),
     grid_disk),
]
for label, pair, spec, grid in cases:
    rep = kf.duality_check(pair, spec, grid, resolution=9,
                           n_paths=N_PATHS, seed=SEED)
    print(f"\n{label}:")
    print(f"  quadrature error {rep.quad_error:.2e} (tol {rep.quad_tol:.2e})"
          f" -> {'ok' if rep.quad_pass else 'FAIL'}")
    print(f"  Monte Carlo error {rep.mc_error:.2e} (tol {rep.mc_tol:.2e})"
          f" -> {'ok' if rep.mc_pass else 'FAIL'}")

# --- quadratic variation of the level-d partial sums ---------------------

rep = kf.quadratic_variation(kf.lebesgue(), (0.0, 1.0),
                             resolutions=range(4, 9), n_paths=N_PATHS,
                             seed=SEED)
print("\nE|Q - 1|^2 on [0,1] as the partition refines:")
for res, e in zip(rep.resolutions, rep.e_sq):
    print(f"  resolution {res}: {e:.5f}   (prediction 2*2^-{res} ="
          f" {2.0 * 2.0 ** -res:.5f})")
