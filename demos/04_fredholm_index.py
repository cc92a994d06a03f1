"""
Numerical Fredholm indices
==========================

On a finite Fourier window a Fredholm operator's square truncation always has
equal left and right null counts -- the boundary absorbs the index.  The
engine therefore counts *interior* null mass: null singular vectors living on
the inner half-window are genuine kernel/cokernel, edge-supported ones are
truncation artifacts.  The winding family calibrates the sign convention.
"""

import numpy as np

from gindexlab import FrequencyWindow, calibrate_sign, grid_for_window, numerical_index, winding_index_oracle
from gindexlab.samples import winding_problem

s = calibrate_sign()
print(f"calibrated sign convention: index = {s:+d} * (w(minus) - w(plus))\n")

print("family: plus sheet = 1, minus sheet = e^{i w x}")
print(f"{'w':>3s} {'index':>6s} {'kernel':>7s} {'cokernel':>9s} {'sv gap':>9s} {'oracle':>7s}")
for w in range(-3, 4):
    p = winding_problem(w)
    rep = numerical_index(p, (64, 128, 256))
    oracle = winding_index_oracle(p.symbol(grid_for_window(FrequencyWindow(256))), s)
    print(f"{w:+3d} {rep.index:+6d} {rep.kernel_dim:7d} {rep.cokernel_dim:9d} "
          f"{rep.sv_gap:9.1e} {oracle:+7d}")

print("\nkernel dimension is constantly 2 k_min - 1 = 7 (the zero-section cut);")
print("the cokernel moves with w, and the index equals the winding difference.")

# indices are log-additive under composition
pa, pb = winding_problem(2), winding_problem(-1)
prod = pa.operator(128).multiply(pb.operator(128))
from gindexlab import index_of_matrix
data = index_of_matrix(prod.realize(), prod.window)
print(f"\nindex(A_2 A_(-1)) = {data.index:+d} = 2 + (-1)")
