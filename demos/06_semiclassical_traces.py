"""
Semiclassical traces, the Weyl law, and the Egorov theorem
==========================================================

Traces of op_h(a) Phi against the exact mode action of Phi reveal the fixed
point geometry of the underlying canonical transformation:

  identity    -- full T*S^1 fixed (dim 2):  tr ~ h^{-1} integral of a
  reflection  -- two fixed points (dim 0):  tr ~ constant
  rotation    -- no fixed points:           tr = O(h^infinity)

Conjugation by a quantized transform moves symbols along the transformation:
exactly for the isometric families, to first order in h for curved shifts.
"""

import numpy as np

from gindexlab import (PeriodicGrid, RealizationFamily, StarSeries, XiLattice,
                       build_group, egorov_defect, laurent_fit, tau_g, trace_power_law)
from gindexlab.samples import (annulus_term, egorov_curved_term,
                               egorov_isometry_term, reflection_term)

grid = PeriodicGrid(256)
lattice = XiLattice(3.5, 701)
h_grid = np.geomspace(0.2, 0.02, 8)

triv = RealizationFamily(build_group("trivial"), "trivial")
z2 = RealizationFamily(build_group("cyclic", m=2), "reflection")
c4 = RealizationFamily(build_group("cyclic", m=4), "rotation")

ann = annulus_term(grid, lattice)

# Weyl law: h tr(op_h(a)) -> (2 pi)^{-1} iint a dx dxi
series = StarSeries(triv, grid, lattice, 0.25, {((), 0): ann})
ts = tau_g(series, ((),), h_grid)
dx = 2 * np.pi / grid.size
oracle = float(np.trapezoid(ann.values.real, lattice.points, axis=1).sum() * dx) / (2 * np.pi)
print(f"Weyl law at h = {h_grid[-1]:.2f}: h tr = {h_grid[-1] * ts.values[-1].real:.6f}, "
      f"quadrature = {oracle:.6f}")
fit = laurent_fit(ts, -1, 2)
print(f"Laurent fit: c_-1 = {fit.coeff(-1).real:.6f} (the phase-space volume term)\n")

# power laws per class
print(f"identity slope:   {trace_power_law(series, ((),), h_grid).slope:+.3f}   (expect -1)")
refl = StarSeries(z2, grid, lattice, 0.25, {(1, 0): reflection_term(grid, lattice)})
rep = trace_power_law(refl, (1,), h_grid)
print(f"reflection slope: {rep.slope:+.3f}   (expect  0), "
      f"alpha_0 = {np.abs(rep.values[-1]):.4f}")
rot = StarSeries(c4, grid, lattice, 0.25, {(1, 0): ann})
ts_rot = tau_g(rot, (1,), h_grid)
at05 = np.abs(ts_rot.values[np.argmin(np.abs(h_grid - 0.05))])
print(f"rotation pi/2 trace at h = 0.05: {at05:.1e}   (no fixed points)\n")

# Egorov: exact transport for isometries, O(h) for the curved shift
iso = egorov_isometry_term(grid)
for label, family in (("rotation", c4), ("reflection", z2)):
    print(f"egorov defect, {label:10s}: {egorov_defect(family, 1, iso, h_grid).max_defect:.1e}")
curved = RealizationFamily(build_group("cyclic", m=2), "curved_rotation", eps=0.3)
rep_c = egorov_defect(curved, 1, egorov_curved_term(grid), h_grid, window_factor=2.0)
print(f"egorov defect, curved shift: slope {rep_c.slope:.3f} "
      f"(first-order correction, as the semiclassical Egorov theorem predicts)")
