"""
The crossed-product symbol algebra and ellipticity
==================================================

Symbols of G-operators are finitely supported maps g -> (pair of circle
functions).  The twisted star product mirrors operator composition, and
ellipticity -- invertibility in C(S* S^1) x| G -- is decided pointwise
through the left-regular representation.
"""

import numpy as np

from gindexlab import (CrossedSymbol, PeriodicGrid, PrincipalSymbol,
                       RealizationFamily, build_group, invert_principal,
                       is_elliptic)

grid = PeriodicGrid(256)
fam = RealizationFamily(build_group("cyclic", m=2), "reflection")

# a = 2 delta_e + 1 delta_s: the regular representation is [[2, 1], [1, 2]]
a = CrossedSymbol(fam, {0: PrincipalSymbol.constant(grid, 2.0),
                        1: PrincipalSymbol.constant(grid, 1.0)})
v = is_elliptic(a)
print(f"a = 2 + reflection: verdict {v.verdict}, min singular value {v.min_singular_value:.3f}")

r = invert_principal(a)
print(f"inverse coefficients: r_e = {r.coeff(0).plus.values[0].real:.4f}, "
      f"r_s = {r.coeff(1).plus.values[0].real:.4f}   (2/3 and -1/3)")

unit = CrossedSymbol.unit(fam, grid)
print(f"residual |a * r - 1| = {(a.star(r) - unit).norm_inf():.2e}")

# the star product twists by the group action: for the reflection s,
# (f Phi_s)(f Phi_s) has e-coefficient f(x) f(-x)
f = PrincipalSymbol.from_coeffs(grid, {1: 1.0})      # e^{ix} on both sheets
b = CrossedSymbol(fam, {1: f})
sq = b.star(b)
print(f"(e^(ix) Phi_s)^2 -> e-coefficient constantly "
      f"{sq.coeff(0).plus.values[0].real:.1f} (= e^(ix) e^(-ix))")

# ellipticity in the crossed product is stronger than coefficientwise
# invertibility: a dominant off-identity coefficient can still fail
c = CrossedSymbol(fam, {0: PrincipalSymbol.from_coeffs(grid, {1: 1.0}),
                        1: PrincipalSymbol.constant(grid, 1.0)})
print(f"e^(ix) + Phi_s: verdict {is_elliptic(c).verdict}, "
      f"min sv {is_elliptic(c).min_singular_value:.3f}")

# the integer-shift group gets a sufficient dominance criterion; when it is
# inconclusive the verdict is honestly 'undecided'
shift = RealizationFamily(build_group("integer_shift", theta=1.0), "rotation")
tight = CrossedSymbol(shift, {0: PrincipalSymbol.constant(grid, 1.0),
                              1: PrincipalSymbol.constant(grid, 2.0)})
print(f"shift sample beyond dominance: verdict {is_elliptic(tight).verdict}")
