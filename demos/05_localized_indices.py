"""
Conjugacy-class-localized analytic indices
==========================================

The localized index ind_<g> = Tr_g(1 - EA) - Tr_g(1 - AE) distributes the
Fredholm index over conjugacy classes.  The parametrix E comes from a Neumann
series over the symbol inverse; the remainders are exact matrix identities
S1^N / S2^N, and Tr_g sums class-labeled traces over the inner window.

Two theorems are on display: the decomposition  ind D = sum_<g> ind_g D,
and the vanishing  ind_g D = 0  whenever an integer homomorphism chi has
chi(g) != 0 (all infinite-order classes of the shift group).
"""

import numpy as np

from gindexlab import decomposition_check, chi_vanishing_check
from gindexlab.samples import dihedral_sample, shift_neumann_problem, z2_sample

for problem in (z2_sample(), dihedral_sample(7), dihedral_sample(11)):
    rep = decomposition_check(problem, (96, 128, 192), N=4)
    parts = "  ".join(f"ind_{k} = {v.real:+.4f}" for k, v in rep.per_class.items())
    print(f"{problem.name}:")
    print(f"  {parts}")
    print(f"  sum = {rep.total.real:+.4f}   SVD index = {rep.fredholm_index:+d}   "
          f"residual = {rep.residual:.1e}\n")

print("shift group Z with chi = id: classes of g != e cannot carry index")
shift = shift_neumann_problem()
for g0 in (1, 2):
    rep = chi_vanishing_check(shift, g0, (64, 96, 128))
    print(f"  ind_<{g0}> = {abs(rep.value):.2e}   (chi({g0}) = {shift.group.chi(g0)} != 0)")
