"""Canned G-operator problems used by the test suite, the demos and the CLI."""

from __future__ import annotations

import numpy as np

from .groups import build_group
from .problems import GOperatorProblem
from .semiclass import SampledTerm, XiLattice, zero_section_cut
from .transforms import RealizationFamily


def winding_problem(w: int) -> GOperatorProblem:
    """Trivial group, plus sheet 1, minus sheet e^{i w x}: the calibration family."""
    fam = RealizationFamily(build_group("trivial"), "trivial")
    coeffs = {(): ({0: 1.0}, {w: 1.0})}
    return GOperatorProblem(fam, coeffs, name=f"winding_w{w}")


def z2_sample() -> GOperatorProblem:
    """Z/2 reflection sample: a_e = 2 on plus / 2 e^{ix} on minus, a_s = 1."""
    fam = RealizationFamily(build_group("cyclic", m=2), "reflection")
    coeffs = {
        0: ({0: 2.0}, {1: 2.0}),
        1: ({0: 1.0}, {0: 1.0}),
    }
    return GOperatorProblem(fam, coeffs, name="z2_reflection")


def _random_trig(rng: np.random.Generator, deg: int, scale: float) -> dict[int, complex]:
    return {k: scale * (rng.normal() + 1j * rng.normal()) / (1 + abs(k))
            for k in range(-deg, deg + 1)}


def dihedral_sample(seed: int) -> GOperatorProblem:
    """Randomized elliptic dihedral(3) operator whose identity minus sheet winds once.

    A dominant identity coefficient guarantees ellipticity; small random trig
    polynomials sit on the other five elements.  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    fam = RealizationFamily(build_group("dihedral", m=3), "dihedral")
    grp = fam.group
    coeffs = {}
    for g in grp.elements():
        if g == grp.identity:
            coeffs[g] = ({0: 3.0}, {1: 3.0})
        else:
            coeffs[g] = (_random_trig(rng, 2, 0.35), _random_trig(rng, 2, 0.35))
    return GOperatorProblem(fam, coeffs, name=f"dihedral3_seed{seed}")


def shift_neumann_problem() -> GOperatorProblem:
    """integer_shift sample A = 1 + c op(f) Phi_1 with ||c f||_inf < 1."""
    c = 0.3
    fam = RealizationFamily(build_group("integer_shift", theta=1.0), "rotation")
    f = {0: 0.5 * c, 1: 0.25 * c, -2: 0.15 * c}
    coeffs = {
        0: ({0: 1.0}, {0: 1.0}),
        1: (f, dict(f)),
    }
    return GOperatorProblem(fam, coeffs, name="shift_neumann")


# ---------------------------------------------------------------------------
# semiclassical diagnostic symbols
# ---------------------------------------------------------------------------

def annulus_term(grid, lattice):
    """Analytic even annulus profile, zero-section content negligible."""
    return SampledTerm.from_callable(
        grid, lattice, lambda X, XI: (2.0 + np.cos(X)) * XI ** 2 * np.exp(-2.0 * XI ** 2))


def reflection_term(grid, lattice):
    """Even profile with mass at the zero section (reflection trace tests)."""
    return SampledTerm.from_callable(
        grid, lattice, lambda X, XI: (1.0 + np.cos(X)) * np.exp(-2.0 * XI ** 2))


def egorov_curved_term(grid):
    """Gaussian annulus on a wide lattice covering the curved-stretched support."""
    lattice = XiLattice(7.5, 1501)
    return SampledTerm.from_callable(
        grid, lattice,
        lambda X, XI: np.exp(1j * X) * np.exp(-((np.abs(XI) - 1.5) / 0.55) ** 2), "zero")


def egorov_isometry_term(grid):
    """Zero-section-cut annulus for exact-transport checks."""
    lattice = XiLattice(4.0, 801)
    chi = zero_section_cut(lattice, 0.3)
    vals = np.exp(1j * grid.nodes)[:, None] * \
        (chi * np.exp(-((np.abs(lattice.points) - 1.2) / 0.25) ** 2))[None, :]
    return SampledTerm(grid, lattice, vals, "zero")
