"""Semiclassical test symbols and the dense oracle of a star series, read
only by the acceptance and star-calculus tests."""

import numpy as np

from gindexlab.quantize import op_h_term
from gindexlab.semiclass import SampledTerm, StarSeries


def weyl_test_terms(grid, lattice):
    """Two rapidly decaying symbols for Weyl-trace comparisons."""
    t1 = SampledTerm.from_callable(
        grid, lattice, lambda X, XI: (2.0 + np.cos(X)) * XI ** 2 * np.exp(-2.0 * XI ** 2))
    t2 = SampledTerm.from_callable(
        grid, lattice,
        lambda X, XI: (1.0 + 0.5 * np.sin(2 * X)) * XI ** 4 * np.exp(-2.0 * XI ** 2))
    return [t1, t2]


def star_consistency_pairs(grid, lattice, family_trivial, family_z2):
    """Two symbol pairs with single-mode x-factors (drift-free norm law)."""
    a = SampledTerm.from_callable(
        grid, lattice, lambda X, XI: np.exp(1j * X) * np.exp(-((XI - 1.2) / 0.32) ** 2))
    b = SampledTerm.from_callable(
        grid, lattice, lambda X, XI: np.exp(1j * X) * XI * np.exp(-((XI - 1.4) / 0.35) ** 2))
    pair1 = (StarSeries(family_trivial, grid, lattice, 0.25, {((), 0): a}),
             StarSeries(family_trivial, grid, lattice, 0.25, {((), 0): b}))
    even1 = lambda XI: np.exp(-((np.abs(XI) - 1.2) / 0.32) ** 2)
    even2 = lambda XI: np.exp(-((np.abs(XI) - 1.4) / 0.35) ** 2)
    c = SampledTerm.from_callable(grid, lattice, lambda X, XI: np.exp(1j * X) * even1(XI))
    d = SampledTerm.from_callable(grid, lattice,
                                  lambda X, XI: np.exp(-1j * X) * XI * even2(XI) / 2)
    e = family_z2.group.identity
    pair2 = (StarSeries(family_z2, grid, lattice, 0.25, {(e, 0): c, (1, 0): d}),
             StarSeries(family_z2, grid, lattice, 0.25, {(1, 0): c, (e, 0): d}))
    return [pair1, pair2]


def minus(x, y):
    """The star series x - y, term by term (no program path subtracts series)."""
    return x + y.copy_with({key: -1.0 * t for key, t in y.terms.items()}, -y.unit)


def realize_series(series, h, window):
    """Dense window matrix  unit I + sum h^j op_h(a_{g,j}) Phi_g  (oracle use)."""
    real = series.family.at(window)
    out = series.unit * np.eye(window.dim, dtype=complex)
    for (g, j), term in series._sorted_terms():
        mat = (h ** j) * op_h_term(term, h, window)
        out += real.phi(g).right_mul(mat)
    return out
