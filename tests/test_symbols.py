import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gindexlab.circle import PeriodicGrid
from gindexlab.errors import GroupMismatch, NotElliptic
from gindexlab.groups import build_group
from gindexlab.symbols import (CrossedSymbol, PrincipalSymbol, invert_principal,
                               is_elliptic, _regular_rep_tensor)
from gindexlab.transforms import RealizationFamily

GRID = PeriodicGrid(256)


def fam(kind, real, m=1, theta=1.0):
    group = build_group(kind, m=m) if kind != "integer_shift" \
        else build_group(kind, theta=theta)
    return RealizationFamily(group, real)


def random_symbol(family, seed, deg=2, scale=1.0, grid=GRID):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for g in family.group.elements():
        pl = {k: scale * (rng.normal() + 1j * rng.normal()) for k in range(-deg, deg + 1)}
        mi = {k: scale * (rng.normal() + 1j * rng.normal()) for k in range(-deg, deg + 1)}
        coeffs[g] = PrincipalSymbol.from_coeffs(grid, pl, mi)
    return CrossedSymbol(family, coeffs, grid)


Z2 = fam("cyclic", "reflection", m=2)
LAW_GRID = PeriodicGrid(64)
LAW_FAMILIES = {
    "cyclic3": fam("cyclic", "rotation", m=3),
    "cyclic5": fam("cyclic", "rotation", m=5),
    "z2_reflection": Z2,
    "dihedral3": fam("dihedral", "dihedral", m=3),
    "curved3": RealizationFamily(build_group("cyclic", m=3), "curved_rotation", eps=0.3),
}
# a family, a trig degree and a seed of random_symbol
LAW_CASES = st.tuples(st.sampled_from(sorted(LAW_FAMILIES)), st.integers(0, 2),
                      st.integers(0, 2 ** 32 - 1))


def rep_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pointwise product of two regular-representation tensors."""
    return np.einsum("smij,smjk->smik", x, y)


class TestStar:
    def test_unit_law(self):
        b = random_symbol(Z2, 0)
        unit = CrossedSymbol.unit(Z2, GRID)
        assert (unit.star(b) - b).norm_inf() < 1e-12
        assert (b.star(unit) - b).norm_inf() < 1e-12

    def test_group_algebra(self):
        d3 = fam("dihedral", "dihedral", m=3)
        one = PrincipalSymbol.constant(GRID, 1.0)
        for g in d3.group.elements():
            for h in d3.group.elements():
                prod = CrossedSymbol(d3, {g: one}).star(CrossedSymbol(d3, {h: one}))
                assert prod.support == [d3.group.mul(g, h)]
                assert np.max(np.abs(prod.coeff(d3.group.mul(g, h)).values() - 1.0)) < 1e-12

    def test_reflection_square(self):
        # a = delta_s (x) e^{ix} on both sheets: (a*a)_e = f(x) f(-x) = 1
        f = PrincipalSymbol.from_coeffs(GRID, {1: 1.0})
        a = CrossedSymbol(Z2, {1: f})
        sq = a.star(a)
        assert sq.support == [0]
        assert np.max(np.abs(sq.coeff(0).values() - 1.0)) < 1e-12

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_associative(self, seed):
        d3 = fam("dihedral", "dihedral", m=3)
        x, y, z = (random_symbol(d3, seed + j) for j in range(3))
        lhs = x.star(y).star(z)
        rhs = x.star(y.star(z))
        assert (lhs - rhs).norm_inf() < 1e-10 * max(1.0, lhs.norm_inf())

    def test_trivial_group_is_pointwise(self):
        t = fam("trivial", "trivial")
        a = random_symbol(t, 5)
        b = random_symbol(t, 6)
        prod = a.star(b)
        direct = a.coeff(()) * b.coeff(())
        assert np.max(np.abs(prod.coeff(()).values() - direct.values())) < 1e-12

    def test_group_mismatch(self):
        a = random_symbol(Z2, 1)
        b = random_symbol(fam("cyclic", "rotation", m=2), 1)
        with pytest.raises(GroupMismatch):
            a.star(b)


class TestTransport:
    def test_curved_matches_dense_sum(self):
        curved = RealizationFamily(build_group("cyclic", m=2), "curved_rotation", eps=0.3)
        sym = random_symbol(curved, 17, deg=3).coeff(1)
        C = curved.canonical(1)
        moved = sym.transport(C)
        for s in (1, -1):
            src = sym.sheet(C.sheet_after(s))
            x = C.base(s, GRID.nodes)
            want = np.exp(1j * np.outer(x, GRID.modes)) @ src.coeffs
            err = np.max(np.abs(moved.sheet(s).values - want))
            assert err <= 1e-12 * np.sum(np.abs(src.coeffs))


class TestRegularRepresentation:
    def test_hand_2x2(self):
        a = CrossedSymbol(Z2, {0: PrincipalSymbol.constant(GRID, 2.0),
                               1: PrincipalSymbol.constant(GRID, 1.0)})
        tensor = _regular_rep_tensor(a)
        assert np.max(np.abs(tensor - np.array([[2.0, 1.0], [1.0, 2.0]]))) < 1e-13

    @pytest.mark.parametrize("kind,real,m", [
        ("cyclic", "rotation", 3), ("dihedral", "dihedral", 3), ("cyclic", "reflection", 2)])
    def test_multiplicative(self, kind, real, m):
        f = fam(kind, real, m=m)
        x, y = random_symbol(f, 11), random_symbol(f, 12)
        Mx, My = _regular_rep_tensor(x), _regular_rep_tensor(y)
        Mxy = _regular_rep_tensor(x.star(y))
        assert np.max(np.abs(rep_product(Mx, My) - Mxy)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(LAW_CASES)
    @example(("dihedral3", 2, 0))
    def test_star_law(self, case):
        # M(a * b) = M(a) M(b) on drawn symbols; transporting b_h by C_g in
        # place of C_{g^-1} in ``star`` breaks it by O(1) on dihedral(3)
        name, deg, seed = case
        f = LAW_FAMILIES[name]
        a, b = (random_symbol(f, seed + j, deg=deg, scale=0.5, grid=LAW_GRID) for j in range(2))
        err = np.max(np.abs(_regular_rep_tensor(a.star(b))
                            - rep_product(_regular_rep_tensor(a), _regular_rep_tensor(b))))
        assert err < (1e-12 if f.is_isometric else 1e-10)

    @settings(max_examples=25, deadline=None)
    @given(LAW_CASES)
    @example(("dihedral3", 2, 0))
    def test_inverse_law(self, case):
        # M(a) M(invert_principal(a)) = 1 for a dominant identity part; reading
        # the coefficients from the first block column of M(a)^{-1} in place
        # of its first block row breaks it
        name, deg, seed = case
        f = LAW_FAMILIES[name]
        a = random_symbol(f, seed, deg=deg, scale=0.05, grid=LAW_GRID) \
            + 3.0 * CrossedSymbol.unit(f, LAW_GRID)
        r = invert_principal(a)
        err = np.max(np.abs(rep_product(_regular_rep_tensor(a.resampled(r.grid)),
                                        _regular_rep_tensor(r))
                            - np.eye(len(f.group.elements()))))
        assert err < (1e-12 if f.is_isometric else 1e-8)


class TestEllipticity:
    def test_unit(self):
        v = is_elliptic(CrossedSymbol.unit(Z2, GRID))
        assert v.is_elliptic and v.min_singular_value == pytest.approx(1.0, abs=1e-12)

    def test_pointwise_unitary(self):
        t = fam("trivial", "trivial")
        sym = PrincipalSymbol.from_coeffs(GRID, {0: 1.0}, {1: 1.0})
        v = is_elliptic(CrossedSymbol(t, {(): sym}))
        assert v.is_elliptic
        assert v.min_singular_value == pytest.approx(1.0, abs=1e-10)

    def test_z2_constants(self):
        a = CrossedSymbol(Z2, {0: PrincipalSymbol.constant(GRID, 2.0),
                               1: PrincipalSymbol.constant(GRID, 1.0)})
        v = is_elliptic(a)
        assert v.is_elliptic
        assert v.min_singular_value == pytest.approx(1.0, abs=1e-10)

    def test_not_elliptic(self):
        sym = PrincipalSymbol.from_coeffs(GRID, {1: 1.0, 0: -1.0})  # vanishes at x = 0
        t = fam("trivial", "trivial")
        v = is_elliptic(CrossedSymbol(t, {(): sym}))
        assert v.verdict == "not_elliptic"

    def test_shift_dominance(self):
        z = fam("integer_shift", "rotation")
        a = CrossedSymbol(z, {0: PrincipalSymbol.constant(GRID, 1.0),
                              1: PrincipalSymbol.constant(GRID, 0.4)})
        assert is_elliptic(a).verdict == "elliptic"
        b = CrossedSymbol(z, {0: PrincipalSymbol.constant(GRID, 1.0),
                              1: PrincipalSymbol.constant(GRID, 1.4)})
        assert is_elliptic(b).verdict == "undecided"

    def test_invariance_under_pointwise_unitary(self):
        d3 = fam("dihedral", "dihedral", m=3)
        a = random_symbol(d3, 21, scale=0.2)
        a = a + CrossedSymbol.unit(d3, GRID) + CrossedSymbol.unit(d3, GRID)
        u_fn = PrincipalSymbol.from_coeffs(GRID, {1: 1.0})       # unimodular
        u = CrossedSymbol(d3, {d3.group.identity: u_fn})
        v0 = is_elliptic(a).min_singular_value
        v1 = is_elliptic(u.star(a).star(u)).min_singular_value
        assert v1 == pytest.approx(v0, rel=1e-8)


class TestInversion:
    def test_constant(self):
        t = fam("trivial", "trivial")
        a = CrossedSymbol(t, {(): PrincipalSymbol.constant(GRID, 2.0)})
        r = invert_principal(a)
        assert np.max(np.abs(r.coeff(()).values() - 0.5)) < 1e-12

    def test_group_inverse(self):
        d3 = fam("dihedral", "dihedral", m=3)
        g = (1, 0)
        a = CrossedSymbol(d3, {g: PrincipalSymbol.constant(GRID, 1.0)})
        r = invert_principal(a)
        assert r.support == [d3.group.inv(g)]

    def test_z2_hand_example(self):
        a = CrossedSymbol(Z2, {0: PrincipalSymbol.constant(GRID, 2.0),
                               1: PrincipalSymbol.constant(GRID, 1.0)})
        r = invert_principal(a)
        assert np.max(np.abs(r.coeff(0).values() - 2.0 / 3.0)) < 1e-12
        assert np.max(np.abs(r.coeff(1).values() + 1.0 / 3.0)) < 1e-12

    def test_neumann(self):
        z = fam("integer_shift", "rotation")
        f = PrincipalSymbol.from_coeffs(GRID, {0: 0.15, 1: 0.1}, {0: 0.15, -1: 0.1})
        a = CrossedSymbol(z, {0: PrincipalSymbol.constant(GRID, 1.0), 1: f})
        r = invert_principal(a)
        unit = CrossedSymbol.unit(z, GRID)
        assert (a.star(r) - unit).norm_inf() < 1e-8
        assert (r.star(a) - unit).norm_inf() < 1e-8

    def test_first_pass_reuses_the_verdict_tensor(self, monkeypatch):
        from gindexlab import symbols
        built = []
        original = symbols._regular_rep_tensor
        monkeypatch.setattr(symbols, "_regular_rep_tensor",
                            lambda a: built.append(a.grid.size) or original(a))
        a = CrossedSymbol(Z2, {0: PrincipalSymbol.constant(GRID, 2.0),
                               1: PrincipalSymbol.constant(GRID, 1.0)})
        invert_principal(a)
        assert built == [GRID.size]

    def test_raises_for_non_elliptic(self):
        t = fam("trivial", "trivial")
        sym = PrincipalSymbol.from_coeffs(GRID, {1: 1.0, 0: -1.0})
        with pytest.raises(NotElliptic):
            invert_principal(CrossedSymbol(t, {(): sym}))

    @pytest.mark.parametrize("seed", range(50))
    def test_verdict_agrees_with_inversion(self, seed):
        # half the samples carry a dominant unit part (clean elliptic region),
        # half are pure random perturbations (typically not elliptic); samples
        # hugging the ellipticity boundary need grids past the refinement cap
        # and are deliberately not drawn here
        group_kind = ["cyclic", "dihedral"][seed % 2]
        f = fam(group_kind, "rotation" if group_kind == "cyclic" else "dihedral", m=3)
        a = random_symbol(f, 2000 + seed, deg=1, scale=0.3)
        if seed % 2 == 0:
            a = a + CrossedSymbol.unit(f, GRID) + CrossedSymbol.unit(f, GRID)
        verdict = is_elliptic(a)
        if verdict.is_elliptic and verdict.min_singular_value > 0.05:
            r = invert_principal(a)
            a_fine = a.resampled(r.grid)
            unit = CrossedSymbol.unit(f, r.grid)
            assert (a_fine.star(r) - unit).norm_inf() < 1e-8
        elif not verdict.is_elliptic:
            with pytest.raises(NotElliptic):
                invert_principal(a)
        else:
            # boundary-hugging: inversion either meets the contract or refuses
            try:
                r = invert_principal(a)
            except NotElliptic:
                return
            a_fine = a.resampled(r.grid)
            unit = CrossedSymbol.unit(f, r.grid)
            assert (a_fine.star(r) - unit).norm_inf() < 1e-8
