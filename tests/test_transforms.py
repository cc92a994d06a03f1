import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gindexlab.circle import FrequencyWindow, PeriodicGrid, power_of_two_grid
from gindexlab.errors import InvalidParameter, NonIsometricAction, NotADiffeo
from gindexlab.groups import build_group
from gindexlab.transforms import (CircleDiffeo, ModeMap, RealizationFamily,
                                  weighted_shift_matrix)

W16 = FrequencyWindow(16)


def family(kind, real, **kw):
    m = kw.pop("m", 1)
    theta = kw.pop("theta", 0.0)
    if kind == "integer_shift":
        return RealizationFamily(build_group(kind, theta=theta), real, **kw)
    return RealizationFamily(build_group(kind, m=m), real, **kw)


class TestCanonical:
    def test_rotation_base_map(self):
        fam = family("cyclic", "rotation", m=4)
        C = fam.canonical(1)
        x = np.linspace(0, 2 * np.pi, 5)
        # pushforward convention: the base map is the rotation itself
        assert np.allclose(C.base(1, x), x + np.pi / 2)
        assert not C.sheet_swap

    def test_reflection_swaps_sheets(self):
        fam = family("cyclic", "reflection", m=2)
        C = fam.canonical(1)
        x = np.array([0.3, 1.0])
        assert np.allclose(C.base(1, x), -x)
        assert C.sheet_swap

    def test_half_wave_translates_sheets_oppositely(self):
        fam = family("integer_shift", "half_wave", theta=0.3)
        C = fam.canonical(1)
        x = np.array([1.0])
        assert np.allclose(C.base(1, x), x - 0.3)
        assert np.allclose(C.base(-1, x), x + 0.3)
        assert not C.sheet_swap

    @pytest.mark.parametrize("kind,real,m", [
        ("cyclic", "rotation", 4), ("dihedral", "dihedral", 3),
        ("cyclic", "curved_rotation", 3)])
    def test_group_law(self, kind, real, m):
        kw = {"eps": 0.3} if real == "curved_rotation" else {}
        fam = family(kind, real, m=m, **kw)
        pts = np.linspace(0.1, 2 * np.pi, 7)
        for a, b in itertools.product(fam.group.elements(), repeat=2):
            Ca, Cb = fam.canonical(a), fam.canonical(b)
            Cab = fam.canonical(fam.group.mul(a, b))
            for s in (1, -1):
                y = Cb.base(s, pts)
                s2 = Cb.sheet_after(s)
                z = Ca.base(s2, y)
                assert Ca.sheet_after(s2) == Cab.sheet_after(s)
                # compare as circle points
                assert np.max(np.abs(np.exp(1j * z) - np.exp(1j * Cab.base(s, pts)))) < 1e-10

    def test_sheet_affine(self):
        hw = family("integer_shift", "half_wave", theta=0.3).canonical(2)
        assert (hw.sheet_affine(1), hw.sheet_affine(-1)) == ((1, -0.6), (1, 0.6))
        rs = family("dihedral", "dihedral", m=3).canonical((1, 1))
        assert rs.sheet_affine(1) == rs.sheet_affine(-1) == (-1, 2 * np.pi / 3)
        curved = family("cyclic", "curved_rotation", m=3, eps=0.3).canonical(1)
        assert curved.sheet_affine(1) is None and not curved.sheet_swap


class TestDiffeo:
    def test_affine_round_trip(self):
        d = CircleDiffeo.affine(-1, 0.4)
        d.check(PeriodicGrid(64))

    def test_conjugated_rotation_is_diffeo(self):
        d = CircleDiffeo.conjugated_rotation(np.pi, 0.3)
        d.check(PeriodicGrid(256))
        x = PeriodicGrid(256).nodes
        # rotation by pi has order 2: two-fold composition is the identity mod 2 pi
        twice = d.forward(d.forward(x))
        assert np.max(np.abs(np.exp(1j * twice) - np.exp(1j * x))) < 1e-8

    def test_eps_guard(self):
        with pytest.raises(NotADiffeo):
            CircleDiffeo.conjugated_rotation(np.pi, 1.1)


class TestQuantized:
    def test_rotation_pi_diagonal(self):
        fam = family("cyclic", "rotation", m=2)
        mat = fam.at(FrequencyWindow(8)).phi(1).matrix()
        expect = np.diag((-1.0 + 0j) ** np.abs(np.arange(-8, 9)))
        assert np.max(np.abs(mat - expect)) < 1e-12

    def test_reflection_squared_identity(self):
        fam = family("cyclic", "reflection", m=2)
        R = fam.at(W16)
        m = R.phi(1).matrix()
        assert np.max(np.abs(m @ m - np.eye(W16.dim))) == 0.0

    def test_identity_exact(self):
        fam = family("dihedral", "dihedral", m=3)
        m = fam.at(W16).phi(fam.group.identity).matrix()
        assert np.array_equal(m, np.eye(W16.dim, dtype=complex))

    @pytest.mark.parametrize("kind,real,m,theta", [
        ("cyclic", "rotation", 5, 0.0),
        ("dihedral", "dihedral", 3, 0.0),
        ("cyclic", "reflection", 2, 0.0),
        ("integer_shift", "half_wave", 1, 0.7)])
    def test_quantized_group_law(self, kind, real, m, theta):
        fam = family(kind, real, m=m, theta=theta)
        R = fam.at(W16)
        els = fam.group.elements() if fam.group.is_finite else [-2, -1, 0, 1, 2]
        for a, b in itertools.product(els, repeat=2):
            ab = fam.group.mul(a, b)
            if not fam.group.is_finite and abs(ab) > 2:
                continue
            lhs = R.phi(a).compose(R.phi(b)).matrix()
            assert np.max(np.abs(lhs - R.phi(ab).matrix())) < 1e-9

    def test_unitarity_exact_families(self):
        for fam in (family("cyclic", "rotation", m=3),
                    family("integer_shift", "half_wave", theta=0.3)):
            R = fam.at(W16)
            for g in ([1, 2] if not fam.group.is_finite else fam.group.elements()):
                m = R.phi(g).matrix()
                assert np.max(np.abs(m.conj().T @ m - np.eye(W16.dim))) < 1e-10

    def test_mode_map_conjugate_matches_dense(self):
        rng = np.random.default_rng(4)
        mm = ModeMap(W16, -1, np.exp(1j * W16.modes * 0.77))
        X = rng.normal(size=(W16.dim, W16.dim)) + 1j * rng.normal(size=(W16.dim, W16.dim))
        dense = mm.matrix() @ X @ mm.matrix().conj().T
        assert np.max(np.abs(mm.conjugate(X) - dense)) < 1e-12

    @pytest.mark.parametrize("sign", [1, -1])
    def test_mode_map_conjugate_matches_dense_inverse(self, sign):
        rng = np.random.default_rng(5)
        mm = ModeMap(W16, sign, np.exp(-1j * sign * W16.modes * 0.41))
        L = rng.normal(size=(W16.dim, W16.dim)) + 1j * rng.normal(size=(W16.dim, W16.dim))
        phi = mm.matrix()
        dense = phi @ L @ np.linalg.inv(phi)
        assert np.max(np.abs(mm.conjugate(L) - dense)) < 1e-12


    @pytest.mark.parametrize("kind,real,m,theta", [
        ("cyclic", "rotation", 5, 0.0),
        ("integer_shift", "rotation", 1, 0.7),
        ("cyclic", "reflection", 2, 0.0),
        ("dihedral", "dihedral", 3, 0.0),
        ("cyclic", "curved_rotation", 3, 0.0)])
    def test_mode_map_matches_quadrature_shift(self, kind, real, m, theta):
        # the mode action read by the traces is the quadrature definition
        # of u -> u o alpha^{-1}
        fam = family(kind, real, m=m, theta=theta)
        els = fam.group.elements() if fam.group.is_finite else [-2, -1, 0, 1, 2]
        for g in els:
            exact = ModeMap(W16, *fam.mode_map(g, W16.modes)).matrix()
            dense = weighted_shift_matrix(fam.diffeo(g), W16)
            assert np.max(np.abs(exact - dense)) < 1e-12

    def test_curved_mode_map_refused(self):
        fam = family("cyclic", "curved_rotation", m=2, eps=0.3)
        with pytest.raises(NonIsometricAction):
            fam.mode_map(1, W16.modes)


@st.composite
def mode_maps(draw, window):
    """A ModeMap on ``window`` with either sign and random unit phases."""
    sign = draw(st.sampled_from([1, -1]))
    angles = draw(st.lists(st.floats(-np.pi, np.pi), min_size=window.dim,
                           max_size=window.dim))
    return ModeMap(window, sign, np.exp(1j * np.array(angles)))


windows = st.integers(1, 12).map(FrequencyWindow)


class TestModeMapLaws:
    """Every ModeMap operation against products of the dense matrix()."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_compose(self, data):
        w = data.draw(windows)
        a, b = data.draw(mode_maps(w)), data.draw(mode_maps(w))
        assert np.max(np.abs(a.compose(b).matrix() - a.matrix() @ b.matrix())) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(st.data(), st.integers(0, 2 ** 32 - 1))
    def test_left_right_mul_conjugate(self, data, seed):
        w = data.draw(windows)
        a = data.draw(mode_maps(w))
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(w.dim, w.dim)) + 1j * rng.normal(size=(w.dim, w.dim))
        phi = a.matrix()
        assert np.max(np.abs(a.left_mul(X) - phi @ X)) < 1e-12
        assert np.max(np.abs(a.right_mul(X) - X @ phi)) < 1e-12
        assert np.max(np.abs(a.conjugate(X) - phi @ X @ phi.conj().T)) < 1e-12

    @pytest.mark.parametrize("build", [
        lambda: RealizationFamily(build_group("trivial"), "trivial"),
        lambda: family("cyclic", "rotation", m=3),
        lambda: family("cyclic", "reflection", m=2),
        lambda: family("dihedral", "dihedral", m=3),
        lambda: family("integer_shift", "half_wave", theta=0.7),
    ])
    def test_source_is_the_column_right_mul_reads(self, build):
        # (K Phi)[:, k] = p(k) K[:, s k], bitwise, for every element of
        # every isometric family
        fam = build()
        R = fam.at(W16)
        els = fam.group.elements() if fam.group.is_finite else [-2, -1, 0, 1, 2]
        K = np.random.default_rng(6).normal(size=(W16.dim, 2 * W16.dim)).view(complex)
        k = np.arange(W16.dim)
        for g in els:
            phi = R.phi(g)
            assert phi.right_mul(K).tobytes() == (K[:, phi.source(k)] * phi.phases[k]).tobytes()


class TestCurvedShift:
    def test_truncation_defect_decays(self):
        fam = family("cyclic", "curved_rotation", m=2, eps=0.3)
        defects = []
        for nf in (128, 256, 512):
            defects.append(fam.at(FrequencyWindow(nf)).phi(1).truncation_defect)
        assert defects[0] > defects[1] > defects[2]
        assert defects[2] < 1e-4

    def test_involution_inner_compression(self):
        # measured two-sided inner-half defect at N_F = 256 is ~1.1e-6,
        # decaying superalgebraically with the window
        fam = family("cyclic", "curved_rotation", m=2, eps=0.3)
        prev = None
        for nf in (128, 256):
            R = fam.at(FrequencyWindow(nf))
            M = R.phi(1).matrix()
            mask = np.abs(np.arange(-nf, nf + 1)) <= nf // 2
            D = (M @ M - np.eye(2 * nf + 1))[np.ix_(mask, mask)]
            val = np.linalg.norm(D, 2)
            if prev is not None:
                assert val < prev / 10
            prev = val
        assert val < 1.5e-6

    @pytest.mark.parametrize("cutoff", [16, 128, 256])
    @pytest.mark.parametrize("m, eps", [(2, 0.3), (3, 0.3), (3, 0.7)])
    def test_matrix_is_the_full_exponential_table(self, cutoff, m, eps):
        # the oracle takes exp(i k alpha^{-1}(x)) for every mode, k < 0 included;
        # the matrix reads columns k < 0 as conjugates and must be bitwise the same
        fam = family("cyclic", "curved_rotation", m=m, eps=eps)
        window = FrequencyWindow(cutoff)
        grid = power_of_two_grid(8 * cutoff)
        for g in range(1, m):
            diffeo = fam.diffeo(g)
            ainv = diffeo.inverse(grid.nodes)
            w = np.sqrt(np.abs(1.0 / diffeo.deriv(ainv)))
            cols = w[:, None] * np.exp(1j * np.outer(ainv, window.modes))
            want = (np.fft.fft(cols, axis=0) / grid.size)[np.mod(window.modes, grid.size)]
            assert weighted_shift_matrix(diffeo, window).tobytes() == want.tobytes()

    def test_rejects_incompatible_realization(self):
        with pytest.raises(InvalidParameter):
            family("dihedral", "rotation", m=3)
        with pytest.raises(NotADiffeo):
            family("cyclic", "curved_rotation", m=2, eps=1.2)
