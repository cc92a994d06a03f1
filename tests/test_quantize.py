import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gindexlab.circle import FrequencyWindow, PeriodicFunction, PeriodicGrid, grid_for_window
from gindexlab.errors import GroupMismatch, WindowTooSmallForH
from gindexlab.groups import build_group
from gindexlab.index_engine import index_of_matrix
from gindexlab.problems import GOperatorProblem
from gindexlab.quantize import (LabeledOperator, TransferBand, op_classical, op_h_term,
                                quantize_crossed)
from gindexlab.samples import annulus_term, shift_neumann_problem, winding_problem, z2_sample
from gindexlab.semiclass import SampledTerm, XiLattice
from gindexlab.symbols import CrossedSymbol, PrincipalSymbol
from gindexlab.transforms import Realization, RealizationFamily

W = FrequencyWindow(16)
GRID = grid_for_window(W)


def norm_fro(op: LabeledOperator) -> float:
    """The Frobenius norm of the coefficient blocks of a graded operator."""
    return float(np.sqrt(sum(np.linalg.norm(m) ** 2 for m in op.parts.values())))


def fam(kind, real, m=1, theta=1.0):
    group = build_group(kind, m=m) if kind != "integer_shift" \
        else build_group(kind, theta=theta)
    return RealizationFamily(group, real)


def op_classical_by_entries(sym, window, k_min, unit_fill):
    """The definition entry by entry: column k holds the coefficients
    c(j - k) = mean(f e^{-i (j - k) x}) of its sheet function f, zero past
    the alias guard |j - k| <= M/2 - 1 and inside the cut |k| < k_min."""
    M = sym.grid.size
    x = sym.grid.nodes
    out = np.zeros((window.dim, window.dim), dtype=complex)
    for b, k in enumerate(window.modes):
        if abs(k) < k_min:
            out[b, b] = 1.0 if unit_fill else 0.0
            continue
        f = sym.plus.values if k > 0 else sym.minus.values
        for a, j in enumerate(window.modes):
            if abs(j - k) <= M // 2 - 1:
                out[a, b] = np.mean(f * np.exp(-1j * (j - k) * x))
    return out


@st.composite
def classical_cases(draw):
    """(cutoff 1-20, grid 2N+2 .. 4N+8, k_min 1-25, unit_fill, seed)."""
    n = draw(st.integers(1, 20))
    return (n, draw(st.integers(2 * n + 2, 4 * n + 8)), draw(st.integers(1, 25)),
            draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1)))


class TestOpClassical:
    @settings(max_examples=40, deadline=None)
    @given(classical_cases())
    def test_matches_entrywise_definition(self, case):
        n, M, k_min, unit_fill, seed = case
        rng = np.random.default_rng(seed)
        grid = PeriodicGrid(M)
        sheets = [PeriodicFunction(grid, rng.normal(size=M) + 1j * rng.normal(size=M))
                  for _ in range(2)]
        sym, window = PrincipalSymbol(*sheets), FrequencyWindow(n)
        want = op_classical_by_entries(sym, window, k_min, unit_fill)
        got = op_classical(sym, window, k_min, unit_fill)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.array_equal(got == 0, want == 0)

    @settings(max_examples=40, deadline=None)
    @given(classical_cases())
    def test_band_entries_are_the_dense_window(self, case):
        # the gather by index and the Toeplitz copy read the same transfer band
        n, M, k_min, unit_fill, seed = case
        rng = np.random.default_rng(seed)
        grid = PeriodicGrid(M)
        sym = PrincipalSymbol(*[PeriodicFunction(grid, rng.normal(size=M) + 1j * rng.normal(size=M))
                                for _ in range(2)])
        band = TransferBand(sym, FrequencyWindow(n), k_min, unit_fill)
        idx = np.arange(band.shape[0])
        assert band[idx[:, None], idx[None, :]].tobytes() == band.dense().tobytes()

    def test_unit(self):
        a = PrincipalSymbol.constant(GRID, 1.0)
        assert np.max(np.abs(op_classical(a, W, k_min=1, unit_fill=True) - np.eye(W.dim))) == 0.0

    def test_mode_shift(self):
        f = PeriodicFunction.from_coeff_dict(GRID, {1: 1.0})
        mat = op_classical(PrincipalSymbol(f, f), W, k_min=1)
        col = mat[:, 5 + W.cutoff]
        assert abs(col[6 + W.cutoff] - 1.0) < 1e-13
        assert np.sum(np.abs(col)) == pytest.approx(1.0, abs=1e-12)

    def test_positive_mode_projection(self):
        a = PrincipalSymbol(PeriodicFunction.constant(GRID, 1.0),
                            PeriodicFunction.constant(GRID, 0.0))
        mat = op_classical(a, W, k_min=1)
        diag = np.diag(mat).real
        assert np.array_equal(diag, (W.modes >= 1).astype(float))

    def test_linear_in_symbol(self):
        rng = np.random.default_rng(0)
        c1 = {k: rng.normal() for k in range(-2, 3)}
        c2 = {k: rng.normal() for k in range(-2, 3)}
        s1 = PrincipalSymbol.from_coeffs(GRID, c1, c2)
        both = PrincipalSymbol(s1.plus * 2.0, s1.minus * 2.0)
        assert np.max(np.abs(op_classical(both, W, k_min=2)
                             - 2 * op_classical(s1, W, k_min=2))) < 1e-12

    def test_multiplication_operators_compose(self):
        # x-only symbols: op(f g) = op(f) op(g) away from the window boundary
        f = PeriodicFunction.from_coeff_dict(GRID, {1: 0.7, 0: 0.2})
        g = PeriodicFunction.from_coeff_dict(GRID, {-1: 0.5, 2: 0.1})
        op = lambda s: op_classical(PrincipalSymbol(s, s), W, k_min=1, unit_fill=True)
        prod = op(f) @ op(g)
        target = op(f * g)
        inner = np.abs(W.modes) <= W.cutoff - 4
        # fill region differs (product of fills vs fill of product); compare off-cut
        offcut = np.abs(W.modes) >= 4
        sel = inner & offcut
        assert np.max(np.abs((prod - target)[np.ix_(sel, sel)])) < 1e-10


def peak_ratio(fn, nbytes: float) -> float:
    """Peak traced allocation while ``fn`` runs, in units of ``nbytes``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / nbytes
    finally:
        tracemalloc.stop()


class TestAllocationBudgets:
    """Window matrices at cutoff 256 allocate only what the caller keeps."""

    window = FrequencyWindow(256)
    nbytes = 16 * window.dim ** 2

    def test_op_classical(self):
        sym = z2_sample().symbol(grid_for_window(self.window)).coeff(0)
        assert peak_ratio(lambda: op_classical(sym, self.window), self.nbytes) <= 2.0

    @pytest.mark.parametrize("problem,budget", [(winding_problem(1), 1.2), (z2_sample(), 2.2)])
    def test_realize(self, problem, budget):
        A = problem.operator(self.window.cutoff)
        assert peak_ratio(A.realize, self.nbytes) <= budget

    def test_mode_map_right_mul(self):
        phi = z2_sample().realization(self.window.cutoff).phi(1)
        mat = np.ones((self.window.dim,) * 2, dtype=complex)
        assert peak_ratio(lambda: phi.right_mul(mat), self.nbytes) <= 1.2

    def test_index_window(self):
        # one cutoff-512 index window, band build included, within 2.8 MB
        # (it peaks at 2.71), a sixth of one dense window; counted on the
        # realized window it peaked at 41.1 MB
        p, window = winding_problem(1), FrequencyWindow(512)
        index_of_matrix(p.operator(32), FrequencyWindow(32))      # first-call allocations
        assert peak_ratio(lambda: index_of_matrix(p.operator(512), window), 1e6) <= 2.8

    def test_op_h_term(self):
        # the FFT table of a 256-point grid is half a window; the three
        # transfer tables of the gather form peaked at 3.06
        term = annulus_term(PeriodicGrid(256), XiLattice(3.0, 601))
        assert peak_ratio(lambda: op_h_term(term, 0.05, self.window), self.nbytes) <= 1.7


class TestEgorovTransport:
    def make_symbol(self):
        rng = np.random.default_rng(1)
        pl = {k: rng.normal() + 1j * rng.normal() for k in range(-2, 3)}
        mi = {k: rng.normal() + 1j * rng.normal() for k in range(-2, 3)}
        return PrincipalSymbol.from_coeffs(GRID, pl, mi)

    @pytest.mark.parametrize("kind,real,m,theta", [
        ("dihedral", "dihedral", 4, 0.0),
        ("cyclic", "rotation", 3, 0.0),
        ("integer_shift", "half_wave", 1, 0.3)])
    def test_exact_transport(self, kind, real, m, theta):
        f = fam(kind, real, m=m, theta=theta)
        R = f.at(W)
        sym = self.make_symbol()
        A = op_classical(sym, W, k_min=2)
        mask = np.abs(W.modes) <= W.cutoff // 2
        els = f.group.elements() if f.group.is_finite else [1, -1, 2]
        for g in els:
            conj = R.phi(g).conjugate(A)
            moved = sym.transport(f.canonical(f.group.inv(g)))
            target = op_classical(moved, W, k_min=2)
            assert np.max(np.abs((conj - target)[np.ix_(mask, mask)])) < 1e-10


LABELED_FAMILIES = [fam("cyclic", "rotation", m=3), fam("dihedral", "dihedral", m=3),
                    fam("cyclic", "reflection", m=2), fam("cyclic", "curved_rotation", m=3),
                    fam("integer_shift", "half_wave", theta=0.3)]


@st.composite
def labeled_operators(draw, n):
    """``n`` LabeledOperators on one family of LABELED_FAMILIES (eps = 0 for the
    curved rotation), each with random parts on a drawn support."""
    family = draw(st.sampled_from(LABELED_FAMILIES))
    els = family.group.elements() if family.group.is_finite else list(range(-2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    R = family.at(W)
    ops = []
    for _ in range(n):
        support = draw(st.lists(st.sampled_from(els), min_size=1, unique=True))
        ops.append(LabeledOperator(R, {
            g: rng.normal(size=(W.dim, W.dim)) + 1j * rng.normal(size=(W.dim, W.dim))
            for g in support}))
    return ops


class TestLabeled:
    def setup_method(self):
        self.fam = fam("cyclic", "reflection", m=2)
        self.R = self.fam.at(W)

    def rnd(self, seed):
        rng = np.random.default_rng(seed)
        return LabeledOperator(self.R, {
            g: rng.normal(size=(W.dim, W.dim)) + 1j * rng.normal(size=(W.dim, W.dim))
            for g in self.fam.group.elements()})

    def test_unit_law(self):
        B = self.rnd(0)
        unit = LabeledOperator.unit(self.R)
        assert norm_fro(unit.multiply(B) - B) < 1e-12
        assert norm_fro(B.multiply(unit) - B) < 1e-12

    def test_delta_products(self):
        A = LabeledOperator(self.R, {1: np.eye(W.dim, dtype=complex)})
        prod = A.multiply(A)
        assert prod.support == [0]
        assert np.max(np.abs(prod.parts[0] - np.eye(W.dim))) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(labeled_operators(2))
    def test_realize_homomorphism(self, ops):
        A, B = ops
        lhs = A.multiply(B).realize()
        rhs = A.realize() @ B.realize()
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.linalg.norm(rhs)

    @settings(max_examples=15, deadline=None)
    @given(labeled_operators(3))
    def test_associative(self, ops):
        A, B, C = ops
        lhs = A.multiply(B).multiply(C).realize()
        rhs = A.multiply(B.multiply(C)).realize()
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.linalg.norm(rhs)

    def test_quantize_crossed_2I_plus_R(self):
        w2 = FrequencyWindow(2)
        grid = grid_for_window(w2)
        R2 = self.fam.at(w2)
        sym = CrossedSymbol(self.fam, {0: PrincipalSymbol.constant(grid, 2.0),
                                       1: PrincipalSymbol.constant(grid, 1.0)})
        dense = quantize_crossed(R2, sym, k_min=1, unit_fill=False).realize()
        # explicit 5x5: 2 I + R off the zero-mode cut (mode 0 is cut on both parts)
        expect = np.zeros((5, 5), dtype=complex)
        for idx, k in enumerate(range(-2, 3)):
            if abs(k) >= 1:
                expect[idx, idx] += 2.0
                expect[4 - idx, idx] += 1.0
        assert np.max(np.abs(dense - expect)) < 1e-12

    def test_group_mismatch(self):
        other = fam("cyclic", "rotation", m=2).at(W)
        B = LabeledOperator.unit(other)
        with pytest.raises(GroupMismatch):
            _ = self.rnd(0).multiply(B)

    def test_power_conjugates_each_part_once(self, monkeypatch):
        # dense curved conjugations are the costly ones; values stay bit-identical
        R = RealizationFamily(build_group("cyclic", m=2), "curved_rotation", eps=0.3).at(W)
        rng = np.random.default_rng(6)
        X = LabeledOperator(R, {g: rng.normal(size=(W.dim, W.dim)) for g in (0, 1)})
        expect = X.multiply(X).multiply(X)
        calls = []
        original = Realization.conjugate
        monkeypatch.setattr(Realization, "conjugate",
                            lambda self, g, mat: calls.append(g) or original(self, g, mat))
        got = X.power(3)
        assert sorted(calls) == [0, 0, 1, 1]
        assert got.support == expect.support
        for g in expect.support:
            assert np.array_equal(got.parts[g], expect.parts[g])

    def test_realize_without_parts_is_zero(self):
        mat = LabeledOperator(self.R, {}).realize()
        assert mat.shape == (W.dim, W.dim) and not np.any(mat)

    def test_prune(self):
        # a part at rounding level is dropped only where supports can grow
        # (integer_shift); a finite group's operator comes back unchanged
        S = shift_neumann_problem().operator(32)
        S.parts[1] *= 1e-16
        assert S.prune().support == [0]
        A = self.rnd(0)
        A.parts[1] *= 1e-16
        assert A.prune() is A and A.support == [0, 1]


def trig_problem(kind, degree, seed):
    """Random trig symbols of the given degree, |c_k| <= scale / (1 + |k|)^2,
    so at most 1.73 scale in sup norm: on a curved cyclic(2) or cyclic(3)
    with eps 0.3, a dominant identity 3, 3 e^{ix} and scale 0.2 elsewhere; on
    integer_shift, 1 + op(f) Phi_1 with scale 0.25, so |f| < 1/2 on each
    sheet.  ``shift_neumann`` is ``shift_neumann_problem`` itself."""
    if kind == "shift_neumann":
        return shift_neumann_problem()
    rng = np.random.default_rng(seed)

    def trig(scale):
        return {k: scale * rng.uniform() * np.exp(2j * np.pi * rng.uniform()) / (1 + abs(k)) ** 2
                for k in range(-degree, degree + 1)}
    if kind == "shift":
        family = fam("integer_shift", "rotation")
        return GOperatorProblem(family, {0: ({0: 1.0}, {0: 1.0}), 1: (trig(0.25), trig(0.25))})
    family = RealizationFamily(build_group("cyclic", m=int(kind[-1])), "curved_rotation",
                               eps=0.3)
    return GOperatorProblem(family, {g: ({0: 3.0}, {1: 3.0}) if g == 0 else (trig(0.2), trig(0.2))
                                     for g in family.group.elements()})


def densified(X):
    """X with each transfer band replaced by its dense window: every product
    then takes the dense path."""
    return LabeledOperator(X.realization, {g: K.dense() for g, K in X.bands.items()})


def relative_fro(got, want):
    assert got.support == want.support
    diff = sum(np.linalg.norm(got.parts[g] - want.parts[g]) ** 2 for g in want.support)
    return float(np.sqrt(diff)) / norm_fro(want)


class TestBandRoutedProducts:
    """A product with a certified band on one side reads its strips
    (``TransferBand.band``); it is the dense product up to rounding."""

    def check(self, p, cutoff):
        for left, right in (("operator", "inverse_operator"), ("inverse_operator", "operator")):
            X, Y = getattr(p, left)(cutoff), getattr(p, right)(cutoff)
            want = densified(X).multiply(densified(Y))
            assert relative_fro(X.multiply(Y), want) <= 1e-13
        A = p.operator(cutoff)
        want = densified(A).realize()
        assert np.linalg.norm(A.realize() - want) <= 1e-13 * np.linalg.norm(want)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(["curved2", "curved3", "shift", "shift_neumann"]),
           st.integers(0, 2), st.integers(0, 2 ** 32 - 1), st.sampled_from([24, 32, 48]))
    @example("curved2", 2, 0, 48)
    @example("curved3", 2, 1, 32)
    @example("shift_neumann", 2, 0, 32)
    def test_match_the_dense_products(self, kind, degree, seed, cutoff):
        p = trig_problem(kind, degree, seed)
        assert all(K.band is not None for K in p.operator(cutoff).bands.values())
        self.check(p, cutoff)

    @pytest.mark.parametrize("kind", ["curved2", "curved3", "shift"])
    def test_refused_band_takes_the_dense_product(self, kind):
        # degree 2 at cutoff 16: reach 2 T + 1 = 5 exceeds dim/8 = 33/8
        p = trig_problem(kind, 2, 3)
        assert [K.band for K in p.operator(16).bands.values()].count(None) >= 1
        self.check(p, 16)


class TestOpH:
    def setup_method(self):
        self.grid = PeriodicGrid(128)
        self.lat = XiLattice(3.0, 301)

    def test_unit_like_multiplier(self):
        term = SampledTerm.from_callable(self.grid, self.lat,
                                         lambda X, XI: np.ones_like(X), "clamp")
        for h in (0.1, 0.05):
            mat = op_h_term(term, h, W)
            assert np.max(np.abs(mat - np.eye(W.dim))) < 1e-12

    def test_bump_multiplier_diagonal(self):
        chi = lambda XI: np.exp(-((XI - 1.5) / 0.3) ** 2) * (XI > 0.5) * (XI < 2.5)
        term = SampledTerm.from_callable(self.grid, self.lat,
                                         lambda X, XI: chi(XI) * np.ones_like(X))
        h = 0.1
        w = FrequencyWindow(30)
        mat = op_h_term(term, h, w)
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) < 1e-12
        assert np.max(np.abs(np.diag(mat) - chi(h * w.modes))) < 1e-8

    def test_norm_equals_sup(self):
        # a = e^{ix} chi(xi): ||op_h(a)|| = max|chi| within 1e-6
        chi = lambda XI: np.exp(-((XI - 1.5) / 0.4) ** 2) * (np.abs(XI) < 2.9)
        term = SampledTerm.from_callable(self.grid, self.lat,
                                         lambda X, XI: np.exp(1j * X) * chi(XI))
        for h in (0.1, 0.05):
            w = FrequencyWindow(int(np.ceil(3.2 / h)))
            norm = np.linalg.norm(op_h_term(term, h, w), 2)
            assert abs(norm - 1.0) < 1e-6

    @settings(max_examples=30, deadline=None)
    @given(st.integers(8, 40), st.integers(4, 200), st.floats(1.01, 2.5))
    def test_matches_transfer_table_gather(self, cutoff, M, reach):
        # oracle: the gather through the dim x dim table of transfers j - k,
        # zero past the alias guard; equal bit for bit
        term = annulus_term(PeriodicGrid(M), XiLattice(3.0, 61))
        window = FrequencyWindow(cutoff)
        h = reach * term.xi_support_radius() / cutoff      # h N_F past the support
        ks = window.modes
        coeffs = np.fft.fft(term.sample(h * ks), axis=0) / M
        T = ks[:, None] - ks[None, :]
        expect = np.take_along_axis(coeffs, T % M, axis=0)
        expect[np.abs(T) > M // 2 - 1] = 0.0
        got = op_h_term(term, h, window)
        assert got.flags.c_contiguous and got.tobytes() == expect.tobytes()

    def test_window_too_small(self):
        term = SampledTerm.from_callable(self.grid, self.lat,
                                         lambda X, XI: np.exp(-XI ** 2) * np.ones_like(X))
        with pytest.raises(WindowTooSmallForH):
            op_h_term(term, 0.01, FrequencyWindow(16))
        for h in (0.0, 1.5):
            with pytest.raises(ValueError):
                op_h_term(term, h, FrequencyWindow(16))


class TestTraceConvergence:
    def test_negative_order_traces_converge(self):
        # symbols of order <= -2 have window-stable traces (summable tails):
        # op(|k|^-2) is op(1) with column k scaled by |k|^-2 outside the cut
        grid = grid_for_window(FrequencyWindow(96))
        sym = PrincipalSymbol.constant(grid, 1.0)
        traces = []
        for nf in (24, 48, 96):
            w = FrequencyWindow(nf)
            profile = np.maximum(np.abs(w.modes), 1).astype(float) ** -2
            traces.append(complex(np.trace(op_classical(sym, w, k_min=2) * profile[None, :])))
        assert abs(traces[2] - traces[1]) < abs(traces[1] - traces[0])
        band = 2 * sum(1.0 / k ** 2 for k in range(49, 97))
        assert abs(traces[2] - traces[1]) <= band + 1e-12
