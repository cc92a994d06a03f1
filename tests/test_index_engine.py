import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gindexlab import index_engine
from gindexlab.circle import FrequencyWindow, PeriodicFunction, PeriodicGrid, grid_for_window
from gindexlab.errors import NoHomomorphism
from gindexlab.groups import build_group
from gindexlab.lab import parse_config
from gindexlab.index_engine import (DEFAULT_ZERO_TOL, GAP_REQUIREMENT, PARAMETRIX_ORDER,
                                    calibrate_sign, decomposition_check,
                                    index_of_matrix, localized_index,
                                    numerical_index, parametrix, chi_vanishing_check,
                                    tr_g, winding_index_oracle)
from gindexlab.problems import GOperatorProblem
from gindexlab.quantize import PRUNE_TOL, LabeledOperator, TransferBand, quantize_crossed
from gindexlab.samples import dihedral_sample, shift_neumann_problem, winding_problem, z2_sample
from gindexlab.symbols import CrossedSymbol, PrincipalSymbol
from gindexlab.transforms import RealizationFamily

WINDOWS = (48, 64, 96)


def norm_fro(op: LabeledOperator) -> float:
    """The Frobenius norm of the coefficient blocks of a graded operator."""
    return float(np.sqrt(sum(np.linalg.norm(m) ** 2 for m in op.parts.values())))


def unit_problem():
    fam = RealizationFamily(build_group("trivial"), "trivial")
    return GOperatorProblem(fam, {(): ({0: 1.0}, {0: 1.0})}, unit_fill=True)


def curved_z2_problem(eps: float = 0.3) -> GOperatorProblem:
    """cyclic(2) realized by a conjugated rotation: A = 2 + op(1) Phi_curved."""
    fam = RealizationFamily(build_group("cyclic", m=2), "curved_rotation", eps=eps)
    coeffs = {
        0: ({0: 2.0}, {0: 2.0}),
        1: ({0: 1.0}, {0: 1.0}),
    }
    return GOperatorProblem(fam, coeffs, name=f"curved_z2_eps{eps}")


def dense_index(mat, window, zero_tol=DEFAULT_ZERO_TOL, inner_fraction=0.5):
    """The dense SVD path alone: the oracle of the banded path."""
    sides = index_engine._dense_sides(mat, window.inner_mask(inner_fraction), zero_tol)
    return index_engine._window_data(window.cutoff, zero_tol, "dense", *sides)


def same_count(got, want):
    """The integers of two counts agree and both have the required gap."""
    assert ((got.kernel_dim, got.cokernel_dim, got.index)
            == (want.kernel_dim, want.cokernel_dim, want.index))
    assert min(got.sv_gap, want.sv_gap) >= GAP_REQUIREMENT


def dense_band(mat, order):
    """The band of M, the oracle of ``_part_band``: the largest |i - j| over
    the entries of M[order][:, order] above BAND_FLOOR x max|M|."""
    mag = np.abs(mat[order][:, order])
    i, j = np.nonzero(mag > index_engine.BAND_FLOOR * mag.max())
    return int(np.max(np.abs(i - j), initial=0))


def dense_strips(mat, order, b, bs):
    """Column strips (``_strip_layout``) of the interleaved M, read from M by index."""
    rows, cols, outside = index_engine._strip_layout(len(order), b, bs)
    out = mat[order[rows], order[cols]]
    out[outside] = 0
    return out


def unitary_operator(R, g):
    """Phi_g as an operator: on element g, the transfer band of the constant
    symbol 1 with a unit fill, so its part is the identity."""
    one = PrincipalSymbol.from_coeffs(grid_for_window(R.window), {0: 1.0}, {0: 1.0})
    return LabeledOperator(R, {g: TransferBand(one, R.window, unit_fill=True)})


REALIZATIONS = {"trivial": ("trivial", {}), "reflection": ("cyclic", {"m": 2}),
                "dihedral": ("dihedral", {"m": 3})}


def elliptic_problem(real, degree, winding, k_min, seed):
    """Identity sheets 3 and 3 e^{i winding x}, plus random trig polynomials of
    the given degree on every element and sheet.  All of them together stay
    below 1/10 in sup norm: the symbol is elliptic, and the near-null vectors
    that a winding of 3 ties to the cut at k_min 8 fall below rounding before
    cutoff 32 (at 1/4 they sit near the zero threshold there, gap ~2)."""
    rng = np.random.default_rng(seed)
    kind, kw = REALIZATIONS[real]
    fam = RealizationFamily(build_group(kind, **kw), real)
    elements = fam.group.elements()
    scale = 0.1 / (len(elements) * (2 * degree + 1))

    def trig():
        return {k: scale * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
                for k in range(-degree, degree + 1)}

    coeffs = {}
    for g in elements:
        plus, minus = trig(), trig()
        if g == fam.group.identity:
            plus[0] += 3.0
            minus[winding] = minus.get(winding, 0.0) + 3.0
        coeffs[g] = (plus, minus)
    return GOperatorProblem(fam, coeffs, k_min=k_min)


@st.composite
def banded_cases(draw):
    """(realization, degree 1-4, winding -3..3, k_min 1-8, cutoff 32-128, seed)."""
    return (draw(st.sampled_from(sorted(REALIZATIONS))), draw(st.integers(1, 4)),
            draw(st.integers(-3, 3)), draw(st.integers(1, 8)), draw(st.integers(32, 128)),
            draw(st.integers(0, 2 ** 32 - 1)))


@pytest.fixture
def dense_calls(monkeypatch):
    """Dimensions of the matrices the dense SVD path counted."""
    calls = []
    dense = index_engine._dense_sides
    monkeypatch.setattr(index_engine, "_dense_sides",
                        lambda mat, *args: calls.append(len(mat)) or dense(mat, *args))
    return calls


@pytest.fixture
def engine_calls(monkeypatch):
    """Names of the counting paths and strip gathers called, in order."""
    calls = []
    for name in ("_banded_sides", "_window_strips", "_dense_sides"):
        f = getattr(index_engine, name)
        monkeypatch.setattr(index_engine, name,
                            lambda *args, _f=f, _n=name: calls.append(_n) or _f(*args))
    return calls


def winding_operator(k_min, cutoff):
    fam = RealizationFamily(build_group("trivial"), "trivial")
    return GOperatorProblem(fam, {(): ({0: 1.0}, {1: 1.0})}, k_min=k_min).operator(cutoff)


class TestNumericalIndex:
    def test_identity(self):
        rep = numerical_index(unit_problem(), WINDOWS)
        assert rep.index == 0 and rep.kernel_dim == 0 and rep.cokernel_dim == 0

    @pytest.mark.parametrize("build", [
        lambda: RealizationFamily(build_group("cyclic", m=4), "rotation"),
        lambda: RealizationFamily(build_group("cyclic", m=2), "reflection"),
        lambda: RealizationFamily(build_group("integer_shift", theta=0.4), "half_wave"),
        lambda: RealizationFamily(build_group("cyclic", m=2), "curved_rotation", eps=0.3),
    ])
    def test_unitaries_have_index_zero(self, dense_calls, build):
        fam = build()
        # mode maps are banded in the interleaved order; a curved weighted
        # shift is not a mode map, so its window is realized for the dense SVD
        solver = "banded" if fam.is_isometric else "dense"
        for cutoff in (32, 64):
            R = fam.at(FrequencyWindow(cutoff))
            data = index_of_matrix(unitary_operator(R, 1), R.window)
            assert data.index == 0
            assert data.kernel_dim == 0 and data.cokernel_dim == 0
            assert data.solver == solver
            assert dense_calls == ([R.window.dim] if solver == "dense" else [])
            dense_calls.clear()

    @pytest.mark.parametrize("w", range(-3, 4))
    def test_winding_family(self, w):
        rep = numerical_index(winding_problem(w), WINDOWS)
        s = calibrate_sign()
        assert rep.index == s * w
        assert rep.sv_gap >= 1e3
        grid = grid_for_window(FrequencyWindow(96))
        assert winding_index_oracle(winding_problem(w).symbol(grid), s) == rep.index

    def test_logarithmic_law(self):
        # index(A B) = index(A) + index(B) on products of winding operators
        pa, pb = winding_problem(2), winding_problem(-1)
        A = pa.operator(96)
        B = pb.operator(96)
        prod = A.multiply(B)
        data = index_of_matrix(prod.realize(), prod.window)
        assert data.index == 2 + (-1)

    def test_compact_perturbation_invariance(self, dense_calls):
        p = winding_problem(1)
        A = p.operator(96)
        dense = A.realize()
        # small perturbation supported on low modes is a compact surrogate
        rng = np.random.default_rng(0)
        pert = np.zeros_like(dense)
        low = np.abs(A.window.modes) <= 96 // 4
        block = 0.05 * (rng.normal(size=(low.sum(), low.sum()))
                        + 1j * rng.normal(size=(low.sum(), low.sum())))
        pert[np.ix_(low, low)] = block
        data = index_of_matrix(dense + pert, A.window)
        assert data.index == 1
        # a dense matrix takes the dense path, once
        assert data.solver == "dense" and dense_calls == [193]
        assert data == dense_index(dense + pert, A.window)


class TestBandedPath:
    """The banded path against the dense SVD it replaces, and every way back to it."""

    @settings(max_examples=30, deadline=None)
    @given(banded_cases())
    @example(("trivial", 2, 3, 1, 64, 0))
    @example(("reflection", 4, -2, 4, 96, 1))
    @example(("dihedral", 3, 1, 8, 128, 2))
    def test_matches_dense_oracle(self, case):
        real, degree, winding, k_min, cutoff, seed = case
        A = elliptic_problem(real, degree, winding, k_min, seed).operator(cutoff)
        same_count(index_of_matrix(A, A.window), dense_index(A.realize(), A.window))

    def test_null_space_beyond_the_block_cap_falls_back(self, dense_calls, engine_calls):
        # k_min 12 zeroes 23 columns: the 16-vector block is all null, and
        # 32 vectors exceed dim/8 = 24 at cutoff 96
        A = winding_operator(12, 96)
        assert index_of_matrix(A, A.window) == dense_index(A.realize(), A.window)
        assert dense_calls == [193, 193] and "_banded_sides" in engine_calls

    def test_block_grows_to_hold_the_null_space(self, monkeypatch, dense_calls):
        widths = []
        left = index_engine._Banded.left
        monkeypatch.setattr(index_engine._Banded, "left",
                            lambda self, X, *args: widths.append(X.shape[1])
                            or left(self, X, *args))
        A = winding_operator(12, 128)         # dim/8 = 32.1: one doubling fits
        got = index_of_matrix(A, A.window)
        assert got.solver == "banded" and widths == [16, 32, 16, 32]
        same_count(got, dense_index(A.realize(), A.window))
        assert dense_calls == [257]           # the oracle's own call

    def test_unequal_null_counts_fall_back(self, monkeypatch, dense_calls):
        ritz = index_engine._ritz_side
        sides = []

        def drop_one_cokernel_vector(*args):
            s, mass = ritz(*args)
            sides.append(mass.size)
            return (s, mass[1:]) if len(sides) == 2 else (s, mass)

        monkeypatch.setattr(index_engine, "_ritz_side", drop_one_cokernel_vector)
        A = winding_problem(1).operator(64)
        assert index_of_matrix(A, A.window) == dense_index(A.realize(), A.window)
        assert len(sides) == 2 and dense_calls == [129, 129]

    def test_zero_matrix_does_not_factor(self, dense_calls, engine_calls):
        # the zero band is certified at band 0, and its Gram matrix is zero
        R = RealizationFamily(build_group("trivial"), "trivial").at(FrequencyWindow(32))
        zero = PrincipalSymbol.from_coeffs(grid_for_window(R.window), {0: 0.0}, {0: 0.0})
        A = LabeledOperator(R, {(): TransferBand(zero, R.window)})
        data = index_of_matrix(A, R.window)
        assert data == dense_index(np.zeros((R.window.dim,) * 2), R.window) and data.index == 0
        assert dense_calls == [65, 65] and "_banded_sides" in engine_calls

    def test_dense_inputs_take_the_dense_svd_alone(self, engine_calls):
        # a curved Phi_g and a dense matrix are realized once, for the SVD,
        # and no strip is gathered
        curved = curved_z2_problem(eps=0.3).operator(48)
        realized = winding_problem(1).operator(48).realize()
        for mat in (curved, realized):
            assert index_of_matrix(mat, curved.window).solver == "dense"
            assert engine_calls == ["_dense_sides"]
            engine_calls.clear()


BAND_FAMILIES = {
    "reflection": lambda theta: RealizationFamily(build_group("cyclic", m=2), "reflection"),
    "dihedral": lambda theta: RealizationFamily(build_group("dihedral", m=3), "dihedral"),
    # the half-wave flow shifts the two sheets by -theta g and +theta g
    "half_wave": lambda theta: RealizationFamily(build_group("integer_shift", theta=theta),
                                                 "half_wave"),
}


def band_operator(kind, theta, n, M, k_min, unit_fill, size, degree, seed):
    """An operator whose parts are transfer bands, on ``size`` elements of a
    BAND_FAMILIES family: sheets are random trig polynomials of ``degree``
    (at most M/2 - 1), or random grid values when it is None."""
    family = BAND_FAMILIES[kind](theta)
    rng = np.random.default_rng(seed)
    els = family.group.elements() if family.group.is_finite else list(range(-2, 3))
    support = [els[i] for i in rng.permutation(len(els))[:size]]
    grid, window = PeriodicGrid(M), FrequencyWindow(n)

    def sheet():
        if degree is None:
            return PeriodicFunction(grid, rng.normal(size=M) + 1j * rng.normal(size=M))
        top = min(degree, M // 2 - 1)
        return PeriodicFunction.from_coeff_dict(
            grid, {k: complex(*rng.normal(size=2)) for k in range(-top, top + 1)})

    e = family.group.identity
    return LabeledOperator(family.at(window), {
        g: TransferBand(PrincipalSymbol(sheet(), sheet()), window, k_min, unit_fill and g == e)
        for g in support})


@st.composite
def band_operators(draw):
    """``band_operator`` over the op_classical cases: cutoff 1-40, grid
    2N+2 .. 4N+8, k_min 1 .. past the cutoff, both fills, one to three parts."""
    n = draw(st.integers(1, 40))
    return band_operator(draw(st.sampled_from(sorted(BAND_FAMILIES))), draw(st.floats(0.1, 3.0)),
                         n, draw(st.integers(2 * n + 2, 4 * n + 8)), draw(st.integers(1, n + 3)),
                         draw(st.booleans()), draw(st.integers(1, 3)),
                         draw(st.sampled_from([0, 1, 2, 3, None])), draw(st.integers(0, 2 ** 32 - 1)))


def band_pairs(A):
    return [(A.bands[g], A.realization.phi(g)) for g in A.support]


def realized_from_dense_parts(A):
    """The oracle window: each part made dense, then sum_g Phi_g.right_mul(K_g)
    in support order, the first term in place, as realize() summed dense parts."""
    out = None
    for g in A.support:
        term = A.realization.phi(g).right_mul(A.bands[g].dense())
        if out is None:
            out = term
        else:
            out += term
    return out


class TestBandParts:
    """The index path reads a window's transfer bands in place of its dense matrix."""

    @settings(max_examples=60, deadline=None)
    @given(band_operators())
    @example(band_operator("reflection", 1.0, 40, 82, 4, True, 2, 1, 0))
    @example(band_operator("dihedral", 1.0, 40, 120, 41, True, 3, 0, 1))
    @example(band_operator("half_wave", 0.7, 33, 100, 2, False, 3, 2, 2))
    def test_match_the_dense_window(self, A):
        dense = realized_from_dense_parts(A)
        assert A.realize().tobytes() == dense.tobytes()
        order = index_engine._interleaved(A.window.dim)
        parts = band_pairs(A)
        b = index_engine._part_band(parts, order)
        if b is not None:
            assert b == dense_band(dense, order)
            bs = max(2 * b, index_engine.RITZ_BLOCK)
            for M, transpose in ((dense, False), (dense.T, True)):
                got = index_engine._window_strips(parts, order, b, bs, transpose)
                assert got.tobytes() == dense_strips(M, order, b, bs).tobytes()
        got, want = index_of_matrix(A, A.window), dense_index(dense, A.window)
        if got.solver == "dense":
            assert got == want
        elif want.sv_gap >= GAP_REQUIREMENT:
            same_count(got, want)

    @pytest.mark.parametrize("build, cutoff", [
        (lambda: winding_problem(1), 512),
        (z2_sample, 64),
        (lambda: dihedral_sample(0), 96),
        (shift_neumann_problem, 48),
        (lambda: elliptic_problem("dihedral", 4, 1, 4, 0), 48),
    ])
    def test_trig_windows_are_certified(self, build, cutoff):
        A = build().operator(cutoff)
        order = index_engine._interleaved(A.window.dim)
        b = index_engine._part_band(band_pairs(A), order)
        assert b is not None and b == dense_band(A.realize(), order)

    def test_uncertified_band_takes_the_dense_window(self, monkeypatch):
        # every column lies inside the cut, so M is the unit fill, while the
        # unused sheets of size 1e3 carry rounding tails above BAND_FLOOR
        # max|M|: the window is realized once, for the dense SVD
        fam = RealizationFamily(build_group("trivial"), "trivial")
        p = GOperatorProblem(fam, {(): ({0: 1e3, 1: 1e3}, {2: 1e3})}, k_min=70, unit_fill=True)
        A = p.operator(64)
        dense = A.realize()
        assert np.array_equal(dense, np.eye(A.window.dim))
        order = index_engine._interleaved(A.window.dim)
        assert index_engine._part_band(band_pairs(A), order) is None
        realized = []
        realize = LabeledOperator.realize
        monkeypatch.setattr(LabeledOperator, "realize",
                            lambda self: realized.append(1) or realize(self))
        assert index_of_matrix(A, A.window) == index_of_matrix(dense, A.window)
        assert realized == [1]

    def test_index_reads_no_dense_window(self, monkeypatch):
        # op_classical is TransferBand.dense: neither runs for an index count
        dense = []
        for owner, name in ((LabeledOperator, "realize"), (TransferBand, "dense")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda self, _f=original, _n=name:
                                dense.append(_n) or _f(self))
        assert numerical_index(winding_problem(2), WINDOWS).index == 2 * calibrate_sign()
        assert numerical_index(z2_sample(), WINDOWS).index == 1
        assert calibrate_sign.__wrapped__() in (1, -1)
        assert dense == []


class TestOracle:
    def test_equal_windings_cancel(self):
        fam = RealizationFamily(build_group("trivial"), "trivial")
        grid = PeriodicGrid(256)
        sym = CrossedSymbol(fam, {(): PrincipalSymbol.from_coeffs(
            grid, {1: 1.0}, {1: 1.0})})
        assert winding_index_oracle(sym, calibrate_sign()) == 0


class TestParametrix:
    def test_identity(self):
        p = unit_problem()
        data = parametrix(p.operator(48), p.inverse_operator(48), N=4)
        assert norm_fro(data.left_remainder) < 1e-10
        assert norm_fro(data.right_remainder) < 1e-10

    def test_bare_transform(self):
        # Phi_{g^{-1}} is a two-sided inverse of Phi_g for the exact unitaries
        fam = RealizationFamily(build_group("cyclic", m=4), "rotation")
        R = fam.at(FrequencyWindow(48))
        A = LabeledOperator(R, {1: np.eye(R.window.dim, dtype=complex)})
        E = LabeledOperator(R, {3: np.eye(R.window.dim, dtype=complex)})
        unit = LabeledOperator.unit(R)
        assert norm_fro(unit - E.multiply(A)) < 1e-12
        assert norm_fro(unit - A.multiply(E)) < 1e-12
        # the Neumann parametrix from r = delta_{g^{-1}} (x) 1 reproduces
        # Phi_{g^{-1}} away from the zero-section cut; the remainders reduce
        # to the exact cut projector
        grid = grid_for_window(R.window)
        r = CrossedSymbol(fam, {3: PrincipalSymbol.constant(grid, 1.0)})
        data = parametrix(A, quantize_crossed(R, r, 1, False), N=3)
        cut = np.abs(R.window.modes) < 1
        off = ~cut
        assert np.max(np.abs((data.E.realize() - R.phi(3).matrix())[:, off])) < 1e-12
        R1 = data.left_remainder.realize()
        assert np.max(np.abs(R1[:, off])) < 1e-12
        assert abs(R1[R.window.cutoff, R.window.cutoff] - 1.0) < 1e-12   # mode 0

    def test_exact_z2_remainder_is_cut_block(self):
        # constant symbols + exact unitaries: remainder supported on the cut modes
        p = z2_sample()
        A = p.operator(48)
        data = parametrix(A, p.inverse_operator(48), N=4)
        R1 = data.left_remainder.realize()
        outside = np.abs(A.window.modes) >= p.k_min + 4
        assert np.max(np.abs(R1[:, outside])) < 1e-10

    def test_curved_remainder_decays_with_order(self):
        # curved realization: remainder band norms decay as N grows
        p = curved_z2_problem(eps=0.3)
        A = p.operator(96)
        E0 = p.inverse_operator(96)
        band = (np.abs(A.window.modes) >= 96 // 4) & (np.abs(A.window.modes) <= 96 // 2)
        norms = []
        for N in (2, 3, 4):
            data = parametrix(A, E0, N=N)
            R1 = data.left_remainder.realize()
            norms.append(np.linalg.norm(R1[np.ix_(band, band)], 2))
        assert norms[0] > norms[1] > norms[2]


class TestTraceProduct:
    @pytest.mark.parametrize("build", [lambda: dihedral_sample(3),
                                       lambda: curved_z2_problem(eps=0.3)])
    def test_matches_trace_of_formed_product(self, build):
        # the one-pass trace of the last product S S, through mode maps
        # (dihedral(3)) and a dense weighted shift (curved, eps = 0.3)
        p = build()
        for S in index_engine._neumann_start(p.operator(32), p.inverse_operator(32)):
            traces = index_engine._power_traces(S, 2, 0.5)
            formed = S.multiply(S)
            assert set(traces) == set(formed.support)
            for l, value in traces.items():
                assert abs(value - tr_g(formed, (l,), 0.5)) < 1e-12

    @pytest.mark.parametrize("N", [3, 4])
    @pytest.mark.parametrize("build", [z2_sample, lambda: dihedral_sample(5),
                                       lambda: curved_z2_problem(eps=0.3)])
    def test_localized_index_matches_parametrix_remainders(self, build, N):
        p = build()
        windows = (32, 48)
        for cls in p.group.conjugacy_classes():
            v = localized_index(p, cls, windows, N=N, drift_tol=math.inf)
            for cutoff, value in v.per_window:
                data = parametrix(p.operator(cutoff), p.inverse_operator(cutoff), N=N)
                expect = tr_g(data.left_remainder, cls) - tr_g(data.right_remainder, cls)
                assert abs(value - expect) < 1e-12


def random_problem(kind, m, real, seed=0, eps=0.0):
    """Dominant identity with a minus-sheet winding, small random trig elsewhere."""
    rng = np.random.default_rng(seed)
    kw = {"eps": eps} if real == "curved_rotation" else {}
    fam = RealizationFamily(build_group(kind, m=m), real, **kw)

    def trig():
        return {k: 0.2 * complex(*rng.normal(size=2)) / (1 + abs(k)) for k in range(-2, 3)}

    coeffs = {g: ({0: 3.0}, {1: 3.0}) if g == fam.group.identity else (trig(), trig())
              for g in fam.group.elements()}
    return GOperatorProblem(fam, coeffs)


def partial_support_problem():
    """cyclic(4) rotation supported on the subgroup {0, 2}."""
    fam = RealizationFamily(build_group("cyclic", m=4), "rotation")
    return GOperatorProblem(fam, {0: ({0: 2.0}, {1: 2.0}), 2: ({0: 0.5, 1: 0.3}, {0: 0.5})})


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestNeumannHeads:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 4), st.floats(0.1, 10.0),
           st.integers(0, 2 ** 32 - 1))
    def test_remainder_powers_from_one_head(self, n, k, scale, seed):
        # S1^k = 1 - H_k A and S2^k = 1 - A H_k on any square matrices, against
        # the repeated products of S1 = 1 - E A and S2 = 1 - A E
        rng = np.random.default_rng(seed)
        A = scale * random_matrix(rng, n) / n
        E = random_matrix(rng, n) / (scale * n)
        S1, S2 = np.eye(n) - E @ A, np.eye(n) - A @ E
        heads = index_engine._neumann_heads(E, S2.copy())
        for _ in range(k):
            H = next(heads)
        P1, P2 = np.linalg.matrix_power(S1, k), np.linalg.matrix_power(S2, k)
        size = (1 + np.linalg.norm(S1)) ** k + np.linalg.norm(H) * np.linalg.norm(A)
        assert np.max(np.abs(np.eye(n) - H @ A - P1)) <= 1e-12 * size
        assert np.max(np.abs(np.eye(n) - A @ H - P2)) <= 1e-12 * size


@st.composite
def banded_products(draw):
    """(an n x n matrix of band b in strips, a dense factor of every shape the
    block path uses, the rows or columns kept); b above n/8 keeps the matrix
    densely as one strip."""
    n = draw(st.integers(1, 60))
    b = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    M = np.where(np.abs(offsets) <= b, random_matrix(rng, n), 0)
    if b > n / 8:
        band = index_engine._Banded(M[None], 0)
    else:
        bs = max(2 * b, index_engine.RITZ_BLOCK)
        rows, cols, outside = index_engine._strip_layout(n, b, bs)
        strips = M[rows, cols]
        strips[outside] = 0
        band = index_engine._Banded(strips, b)
    X = random_matrix(rng, n)[:, :draw(st.integers(1, n))]
    return M, band, X, draw(st.integers(1, n))


class TestBandedProducts:
    @settings(max_examples=60, deadline=None)
    @given(banded_products())
    def test_match_matmul(self, case):
        M, band, X, k = case
        scale = 1e-13 * (1 + np.abs(M).sum()) * (1 + np.abs(X).max())
        assert np.max(np.abs(band.left(X) - M @ X)) <= scale
        assert np.max(np.abs(band.left(X, k) - (M @ X)[:k])) <= scale
        Xt = X.T.copy()
        assert np.max(np.abs(band.right(Xt) - Xt @ M)) <= scale
        assert np.max(np.abs(band.right(Xt, k) - (Xt @ M)[:, :k])) <= scale

    @pytest.mark.parametrize("build, cutoff, dense", [
        (lambda: dihedral_sample(3), 48, False),
        (partial_support_problem, 48, False),
        # degree 4 on every element: band 9 in the interleaved order, above 65/8
        (lambda: elliptic_problem("dihedral", 4, 1, 4, 0), 32, True),
        (lambda: elliptic_problem("dihedral", 4, 1, 4, 0), 48, False),
    ])
    def test_band_blocks_are_the_fourier_blocks(self, build, cutoff, dense):
        p = build()
        A = p.operator(cutoff)
        order = index_engine._interleaved(A.window.dim)
        irreps = p.group.irreps()
        bands = index_engine._irrep_blocks(A, irreps, order, True)
        blocks = fourier_blocks_of_realized_parts(A, irreps, order)
        for band, block in zip(bands, blocks):
            assert (len(band.strips) == 1 and band.reach == 0) == dense
            if not dense:   # the strips hold every entry above the floor
                height, bs = band.strips.shape[1:]
                i, j = np.nonzero(np.abs(block) > index_engine.BAND_FLOOR * np.abs(block).max())
                top = j // bs * bs - band.reach
                assert np.all((top <= i) & (i < top + height))
            eye = np.eye(len(block))
            assert np.max(np.abs(band.left(eye) - block)) <= 1e-15 * np.abs(block).max()


def fourier_blocks_of_realized_parts(X, irreps, order):
    """The oracle: each part realized as K_g Phi_g, permuted into the
    interleaved order and accumulated into every irrep block."""
    dim = X.window.dim
    out = [np.zeros((len(rep[X.group.identity]) * dim,) * 2, dtype=complex) for rep in irreps]
    for g, K in X.parts.items():
        KPhi = X.realization.phi(g).right_mul(K)[np.ix_(order, order)]
        for rep, block in zip(irreps, out):
            view = block.reshape(dim, len(rep[g]), dim, -1)
            for (a, b), c in np.ndenumerate(rep[g]):
                view[:, a, :, b] += c * KPhi
    return out


class TestFourierBlocks:
    @pytest.mark.parametrize("build", [lambda: dihedral_sample(3), partial_support_problem,
                                       z2_sample, lambda: random_problem("dihedral", 4, "dihedral")])
    def test_one_gather_per_part_is_the_realized_part(self, build):
        # dense blocks of the operator and of E0, bitwise, from the transfer
        # bands and from the dense parts alike
        p = build()
        A = p.operator(48)
        E0 = p.inverse_operator(48)
        order = index_engine._interleaved(A.window.dim)
        irreps = p.group.irreps()
        for X in (A, E0):
            from_bands = index_engine._irrep_blocks(X, irreps, order, False)
            assert X.bands is not None
            want = fourier_blocks_of_realized_parts(X, irreps, order)
            assert X.bands is None           # the oracle made the parts dense
            from_dense = index_engine._irrep_blocks(X, irreps, order, False)
            for got, dense, block in zip(from_bands, from_dense, want):
                assert got.reach == 0 and got.strips.shape == (1, *block.shape)
                assert got.strips.tobytes() == block.tobytes() == dense.strips.tobytes()


class MatmulSpy(np.ndarray):
    """An array that records the operand shapes of every matmul it enters;
    results stay spies."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul and method == "__call__":
            MatmulSpy.shapes.append(tuple(np.shape(x) for x in inputs))
        plain = [x.view(np.ndarray) if isinstance(x, MatmulSpy) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, MatmulSpy) else o
                                  for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(MatmulSpy) if isinstance(result, np.ndarray) else result


class TestBlockPath:
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    @pytest.mark.parametrize("build", [
        z2_sample,
        lambda: random_problem("cyclic", 3, "rotation"),
        lambda: random_problem("dihedral", 2, "dihedral"),
        lambda: dihedral_sample(3),
        lambda: random_problem("dihedral", 4, "dihedral"),
        lambda: random_problem("cyclic", 3, "curved_rotation", eps=0.0),
        lambda: curved_z2_problem(eps=0.0),
        partial_support_problem,
        unit_problem,
        lambda: elliptic_problem("dihedral", 4, 1, 4, 0),   # dense blocks at cutoff 32
    ])
    def test_matches_graded_oracle(self, build, N):
        p = build()
        for cutoff in (32, 48):
            graded = index_engine._graded_traces(p.operator(cutoff), p.inverse_operator(cutoff),
                                                 N, 0.5)
            block = index_engine._block_traces(p.operator(cutoff), p.inverse_operator(cutoff),
                                               N, 0.5)
            for g_side, b_side in ((graded.left, block.left), (graded.right, block.right)):
                assert set(b_side) == set(g_side)
                for l, value in g_side.items():
                    assert abs(b_side[l] - value) < 1e-12

    @pytest.mark.parametrize("build, path", [
        (lambda: curved_z2_problem(eps=0.3), "_graded_traces"),
        (shift_neumann_problem, "_graded_traces"),
        (lambda: curved_z2_problem(eps=0.0), "_block_traces"),
        (lambda: dihedral_sample(3), "_block_traces"),
    ])
    def test_path_choice(self, monkeypatch, build, path):
        taken = []
        for name in ("_block_traces", "_graded_traces"):
            original = getattr(index_engine, name)
            monkeypatch.setattr(index_engine, name,
                                lambda *args, _name=name, _fn=original:
                                taken.append(_name) or _fn(*args))
        p = build()
        localized_index(p, (p.group.identity,), (32, 48), drift_tol=math.inf)
        assert taken == [path, path]

    def test_one_dense_product_per_irrep_at_order_four(self, monkeypatch):
        # E0's blocks record every matmul they and their products enter; the
        # only n x n x n one is H_2 = E0 + E0 S2, where forming E0 A, A E0,
        # S1^2 and S2^2 would make four
        build = index_engine._irrep_blocks
        monkeypatch.setattr(index_engine, "_irrep_blocks", lambda X, irreps, order, banded: [
            B if banded else index_engine._Banded(B.strips.view(MatmulSpy), B.reach)
            for B in build(X, irreps, order, banded)])
        MatmulSpy.shapes = []
        p = dihedral_sample(3)
        A = p.operator(48)
        sizes = [len(rep[p.group.identity]) * A.window.dim for rep in p.group.irreps()]
        index_engine._block_traces(A, p.inverse_operator(48), 4, 0.5)
        cubes = [s for s in MatmulSpy.shapes if len(s) == 2 and s[0] == s[1] == s[0][:1] * 2]
        assert sorted(s[0][0] for s in cubes) == sorted(sizes)

    def test_peak_memory_at_most_the_dense_blocks(self):
        # the localized_dihedral seed-0 problem at cutoff 192: with dense
        # blocks of A and four dense products per irrep the path peaked at
        # 20.1 window matrices, operator build included; forming S1 and
        # copying S1 and S2 into components to prune them, at 18.6
        p = dihedral_sample(0)
        p.principal_inverse(grid_for_window(FrequencyWindow(192)))
        window_bytes = 16 * FrequencyWindow(192).dim ** 2
        tracemalloc.start()
        try:
            index_engine._block_traces(p.operator(192), p.inverse_operator(192), 4, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15.5 * window_bytes

    def test_one_operator_per_window(self, monkeypatch):
        # decomposition_check counts each window's index and reads its traces
        # from one build of A and one of E0, and the trace path releases the
        # parts of both: on the graded path E0's parts are dense windows
        built = {"operator": [], "inverse_operator": []}
        for name, calls in built.items():
            build = getattr(GOperatorProblem, name)
            monkeypatch.setattr(GOperatorProblem, name,
                                lambda self, cutoff, _build=build, _calls=calls:
                                _calls.append((cutoff, _build(self, cutoff))) or _calls[-1][1])
        for p in (dihedral_sample(3), curved_z2_problem(eps=0.3)):
            for calls in built.values():
                calls.clear()
            decomposition_check(p, (32, 48))
            for calls in built.values():
                assert [cutoff for cutoff, _ in calls] == [32, 48]
                assert all(not X.parts for _, X in calls)


def workload_problem(name, seed):
    """The problem of a benchmark workload's config; benchmark/workloads.py is
    loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return parse_config(module.WORKLOADS[name](seed)[0]).problem


class TestGradedPath:
    def test_operator_parts_stay_bands(self, monkeypatch):
        # the localized_curved seed-0 problem at its first window: the index
        # realizes A and the trace path multiplies by A, both through A's
        # certified bands; only E0's parts, which certify none, are made dense
        p = workload_problem("localized_curved", 0)
        held = {"operator": [], "inverse_operator": []}

        def recording(build, parts):
            def built(self, cutoff):
                X = build(self, cutoff)
                parts.extend(X.bands.values())
                return X
            return built
        for name, parts in held.items():
            monkeypatch.setattr(GOperatorProblem, name,
                                recording(getattr(GOperatorProblem, name), parts))
        densified = []
        dense = TransferBand.dense
        monkeypatch.setattr(TransferBand, "dense", lambda self: densified.append(id(self))
                            or dense(self))
        index_engine._window_traces(p, 128, 4, 0.5, DEFAULT_ZERO_TOL)
        A_parts, E0_parts = held["operator"], held["inverse_operator"]
        assert set(densified) == {id(K) for K in E0_parts}
        assert all(K.band is not None for K in A_parts)
        assert all(K.band is None for K in E0_parts)

    @pytest.mark.parametrize("build", [
        lambda: curved_z2_problem(eps=0.3),
        shift_neumann_problem,
    ])
    def test_powers_run_on_the_traced_rows(self, monkeypatch, build):
        # after E0 A and A E0, every product is a power product by S1 or S2,
        # and its left factor holds the inner rows only
        left_rows = []
        multiply = LabeledOperator.multiply
        monkeypatch.setattr(LabeledOperator, "multiply", lambda X, Y, conjugates=None:
                            left_rows.append({len(K) for K in X.parts.values()})
                            or multiply(X, Y, conjugates))
        p = build()
        N, window = 4, FrequencyWindow(48)
        index_engine._graded_traces(p.operator(window.cutoff), p.inverse_operator(window.cutoff),
                                    N, 0.5)
        inner = int(np.sum(window.inner_mask(0.5)))
        assert left_rows[:2] == [{window.dim}, {window.dim}]
        assert left_rows[2:] == [{inner}] * 2 * (N - 2)

    @pytest.mark.parametrize("cutoff", [32, 48])
    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("build", [
        lambda: curved_z2_problem(eps=0.3),
        lambda: random_problem("cyclic", 2, "curved_rotation", eps=0.3),
        lambda: random_problem("cyclic", 3, "curved_rotation", eps=0.2),
        shift_neumann_problem,
    ])
    def test_matches_traces_of_formed_powers(self, build, N, cutoff):
        # oracle: S^N formed with every row by ``power`` and traced.  A finite
        # group prunes no part, so both report the product supports.  On
        # integer_shift the oracle prunes on every row and the traced path on
        # the inner rows, so the traced path lists more classes: below 1e-15
        # at the engine's order, and below PRUNE_TOL x Tr_e at lower orders,
        # where the parts the oracle's prune drops are larger
        p = build()
        traces = index_engine._graded_traces(p.operator(cutoff), p.inverse_operator(cutoff),
                                             N, 0.5)
        S1, S2 = index_engine._neumann_start(p.operator(cutoff), p.inverse_operator(cutoff))
        for side, S in ((traces.left, S1), (traces.right, S2)):
            full = S.power(N)
            oracle = {l: tr_g(full, (l,)) for l in full.support}
            if p.group.is_finite:
                assert set(side) == set(oracle)
            else:
                assert set(oracle) <= set(side)
            for l, value in side.items():
                if l in oracle:
                    assert abs(value - oracle[l]) < 1e-12
                elif N == PARAMETRIX_ORDER:
                    assert abs(value) < 1e-15
                else:
                    assert abs(value) < PRUNE_TOL * abs(side[p.group.identity])


class TestLocalized:
    def test_identity_all_zero(self):
        p = unit_problem()
        v = localized_index(p, ((),), WINDOWS)
        assert abs(v.value) < 1e-12

    def test_trivial_group_matches_svd(self):
        for w in (-2, 1, 3):
            p = winding_problem(w)
            v = localized_index(p, ((),), WINDOWS)
            rep = numerical_index(p, WINDOWS)
            assert abs(v.value - rep.index) < 1e-2
            assert int(np.rint(v.value.real)) == rep.index

    def test_decomposition_z2(self):
        p = z2_sample()
        rep = decomposition_check(p, WINDOWS)
        assert rep.residual < 1e-2
        assert int(np.rint(rep.total.real)) == rep.fredholm_index

    def test_cancelled_part_keeps_its_class(self):
        # a finite group prunes no remainder part: with eps = 0 the r parts
        # cancel to rounding level, and <r> is still listed, with its value
        rep = decomposition_check(curved_z2_problem(eps=0.0), (32, 48))
        assert set(rep.per_class) == {"<e>", "<r>"}
        assert abs(rep.per_class["<r>"]) < 1e-12

    def test_parametrix_order_independence(self):
        p = z2_sample()
        v3 = localized_index(p, (0,), WINDOWS, N=3)
        v4 = localized_index(p, (0,), WINDOWS, N=4)
        assert abs(v3.value - v4.value) < 1e-3

    def test_imaginary_residue_small(self):
        p = z2_sample()
        rep = decomposition_check(p, WINDOWS)
        for v in rep.per_class.values():
            assert abs(v.imag) < 1e-6


def index_one_shift_problem() -> GOperatorProblem:
    """integer_shift with Fredholm index 1: plus sheet 1 and minus sheet e^{ix}
    at the identity, and different shift coefficients on the two sheets."""
    fam = RealizationFamily(build_group("integer_shift", theta=1.0), "rotation")
    coeffs = {0: ({0: 1.0}, {1: 1.0}),
              1: ({0: .15, 1: .075, -2: .045}, {0: .06, -1: .09, 2: .03})}
    return GOperatorProblem(fam, coeffs, name="shift_index_one")


@pytest.fixture(scope="module")
def shift_samples():
    """The index-0 and index-1 shift problems, shared so that each window's
    remainder traces are computed once for the whole test class."""
    return shift_neumann_problem(), index_one_shift_problem()


class TestChiVanishing:
    def test_shift_classes_vanish(self, shift_samples):
        p = shift_samples[0]
        for g0 in (1, 2):
            rep = chi_vanishing_check(p, g0, WINDOWS)
            assert rep.ok, f"ind_<{g0}> = {rep.value}"

    def test_index_one_shift_classes_vanish(self, shift_samples):
        # criterion 5's companion: the index-0 sample reads 0 on the identity
        # class too, while here the identity class carries the index
        p = shift_samples[1]
        for g0 in (1, 2):
            rep = chi_vanishing_check(p, g0, WINDOWS)
            assert rep.ok, f"ind_<{g0}> = {rep.value}"
        assert numerical_index(p, WINDOWS).index == 1
        assert abs(localized_index(p, (0,), WINDOWS).value - 1) < 1e-3

    def test_reading_the_identity_class_fails_the_companion(self, monkeypatch, shift_samples):
        # mutation: the check reads the identity class in place of <g0>; the
        # index-0 sample still passes, the index-1 companion does not
        localized = index_engine.localized_index
        monkeypatch.setattr(index_engine, "localized_index", lambda problem, cls, *args:
                            localized(problem, (problem.group.identity,), *args))
        sample, companion = shift_samples
        assert all(chi_vanishing_check(sample, g0, WINDOWS).ok for g0 in (1, 2))
        assert not any(chi_vanishing_check(companion, g0, WINDOWS).ok for g0 in (1, 2))

    def test_requires_homomorphism(self):
        p = z2_sample()
        with pytest.raises(NoHomomorphism):
            chi_vanishing_check(p, 1, WINDOWS)

    def test_unit_operator_trivially_zero(self):
        fam = RealizationFamily(build_group("integer_shift", theta=1.0), "rotation")
        p = GOperatorProblem(fam, {0: ({0: 1.0}, {0: 1.0})}, unit_fill=True)
        rep = chi_vanishing_check(p, 2, (48, 64))
        assert abs(rep.value) == 0.0


class TestGuards:
    def test_no_spectral_gap(self):
        from gindexlab.errors import NoSpectralGap
        fam = RealizationFamily(build_group("trivial"), "trivial")
        # minus sheet sweeps continuously through the zero threshold
        p = GOperatorProblem(fam, {(): ({0: 1.0},
                                        {0: 1e-6, 1: -0.5e-6, -1: -0.5e-6})})
        with pytest.raises(NoSpectralGap):
            numerical_index(p, (48, 64, 96))

    def test_disagreeing_windows_raise(self, monkeypatch):
        from gindexlab import index_engine
        from gindexlab.errors import NonStabilized
        from gindexlab.index_engine import WindowIndexData
        monkeypatch.setattr(index_engine, "_window_index",
                            lambda problem, cutoff, zero_tol, inner_fraction:
                            WindowIndexData(cutoff, cutoff // 32, cutoff // 32, 0, 1e6, 0.0, "dense"))
        with pytest.raises(NonStabilized, match="32:1, 64:2"):
            numerical_index(winding_problem(1), (32, 64))

    @pytest.mark.parametrize("windows", [(), (64,), (64, 64), (96, 64)])
    def test_sweep_needs_two_increasing_windows(self, windows):
        p = z2_sample()
        sweeps = [lambda: numerical_index(p, windows),
                  lambda: localized_index(p, (0,), windows),
                  lambda: decomposition_check(p, windows),
                  lambda: chi_vanishing_check(shift_neumann_problem(), 1, windows)]
        for sweep in sweeps:
            with pytest.raises(ValueError, match="at least two strictly increasing"):
                sweep()

    def test_small_window_rejected(self):
        from gindexlab.errors import WindowTooSmall
        with pytest.raises(WindowTooSmall):
            numerical_index(winding_problem(1), (4, 8, 16))
