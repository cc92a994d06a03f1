import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gindexlab.circle import (FrequencyWindow, PeriodicFunction, PeriodicGrid,
                              dft, fourier_sum, grid_for_window, idft, winding_number)
from gindexlab.errors import (DivisionNearZero, GridMismatch, NearZeroValue,
                              UnresolvedWinding, WindowTooSmall)

GRID = PeriodicGrid(256)


def randf(seed, grid=GRID):
    rng = np.random.default_rng(seed)
    return PeriodicFunction(grid, rng.normal(size=grid.size) + 1j * rng.normal(size=grid.size))


class TestDFT:
    def test_constant(self):
        f = PeriodicFunction.constant(GRID, 1.0)
        c = f.coeffs
        assert abs(f.coeff(0) - 1.0) < 1e-14
        assert np.max(np.abs(c)) == pytest.approx(1.0, abs=1e-14)
        assert np.sum(np.abs(c) > 1e-13) == 1

    def test_pure_mode(self):
        f = PeriodicFunction.from_callable(GRID, lambda x: np.exp(1j * x))
        assert abs(f.coeff(1) - 1.0) < 1e-13
        assert abs(f.coeff(0)) < 1e-13
        assert abs(f.coeff(-1)) < 1e-13

    def test_round_trip_random(self):
        f = randf(0)
        back = idft(dft(f.values))
        assert np.max(np.abs(back - f.values)) <= 1e-12 * f.norm_inf()

    @pytest.mark.parametrize("size", [8, 64, 256, 1024])
    def test_round_trip_sizes(self, size):
        g = PeriodicGrid(size)
        f = randf(size, g)
        assert np.max(np.abs(idft(dft(f.values)) - f.values)) <= 1e-12 * f.norm_inf()

    def test_parseval(self):
        f = randf(3)
        grid_norm = np.sum(np.abs(f.values) ** 2) / GRID.size
        coeff_norm = np.sum(np.abs(f.coeffs) ** 2)
        assert grid_norm == pytest.approx(coeff_norm, rel=1e-12)


class TestWinding:
    def test_pure_phase(self):
        f = PeriodicFunction.from_callable(GRID, lambda x: np.exp(3j * x))
        assert winding_number(f) == 3

    def test_constant(self):
        assert winding_number(PeriodicFunction.constant(GRID, 2.0)) == 0

    def test_dominant_mode(self):
        # oracle on a fine grid: dominant term fixes the winding at 2
        g = PeriodicGrid(4096)
        f = PeriodicFunction.from_coeff_dict(g, {1: 1.0, 2: 2.0})
        assert winding_number(f) == 2

    def test_near_zero_raises(self):
        f = PeriodicFunction.from_callable(GRID, lambda x: np.exp(1j * x) - 1.0)
        with pytest.raises(NearZeroValue):
            winding_number(f)

    def test_multiplicative(self):
        f = PeriodicFunction.from_coeff_dict(GRID, {1: 1.0, 2: 2.0})
        g = PeriodicFunction.from_coeff_dict(GRID, {-1: 3.0, 0: 1.0})
        assert winding_number(f * g) == winding_number(f) + winding_number(g)

    def test_positive_multiplier_invariance(self):
        f = PeriodicFunction.from_coeff_dict(GRID, {2: 2.0, 0: 0.3})
        pos = PeriodicFunction.from_callable(GRID, lambda x: 2.0 + np.cos(x))
        assert winding_number(f * pos) == winding_number(f)


class TestPointwise:
    def test_product_of_phases(self):
        f = PeriodicFunction.from_callable(GRID, lambda x: np.exp(1j * x))
        g = PeriodicFunction.from_callable(GRID, lambda x: np.exp(-1j * x))
        assert np.max(np.abs((f * g).values - 1.0)) < 1e-14

    def test_reciprocal(self):
        f = PeriodicFunction.constant(GRID, 2.0)
        assert np.max(np.abs(f.reciprocal().values - 0.5)) < 1e-14

    def test_reciprocal_guard(self):
        f = PeriodicFunction.from_callable(GRID, lambda x: np.exp(1j * x) - 1.0)
        with pytest.raises(DivisionNearZero):
            f.reciprocal()

    def test_grid_mismatch(self):
        f = randf(1)
        g = randf(1, PeriodicGrid(128))
        with pytest.raises(GridMismatch):
            _ = f * g

    def test_compose_rotation_by_pi(self):
        f = PeriodicFunction.from_callable(GRID, lambda x: np.exp(1j * x))
        rotated = f.compose(GRID.nodes + np.pi)
        assert np.max(np.abs(rotated.values + f.values)) < 1e-10

    def test_compose_affine_matches_compose(self):
        rng = np.random.default_rng(9)
        coeffs = {k: rng.normal() + 1j * rng.normal() for k in range(-20, 21)}
        f = PeriodicFunction.from_coeff_dict(GRID, coeffs)
        via_affine = f.compose_affine(-1, 0.7)
        via_eval = f.compose(-GRID.nodes + 0.7)
        assert np.max(np.abs(via_affine.values - via_eval.values)) < 1e-9

    @pytest.mark.parametrize("M", [64, 65])
    def test_compose_affine_reflection_by_coefficients(self, M):
        # g(x) = f(shift - x) has coefficient c_{-m} e^{-i m shift} at mode m;
        # the even grid's mode -M/2 (nonzero here) has no negation and drops
        rng = np.random.default_rng(M)
        grid = PeriodicGrid(M)
        f = PeriodicFunction(grid, rng.normal(size=M) + 1j * rng.normal(size=M))
        assert abs(f.coeff(-(M // 2))) > 0.01
        got = f.compose_affine(-1, 0.7)
        want = [f.coeff(-m) * np.exp(-1j * m * 0.7) if -m < M - M // 2 else 0.0
                for m in grid.modes]
        assert np.max(np.abs(got.coeffs - want)) < 1e-12


def dense_fourier_sum(coeffs, first_mode, points):
    """Reference: the full P x M exponential table times the coefficients."""
    modes = first_mode + np.arange(len(coeffs))
    return np.exp(1j * np.outer(np.atleast_1d(points), modes)) @ coeffs


@st.composite
def fourier_cases(draw):
    """(M, first mode, columns or None for 1-D coefficients, points, seed)."""
    M = draw(st.integers(4, 160))
    first = draw(st.one_of(st.just(-(M // 2)), st.integers(-M, M)))
    columns = draw(st.sampled_from([None, 1, 3]))
    points = draw(st.lists(st.floats(-2 * np.pi, 4 * np.pi), min_size=1, max_size=12))
    return M, first, columns, points, draw(st.integers(0, 2 ** 32 - 1))


class TestFourierSum:
    @settings(max_examples=40, deadline=None)
    @given(fourier_cases())
    @example((4, -2, None, [7.0], 0))
    @example((5, -2, 3, [-1.0, 0.3, 6.5], 1))
    @example((16, -8, 1, [2.0], 2))
    @example((17, 3, None, [-4.0, 12.0], 3))
    @example((2048, -1024, None, [1.0, -3.0], 4))
    def test_matches_dense_sum(self, case):
        M, first, columns, points, seed = case
        rng = np.random.default_rng(seed)
        shape = (M,) if columns is None else (M, columns)
        c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = fourier_sum(c, first, np.asarray(points))
        want = dense_fourier_sum(c, first, points)
        assert got.shape == want.shape
        # relative to sum_k |c_k|, the bound on |f| at any point
        assert np.all(np.abs(got - want) <= 1e-12 * np.sum(np.abs(c), axis=0))

    def test_eval_at_is_trig_interpolation(self):
        f = randf(3)
        x = np.array([-1.0, 0.4, 9.0])
        want = dense_fourier_sum(f.coeffs, GRID.modes[0], x)
        assert np.max(np.abs(f.eval_at(x) - want)) <= 1e-12 * np.sum(np.abs(f.coeffs))
        assert np.max(np.abs(f.eval_at(GRID.nodes) - f.values)) <= 1e-12 * f.norm_inf()


class TestWindow:
    def test_dimension_odd(self):
        w = FrequencyWindow(8)
        assert w.dim == 17
        assert w.modes[0] == -8 and w.modes[-1] == 8

    def test_require(self):
        with pytest.raises(WindowTooSmall):
            FrequencyWindow(4).require()

    def test_grid_for_window_resolves_transfers(self):
        w = FrequencyWindow(100)
        g = grid_for_window(w)
        assert g.size >= 4 * (w.cutoff + 1)
        assert g.size & (g.size - 1) == 0  # power of two
