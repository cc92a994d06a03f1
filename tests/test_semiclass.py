import importlib.util
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gindexlab import semiclass
from gindexlab.circle import FrequencyWindow, PeriodicFunction, PeriodicGrid
from gindexlab.errors import (IllConditionedFit, NonIsometricAction,
                              ResidualNotTraceClass, TraceDivergence)
from gindexlab.groups import build_group
from gindexlab.lab import parse_config
from gindexlab.samples import annulus_term, reflection_term, winding_problem, z2_sample
from gindexlab.semiclass import (PLATEAU_TRIM_TOL, TRACE_EDGE_TOL, XI_STENCIL_REACH,
                                 SampledTerm, StarSeries, TraceSeries, XiLattice, _one_minus,
                                 algebraic_index, egorov_defect,
                                 lattice_interp, laurent_fit,
                                 symbol_parametrix_h, tau_g, trace_power_law,
                                 transport_term, zero_section_cut)
from gindexlab.symbols import CrossedSymbol, PrincipalSymbol, invert_principal
from gindexlab.transforms import RealizationFamily
from semiclass_samples import minus, realize_series, star_consistency_pairs

GRID = PeriodicGrid(256)
LAT = XiLattice(3.5, 701)
H_DIAG = np.geomspace(0.2, 0.02, 8)            # [0.2 .. 0.02]
H_ALG = np.geomspace(0.05, 0.005, 8)


def fam(kind, real, m=1, theta=1.0):
    group = build_group(kind, m=m) if kind != "integer_shift" \
        else build_group(kind, theta=theta)
    return RealizationFamily(group, real)


TRIV = fam("trivial", "trivial")
Z2 = fam("cyclic", "reflection", m=2)


class TestLattice:
    def test_interp_accuracy(self):
        vals = np.sin(1.7 * LAT.points) * np.exp(-LAT.points ** 2 / 4)
        q = np.linspace(-2.5, 2.5, 101)
        exact = np.sin(1.7 * q) * np.exp(-q ** 2 / 4)
        got = lattice_interp(LAT, vals, q, "zero")
        assert np.max(np.abs(got - exact)) < 1e-9

    def test_zero_extension(self):
        vals = np.ones(LAT.n)
        got = lattice_interp(LAT, vals, np.array([-5.0, 0.0, 5.0]), "zero")
        assert np.allclose(got, [0.0, 1.0, 0.0])

    def test_clamp_extension(self):
        vals = LAT.points.copy()
        got = lattice_interp(LAT, vals, np.array([4.0, -4.0]), "clamp")
        assert np.allclose(got, [LAT.radius, -LAT.radius], atol=1e-10)

    def test_dxi_fourth_order(self):
        term = SampledTerm.from_callable(GRID, LAT,
                                         lambda X, XI: np.exp(-XI ** 2) * np.cos(X))
        d = term.dxi()
        expect = -2 * LAT.points * np.exp(-LAT.points ** 2)
        interior = np.abs(LAT.points) <= 2.5
        err = np.max(np.abs(d.values[0, interior] / np.cos(GRID.nodes[0])
                            - expect[interior]))
        assert err < 1e-6

    @pytest.mark.parametrize("extend", ["zero", "clamp"])
    def test_dxi_matches_padded_stencil(self, extend):
        """Bitwise the same as the difference-form stencil on a copy padded by
        two columns."""
        v = random_term(np.random.default_rng(11), extend).values
        got = SampledTerm(SMALL_GRID, SMALL_LAT, v, extend).dxi()
        assert np.array_equal(got.values, padded_stencil(v, extend))
        assert got.extend == "zero"

    @pytest.mark.parametrize("extend", ["zero", "clamp"])
    def test_dxi_exactly_zero_where_constant(self, extend):
        """Columns whose five-point neighbourhood (padded as the extension says)
        holds one value get exactly 0.0, not rounding residue."""
        rng = np.random.default_rng(4)
        n = SMALL_LAT.n
        steps = np.sort(rng.choice(np.arange(8, n - 8), size=4, replace=False))
        level = np.searchsorted(steps, np.arange(n), side="right")      # 0 .. 4 per column
        rows = rng.normal(size=(SMALL_GRID.size, 5)) + 1j * rng.normal(size=(SMALL_GRID.size, 5))
        v = 1e3 * rows[:, level]
        v[:, 20] *= 1.5                              # one isolated column as well
        if extend == "zero":
            v[:, :3] = v[:, -3:] = 0.0               # the zero padding continues the ends
        p = padded(v, extend)
        flat = np.all(p[:, :-4] == p[:, 2:-2], axis=0)
        for shift in (1, 3, 4):
            flat &= np.all(p[:, shift:n + shift] == p[:, 2:-2], axis=0)
        assert 0 < np.sum(flat) < n
        got = SampledTerm(SMALL_GRID, SMALL_LAT, v, extend).dxi()
        assert np.all(got.values[:, flat] == 0.0)
        assert np.array_equal(got.values, padded_stencil(v, extend))
        if extend == "zero":             # the same term stored on its nonzero columns only
            banded = SampledTerm(SMALL_GRID, SMALL_LAT, v[:, 3:-3], extend, 3).dxi()
            assert np.array_equal(banded.values, got.values)


def padded(v, extend):
    """v with two columns more at each end: zeros, or the boundary columns."""
    fill = (np.zeros_like(v[:, :1]),) * 2 if extend == "zero" else (v[:, :1], v[:, -1:])
    return np.concatenate([fill[0], fill[0], v, fill[1], fill[1]], axis=1)


def padded_stencil(v, extend):
    """The difference-form d/dxi stencil on the padded copy of v."""
    p = padded(v, extend)
    return (8.0 * (p[..., 3:-1] - p[..., 1:-3]) - (p[..., 4:] - p[..., :-4])) \
        * (1.0 / (12.0 * SMALL_LAT.delta))


SMALL_GRID = PeriodicGrid(32)
SMALL_LAT = XiLattice(3.0, 61)
STAR_FAMILIES = {
    "reflection": Z2,
    "rotation3": fam("cyclic", "rotation", m=3),
    "dihedral3": fam("dihedral", "dihedral", m=3),
    "half_wave": fam("integer_shift", "half_wave", theta=0.3),
}


def random_term(rng, extend, band=None):
    """A trigonometric polynomial in x times a xi-profile: a bump for 'zero',
    a non-constant plateau for 'clamp'.  With ``band = (lo, hi)`` a 'zero'
    term is stored on the lattice columns lo .. hi - 1 only; a 'clamp' term
    is then a sheet symbol cut at the zero section, constant in xi on
    |xi| >= 1 and 0 near xi = 0, as ``StarSeries.from_crossed`` makes them."""
    x = SMALL_GRID.nodes[:, None]
    xs = sum((rng.normal() + 1j * rng.normal()) / (1 + abs(k)) * np.exp(1j * k * x)
             for k in range(-3, 4))
    xi = SMALL_LAT.points[None, :]
    if extend == "zero":
        prof = np.exp(-((xi - rng.uniform(-1, 1)) / rng.uniform(0.4, 0.8)) ** 2)
    elif band is None:
        prof = 1.0 + 0.5 * np.tanh(xi / rng.uniform(0.5, 1.5))
    else:
        prof = np.where(xi > 0, 1.0, rng.normal()) * zero_section_cut(SMALL_LAT, 0.5)
    values = xs * prof
    if extend == "zero" and band is not None:
        lo, hi = band
        return SampledTerm(SMALL_GRID, SMALL_LAT, values[:, lo:hi], extend, lo)
    return SampledTerm(SMALL_GRID, SMALL_LAT, values, extend)


def full_width(series: StarSeries) -> StarSeries:
    """The same series with every term stored on the whole lattice."""
    return series.copy_with({key: SampledTerm(t.grid, t.lattice, t.values, t.extend)
                             for key, t in series.terms.items()}, series.unit)


def oracle_star(a: StarSeries, b: StarSeries, N: int) -> StarSeries:
    """The pairwise recursion on full-width terms: transport b_h for each
    pair, then step d_xi and d_x once per order, per pair."""
    a, b = full_width(a), full_width(b)
    out = {}

    def add(key, term):
        out[key] = out[key] + term if key in out else term

    if a.unit != 0.0:
        for (h, j2), tb in b._sorted_terms():
            if j2 < N:
                add((h, j2), a.unit * tb)
    if b.unit != 0.0:
        for (g, j1), ta in a._sorted_terms():
            if j1 < N:
                add((g, j1), b.unit * ta)
    grp = a.group
    for (g, j1), ta in a._sorted_terms():
        for (h, j2), tb in b._sorted_terms():
            if j1 + j2 >= N:
                continue
            m = grp.mul(g, h)
            da, db = ta, transport_term(tb, a.family, grp.inv(g))
            add((m, j1 + j2), da * db)
            for kappa in range(1, N - j1 - j2):
                da, db = da.dxi(), db.dx()
                add((m, j1 + j2 + kappa), (-1j) ** kappa / math.factorial(kappa) * (da * db))
    return a.copy_with(out, a.unit * b.unit)


@st.composite
def column_bands(draw):
    """None (an unbanded term) or a column band (lo, hi) of the small lattice:
    empty, one column, touching either edge, or anywhere inside."""
    n = SMALL_LAT.n
    kind = draw(st.sampled_from(["none", "empty", "one", "left", "right", "inner"]))
    if kind == "none":
        return None
    if kind == "empty":
        lo = draw(st.integers(0, n))
        return lo, lo
    if kind == "one":
        lo = draw(st.integers(0, n - 1))
        return lo, lo + 1
    if kind == "left":
        return 0, draw(st.integers(1, n))
    if kind == "right":
        return draw(st.integers(0, n - 1)), n
    lo = draw(st.integers(1, n - 2))
    return lo, draw(st.integers(lo + 1, n - 1))


@st.composite
def star_cases(draw, name):
    """(left, right, N): the left series has a term on every element (so every
    transport of the family is used), the right one 1-3 drawn terms.  Terms
    may be stored on column bands (see ``column_bands``), which a reflecting
    element reverses."""
    family = STAR_FAMILIES[name]
    N = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    els = family.group.elements() if family.group.is_finite else [-2, -1, 0, 1, 2]
    extends = st.sampled_from(["zero", "clamp"])

    def term():
        return random_term(rng, draw(extends), draw(column_bands()))

    left = {(g, draw(st.integers(0, N - 1))): term() for g in els}
    keys = draw(st.lists(st.tuples(st.sampled_from(els), st.integers(0, N - 1)),
                         min_size=1, max_size=3, unique=True))
    right = {key: term() for key in keys}
    a, b = (StarSeries(family, SMALL_GRID, SMALL_LAT, 0.5, terms,
                       unit=draw(st.sampled_from([0.0, 1.0]))) for terms in (left, right))
    return a, b, N


class TestStarReuse:
    """``star`` takes each derivative and FFT once; the pairwise recursion is
    its oracle."""

    @pytest.mark.parametrize("name", sorted(STAR_FAMILIES))
    def test_matches_pairwise_recursion(self, name):
        @settings(max_examples=4, deadline=None)
        @given(star_cases(name))
        def check(case):
            a, b, N = case
            got, want = a.star(b, N), oracle_star(a, b, N)
            assert got.terms.keys() == want.terms.keys()
            assert got.unit == want.unit
            scale = max((t.norm_inf() for t in want.terms.values()), default=0.0)
            for key, t in want.terms.items():
                assert got.terms[key].extend == t.extend
                assert np.max(np.abs(got.terms[key].values - t.values)) <= 1e-12 * scale, key
                outside = np.ones(SMALL_LAT.n, dtype=bool)
                outside[got.terms[key].lo:got.terms[key].hi] = False
                assert np.all(t.values[:, outside] == 0.0), key

        check()

    @pytest.mark.parametrize("name", ["reflection", "dihedral3"])
    def test_inputs_unchanged(self, name):
        family = STAR_FAMILIES[name]
        rng = np.random.default_rng(3)
        e = family.group.identity
        g = family.group.elements()[-1]
        a = StarSeries(family, SMALL_GRID, SMALL_LAT, 0.5,
                       {(e, 0): random_term(rng, "clamp"), (g, 1): random_term(rng, "zero")},
                       unit=1.0)
        b = StarSeries(family, SMALL_GRID, SMALL_LAT, 0.5,
                       {(e, 0): random_term(rng, "zero"), (g, 0): random_term(rng, "clamp")},
                       unit=1.0)
        before = {(id(s), key): t.values.copy() for s in (a, b) for key, t in s.terms.items()}
        a.star(b, 4)
        a.star(a, 4)
        for s in (a, b):
            for key, t in s.terms.items():
                assert np.array_equal(t.values, before[(id(s), key)])

    def test_one_dxi_ladder_per_left_factor(self, monkeypatch):
        calls = []
        dxi = SampledTerm.dxi

        def spy(term):
            calls.append(term)
            return dxi(term)

        monkeypatch.setattr(SampledTerm, "dxi", spy)
        rng = np.random.default_rng(5)
        a = StarSeries(Z2, SMALL_GRID, SMALL_LAT, 0.5,
                       {(0, 0): random_term(rng, "zero"), (1, 1): random_term(rng, "clamp"),
                        (0, 2): random_term(rng, "zero"), (1, 4): random_term(rng, "zero")})
        b = StarSeries(Z2, SMALL_GRID, SMALL_LAT, 0.5,
                       {(0, 1): random_term(rng, "zero"), (1, 0): random_term(rng, "zero"),
                        (0, 3): random_term(rng, "zero")})
        N = 4
        a.star(b, N)
        depth = sum(max((N - 1 - j1 - j2 for (_, j2) in b.terms if j1 + j2 < N), default=0)
                    for (_, j1) in a.terms)
        assert depth == 6            # 3 + 2 + 1 + 0: one ladder per left factor
        assert len(calls) == depth


def polynomial_term(rng, extend):
    """A trigonometric polynomial of degree 2 in x times a polynomial of
    degree 2 in xi: the 4th-order d_xi stencil is exact on such a term and on
    the products of two of them (degree 4), and the x-FFT resolves the
    product of three."""
    x = SMALL_GRID.nodes[:, None]
    xs = sum((rng.normal() + 1j * rng.normal()) / (1 + abs(k)) * np.exp(1j * k * x)
             for k in range(-2, 3))
    xi = SMALL_LAT.points[None, :] / SMALL_LAT.radius
    prof = sum((rng.normal() + 1j * rng.normal()) * xi ** d for d in range(3))
    return SampledTerm(SMALL_GRID, SMALL_LAT, xs * prof, extend)


@st.composite
def polynomial_series(draw, name, N):
    """1-3 ``polynomial_term``s on drawn (element, order) keys, the first of
    order 0, and a drawn unit."""
    family = STAR_FAMILIES[name]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    els = family.group.elements() if family.group.is_finite else [-1, 0, 1]
    orders = [0] + draw(st.lists(st.integers(0, N - 1), max_size=2))
    terms = {(draw(st.sampled_from(els)), j): polynomial_term(
        rng, draw(st.sampled_from(["zero", "clamp"]))) for j in orders}
    return StarSeries(family, SMALL_GRID, SMALL_LAT, 0.5, terms,
                      unit=draw(st.sampled_from([0.0, 1.0])))


class TestStarAssociativity:
    """(a * b) * c = a * (b * c) at every order below N.  On terms where the
    d_xi stencil is exact (``polynomial_term``) the two sides differ only by
    rounding, except within the stencil's reach of the lattice edge, whose
    padding is not the polynomial, and, under the half-wave flow, of xi = 0,
    where a transported term jumps between the two sheets' shifts.  Dropping
    the 1/kappa! of the kappa-th product (``tail *= k`` in ``star``) breaks
    the law from order 2 on."""

    N = 4

    @pytest.mark.parametrize("name", sorted(STAR_FAMILIES))
    def test_associative_mod_h_n(self, name):
        N, n = self.N, SMALL_LAT.n
        margin = XI_STENCIL_REACH * (N - 1)     # the deepest d_xi chain reads this far
        far = np.zeros(n, dtype=bool)
        far[margin:n - margin] = True
        if name == "half_wave":
            far[(n - 1) // 2 - margin:(n - 1) // 2 + margin + 1] = False

        @settings(max_examples=6, deadline=None)
        @given(polynomial_series(name, N), polynomial_series(name, N),
               polynomial_series(name, N))
        def check(a, b, c):
            left, right = a.star(b, N).star(c, N), a.star(b.star(c, N), N)
            assert left.unit == right.unit
            keys = left.terms.keys() | right.terms.keys()
            assert all(j < N for _, j in keys)
            scale = max([abs(left.unit)] + [t.norm_inf() for t in left.terms.values()])
            zero = np.zeros((SMALL_GRID.size, n))
            for key in keys:
                lv = left.terms[key].values if key in left.terms else zero
                rv = right.terms[key].values if key in right.terms else zero
                assert np.max(np.abs(lv - rv)[:, far]) <= 1e-12 * scale, key

        check()


def defect_slope(A: StarSeries, B: StarSeries, N: int, reach: float) -> float:
    """Log-log slope over H_DIAG of ||op(A) op(B) - op(A * B)||_2, the product
    truncated at order N, on windows of cutoff ceil(reach / h) + 4."""
    AB = A.star(B, N)
    defects = []
    for h in H_DIAG:
        w = FrequencyWindow(int(np.ceil(reach / h)) + 4)
        lhs = realize_series(A, h, w) @ realize_series(B, h, w)
        defects.append(np.linalg.norm(lhs - realize_series(AB, h, w), 2))
    return np.polyfit(np.log(H_DIAG), np.log(defects), 1)[0]


class TestStarProduct:
    def test_unit_law(self):
        a = StarSeries(TRIV, GRID, LAT, 0.25,
                       {((), 0): annulus_term(GRID, LAT)})
        one = StarSeries.unit_series(TRIV, GRID, LAT, 0.25)
        assert minus(one.star(a, 3), a).norm_inf() < 1e-12
        assert minus(a.star(one, 3), a).norm_inf() < 1e-12

    def test_multipliers_commute(self):
        t1 = SampledTerm.from_callable(GRID, LAT,
                                       lambda X, XI: np.exp(-XI ** 2) * np.ones_like(X))
        t2 = SampledTerm.from_callable(GRID, LAT,
                                       lambda X, XI: XI ** 2 * np.exp(-XI ** 2) * np.ones_like(X))
        a = StarSeries(TRIV, GRID, LAT, 0.25, {((), 0): t1})
        b = StarSeries(TRIV, GRID, LAT, 0.25, {((), 0): t2})
        ab = a.star(b, 4)
        # pure xi-multipliers: pointwise product, no h-corrections
        assert max(j for (_, j) in ab.terms) == 0
        direct = t1.values * t2.values
        assert np.max(np.abs(ab.terms[((), 0)].values - direct)) < 1e-12

    @pytest.mark.parametrize("N", [2, 3])
    def test_composition_defect_slopes(self, N):
        pairs = star_consistency_pairs(GRID, LAT, TRIV, Z2)
        for A, B in pairs:
            # the window must reach the lattice edge, where the products'
            # Gaussian tails still exceed the support threshold
            assert defect_slope(A, B, N, LAT.radius) >= N - 0.2

    @pytest.mark.parametrize("name, left, right", [
        ("rotation3", "r", "r2"),
        ("dihedral3", "rs", "r2s"),   # fails if the transport reflects before it shifts
        ("half_wave", "1", "1"),
    ])
    def test_composition_defect_slopes_isometric(self, name, left, right):
        # criterion 9's law, ||op(A) op(B) - op(A * B)|| = O(h^N), on one pair
        # of each isometric family; the factors are even in xi, so a
        # reflection keeps their supports overlapping
        family = STAR_FAMILIES[name]
        lattice = XiLattice(3.0, 601)
        even = lambda XI, mid, width: np.exp(-((np.abs(XI) - mid) / width) ** 2)
        a = SampledTerm.from_callable(GRID, lattice,
                                      lambda X, XI: np.exp(1j * X) * even(XI, 1.2, 0.32))
        b = SampledTerm.from_callable(GRID, lattice,
                                      lambda X, XI: np.exp(-1j * X) * XI * even(XI, 1.4, 0.35) / 2)
        A = StarSeries(family, GRID, lattice, 0.25, {(family.group.parse(left), 0): a})
        B = StarSeries(family, GRID, lattice, 0.25, {(family.group.parse(right), 0): b})
        for N in (2, 3):
            assert defect_slope(A, B, N, 3.2) >= N - 0.2, (name, N)

    def test_rejects_curved(self):
        curved = RealizationFamily(build_group("cyclic", m=2), "curved_rotation", eps=0.3)
        with pytest.raises(NonIsometricAction):
            StarSeries(curved, GRID, LAT, 0.25, {})

    def test_curved_eps_zero_is_rotation(self):
        flat = RealizationFamily(build_group("cyclic", m=3), "curved_rotation", eps=0.0)
        rot = fam("cyclic", "rotation", m=3)
        term = annulus_term(GRID, LAT)
        prods = [StarSeries(f, GRID, LAT, 0.25, {(1, 0): term}).star(
                     StarSeries(f, GRID, LAT, 0.25, {(2, 0): term}), 2) for f in (flat, rot)]
        assert prods[0].terms.keys() == prods[1].terms.keys()
        for key, t in prods[1].terms.items():
            assert np.array_equal(prods[0].terms[key].values, t.values)


class TestSymbolParametrix:
    def test_unit(self):
        one = StarSeries.unit_series(TRIV, GRID, LAT, 0.5)
        r = symbol_parametrix_h(one, 3)
        res = minus(one, one.star(r, 3))
        assert res.norm_inf() < 1e-12

    def test_constant_with_cut(self):
        # a = 2 chi + unit fill: r has plateau value 1/2, corrections at the cut
        chi = zero_section_cut(LAT, 0.5)
        extra = SampledTerm(GRID, LAT,
                            np.ones((GRID.size, 1)) * chi[None, :] + 0j, "clamp")
        p = winding_problem(0)
        a = StarSeries.from_crossed(p.symbol(GRID), LAT, 0.5)
        a = a + StarSeries(TRIV, GRID, LAT, 0.5, {((), 0): extra})
        r = symbol_parametrix_h(a, 3)
        probe = r.terms[((), 0)].sample(np.array([2.5]))[:, 0] + r.unit
        assert np.max(np.abs(probe - 0.5)) < 1e-10

    def test_residual_orders(self):
        p = z2_sample()
        a = StarSeries.from_crossed(p.symbol(GRID), LAT, 0.5)
        r = symbol_parametrix_h(a, 4)
        one = StarSeries.unit_series(Z2, GRID, LAT, 0.5)
        res = minus(one, a.star(r, 4))
        assert abs(res.unit) < 1e-12
        # residual terms live in the cut annulus: lattice-edge values vanish
        for (g, j), term in res.terms.items():
            assert np.max(np.abs(term.values[:, [0, -1]])) < 1e-10


@pytest.fixture(scope="module")
def z2_factors():
    """a = ``from_crossed`` of the Z/2 sample, r0 its pointwise inverse
    embedded the same way, and r = ``symbol_parametrix_h(a, 3)``."""
    a = StarSeries.from_crossed(z2_sample().symbol(GRID), LAT, 0.5)
    r0 = StarSeries.from_crossed(invert_principal(a.leading_crossed()), LAT, 0.5)
    return a, r0, symbol_parametrix_h(a, 3)


class TestPlateauTrim:
    """``_one_minus`` forms 1 - x * y and trims the order-zero plateaus that
    cancel to rounding; ``minus(one, x.star(y, N))`` is the same series untrimmed."""

    @pytest.mark.parametrize("pair", ["a*r0", "r*a", "a*r"])
    def test_keeps_every_column_above_the_threshold(self, z2_factors, pair):
        a, r0, r = z2_factors
        x, y = {"a*r0": (a, r0), "r*a": (r, a), "a*r": (a, r)}[pair]
        got = _one_minus(x, y, 3)
        want = minus(StarSeries.unit_series(Z2, GRID, LAT, 0.5), x.star(y, 3))
        assert got.unit == want.unit and got.terms.keys() == want.terms.keys()
        trimmed = 0
        for key, t in want.terms.items():
            kept, tol = got.terms[key], PLATEAU_TRIM_TOL * t.norm_inf()
            peak = np.max(np.abs(t.values), axis=0)
            assert np.all(peak[:kept.lo] <= tol) and np.all(peak[kept.hi:] <= tol), key
            assert np.max(np.abs(kept.values - t.values)) <= tol, key
            assert kept.extend == (t.extend if kept.hi - kept.lo == LAT.n else "zero"), key
            trimmed += kept.extend != t.extend
        assert trimmed > 0           # beyond the cut every order-zero plateau is rounding

    def test_real_plateaus_keep_full_width(self, z2_factors):
        """The order-zero plateaus of a, r0 and r are data: taken through the
        trim as 1 - 1 * x, each stays a clamp term, with the untrimmed values
        on the whole lattice."""
        one = StarSeries.unit_series(Z2, GRID, LAT, 0.5)
        for x in z2_factors:
            plateaus = [key for key in x.terms if key[1] == 0]
            assert plateaus
            trimmed, untrimmed = _one_minus(one, x, 3), minus(one, one.star(x, 3))
            for key in plateaus:
                assert x.terms[key].extend == trimmed.terms[key].extend == "clamp", key
                assert np.array_equal(trimmed.terms[key].values,
                                      untrimmed.terms[key].values), key

    def test_edge_data_is_still_not_trace_class(self):
        """A residual term carrying 2 TRACE_EDGE_TOL of its series' scale on
        the edge columns keeps them through the trim, and ``tau_g`` rejects it."""
        xi = np.abs(LAT.points)
        profile = np.exp(-((xi - 1.0) / 0.3) ** 2) + 2 * TRACE_EDGE_TOL * (xi >= 2.0)
        term = SampledTerm(GRID, LAT, np.ones((GRID.size, 1)) * profile + 0j, "clamp")
        b = StarSeries(TRIV, GRID, LAT, 0.5, {((), 0): term}, unit=1.0)
        res = _one_minus(StarSeries.unit_series(TRIV, GRID, LAT, 0.5), b, 3)     # -term
        assert res.unit == 0.0 and res.norm_inf() == 1.0       # the scale tau_g reads
        assert res.terms[((), 0)].extend == "clamp"
        with pytest.raises(ResidualNotTraceClass):
            tau_g(res, ((),), H_ALG)


def clamp_widened(series: StarSeries) -> StarSeries:
    """The same series with every clamp term re-stored on the whole lattice."""
    return series.copy_with({key: SampledTerm(t.grid, t.lattice, t.values, "clamp")
                             if t.extend == "clamp" else t
                             for key, t in series.terms.items()}, series.unit)


def assert_same_series(got: StarSeries, want: StarSeries):
    """The same unit, keys, extensions and full-width values, bit for bit."""
    assert got.unit == want.unit and got.terms.keys() == want.terms.keys()
    for key, t in want.terms.items():
        assert got.terms[key].extend == t.extend, key
        assert got.terms[key].values.tobytes() == t.values.tobytes(), key


def crossed_sample(family, rng, one_sided=(), scale=0.2) -> StarSeries:
    """``from_crossed`` of an elliptic crossed symbol on the small grid: 3 plus
    trigonometric polynomials of size ``scale`` on the identity, such
    polynomials elsewhere.  The elements in ``one_sided`` have a minus sheet
    of 1 (identity) or 0, so their terms vary only at xi > 0."""
    x = SMALL_GRID.nodes
    e = family.group.identity
    coeffs = {}
    for g in family.group.elements() if family.group.is_finite else [-1, 0, 1]:
        sheets = [(3.0 if g == e else 0.0) + sum(
            scale * (rng.normal() + 1j * rng.normal()) / (1 + abs(k)) * np.exp(1j * k * x)
            for k in range(-2, 3)) for _ in range(2)]
        if g in one_sided:
            sheets[1] = np.full(x.shape, 1.0 if g == e else 0.0)
        coeffs[g] = PrincipalSymbol(*(PeriodicFunction(SMALL_GRID, v) for v in sheets))
    return StarSeries.from_crossed(CrossedSymbol(family, coeffs, SMALL_GRID), SMALL_LAT, 0.5)


@st.composite
def spanned_terms(draw):
    """A zero or clamp term with random data on a random span of SMALL_LAT;
    a clamp span holds the xi = 0 column."""
    n, zero = SMALL_LAT.n, (SMALL_LAT.n - 1) // 2
    extend = draw(st.sampled_from(["zero", "clamp"]))
    if extend == "clamp":
        lo, hi = draw(st.integers(0, zero)), draw(st.integers(zero + 1, n))
    else:
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo + 1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (SMALL_GRID.size, hi - lo)
    return SampledTerm(SMALL_GRID, SMALL_LAT, rng.normal(size=shape) + 1j * rng.normal(size=shape),
                       extend, lo)


class TestClampSpans:
    """A clamp term is stored between its two plateaus, with one plateau
    column on each side and the xi = 0 column, and continues as its edge
    columns beyond; every result equals, bit for bit, the result on its inputs
    with each clamp term re-stored on the whole lattice (``clamp_widened``).
    Dropping the edge broadcast of a clamp contribution in
    ``SampledTerm._accumulate`` breaks ``test_widened_inputs``, and dropping
    its margin past zero data breaks ``test_sum_rule``."""

    def test_widened_inputs_z2(self, z2_factors):
        a, r0, r = z2_factors
        assert all(t.hi - t.lo < LAT.n for t in a.terms.values())
        for x, y in ((a, r0), (r, a), (a, r)):
            wx, wy = clamp_widened(x), clamp_widened(y)
            assert_same_series(x.star(y, 3), wx.star(wy, 3))
            assert_same_series(_one_minus(x, y, 3), _one_minus(wx, wy, 3))
        assert_same_series(symbol_parametrix_h(a, 3), symbol_parametrix_h(clamp_widened(a), 3))

    @pytest.mark.parametrize("name", ["dihedral3", "half_wave"])
    def test_widened_inputs(self, name):
        """Clamp terms of three widths (two-sided, one-sided and full) and
        zero terms reaching a clamp term's edge column meet in one block."""
        family = STAR_FAMILIES[name]
        rng = np.random.default_rng(7)
        els = family.group.elements() if family.group.is_finite else [-1, 0, 1]
        e, g = family.group.identity, els[-1]
        a = crossed_sample(family, rng, one_sided=(g,), scale=0.05)
        b = crossed_sample(family, rng, one_sided=(e, els[1])) + StarSeries(
            family, SMALL_GRID, SMALL_LAT, 0.5,
            {(e, 0): random_term(rng, "zero", (12, 21)), (g, 1): random_term(rng, "zero"),
             (e, 1): random_term(rng, "clamp")})
        spans = {(t.lo, t.hi) for s in (a, b) for t in s.terms.values() if t.extend == "clamp"}
        assert len(spans) >= 4
        wa, wb = clamp_widened(a), clamp_widened(b)
        for x, y, wx, wy in ((a, b, wa, wb), (b, a, wb, wa)):
            assert_same_series(x.star(y, 3), wx.star(wy, 3))
            assert_same_series(_one_minus(x, y, 3), _one_minus(wx, wy, 3))
        assert_same_series(symbol_parametrix_h(a, 3), symbol_parametrix_h(wa, 3))

    def test_one_sided_term_holds_the_zero_column(self):
        """The half-wave flow shifts xi > 0 and xi < 0 by different amounts,
        so a clamp block always holds the xi = 0 column, and a term that
        varies only at xi > 0 is stored from there (the span rule without
        that column would start it at xi = eps)."""
        family = STAR_FAMILIES["half_wave"]
        rng = np.random.default_rng(8)
        a = crossed_sample(family, rng, one_sided=(0, 1))
        zero, eps_col = (SMALL_LAT.n - 1) // 2, int(np.flatnonzero(SMALL_LAT.points <= 0.5)[-1])
        for t in (a.terms[(0, 0)], a.terms[(1, 0)]):
            assert np.all(t.values[:, :eps_col + 1] == 0.0) and np.any(t.values[:, -1])
            assert t.extend == "clamp" and t.lo == zero
        b = crossed_sample(family, rng)
        assert_same_series(a.star(b, 3), clamp_widened(a).star(clamp_widened(b), 3))
        assert_same_series(b.star(a, 3), clamp_widened(b).star(clamp_widened(a), 3))
        full = b.terms[(1, 0)].values          # nonzero plateaus on both sides
        with pytest.raises(ValueError):
            SampledTerm(SMALL_GRID, SMALL_LAT, full[:, zero + 1:], "clamp", zero + 1)

    def test_narrow_edge_data_is_not_trace_class(self):
        """A clamp term stored on a narrow span, with plateaus of 2
        TRACE_EDGE_TOL of its series' scale beyond it, keeps them through the
        trim, and ``tau_g`` reads them at the lattice edges and rejects it."""
        xi = np.abs(LAT.points)
        profile = np.where(xi < 2.0, np.exp(-((xi - 1.0) / 0.3) ** 2), 2 * TRACE_EDGE_TOL)
        lo, hi = int(np.flatnonzero(xi < 2.0)[0]) - 1, int(np.flatnonzero(xi < 2.0)[-1]) + 2
        block = np.ones((GRID.size, 1)) * profile[lo:hi] + 0j
        term = SampledTerm(GRID, LAT, block, "clamp", lo)
        assert 0 < lo and hi < LAT.n
        b = StarSeries(TRIV, GRID, LAT, 0.5, {((), 0): term}, unit=1.0)
        res = _one_minus(StarSeries.unit_series(TRIV, GRID, LAT, 0.5), b, 3)     # -term
        assert res.unit == 0.0 and res.norm_inf() == 1.0
        assert res.terms[((), 0)].extend == "clamp"
        with pytest.raises(ResidualNotTraceClass):
            tau_g(res, ((),), H_ALG)

    @settings(max_examples=60, deadline=None)
    @given(spanned_terms(), spanned_terms())
    def test_sum_rule(self, x, y):
        """``SampledTerm._accumulate``'s rule, through ``+`` in either order:
        the sum's ``values`` are the full-width sum (``==`` sets signed zeros
        aside), and a clamp sum's edge columns are its plateaus, which holds
        only with one column of margin past zero data.  The summands are
        left as they were."""
        full = x.values + y.values
        for total in (x + y, y + x):
            assert total.extend == ("clamp" if "clamp" in (x.extend, y.extend) else "zero")
            assert np.array_equal(total.values, full)
            if total.extend == "clamp":
                assert np.all(full[:, :total.lo] == total.block[:, :1])
                assert np.all(full[:, total.hi:] == total.block[:, -1:])
        assert np.array_equal(x.values + y.values, full)


class TestTau:
    def test_zero(self):
        zero = StarSeries(TRIV, GRID, LAT, 0.25, {})
        ts = tau_g(zero, ((),), H_DIAG)
        assert np.max(np.abs(ts.values)) == 0.0

    def test_multiplier_riemann_sum(self):
        term = annulus_term(GRID, LAT)
        a = StarSeries(TRIV, GRID, LAT, 0.25, {((), 0): term})
        ts = tau_g(a, ((),), H_DIAG)
        mean_x = np.mean(term.values, axis=0)
        integral = np.trapezoid(mean_x, LAT.points)
        for h, v in zip(ts.h_grid, ts.values):
            assert abs(h * v - integral) < 2e-2 * abs(integral)

    def test_rotation_class_decays(self):
        famC4 = fam("cyclic", "rotation", m=4)
        a = StarSeries(famC4, GRID, LAT, 0.25, {(1, 0): annulus_term(GRID, LAT)})
        ts = tau_g(a, (1,), H_DIAG)
        small_h = np.abs(ts.values[np.asarray(H_DIAG) < 0.06])
        assert np.max(small_h) < 1e-6

    def test_supported_on_class_exactly(self):
        term = annulus_term(GRID, LAT)
        a = StarSeries(Z2, GRID, LAT, 0.25, {(0, 0): term, (1, 0): term})
        only_e = StarSeries(Z2, GRID, LAT, 0.25, {(0, 0): term})
        t_full = tau_g(a, (0,), H_DIAG)
        t_only = tau_g(only_e, (0,), H_DIAG)
        assert np.array_equal(t_full.values, t_only.values)

    def test_tracial_at_leading_order(self):
        rng = np.random.default_rng(7)
        def rnd_term():
            xs = 1 + 0.3 * np.cos(GRID.nodes[:, None] + rng.uniform(0, 2 * np.pi))
            prof = np.exp(-((np.abs(LAT.points) - rng.uniform(1.0, 1.6)) / 0.4) ** 2)
            return SampledTerm(GRID, LAT, xs * prof[None, :], "zero")
        a = StarSeries(Z2, GRID, LAT, 0.25, {(0, 0): rnd_term(), (1, 0): rnd_term()})
        b = StarSeries(Z2, GRID, LAT, 0.25, {(0, 0): rnd_term(), (1, 0): rnd_term()})
        comm = minus(a.star(b, 3), b.star(a, 3))
        ts = tau_g(comm, (0,), H_DIAG)
        fit = laurent_fit(ts, -1, 1)
        scale = max(tau_g(a.star(b, 3), (0,), H_DIAG).scale(), 1.0)
        assert abs(fit.coeff(0)) < 1e-3 * scale

    def test_unsaturated_trace_rejected(self):
        # a ring at 0.93 of the lattice radius puts its whole mode sum in the
        # outer 10% band, which must hold below 1e-4 (1 + |trace|)
        grid, lat = PeriodicGrid(64), XiLattice(3.0, 601)
        ring = SampledTerm.from_callable(grid, lat, lambda x, xi: np.exp(
            -((np.abs(xi) - 0.93 * lat.radius) / (0.01 * lat.radius)) ** 2))
        with pytest.raises(TraceDivergence, match=r"h=0.05 .* mass 2.16e\+00"):
            tau_g(StarSeries(TRIV, grid, lat, 0.25, {((), 0): ring}), ((),), H_ALG)

    def test_unit_rejected(self):
        one = StarSeries.unit_series(TRIV, GRID, LAT, 0.25)
        with pytest.raises(TraceDivergence):
            tau_g(one, ((),), H_DIAG)

    def test_clamp_edge_rejected(self):
        p = winding_problem(1)
        a = StarSeries.from_crossed(p.symbol(GRID), LAT, 0.5)
        bad = StarSeries(TRIV, GRID, LAT, 0.5, dict(a.terms))
        with pytest.raises(ResidualNotTraceClass):
            tau_g(bad, ((),), H_DIAG)


class TestLaurent:
    def test_pure_pole(self):
        h = H_DIAG
        ts = TraceSeries(h, 3.0 / h + 0j)
        fit = laurent_fit(ts, -1, 2)
        assert abs(fit.coeff(-1) - 3.0) < 1e-8
        assert abs(fit.coeff(0)) < 1e-8

    def test_affine(self):
        h = H_DIAG
        ts = TraceSeries(h, 2.0 + 5.0 * h + 0j)
        fit = laurent_fit(ts, -1, 2)
        assert abs(fit.coeff(0) - 2.0) < 1e-9
        assert abs(fit.coeff(1) - 5.0) < 1e-8

    def test_weyl_coefficient(self):
        term = annulus_term(GRID, LAT)
        a = StarSeries(TRIV, GRID, LAT, 0.25, {((), 0): term})
        ts = tau_g(a, ((),), H_DIAG)
        fit = laurent_fit(ts, -1, 2)
        oracle = np.trapezoid(np.mean(term.values, axis=0), LAT.points)
        assert abs(fit.coeff(-1) - oracle) < 1e-2 * abs(oracle)
        assert fit.residual < 1e-3

    def test_ill_conditioned(self):
        h = np.geomspace(0.2, 0.02, 12)
        ts = TraceSeries(h, 1.0 / h)
        with pytest.raises(IllConditionedFit):
            laurent_fit(ts, -4, 4, cond_bound=1e3)


class TestPowerLaws:
    def test_identity_slope(self):
        lat = XiLattice(3.5, 701)
        a = StarSeries(TRIV, GRID, lat, 0.25, {((), 0): annulus_term(GRID, lat)})
        rep = trace_power_law(a, ((),), H_DIAG)
        assert abs(rep.slope - (-1.0)) < 0.05

    def test_reflection_slope(self):
        lat = XiLattice(3.5, 701)
        a = StarSeries(Z2, GRID, lat, 0.25, {(1, 0): reflection_term(GRID, lat)})
        rep = trace_power_law(a, (1,), H_DIAG)
        assert abs(rep.slope) < 0.05
        # alpha0 = (f(0) + f(pi))/2 w(0) = 1 for this profile
        assert abs(np.abs(rep.values[-1]) - 1.0) < 1e-6

    def test_rotation_decay(self):
        lat = XiLattice(3.5, 701)
        famC4 = fam("cyclic", "rotation", m=4)
        a = StarSeries(famC4, GRID, lat, 0.25, {(1, 0): annulus_term(GRID, lat)})
        ts = tau_g(a, (1,), H_DIAG)
        at05 = np.abs(ts.values[np.argmin(np.abs(H_DIAG - 0.05))])
        assert at05 < 1e-6


class TestEgorov:
    def test_isometries_exact(self):
        from gindexlab.samples import egorov_isometry_term
        term = egorov_isometry_term(GRID)
        for family, g in ((fam("cyclic", "rotation", m=4), 1),
                          (Z2, 1),
                          (fam("dihedral", "dihedral", m=3), (1, 1)),
                          (fam("integer_shift", "half_wave", theta=0.3), 1)):
            rep = egorov_defect(family, g, term, H_DIAG)
            assert rep.max_defect < 1e-9

    @pytest.mark.parametrize("family", [
        fam("cyclic", "rotation", m=3), Z2, fam("dihedral", "dihedral", m=3),
        fam("dihedral", "dihedral", m=4),
        RealizationFamily(build_group("cyclic", m=3), "curved_rotation", eps=0.0),
        fam("integer_shift", "half_wave", theta=0.3)],
        ids=["rotation3", "reflection", "dihedral3", "dihedral4", "curved_eps0", "half_wave"])
    def test_transport_is_pullback(self, family):
        """transport_term(a, g) = a(C_g.base(s, x), sign xi) on each sheet s."""
        grid, lattice = PeriodicGrid(32), XiLattice(3.0, 61)
        fn = lambda X, XI: (np.exp(1j * X) + 0.5 * np.exp(-2j * X) + 0.2) \
            * (1.0 + 0.3 * XI) * np.exp(-(XI - 0.4) ** 2)
        term = SampledTerm.from_callable(grid, lattice, fn)
        xi = lattice.points
        els = family.group.elements() if family.group.is_finite else range(-2, 3)
        for g in els:
            C = family.canonical(g)
            sign = -1 if C.sheet_swap else 1
            got = transport_term(term, family, g).values
            for s in (1, -1):
                cols = s * xi > 0
                want = fn(C.base(s, grid.nodes)[:, None], sign * xi[None, cols])
                assert np.max(np.abs(got[:, cols] - want)) < 1e-12, (g, s)

    def test_curved_transport_matches_dense_sum(self):
        from gindexlab.samples import egorov_curved_term
        grid = PeriodicGrid(128)
        term = egorov_curved_term(grid)
        curved = RealizationFamily(build_group("cyclic", m=2), "curved_rotation", eps=0.3)
        got = transport_term(term, curved, 1).values     # a o C_1, C_1 = C_1^{-1} on Z/2
        diff = curved.diffeo(1)
        X = diff.inverse(grid.nodes)
        queries = diff.deriv(X)[:, None] * term.lattice.points[None, :]
        F = np.fft.fft(term.values, axis=0) / grid.size
        kvec = np.fft.fftfreq(grid.size, d=1.0 / grid.size)
        rows_at_X = np.exp(1j * np.outer(X, kvec)) @ F
        want = np.array([lattice_interp(term.lattice, rows_at_X[i], queries[i], term.extend)
                         for i in range(grid.size)])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.sum(np.abs(F), axis=0))

    def test_curved_first_order(self):
        from gindexlab.samples import egorov_curved_term
        term = egorov_curved_term(GRID)
        curved = RealizationFamily(build_group("cyclic", m=2), "curved_rotation", eps=0.3)
        rep = egorov_defect(curved, 1, term, H_DIAG, window_factor=2.0)
        assert 0.9 <= rep.slope <= 1.3


class TestAlgebraicIndex:
    def test_unit_is_zero(self):
        p = winding_problem(0)
        a = StarSeries.from_crossed(p.symbol(GRID), LAT, 0.5)
        res = algebraic_index(a, 4, H_ALG)[((),)]
        assert abs(res.constant_term) < 1e-8
        assert abs(res.negative_power) < 1e-8

    def test_winding_constant_term(self):
        p = winding_problem(1)
        a = StarSeries.from_crossed(p.symbol(GRID), LAT, 0.5)
        res = algebraic_index(a, 4, H_ALG)[((),)]
        assert abs(res.constant_term - 1.0) < 1e-2
        assert res.negative_power_ok

    def test_z2_classes(self):
        p = z2_sample()
        a = StarSeries.from_crossed(p.symbol(GRID), LAT, 0.5)
        results = algebraic_index(a, 4, H_ALG)
        assert abs(results[(0,)].constant_term - 1.0) < 1e-2
        assert abs(results[(1,)].constant_term) < 1e-2

    def test_almost_inverse_independence(self):
        p = winding_problem(1)
        a = StarSeries.from_crossed(p.symbol(GRID), LAT, 0.5)
        r1 = symbol_parametrix_h(a, 4)
        # different normalization: perturb r0 by an admissible h-order-1 term
        bump = SampledTerm.from_callable(
            GRID, LAT, lambda X, XI: 0.2 * np.cos(X) * np.exp(-((np.abs(XI) - 1.0) / 0.3) ** 2))
        r2 = r1 + StarSeries(TRIV, GRID, LAT, 0.5, {((), 1): bump})
        c1 = algebraic_index(a, 4, H_ALG, r=r1)[((),)].constant_term
        c2 = algebraic_index(a, 4, H_ALG, r=r2)[((),)].constant_term
        assert abs(c1 - c2) < 1e-3

    def test_order_compatibility(self):
        p = winding_problem(1)
        a = StarSeries.from_crossed(p.symbol(GRID), LAT, 0.5)
        c3 = algebraic_index(a, 3, H_ALG)[((),)].constant_term
        c4 = algebraic_index(a, 4, H_ALG)[((),)].constant_term
        assert abs(c3 - c4) < 1e-3

    @pytest.mark.parametrize("problem, classes", [(winding_problem(1), [((),)]),
                                                  (z2_sample(), [(0,), (1,)])],
                             ids=["trivial", "z2"])
    def test_one_result_per_torsion_class(self, problem, classes):
        a = StarSeries.from_crossed(problem.symbol(GRID), LAT, 0.5)
        assert list(algebraic_index(a, 3, H_ALG)) == classes

    def test_unit_zero_series_rejected(self):
        a = StarSeries.from_crossed(winding_problem(1).symbol(GRID), LAT, 0.5)
        r = symbol_parametrix_h(a, 3)
        no_unit = minus(a, StarSeries.unit_series(TRIV, GRID, LAT, 0.5))
        assert no_unit.unit == 0.0
        with pytest.raises(TraceDivergence):
            algebraic_index(no_unit, 3, H_ALG, r=r)


def pipeline_z2_inputs():
    """``a``, N and the h-grid of the ``algebraic`` step of the pipeline_z2
    seed-0 benchmark config; benchmark/workloads.py is loaded read-only."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    config = parse_config(module.WORKLOADS["pipeline_z2"](0)[0])
    num = config.numerics
    lattice = XiLattice(num["lattice_radius"], num["lattice_points"])
    a = StarSeries.from_crossed(config.problem.symbol(PeriodicGrid(num["symbol_grid"])),
                                lattice, num["eps"])
    h = num["h_grid"]
    return a, num["parametrix_order"], np.geomspace(h["hi"], h["lo"], h["n"])


class TestAlgebraicMemory:
    def test_peak_memory(self):
        # r formed inside.  With both residuals alive at once and their
        # cancelled plateaus full width, the call peaked at 47.2 MB; one
        # residual at a time with the plateaus trimmed, at 31.7 MB; with
        # clamp terms stored between their plateaus and r0 embedded only
        # where it is used, at 26.8 MB (Python 3.11, numpy 2.4)
        a, N, h_grid = pipeline_z2_inputs()
        tracemalloc.start()
        try:
            algebraic_index(a, N, h_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30e6

    def test_one_residual_alive(self, z2_factors, monkeypatch):
        """1 - r*a is traced for both classes and dead before a*r is formed."""
        a, _, r = z2_factors
        traced, at_a_r = [], []
        tau, star = semiclass.tau_g, StarSeries.star

        def tau_spy(series, cls, h_grid):
            traced.append(weakref.ref(series))
            return tau(series, cls, h_grid)

        def star_spy(x, y, N):
            if x is a and y is r:
                at_a_r.append([ref() is None for ref in traced])
            return star(x, y, N)

        monkeypatch.setattr(semiclass, "tau_g", tau_spy)
        monkeypatch.setattr(StarSeries, "star", star_spy)
        algebraic_index(a, 3, H_ALG, r=r)
        assert at_a_r == [[True, True]]
        assert len(traced) == 4

    def test_inputs_unchanged(self, z2_factors):
        """The residuals are negated in place, on the products' own blocks."""
        a, _, r = z2_factors
        before = [(s.unit, {key: (t.extend, t.lo, t.block.copy()) for key, t in s.terms.items()})
                  for s in (a, r)]
        algebraic_index(a, 3, H_ALG, r=r)
        for s, (unit, terms) in zip((a, r), before):
            assert s.unit == unit and s.terms.keys() == terms.keys()
            for key, (extend, lo, block) in terms.items():
                t = s.terms[key]
                assert (t.extend, t.lo) == (extend, lo)
                assert t.block.tobytes() == block.tobytes(), key
