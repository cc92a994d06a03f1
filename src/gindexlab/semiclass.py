"""Semiclassical star product, localized trace functionals, trace asymptotics,
and the algebraic index.

Symbols are sampled on (circle grid) x (uniform xi-lattice).  The x direction
is spectral (exact for trigonometric polynomials); the xi direction uses
4th-order centered differences and order-6 local Lagrange interpolation, with
an h-independent lattice so that star products stay h-uniform.  Quantized
transforms enter traces only through their exact mode action
(``RealizationFamily.mode_map``, the same one the window unitaries use)

    Phi e_k = p(k) e_{s k},   tr(op_h(a) Phi) = sum_k p(k) ahat((1-s)k, s h k),

so the trace functionals never need dense window matrices.  One
``algebraic_index`` call forms the residuals 1 - r*a and 1 - a*r once and
returns a result per torsion class, which the caller loops over.

Each derivative and each x-FFT is computed once where it is used: a star
product builds the d_xi ladder of each left factor once and takes one FFT per
transported right factor, whose x-derivatives are inverse FFTs of that
table rescaled in place; ``tau_g`` takes one FFT per term for the whole h-grid.
These tables live only inside the loop over their term, so no per-term
cache outlives its loop and memory stays at a few terms' worth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import FrequencyWindow, PeriodicFunction, PeriodicGrid, fourier_sum
from .errors import (GroupMismatch, IllConditionedFit, NonIsometricAction,
                     OrderOverflow, ResidualNotTraceClass, TraceDivergence)
from .groups import Element
from .quantize import op_h_term
from .symbols import CrossedSymbol, PrincipalSymbol, invert_principal
from .transforms import CanonicalTransform, RealizationFamily

XI_STENCIL_REACH = 2         # lattice points the dxi stencil reaches past each end
TRACE_EDGE_TOL = 1e-8        # lattice-edge values allowed in a traced term, relative
POWER_LAW_FLOOR = 1e-12      # |tau_g| below this has no power law
NEG_POWER_TOL = 1e-3         # h^{-1} coefficient allowed in the algebraic index
DIAG_H_GRID = {"hi": 0.2, "lo": 0.02, "n": 8}   # diagnostic h-grid, descending
MIN_LATTICE_POINTS = 17      # fewest points an (odd) XiLattice accepts
MIN_H_POINTS = 6             # fewest points a trace h-grid accepts
MIN_H_SPAN = 10.0 - 1e-9     # least max(h) / min(h) of a trace h-grid: a decade


# ---------------------------------------------------------------------------
# xi-lattice with interpolation and differentiation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class XiLattice:
    """Uniform symmetric lattice xi in [-radius, radius] with n points (n odd)."""

    radius: float
    n: int

    def __post_init__(self):
        if self.n < MIN_LATTICE_POINTS or self.n % 2 == 0:
            raise ValueError(f"lattice needs an odd number of points, >= {MIN_LATTICE_POINTS}")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(-self.radius, self.radius, self.n)

    @property
    def delta(self) -> float:
        return 2.0 * self.radius / (self.n - 1)


def _lagrange_weights(u: np.ndarray) -> np.ndarray:
    """Order-6 Lagrange basis at offsets 0..5, evaluated at u; shape (6, ...)."""
    w = np.empty((6,) + u.shape)
    for j in range(6):
        num = np.ones_like(u)
        den = 1.0
        for i in range(6):
            if i == j:
                continue
            num = num * (u - i)
            den *= (j - i)
        w[j] = num / den
    return w


def lattice_interp(lattice: XiLattice, values: np.ndarray, queries: np.ndarray,
                   extend: str, rows: np.ndarray | None = None) -> np.ndarray:
    """Interpolate ``values`` sampled on the lattice at arbitrary xi.

    values has the lattice on its last axis.  With ``rows`` (an index array
    shaped like ``queries``) ``queries[i]`` reads the row ``values[rows[i], :]``
    of a 2-D table, which is gathered entry by entry and never copied whole;
    otherwise the same queries apply to every leading slice, returning
    ``values.shape[:-1] + queries.shape``.
    """
    q = np.asarray(queries, dtype=float)
    inside = np.abs(q) <= lattice.radius + 1e-12
    if extend == "clamp":
        qq = np.clip(q, -lattice.radius, lattice.radius)
    elif extend == "zero":
        qq = np.where(inside, np.clip(q, -lattice.radius, lattice.radius), 0.0)
    else:
        raise ValueError(f"unknown extension {extend!r}")
    t = (qq + lattice.radius) / lattice.delta
    base = np.clip(np.floor(t).astype(int) - 2, 0, lattice.n - 6)
    u = t - base
    w = _lagrange_weights(u)                      # (6, *q.shape)
    if rows is None:
        out = np.zeros(values.shape[:-1] + q.shape, dtype=values.dtype)
        for j in range(6):
            out = out + values[..., base + j] * w[j]
    else:
        out = np.zeros(q.shape, dtype=values.dtype)
        for j in range(6):
            out = out + w[j] * values[rows, base + j]
    if extend == "zero":
        out = out * inside
    return out


def _xi_stencil(p: np.ndarray, out: np.ndarray, scale: float):
    """(-p[j+4] + 8 p[j+3] - 8 p[j+1] + p[j]) / scale into ``out``, summed in
    that order (``8 p[j+3] - p[j+4]`` rounds as ``-p[j+4] + 8 p[j+3]``)."""
    np.multiply(p[..., 3:-1], 8.0, out=out)
    out -= p[..., 4:]
    out -= 8.0 * p[..., 1:-3]
    out += p[..., :-4]
    out /= scale


# ---------------------------------------------------------------------------
# sampled terms
# ---------------------------------------------------------------------------

class SampledTerm:
    """One symbol a(x, xi) sampled on grid x lattice, with an extension mode.

    ``extend='zero'`` marks compact xi-support (trace class); ``'clamp'``
    continues the boundary value as a constant plateau (order-zero data).
    """

    def __init__(self, grid: PeriodicGrid, lattice: XiLattice, values: np.ndarray,
                 extend: str = "zero"):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.size, lattice.n):
            raise ValueError(f"expected shape {(grid.size, lattice.n)}, got {values.shape}")
        if extend not in ("zero", "clamp"):
            raise ValueError(f"unknown extension {extend!r}")
        self.grid = grid
        self.lattice = lattice
        self.values = values
        self.extend = extend

    @classmethod
    def from_callable(cls, grid: PeriodicGrid, lattice: XiLattice, fn,
                      extend: str = "zero") -> "SampledTerm":
        X, XI = np.meshgrid(grid.nodes, lattice.points, indexing="ij")
        return cls(grid, lattice, np.asarray(fn(X, XI), dtype=complex), extend)

    def _like(self, values: np.ndarray, extend: str | None = None) -> "SampledTerm":
        return SampledTerm(self.grid, self.lattice, values,
                           self.extend if extend is None else extend)

    def _check(self, other: "SampledTerm"):
        if self.grid.size != other.grid.size or self.lattice != other.lattice:
            raise GroupMismatch("sampled terms on different grids/lattices")

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "SampledTerm") -> "SampledTerm":
        self._check(other)
        extend = "clamp" if "clamp" in (self.extend, other.extend) else "zero"
        return self._like(self.values + other.values, extend)

    def __mul__(self, other):
        if isinstance(other, SampledTerm):
            self._check(other)
            extend = "clamp" if (self.extend == "clamp" and other.extend == "clamp") else "zero"
            return self._like(self.values * other.values, extend)
        return self._like(self.values * other)

    __rmul__ = __mul__

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def xi_support_radius(self) -> float | None:
        """Support radius for zero-extended terms; None (unbounded) for clamp."""
        if self.extend == "clamp":
            return None
        mask = np.max(np.abs(self.values), axis=0) > 1e-15
        if not np.any(mask):
            return 0.0
        return float(np.max(np.abs(self.lattice.points[mask])))

    # -- calculus ----------------------------------------------------------------

    def dx(self) -> "SampledTerm":
        """Spectral d/dx."""
        M = self.grid.size
        k = np.fft.fftfreq(M, d=1.0 / M)
        F = np.fft.fft(self.values, axis=0)
        return self._like(np.fft.ifft((1j * k)[:, None] * F, axis=0))

    def dxi(self) -> "SampledTerm":
        """4th-order centered d/dxi (extension-aware padding).

        The stencil writes into one output.  Only the XI_STENCIL_REACH columns
        at each end read past the lattice; they are computed from small edge
        blocks padded with zeros (``zero``) or the boundary value (``clamp``).
        """
        v, r = self.values, XI_STENCIL_REACH
        scale = 12.0 * self.lattice.delta
        d = np.empty_like(v)
        _xi_stencil(v, d[:, r:-r], scale)
        mode = "constant" if self.extend == "zero" else "edge"
        _xi_stencil(np.pad(v[:, :2 * r], ((0, 0), (r, 0)), mode=mode), d[:, :r], scale)
        _xi_stencil(np.pad(v[:, -2 * r:], ((0, 0), (0, r)), mode=mode), d[:, -r:], scale)
        return self._like(d, "zero" if self.extend == "clamp" else self.extend)

    def sample(self, xi: np.ndarray) -> np.ndarray:
        """Values a(x_nodes, xi) for arbitrary xi, shape (M, len(xi))."""
        return lattice_interp(self.lattice, self.values, np.asarray(xi, dtype=float),
                              self.extend)

    def coeff_rows(self, F: np.ndarray, ms: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Fourier coefficients ahat(ms[i], xi[i]) at arbitrary xi, read from
        ``F = np.fft.fft(self.values, axis=0)``, which the caller takes once
        per term; the 1/M scale applies to the gathered values only.

        Transfers past the grid's resolvable band are zero, not aliased.
        """
        M = self.grid.size
        out = lattice_interp(self.lattice, F, np.asarray(xi, dtype=float), self.extend,
                             rows=np.mod(ms, M)) / M
        return out * (np.abs(ms) <= M // 2 - 1)


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def zero_section_cut(lattice: XiLattice, eps: float) -> np.ndarray:
    """chi(xi): 0 on |xi| <= eps, 1 on |xi| >= 2 eps, smooth in between."""
    if not (0 < eps and 2 * eps < lattice.radius):
        raise ValueError(f"need 0 < 2 eps < lattice radius, got eps={eps}")
    return smooth_step((np.abs(lattice.points) - eps) / eps)


# ---------------------------------------------------------------------------
# transport of sampled symbols by the group actions
# ---------------------------------------------------------------------------

def transport_term(term: SampledTerm, family: RealizationFamily, g: Element) -> SampledTerm:
    """term o C_g, sampled on the lattice.

    Exact for the isometric actions: on sheet s, C_g(x, xi) =
    (sign x + shift_s, sign xi), so the term is shifted by each sheet's shift
    and then reflected when sign = -1 (the xi = 0 column is shifted only when
    both sheets share the shift).  For a curved diffeomorphism,
    C_g(x, xi) = (alpha_g(x), xi / alpha_g'(x)) is read through
    alpha_{g^{-1}} = alpha_g^{-1}: the x slice is evaluated spectrally, the xi
    slice by lattice interpolation.
    """
    C = family.canonical(g)
    if C.sheets is None:
        diff = family.diffeo(family.group.inv(g))
        X = diff.inverse(term.grid.nodes)
        scale = diff.deriv(X)
        M = term.grid.size
        F = np.fft.fftshift(np.fft.fft(term.values, axis=0), axes=0) / M   # modes ascending
        rows_at_X = fourier_sum(F, -(M // 2), X)        # a(X_i, xi_lattice)
        queries = scale[:, None] * term.lattice.points[None, :]
        out = lattice_interp(term.lattice, rows_at_X, queries, term.extend,
                             rows=np.broadcast_to(np.arange(M)[:, None], queries.shape))
        return SampledTerm(term.grid, term.lattice, out, term.extend)
    return term._like(_isometric_transport(term, C, None))


def _reflect(values: np.ndarray) -> np.ndarray:
    """(x, xi) -> (-x, -xi); exact on the symmetric lattice.  x_j -> -x_j is
    index M-j mod M, and so is the mode k -> -k of an x-FFT table."""
    return np.roll(values[::-1, ::-1], 1, axis=0)


def _isometric_transport(term: SampledTerm, C: CanonicalTransform,
                         F: np.ndarray | None) -> np.ndarray:
    """Values of term o C for an isometric C (see ``transport_term``); with a
    table ``F`` the x-FFT of the result is written into it too.

    A shift is a phase on the x-FFT table and the reflection the same index
    reversal on either table, so this takes one forward FFT (none when C
    shifts nothing and no table is asked for) and one inverse FFT when C
    shifts.
    """
    (sign, up), (_, down) = C.sheets
    if up == down == 0.0:
        values = _reflect(term.values) if sign == -1 else term.values
        if F is not None:
            np.fft.fft(values, axis=0, out=F)
        return values
    G = np.fft.fft(term.values, axis=0, out=F)
    k = np.fft.fftfreq(term.grid.size, d=1.0 / term.grid.size)
    if up == down:
        np.multiply(np.exp(1j * k * up)[:, None], G, out=G)
        values = np.fft.ifft(G, axis=0)
    else:           # the half-wave flow, -t and t on the two sheets
        xi = sign * term.lattice.points     # the fiber coordinate after the reflection
        for shift, cols in ((up, xi > 0), (down, xi < 0)):
            G[:, cols] = np.exp(1j * k * shift)[:, None] * G[:, cols]
        values = np.fft.ifft(G, axis=0)
        values[:, xi == 0] = term.values[:, xi == 0]
    if sign == -1:
        values = _reflect(values)
        if F is not None:
            F[...] = _reflect(F)
    return values


# ---------------------------------------------------------------------------
# star series
# ---------------------------------------------------------------------------

class StarSeries:
    """Element  unit + sum_{g,j} h^j a_{g,j}(x, xi) Phi_g  of the h-graded
    crossed symbol algebra over an isometric realization."""

    def __init__(self, family: RealizationFamily, grid: PeriodicGrid,
                 lattice: XiLattice, eps: float,
                 terms: dict[tuple[Element, int], SampledTerm] | None = None,
                 unit: complex = 0.0):
        if not family.is_isometric:
            raise NonIsometricAction("star calculus is restricted to isometric actions")
        self.family = family
        self.group = family.group
        self.grid = grid
        self.lattice = lattice
        self.eps = eps
        self.unit = complex(unit)
        self.terms = {}
        for key, t in (terms or {}).items():
            if t.norm_inf() > 0.0:
                self.terms[key] = t

    # -- constructors ---------------------------------------------------------

    @classmethod
    def unit_series(cls, family, grid, lattice, eps) -> "StarSeries":
        return cls(family, grid, lattice, eps, {}, unit=1.0)

    @classmethod
    def from_crossed(cls, symbol: CrossedSymbol, lattice: XiLattice, eps: float) -> "StarSeries":
        """Embed order-zero principal data:  1 + chi(xi) (sigma - 1)."""
        family, grid = symbol.family, symbol.grid
        chi = zero_section_cut(lattice, eps)
        pos = lattice.points > 0
        neg = lattice.points < 0
        terms = {}
        e = family.group.identity
        for g in symbol.support:
            sym = symbol.coeff(g)
            vals = np.zeros((grid.size, lattice.n), dtype=complex)
            vals[:, pos] = sym.plus.values[:, None]
            vals[:, neg] = sym.minus.values[:, None]
            if g == e:
                vals = vals - 1.0
            terms[(g, 0)] = SampledTerm(grid, lattice, vals * chi[None, :], "clamp")
        return cls(family, grid, lattice, eps, terms, unit=1.0)

    def leading_crossed(self) -> CrossedSymbol:
        """Extract the order-zero principal symbol from the plateau."""
        probe = min(3.0 * self.eps, 0.5 * (2.0 * self.eps + self.lattice.radius))
        coeffs: dict[Element, PrincipalSymbol] = {}
        for (g, j), term in self._sorted_terms():
            if j != 0:
                continue
            vplus = term.sample(np.array([probe]))[:, 0]
            vminus = term.sample(np.array([-probe]))[:, 0]
            base = PrincipalSymbol(PeriodicFunction(self.grid, vplus),
                                   PeriodicFunction(self.grid, vminus))
            coeffs[g] = coeffs[g] + base if g in coeffs else base
        e = self.group.identity
        if self.unit != 0.0:
            u = PrincipalSymbol.constant(self.grid, self.unit)
            coeffs[e] = coeffs[e] + u if e in coeffs else u
        return CrossedSymbol(self.family, coeffs, self.grid)

    # -- bookkeeping -----------------------------------------------------------

    def _check(self, other: "StarSeries"):
        if self.family.signature() != other.family.signature():
            raise GroupMismatch("series over different group actions")
        if (self.grid.size, self.lattice, self.eps) != (other.grid.size, other.lattice, other.eps):
            raise GroupMismatch("series on different grids/lattices")

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (repr(kv[0][0]), kv[0][1]))

    def copy_with(self, terms, unit) -> "StarSeries":
        return StarSeries(self.family, self.grid, self.lattice, self.eps, terms, unit)

    def __add__(self, other: "StarSeries") -> "StarSeries":
        self._check(other)
        terms = dict(self.terms)
        for key, t in other.terms.items():
            terms[key] = terms[key] + t if key in terms else t
        return self.copy_with(terms, self.unit + other.unit)

    def __sub__(self, other: "StarSeries") -> "StarSeries":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "StarSeries":
        return self.copy_with({k: scalar * t for k, t in self.terms.items()},
                              scalar * self.unit)

    def norm_inf(self) -> float:
        return abs(self.unit) + sum(t.norm_inf() for t in self.terms.values())

    # -- the star product ---------------------------------------------------------

    def star(self, other: "StarSeries", N: int) -> "StarSeries":
        """Composition truncated at h-order < N:

        per group pair, sum_kappa ((-i h)^kappa / kappa!) d_xi^kappa a_g .
        d_x^kappa (b_h o C_{g^{-1}}), group-twisted per the Egorov law.

        Each derivative and each FFT is taken once.  The d_xi ladder of a left
        factor a_g is built lazily, as deep as its pairs need, and dropped
        when the loop moves to the next factor.  Each right factor is
        transported with one x-FFT (a shift is a phase on that table), and
        its kappa-th term (-i)^kappa / kappa! d_x^kappa is one inverse FFT of
        k^kappa / kappa! times the table.  Products accumulate in place into
        one buffer per output key, which the product owns, in the order of
        the pairwise recursion (left factor, right factor, kappa).  No
        per-term table outlives its loop.
        """
        self._check(other)
        if N < 1:
            raise OrderOverflow("truncation order must be >= 1")
        grp = self.group
        out: dict[tuple[Element, int], np.ndarray] = {}
        clamp = set()                  # keys with a clamp-extended contribution

        def add(key, values, extend):
            if key in out:
                out[key] += values
            else:
                out[key] = values.copy()
            if extend == "clamp":
                clamp.add(key)

        # unit cross terms
        if self.unit != 0.0:
            for (h, j2), tb in other._sorted_terms():
                if j2 < N:
                    add((h, j2), tb.values * self.unit, tb.extend)
        if other.unit != 0.0:
            for (g, j1), ta in self._sorted_terms():
                if j1 < N:
                    add((g, j1), ta.values * other.unit, ta.extend)

        k = np.fft.fftfreq(self.grid.size, d=1.0 / self.grid.size)[:, None]
        F = np.empty((self.grid.size, self.lattice.n), dtype=complex)
        prod = np.empty_like(F)        # an x-derivative of the right factor, then the product
        rights = other._sorted_terms()
        for (g, j1), ta in self._sorted_terms():
            ladder = [ta]              # d_xi^kappa a_g, kappa = 0, 1, ...
            C = self.family.canonical(grp.inv(g))
            for (h, j2), tb in rights:
                if j1 + j2 >= N:
                    continue
                m, j = grp.mul(g, h), j1 + j2
                twisted = _isometric_transport(tb, C, F if j + 1 < N else None)
                extend = "clamp" if ta.extend == tb.extend == "clamp" else "zero"
                add((m, j), np.multiply(ta.values, twisted, out=prod), extend)
                for kappa in range(1, N - j):
                    if kappa == len(ladder):
                        ladder.append(ladder[-1].dxi())
                    F *= k / kappa     # now the table of (-i)^kappa / kappa! d_x^kappa b
                    np.fft.ifft(F, axis=0, out=prod)
                    prod *= ladder[kappa].values
                    add((m, j + kappa), prod, "zero")
        return self.copy_with({key: SampledTerm(self.grid, self.lattice, vals,
                                                "clamp" if key in clamp else "zero")
                               for key, vals in out.items()}, self.unit * other.unit)


# ---------------------------------------------------------------------------
# symbol-level parametrix
# ---------------------------------------------------------------------------

def symbol_parametrix_h(a: StarSeries, N: int) -> StarSeries:
    """Almost inverse r = r0 * (1 + w + ... + w^N), w = 1 - a * r0,
    with r0 the pointwise inverse of the leading crossed symbol embedded with
    the same zero-section cut as ``a``."""
    r0 = StarSeries.from_crossed(invert_principal(a.leading_crossed()), a.lattice, a.eps)
    one = StarSeries.unit_series(a.family, a.grid, a.lattice, a.eps)
    w = one - a.star(r0, N)
    acc = one
    for _ in range(N):
        acc = one + w.star(acc, N)
    return r0.star(acc, N)


# ---------------------------------------------------------------------------
# localized trace functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSeries:
    """Trace values over a decreasing h-grid."""

    h_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h_grid, dtype=float)
        if len(h) < MIN_H_POINTS or np.max(h) / np.min(h) < MIN_H_SPAN:
            raise ValueError("h_grid needs >= 6 points spanning a decade")

    def __sub__(self, other: "TraceSeries") -> "TraceSeries":
        return TraceSeries(self.h_grid, self.values - other.values)

    def scale(self) -> float:
        return float(np.max(np.abs(self.values)))


def _traceable_terms(series: StarSeries):
    """Validate trace-class surrogates: no unit, negligible lattice-edge values."""
    if abs(series.unit) > 1e-14:
        raise TraceDivergence(f"series has unit component {series.unit!r}")
    scale = max(series.norm_inf(), 1.0)
    for (g, j), term in series._sorted_terms():
        edge = max(float(np.max(np.abs(term.values[:, 0]))),
                   float(np.max(np.abs(term.values[:, -1]))))
        if edge > TRACE_EDGE_TOL * scale:
            raise ResidualNotTraceClass(
                f"term (g={series.group.label(g)}, j={j}) carries lattice-edge "
                f"values {edge:.2e}; not trace-class on the window")
    return series._sorted_terms()


def _term_trace(term: SampledTerm, F: np.ndarray, family: RealizationFamily, l: Element,
                h: float, k_max: int) -> np.ndarray:
    """Per-mode contributions to tr(op_h(term) Phi_l) = sum_k p(k) ahat((1-s)k, s h k),
    with ``F`` the term's x-FFT."""
    ks = np.arange(-k_max, k_max + 1)
    s, p = family.mode_map(l, ks)
    return p * term.coeff_rows(F, (1 - s) * ks, s * h * ks)


def tau_g(series: StarSeries, cls: tuple[Element, ...], h_grid: np.ndarray) -> TraceSeries:
    """Localized trace functional sum_{l in <g>} tr(op_h(a_l) Phi_l) per h.

    The mode sum runs to |h k| <= lattice radius (the symbol support); the
    outer 10% band of the lattice must contribute below 1e-4 (1 + |trace|),
    otherwise the trace has not saturated and TraceDivergence is raised (at
    the first such h).  The loop runs over terms outside and h inside, so each
    term is FFT'd once and its table dropped before the next; each h sums its
    terms in term order.
    """
    terms = _traceable_terms(series)
    h_grid = np.asarray(h_grid, dtype=float)
    totals = [0.0 + 0.0j] * len(h_grid)
    tails = [0.0] * len(h_grid)
    radius = series.lattice.radius
    bands = []                          # per h: the mode cut and the outer band
    for h in h_grid:
        k_max = int(math.ceil(radius / h)) + 3
        bands.append((h, k_max, np.abs(h * np.arange(-k_max, k_max + 1)) >= 0.9 * radius))
    for (g, j), term in terms:
        if g not in cls:
            continue
        F = np.fft.fft(term.values, axis=0)
        for i, (h, k_max, outer) in enumerate(bands):
            contrib = (h ** j) * _term_trace(term, F, series.family, g, h, k_max)
            totals[i] += complex(np.sum(contrib))
            tails[i] += float(np.sum(np.abs(contrib[outer])))
    for h, total, tail in zip(h_grid, totals, tails):
        if tail > 1e-4 * (1.0 + abs(total)):
            raise TraceDivergence(
                f"trace at h={h:.4g} has un-saturated outer-band mass {tail:.2e}")
    return TraceSeries(h_grid, np.array(totals, dtype=complex))


# ---------------------------------------------------------------------------
# Laurent fits and power laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentFit:
    powers: tuple
    coeffs: np.ndarray
    residual: float
    cond: float

    def coeff(self, j: int) -> complex:
        if j not in self.powers:
            return 0.0
        return complex(self.coeffs[self.powers.index(j)])


def laurent_fit(series: TraceSeries, j_min: int, j_max: int,
                cond_bound: float = 1e8) -> LaurentFit:
    """Least-squares fit of the values against powers h^{j_min} .. h^{j_max}."""
    h = np.asarray(series.h_grid, dtype=float)
    powers = tuple(range(j_min, j_max + 1))
    if len(h) < len(powers) + 1:
        raise ValueError(f"need >= {len(powers) + 1} h-points for powers {powers}")
    B = np.stack([h ** p for p in powers], axis=1)
    col_scale = np.linalg.norm(B, axis=0)
    Bs = B / col_scale[None, :]
    cond = float(np.linalg.cond(Bs))
    if cond > cond_bound:
        raise IllConditionedFit(f"fit condition number {cond:.2e} > {cond_bound:g}")
    sol, *_ = np.linalg.lstsq(Bs, series.values, rcond=None)
    coeffs = sol / col_scale
    fitted = B @ coeffs
    denom = float(np.linalg.norm(series.values))
    residual = float(np.linalg.norm(fitted - series.values)) / (denom if denom > 0 else 1.0)
    return LaurentFit(powers, coeffs, residual, cond)


@dataclass(frozen=True)
class PowerLawReport:
    slope: float | None        # None when values sit at the noise floor
    max_value: float
    values: np.ndarray
    h_grid: np.ndarray


def trace_power_law(series: StarSeries, cls: tuple[Element, ...],
                    h_grid: np.ndarray) -> PowerLawReport:
    """Log-log slope of |tau_g| over the h-grid (None below the noise floor)."""
    ts = tau_g(series, cls, h_grid)
    mags = np.abs(ts.values)
    top = float(np.max(mags))
    if top < POWER_LAW_FLOOR:
        return PowerLawReport(None, top, ts.values, ts.h_grid)
    logs = np.log(np.maximum(mags, 1e-300))
    slope = float(np.polyfit(np.log(ts.h_grid), logs, 1)[0])
    return PowerLawReport(slope, top, ts.values, ts.h_grid)


# ---------------------------------------------------------------------------
# the algebraic index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraicIndexResult:
    fit: LaurentFit
    series: TraceSeries
    constant_term: complex
    negative_power: complex
    negative_power_ok: bool


def algebraic_index(a: StarSeries, N: int, h_grid: np.ndarray, r: StarSeries | None = None,
                    neg_tol: float = NEG_POWER_TOL) -> dict[tuple, AlgebraicIndexResult]:
    """tau_g(1 - r*a) - tau_g(1 - a*r), Laurent-fitted on powers -1 .. N-2,
    for every torsion class <g> of ``a``'s group.

    The two residuals do not depend on the class, so they are formed once.
    The constant term is the localized algebraic index; the h^{-1} coefficient
    is flagged against ``neg_tol`` scaled by the value magnitude over the grid.
    """
    if N < 3:
        raise OrderOverflow("algebraic index needs N >= 3")
    if r is None:
        r = symbol_parametrix_h(a, N)
    one = StarSeries.unit_series(a.family, a.grid, a.lattice, a.eps)
    res_left = one - r.star(a, N)     # 1 - r * a
    res_right = one - a.star(r, N)    # 1 - a * r
    h_min = float(np.min(np.asarray(h_grid, dtype=float)))
    out = {}
    for cls in a.group.conjugacy_classes(support=a.group.torsion_elements()):
        diff = tau_g(res_left, cls, h_grid) - tau_g(res_right, cls, h_grid)
        fit = laurent_fit(diff, -1, N - 2)
        cm1 = fit.coeff(-1)
        ok = abs(cm1) < neg_tol * max(diff.scale() * h_min, 1.0)
        out[cls] = AlgebraicIndexResult(fit, diff, fit.coeff(0), cm1, ok)
    return out


# ---------------------------------------------------------------------------
# dense oracles: realized series and the Egorov defect
# ---------------------------------------------------------------------------

def realize_series(series: StarSeries, h: float, window: FrequencyWindow) -> np.ndarray:
    """Dense window matrix  unit I + sum h^j op_h(a_{g,j}) Phi_g  (oracle use)."""
    real = series.family.at(window)
    out = series.unit * np.eye(window.dim, dtype=complex)
    for (g, j), term in series._sorted_terms():
        mat = (h ** j) * op_h_term(term, h, window)
        out += real.phi(g).right_mul(mat)
    return out


@dataclass(frozen=True)
class EgorovReport:
    defects: np.ndarray
    h_grid: np.ndarray
    slope: float | None
    max_defect: float


def egorov_defect(family: RealizationFamily, g: Element, term: SampledTerm,
                  h_grid: np.ndarray, window_factor: float = 2.5) -> EgorovReport:
    """Defect of  Phi_g op_h(a) Phi_{g^{-1}} - op_h(a o C_{g^{-1}})  on the
    inner window.

    Exact (< 1e-9) for isometric realizations; first-order in h for curved
    weighted shifts, measured as a log-log slope.  The defect is the largest
    l2 deviation of an inner column (the columnwise symbol defect, which
    exhibits the clean O(h) law); the slope is None below a 1e-11 floor.
    """
    radius = term.xi_support_radius()
    if radius is None or radius == 0.0:
        raise ValueError("egorov defect needs a compactly supported symbol")
    transported = transport_term(term, family, family.group.inv(g))
    defects = []
    for h in np.asarray(h_grid, dtype=float):
        cutoff = int(math.ceil(window_factor * radius / h))
        window = FrequencyWindow(cutoff)
        real = family.at(window)
        A = op_h_term(term, h, window)
        conj = real.phi(g).left_mul(real.phi(family.group.inv(g)).right_mul(A))
        target = op_h_term(transported, h, window)
        mask = window.inner_mask()
        D = conj - target
        defects.append(float(np.max(np.linalg.norm(D[:, mask], axis=0))))
    defects = np.asarray(defects)
    top = float(np.max(defects))
    slope = None
    if top > 1e-11:
        slope = float(np.polyfit(np.log(h_grid), np.log(np.maximum(defects, 1e-300)), 1)[0])
    return EgorovReport(defects, np.asarray(h_grid, dtype=float), slope, top)
