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
``algebraic_index`` call forms the residuals 1 - r*a and 1 - a*r once each,
one at a time, and returns a result per torsion class, which the caller
loops over.

Each derivative and each x-FFT is computed once where it is used: a star
product builds the d_xi ladder of each left factor once and takes one FFT per
transported right factor, whose x-derivatives are inverse FFTs of that
table rescaled in place; ``tau_g`` takes one FFT per term for the whole h-grid.
These tables live only inside the loop over their term, so no per-term
cache outlives its loop and memory stays at a few terms' worth.

The symbols are sheet symbols: constant in xi on each half-line away from
the zero-section cut.  The d_xi stencil is written in difference form, which
is exactly 0.0 on constant runs, so every derivative, and every star-product
term of order >= 1, vanishes exactly outside a narrow xi band.  A
zero-extended term therefore stores only its xi column span, and a clamp
term only the columns between its two plateaus, one plateau column on each
side and always the xi = 0 column: beyond its span it continues as its edge
columns.  Star products and sums find their spans from exact zeros and
exact plateaus alone; their FFTs and ``tau_g`` work on these spans, which
gives the same numbers as full-width tables, with less work and memory.
One step trims: in 1 - a*b, formed for the parametrix's w and for the two
residuals, the order-zero plateaus cancel to rounding outside the
zero-section cut, so a clamp term there keeps only the columns above
PLATEAU_TRIM_TOL of its largest value, and is zero-extended on them unless
they reach an edge of its block, where the plateau is data.
``SampledTerm.xi_support_radius`` counts columns by the same rule.
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
from .transforms import RealizationFamily

XI_STENCIL_REACH = 2         # lattice points the dxi stencil reaches past each end
TRACE_EDGE_TOL = 1e-8        # lattice-edge values allowed in a traced term, relative
POWER_LAW_FLOOR = 1e-12      # |tau_g| below this has no power law
NEG_POWER_TOL = 1e-3         # h^{-1} coefficient allowed in the algebraic index
DIAG_H_GRID = {"hi": 0.2, "lo": 0.02, "n": 8}   # diagnostic h-grid, descending
MIN_LATTICE_POINTS = 17      # fewest points an (odd) XiLattice accepts
MIN_H_POINTS = 6             # fewest points a trace h-grid accepts
MIN_H_SPAN = 10.0 - 1e-9     # least max(h) / min(h) of a trace h-grid: a decade
# Beyond the zero-section cut the order-zero terms of 1 - a * b cancel: b's
# plateau there is the pointwise inverse of a's, up to rounding, so what is
# left is rounding, at most 15 ulp of the term's largest value on the Z/2 and
# dihedral(3) benchmark inputs.  A column no larger than this, relative to its
# term, is rounding; the bound is far below TRACE_EDGE_TOL, so it drops no
# column that the trace-class check would flag.
PLATEAU_TRIM_TOL = 64 * np.finfo(float).eps


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
                   extend: str, rows: np.ndarray | None = None, lo: int = 0) -> np.ndarray:
    """Interpolate ``values`` sampled on the lattice at arbitrary xi.

    values has the lattice columns ``lo .. lo + width - 1`` on its last axis;
    a narrower table's missing columns read as 0 (``zero``) or as its nearer
    edge column (``clamp``), the rule that continues a table past the lattice.
    With ``rows`` (an index array shaped like ``queries``) ``queries[i]``
    reads the row ``values[rows[i], :]`` of a 2-D table, which is gathered
    entry by entry and never copied whole; otherwise the same queries apply
    to every leading slice, returning ``values.shape[:-1] + queries.shape``.
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
    width = values.shape[-1]

    def column(j):
        c = base + j - lo
        if width == 0:
            return 0.0
        if width == lattice.n:
            return values[..., c] if rows is None else values[rows, c]
        held = (c >= 0) & (c < width)
        c = np.clip(c, 0, width - 1)
        v = values[..., c] if rows is None else values[rows, c]
        return v if extend == "clamp" else np.where(held, v, 0.0)

    if rows is None:
        out = np.zeros(values.shape[:-1] + q.shape, dtype=values.dtype)
        for j in range(6):
            out = out + column(j) * w[j]
    else:
        out = np.zeros(q.shape, dtype=values.dtype)
        for j in range(6):
            out = out + w[j] * column(j)
    if extend == "zero":
        out = out * inside
    return out


def _data_columns(block: np.ndarray) -> np.ndarray:
    """Indices of the columns of ``block`` whose largest value exceeds
    PLATEAU_TRIM_TOL of the block's largest; the other columns are rounding."""
    peak = np.max(np.abs(block), axis=0)
    return np.flatnonzero(peak > PLATEAU_TRIM_TOL * np.max(peak, initial=0.0))


def _moving_span(block: np.ndarray) -> tuple[int, int]:
    """Columns ``lo .. hi - 1`` of ``block`` from the last column of its left
    plateau to the first of its right one: every column outside them equals
    the nearer edge column exactly.  (0, 0) when all columns are equal."""
    moves = np.flatnonzero(np.any(block[:, 1:] != block[:, :-1], axis=0))
    return (int(moves[0]), int(moves[-1]) + 2) if moves.size else (0, 0)


def _product_span(a: tuple[str, int, int], b: tuple[str, int, int]) -> tuple[int, int]:
    """Lattice columns ``lo .. hi - 1`` that the product of two terms stores,
    from the (extend, lo, hi) of each: the hull of two clamp spans, the zero
    factor's span against a clamp one, else the intersection."""
    (ea, alo, ahi), (eb, blo, bhi) = a, b
    if ea == eb == "clamp":
        return min(alo, blo), max(ahi, bhi)
    if ea == "clamp" or eb == "clamp":
        return (blo, bhi) if ea == "clamp" else (alo, ahi)
    lo = max(alo, blo)
    return lo, max(lo, min(ahi, bhi))


def _xi_stencil(p: np.ndarray, out: np.ndarray, scale: float):
    """(8 (p[j+3] - p[j+1]) - (p[j+4] - p[j])) * scale into ``out``.

    The difference form is exactly 0.0 wherever the five points are equal,
    so a term that is constant on a run of columns has a derivative that is
    exactly zero there.  The stencil takes four passes; the scale is a fifth
    on the float64 view.
    """
    np.subtract(p[..., 3:-1], p[..., 1:-3], out=out)
    flat = out.view(float)
    flat *= 8.0
    out -= np.subtract(p[..., 4:], p[..., :-4])
    flat *= scale


# ---------------------------------------------------------------------------
# sampled terms
# ---------------------------------------------------------------------------

class SampledTerm:
    """One symbol a(x, xi) sampled on grid x lattice, with an extension mode.

    ``extend='zero'`` marks compact xi-support (trace class); ``'clamp'``
    continues the boundary value as a constant plateau (order-zero data).
    A term stores only its xi column span: ``block`` holds the lattice
    columns ``lo .. hi - 1``.  Every other column of a zero-extended term is
    exactly zero; every other column of a clamp term equals the block's
    nearer edge column, as past the lattice, and a clamp span holds the
    xi = 0 column, where the half-wave flow switches shifts.  ``values`` is
    the full-width table, built on demand for the oracles.
    """

    def __init__(self, grid: PeriodicGrid, lattice: XiLattice, values: np.ndarray,
                 extend: str = "zero", lo: int = 0):
        values = np.asarray(values, dtype=complex)
        if extend not in ("zero", "clamp"):
            raise ValueError(f"unknown extension {extend!r}")
        width = values.shape[1] if values.ndim == 2 else lattice.n
        zero = (lattice.n - 1) // 2
        if values.shape != (grid.size, width) or not 0 <= lo <= lattice.n - width \
                or (extend == "clamp" and not lo <= zero < lo + width):
            raise ValueError(f"expected shape {(grid.size, lattice.n)}, or a block of at "
                             f"most {lattice.n - lo} columns at column {lo}, holding column "
                             f"{zero} if clamp-extended; got {values.shape}")
        self.grid = grid
        self.lattice = lattice
        self.block = values
        self.lo = lo
        self.extend = extend

    @property
    def hi(self) -> int:
        return self.lo + self.block.shape[1]

    @property
    def values(self) -> np.ndarray:
        return self.cols(0, self.lattice.n)

    def cols(self, lo: int, hi: int) -> np.ndarray:
        """Values on lattice columns lo .. hi - 1 (any integers, lo <= hi):
        a view of ``block`` when they lie in the span, else a copy filled
        with zeros or, for a clamp term, with the edge columns."""
        if self.lo <= lo and hi <= self.hi:
            return self.block[:, lo - self.lo:hi - self.lo]
        if self.extend == "clamp":
            return self.block[:, np.clip(np.arange(lo - self.lo, hi - self.lo), 0,
                                         self.block.shape[1] - 1)]
        out = np.zeros((self.grid.size, hi - lo), dtype=complex)
        a, b = max(lo, self.lo), min(hi, self.hi)
        if a < b:
            out[:, a - lo:b - lo] = self.block[:, a - self.lo:b - self.lo]
        return out

    @classmethod
    def from_callable(cls, grid: PeriodicGrid, lattice: XiLattice, fn,
                      extend: str = "zero") -> "SampledTerm":
        X, XI = np.meshgrid(grid.nodes, lattice.points, indexing="ij")
        return cls(grid, lattice, np.asarray(fn(X, XI), dtype=complex), extend)

    def _like(self, values: np.ndarray, extend: str | None = None,
              lo: int | None = None) -> "SampledTerm":
        return SampledTerm(self.grid, self.lattice, values,
                           self.extend if extend is None else extend,
                           self.lo if lo is None else lo)

    def _check(self, other: "SampledTerm"):
        if self.grid.size != other.grid.size or self.lattice != other.lattice:
            raise GroupMismatch("sampled terms on different grids/lattices")

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "SampledTerm") -> "SampledTerm":
        """The sum on the hull of the two spans; a clamp sum keeps one column
        of margin past a zero term, so that its edge columns are plateaus."""
        self._check(other)
        extend = "clamp" if "clamp" in (self.extend, other.extend) else "zero"
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        if extend == "clamp" and "zero" in (self.extend, other.extend):
            z = self if self.extend == "zero" else other
            lo, hi = max(min(lo, z.lo - 1), 0), min(max(hi, z.hi + 1), self.lattice.n)
        return self._like(self.cols(lo, hi) + other.cols(lo, hi), extend, lo)

    def __mul__(self, other):
        if isinstance(other, SampledTerm):
            self._check(other)
            extend = "clamp" if (self.extend == "clamp" and other.extend == "clamp") else "zero"
            lo, hi = _product_span((self.extend, self.lo, self.hi),
                                   (other.extend, other.lo, other.hi))
            return self._like(self.cols(lo, hi) * other.cols(lo, hi), extend, lo)
        return self._like(self.block * other)

    __rmul__ = __mul__

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.block))) if self.block.size else 0.0

    def xi_support_radius(self) -> float | None:
        """Support radius for zero-extended terms, over the columns that
        ``_data_columns`` keeps; None (unbounded) for clamp."""
        if self.extend == "clamp":
            return None
        cols = self.lo + _data_columns(self.block)
        return float(np.max(np.abs(self.lattice.points[cols]), initial=0.0))

    # -- calculus ----------------------------------------------------------------

    def dx(self) -> "SampledTerm":
        """Spectral d/dx."""
        M = self.grid.size
        k = np.fft.fftfreq(M, d=1.0 / M)
        F = np.fft.fft(self.block, axis=0)
        return self._like(np.fft.ifft((1j * k)[:, None] * F, axis=0))

    def dxi(self) -> "SampledTerm":
        """4th-order centered d/dxi (extension-aware padding), zero-extended.

        The result is computed on its column span only.  A zero term's span
        grows by XI_STENCIL_REACH columns at each end (clipped to the
        lattice).  A clamp term's derivative is exactly zero wherever five
        neighbouring columns are equal, so its span is one column past
        ``_moving_span`` at each end.  The columns whose stencil stays inside
        the block are read from it in place; the few at each end read a
        small copy padded with zeros (``zero``) or the edge columns
        (``clamp``).
        """
        n, r = self.lattice.n, XI_STENCIL_REACH
        if self.extend == "clamp":
            lo, hi = _moving_span(self.block)
            lo, hi = (max(self.lo + lo - 1, 0), min(self.lo + hi + 1, n)) if lo < hi else (0, 0)
        else:
            lo, hi = max(self.lo - r, 0), min(self.hi + r, n)
        scale = 1.0 / (12.0 * self.lattice.delta)
        d = np.empty((self.grid.size, hi - lo), dtype=complex)
        a, b = max(lo, self.lo + r), min(hi, self.hi - r)
        if a < b:
            _xi_stencil(self.block[:, a - r - self.lo:b + r - self.lo], d[:, a - lo:b - lo], scale)
        else:
            a = b = hi
        for x, y in ((lo, a), (b, hi)):
            if x < y:
                _xi_stencil(self.cols(x - r, y + r), d[:, x - lo:y - lo], scale)
        return SampledTerm(self.grid, self.lattice, d, "zero", lo)

    def sample(self, xi: np.ndarray) -> np.ndarray:
        """Values a(x_nodes, xi) for arbitrary xi, shape (M, len(xi))."""
        return lattice_interp(self.lattice, self.block, np.asarray(xi, dtype=float),
                              self.extend, lo=self.lo)

    def coeff_rows(self, F: np.ndarray, ms: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Fourier coefficients ahat(ms[i], xi[i]) at arbitrary xi, read from
        ``F = np.fft.fft(self.block, axis=0)``, which the caller takes once
        per term on its span; the 1/M scale applies to the gathered values
        only.

        Transfers past the grid's resolvable band are zero, not aliased.
        """
        M = self.grid.size
        out = lattice_interp(self.lattice, F, np.asarray(xi, dtype=float), self.extend,
                             rows=np.mod(ms, M), lo=self.lo) / M
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
    both sheets share the shift); see ``_twisted``.  A reflection reverses
    the term's column span.  For a curved diffeomorphism,
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
    n = term.lattice.n
    lo, hi = (n - term.hi, n - term.lo) if C.sheets[0][0] == -1 else (term.lo, term.hi)
    return term._like(_twisted(term, C.sheets, lo, hi), lo=lo)


def _phased(term: SampledTerm, sheets, lo: int, hi: int,
            out: np.ndarray | None = None) -> np.ndarray:
    """The x-FFT of term o C before its reflection, on the lattice columns
    lo .. hi - 1 of the result, for an isometric C that shifts: the source
    columns that C carries there (read backwards when C reflects) are FFT'd
    and the shift is a phase on that table.  A result column has the fiber
    coordinate of its source column after the reflection, so the half-wave
    flow shifts the columns with xi > 0 by the upper sheet's shift and those
    with xi < 0 by the lower one."""
    (sign, up), (_, down) = sheets
    n, M = term.lattice.n, term.grid.size
    src = term.cols(n - hi, n - lo)[:, ::-1] if sign == -1 else term.cols(lo, hi)
    G = np.fft.fft(src, axis=0, out=out)
    k = np.fft.fftfreq(M, d=1.0 / M)[:, None]
    if up == down:
        np.multiply(np.exp(1j * k * up), G, out=G)
    else:           # the half-wave flow, -t and t on the two sheets
        zero = (n - 1) // 2 - lo            # the xi = 0 column, relative to lo
        for shift, a, b in ((up, zero + 1, hi - lo), (down, 0, zero)):
            a, b = max(a, 0), min(b, hi - lo)
            if a < b:
                np.multiply(np.exp(1j * k * shift), G[:, a:b], out=G[:, a:b])
    return G


def _twisted(term: SampledTerm, sheets, lo: int, hi: int, G: np.ndarray | None = None,
             out: np.ndarray | None = None, spare: np.ndarray | None = None) -> np.ndarray:
    """Values of term o C on the lattice columns lo .. hi - 1, for an isometric C.

    A shift takes the inverse FFT of the ``_phased`` table ``G`` (computed
    here when not given); the xi = 0 column keeps its source values when the
    two sheets shift differently.  A reflection then maps x_j to x_{M-j}.
    Without a shift the result is the source itself or a gather of it.
    ``out`` and ``spare`` (used when C shifts and reflects) are optional
    (M, hi - lo) buffers.
    """
    (sign, up), (_, down) = sheets
    n, M = term.lattice.n, term.grid.size
    if up == down == 0.0:
        values = term.cols(n - hi, n - lo)[:, ::-1] if sign == -1 else term.cols(lo, hi)
    else:
        G = _phased(term, sheets, lo, hi) if G is None else G
        values = np.fft.ifft(G, axis=0, out=spare if sign == -1 else out)
        zero = (n - 1) // 2
        if up != down and lo <= zero < hi:
            values[:, zero - lo] = term.cols(zero, zero + 1)[:, 0]
    if sign == -1:
        return np.take(values, -np.arange(M) % M, axis=0, out=out, mode="clip")
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
            if np.any(t.block):
                self.terms[key] = t

    # -- constructors ---------------------------------------------------------

    @classmethod
    def unit_series(cls, family, grid, lattice, eps) -> "StarSeries":
        return cls(family, grid, lattice, eps, {}, unit=1.0)

    @classmethod
    def from_crossed(cls, symbol: CrossedSymbol, lattice: XiLattice, eps: float) -> "StarSeries":
        """Embed order-zero principal data:  1 + chi(xi) (sigma - 1).

        Each term is stored on its ``_moving_span`` and the xi = 0 column."""
        family, grid = symbol.family, symbol.grid
        chi = zero_section_cut(lattice, eps)
        pos = lattice.points > 0
        neg = lattice.points < 0
        zero = (lattice.n - 1) // 2
        terms = {}
        e = family.group.identity
        for g in symbol.support:
            sym = symbol.coeff(g)
            vals = np.zeros((grid.size, lattice.n), dtype=complex)
            vals[:, pos] = sym.plus.values[:, None]
            vals[:, neg] = sym.minus.values[:, None]
            if g == e:
                vals = vals - 1.0
            vals = vals * chi[None, :]
            lo, hi = _moving_span(vals)
            lo, hi = min(lo, zero), max(hi, zero + 1)
            terms[(g, 0)] = SampledTerm(grid, lattice, vals[:, lo:hi].copy(), "clamp", lo)
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

    def norm_inf(self) -> float:
        return abs(self.unit) + sum(t.norm_inf() for t in self.terms.values())

    # -- the star product ---------------------------------------------------------

    def star(self, other: "StarSeries", N: int) -> "StarSeries":
        """Composition truncated at h-order < N:

        per group pair, sum_kappa ((-i h)^kappa / kappa!) d_xi^kappa a_g .
        d_x^kappa (b_h o C_{g^{-1}}), group-twisted per the Egorov law.

        Every term is worked on its xi column span only (see SampledTerm).
        The d_xi ladder of a left factor a_g is built lazily, as deep as its
        pairs need, holds narrow blocks, and is dropped when the loop moves
        to the next factor.  For each pair the kappa-th product lives on the
        ``_product_span`` of d_xi^kappa a_g and b_h o C, whose span is b_h's,
        reversed when C reflects.  The right factor is FFT'd and
        transported once, on the hull of the columns its products read (a
        shift is a phase on that table), and its kappa-th term
        (-i)^kappa / kappa! d_x^kappa is one inverse FFT of k^kappa / kappa!
        times the table, on the columns of that product.  Products
        accumulate in place into one block per output key, in the order of
        the pairwise recursion (left factor, right factor, kappa); a block
        spans the union of its contributions and grows when one reaches
        past it.  A clamp key's edge columns hold the sums of its plateaus
        alone: a clamp contribution adds its edge columns over the rest of
        the block, a zero one grows the block to one column past it, and a
        grown block is filled from its edge columns.  The table and the product
        buffer are allocated at most once per width the call needs, and no
        per-term table outlives its loop.
        """
        self._check(other)
        if N < 1:
            raise OrderOverflow("truncation order must be >= 1")
        grp = self.group
        M, n = self.grid.size, self.lattice.n
        out: dict[tuple[Element, int], list] = {}    # key -> [lo, block]
        clamp = set()                  # keys with a clamp-extended contribution
        # flat scratch, carved into contiguous (M, width) tables: the transported
        # right factor, the same before its reflection, and a product; each
        # grows to the widest table the call asks of it
        scratch = [np.empty(0, dtype=complex) for _ in range(3)]

        def buffer(i, width):
            if scratch[i].size < M * width:
                scratch[i] = np.empty(M * width, dtype=complex)
            return scratch[i][:M * width].reshape(M, width)

        def add(key, lo, values, extend):
            hi = lo + values.shape[1]
            was_clamp = key in clamp
            if extend == "clamp":
                clamp.add(key)
            if key not in out:
                out[key] = [lo, values.copy()]
                return
            acc = out[key]
            alo, block = acc
            ahi = alo + block.shape[1]
            nlo, nhi = min(lo, alo), max(hi, ahi)
            if key in clamp:            # one column of margin past zero data
                if extend == "zero":
                    nlo, nhi = min(nlo, lo - 1), max(nhi, hi + 1)
                if not was_clamp:
                    nlo, nhi = min(nlo, alo - 1), max(nhi, ahi + 1)
                nlo, nhi = max(nlo, 0), min(nhi, n)
            if nlo < alo or nhi > ahi:
                acc[0], acc[1] = nlo, np.zeros((M, nhi - nlo), dtype=complex)
                acc[1][:, alo - nlo:ahi - nlo] = block
                if was_clamp:          # its edge columns are its plateau sums
                    acc[1][:, :alo - nlo] = block[:, :1]
                    acc[1][:, ahi - nlo:] = block[:, -1:]
            alo, block = acc
            block[:, lo - alo:hi - alo] += values
            if extend == "clamp":
                block[:, :lo - alo] += values[:, :1]
                block[:, hi - alo:] += values[:, -1:]

        # unit cross terms
        for unit, series in ((self.unit, other), (other.unit, self)):
            if unit != 0.0:
                for key, t in series._sorted_terms():
                    if key[1] < N:
                        add(key, t.lo, np.multiply(t.block, unit, out=buffer(2, t.hi - t.lo)),
                            t.extend)

        k = np.fft.fftfreq(M, d=1.0 / M)[:, None]
        ri = -np.arange(M) % M         # the mode k -> -k of an x-FFT table
        rights = other._sorted_terms()
        for (g, j1), ta in self._sorted_terms():
            ladder = [ta]              # d_xi^kappa a_g, kappa = 0, 1, ...
            sheets = self.family.canonical(grp.inv(g)).sheets
            (sign, up), (_, down) = sheets
            for (h, j2), tb in rights:
                m, j = grp.mul(g, h), j1 + j2
                if j >= N:
                    continue
                while len(ladder) < N - j:
                    ladder.append(ladder[-1].dxi())
                tlo, thi = (n - tb.hi, n - tb.lo) if sign == -1 else (tb.lo, tb.hi)
                spans = [_product_span((t.extend, t.lo, t.hi), (tb.extend, tlo, thi))
                         for t in ladder[:N - j]]
                # per kappa, the columns that kappa and every later product read
                reach, lo, hi = [None] * (N - j), n, 0
                for kappa in range(N - j - 1, -1, -1):
                    if spans[kappa][0] < spans[kappa][1]:
                        lo, hi = min(lo, spans[kappa][0]), max(hi, spans[kappa][1])
                    reach[kappa] = (lo, hi)
                shifted = up != 0.0 or down != 0.0
                tab_lo, tab_hi = reach[0] if shifted else reach[1] if N - j > 1 else (0, 0)
                if tab_lo < tab_hi:
                    table, spare = buffer(0, tab_hi - tab_lo), buffer(1, tab_hi - tab_lo)
                    if not shifted:     # FFT'd after the reflection, as transport_term's values
                        np.fft.fft(_twisted(tb, sheets, tab_lo, tab_hi, out=spare), axis=0,
                                   out=table)
                    elif sign == -1:    # the reflection maps the mode k to -k
                        G = _phased(tb, sheets, tab_lo, tab_hi, out=spare)
                        np.take(G, ri, axis=0, out=table, mode="clip")
                    else:
                        G = _phased(tb, sheets, tab_lo, tab_hi, out=table)
                lo, hi = spans[0]
                if lo < hi:
                    prod = buffer(2, hi - lo)     # scratch for _twisted, then the product
                    twisted = _twisted(tb, sheets, lo, hi,
                                       G[:, lo - tab_lo:hi - tab_lo] if shifted else None,
                                       out=buffer(1, hi - lo), spare=prod)
                    np.multiply(ta.cols(lo, hi), twisted, out=prod)
                    extend = "clamp" if ta.extend == tb.extend == "clamp" else "zero"
                    add((m, j), lo, prod, extend)
                for kappa in range(1, N - j):
                    lo, hi = reach[kappa]
                    if lo >= hi:
                        break
                    # now the table of (-i)^kappa / kappa! d_x^kappa b on the columns still read
                    tail = table[:, lo - tab_lo:hi - tab_lo].view(float)
                    tail *= k / kappa
                    lo, hi = spans[kappa]
                    if lo < hi:
                        prod = buffer(2, hi - lo)
                        np.fft.ifft(table[:, lo - tab_lo:hi - tab_lo], axis=0, out=prod)
                        prod *= ladder[kappa].cols(lo, hi)
                        add((m, j + kappa), lo, prod, "zero")
        return self.copy_with({key: SampledTerm(self.grid, self.lattice, block,
                                                "clamp" if key in clamp else "zero", lo)
                               for key, (lo, block) in out.items()}, self.unit * other.unit)


# ---------------------------------------------------------------------------
# symbol-level parametrix
# ---------------------------------------------------------------------------

def _one_minus(a: StarSeries, b: StarSeries, N: int) -> StarSeries:
    """1 - a * b, truncated at h-order < N, with its cancelled plateaus trimmed.

    The product's blocks are fresh, so they are negated in place.  A clamp
    term then loses the end columns of its block that ``_data_columns``
    drops: if what is left still reaches an edge column of the block, whose
    plateau is then data, the term keeps its block and its clamp extension;
    otherwise it becomes a zero-extended term on what is left.
    """
    p = a.star(b, N)
    terms = {}
    for key, t in p.terms.items():
        np.negative(t.block, out=t.block)
        if t.extend == "clamp":
            kept = _data_columns(t.block)
            if kept[0] > 0 and kept[-1] < t.block.shape[1] - 1:
                t = t._like(t.block[:, kept[0]:kept[-1] + 1].copy(), "zero",
                            t.lo + int(kept[0]))
        terms[key] = t
    return p.copy_with(terms, 1.0 - p.unit)


def symbol_parametrix_h(a: StarSeries, N: int) -> StarSeries:
    """Almost inverse r = r0 * (1 + w + ... + w^N), w = 1 - a * r0,
    with r0 the pointwise inverse of the leading crossed symbol embedded with
    the same zero-section cut as ``a``.  r0 is embedded once for w and again
    for the last product (``from_crossed`` is deterministic), so it is not
    alive during the loop; ``w`` is released before the last product."""
    inverse = invert_principal(a.leading_crossed())
    one = StarSeries.unit_series(a.family, a.grid, a.lattice, a.eps)
    w = _one_minus(a, StarSeries.from_crossed(inverse, a.lattice, a.eps), N)
    acc = one
    for _ in range(N):
        acc = one + w.star(acc, N)
    del w
    return StarSeries.from_crossed(inverse, a.lattice, a.eps).star(acc, N)


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
        edge = max(float(np.max(np.abs(term.cols(c, c + 1))))
                   for c in (0, series.lattice.n - 1))
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
    term is FFT'd once, on its column span only, and its table dropped before
    the next; each h sums its terms in term order.
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
        F = np.fft.fft(term.block, axis=0)
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

    The two residuals do not depend on the class, so each is formed once,
    and one at a time: 1 - r*a is traced for every class and dropped before
    1 - a*r is formed.  The constant term is the localized algebraic index;
    the h^{-1} coefficient is flagged against ``neg_tol`` scaled by the value
    magnitude over the grid.
    """
    if N < 3:
        raise OrderOverflow("algebraic index needs N >= 3")
    if r is None:
        r = symbol_parametrix_h(a, N)
    classes = a.group.conjugacy_classes(support=a.group.torsion_elements())

    def traces(x: StarSeries, y: StarSeries) -> dict:
        residual = _one_minus(x, y, N)
        return {cls: tau_g(residual, cls, h_grid) for cls in classes}

    left = traces(r, a)
    right = traces(a, r)
    h_min = float(np.min(np.asarray(h_grid, dtype=float)))
    out = {}
    for cls in classes:
        diff = left[cls] - right[cls]
        fit = laurent_fit(diff, -1, N - 2)
        cm1 = fit.coeff(-1)
        ok = abs(cm1) < neg_tol * max(diff.scale() * h_min, 1.0)
        out[cls] = AlgebraicIndexResult(fit, diff, fit.coeff(0), cm1, ok)
    return out


# ---------------------------------------------------------------------------
# dense oracles: realized series and the Egorov defect
# ---------------------------------------------------------------------------

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
