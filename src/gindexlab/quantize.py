"""Kohn-Nirenberg quantization on a Fourier window and g-graded operators.

``op(a)`` acts on mode k through column k: ``A[j, k]`` is the (j-k)-th Fourier
coefficient of ``x -> a(x, k)``.  There is one quantizer per kind of symbol:
``TransferBand`` for order-zero principal data (the sheet functions of a
``PrincipalSymbol`` outside a zero-section cut) and ``op_h_term`` for one
sampled semiclassical term.  An order-zero part is held as its transfer band:
entries are gathered from it by index, and its dense window (``op_classical``)
copies each sheet's columns from the skewed view of its transfer row.  A
sampled term's coefficients change from column to column, so ``op_h_term``
gathers them through that view of each transfer row, with no table.  A
LabeledOperator keeps the g-grading of ``sum_g K_g Phi_g`` so that
class-localized traces remain computable after products; its parts stay
transfer bands, read through ``TransferBand.band`` where certified, until
read densely.  Multiplication uses exact matrix conjugation,

    (A B)_m = sum_{gh = m} K_g (Phi_g L_h Phi_{g^{-1}}),

which realizes to the plain matrix product whenever Phi_g Phi_h = Phi_{gh}
holds exactly (all isometric families here).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .circle import FrequencyWindow
from .errors import GroupMismatch, WindowMismatch, WindowTooSmallForH
from .groups import Element
from .symbols import CrossedSymbol, PrincipalSymbol
from .transforms import Realization, WeightedShift

K_MIN = 4            # default zero-section cut |k| < k_min
PRUNE_TOL = 1e-13    # integer_shift parts below this fraction of the largest norm are dropped
BAND_FLOOR = 1e-15   # entries below BAND_FLOOR * max|M| lie outside the band
RITZ_BLOCK = 16      # least width of banded strips; the index engine's first Ritz block


# ---------------------------------------------------------------------------
# classical (h-free) symbols of order zero
# ---------------------------------------------------------------------------

class TransferBand:
    """Kohn-Nirenberg quantization of the order-zero symbol with principal
    data ``sym``:

        a(x, k) = plus(x)   for k >= k_min,
                  minus(x)  for k <= -k_min,
                  fill      for |k| < k_min  (0, or 1 if unit_fill),

    held as its transfer band: entry (j, k) is row s of ``vectors`` at j - k
    + 2 N_F, s the sheet of column k.  The rows hold c(t), t = -2 N_F ..
    2 N_F: the minus sheet's before the ``cut`` columns, the fill inside it
    (1 at t = 0 for a unit fill, else 0), then the plus sheet's, both
    alias-guarded.
    """

    def __init__(self, sym: PrincipalSymbol, window: FrequencyWindow, k_min: int = K_MIN,
                 unit_fill: bool = False):
        if k_min < 1:
            raise ValueError("k_min must be >= 1")
        M = sym.grid.size
        n = window.cutoff
        if M < 2 * n + 2:
            raise WindowMismatch(
                f"symbol grid {M} cannot resolve mode transfers up to {2 * n}")
        transfers = np.arange(-2 * n, 2 * n + 1)
        self.vectors = np.zeros((3, len(transfers)), dtype=complex)
        for row, sheet in ((0, sym.minus), (2, sym.plus)):
            self.vectors[row] = np.fft.fft(sheet.values)[transfers % M] / M
        # alias guard on the true mode transfer: past +-M/2 the gather would wrap
        self.vectors[:, np.abs(transfers) > M // 2 - 1] = 0.0
        self.vectors[1, 2 * n] = float(unit_fill)
        self.cut = (max(n - k_min + 1, 0), min(n + k_min, window.dim))
        self.shape = (window.dim, window.dim)

    def __getitem__(self, index) -> np.ndarray:
        """K[j, k] for broadcastable window-index arrays j and k."""
        j, k = index
        return self.vectors[np.digitize(k, self.cut), j - k + self.shape[0] - 1]

    def dense(self) -> np.ndarray:
        """The window matrix, each sheet's columns copied from ``_skewed(row)``."""
        dim = self.shape[0]
        lo, hi = self.cut
        out = np.empty(self.shape, dtype=complex)
        for row, cols in zip(self.vectors, (slice(0, lo), slice(lo, hi), slice(hi, dim))):
            out[:, cols] = _skewed(row, dim)[:, cols]
        return out

    @cached_property
    def band(self) -> "_Banded | None":
        """The window as column strips at the natural-order band T that
        ``certify_band`` certifies (entry (j, k) reads c(j - k)), or None."""
        dim = self.shape[0]

        def strips(T):
            rows, cols, outside = _strip_layout(dim, T, max(2 * T, RITZ_BLOCK))
            return np.where(outside, 0, self[rows, cols])
        found = certify_band([self], dim, strips)
        return _Banded(found[1], found[0]) if found else None


def certify_band(bands: list[TransferBand], dim: int, strips_at) -> tuple[int, np.ndarray] | None:
    """The one band certificate: (T, ``strips_at(T)``), strips holding every
    entry of transfer |t| <= T, for the least T with 2 tail(T) <= BAND_FLOOR
    max|c| (2 for rounding), tail(T) = sum over ``bands`` of max_{|t| > T}
    |c(t)|; None unless 2 tail(T) <= BAND_FLOOR max|strips| too and 2T + 1,
    T's reach in the index engine's interleaved order, is at most dim/8."""
    coef = np.array([np.abs(K.vectors).max(axis=0) for K in bands])     # t = -2N..2N
    mid = coef.shape[1] // 2
    coef = np.maximum(coef[:, mid:], coef[:, mid::-1])                   # |t| = 0..2N
    tail = np.append(np.maximum.accumulate(coef[:, ::-1], axis=1)[:, -2::-1].sum(axis=0), 0.0)
    T = int(np.argmax(2 * tail <= BAND_FLOOR * coef.max()))
    if 2 * T + 1 > dim / 8:
        return None
    strips = strips_at(T)
    return None if 2 * tail[T] > BAND_FLOOR * np.abs(strips).max() else (T, strips)


def _strip_layout(n: int, b: int, bs: int):
    """Entry positions of the column strips of an n x n matrix of band b:
    strip I holds columns I bs .. (I+1) bs and rows I bs - b .. (I+1) bs + b.
    Returns the row and column indices, clipped to the matrix and shaped to
    broadcast to (strips, bs + 2 b, bs), and the mask of the entries past the
    matrix edge (the last strip's padding columns included)."""
    nb = -(-n // bs)
    rows = np.arange(nb)[:, None] * bs - b + np.arange(bs + 2 * b)
    cols = np.arange(nb)[:, None] * bs + np.arange(bs)
    outside = ~(((rows >= 0) & (rows < n))[:, :, None] & (cols < n)[:, None, :])
    return np.clip(rows, 0, n - 1)[:, :, None], np.minimum(cols, n - 1)[:, None, :], outside


@dataclass(frozen=True)
class _Banded:
    """A square matrix held as its column strips: strip J holds columns J bs ..
    (J+1) bs and rows J bs - reach .. (J+1) bs + reach (``_strip_layout``),
    and every entry outside the strips is zero.  A product by a dense factor
    reads the strips alone, O(n^2 reach) work against O(n^3).  A single strip
    of reach 0 holds the matrix densely, and each product is then one matmul."""

    strips: np.ndarray
    reach: int

    def left(self, Y: np.ndarray, rows: int | None = None) -> np.ndarray:
        """The first ``rows`` rows of M Y (all of them when None)."""
        height, bs = self.strips.shape[1:]
        n = len(Y)
        rows = n if rows is None else rows
        out = np.zeros((rows, Y.shape[1]), dtype=complex)
        for J, strip in enumerate(self.strips):
            top = J * bs - self.reach
            if top >= rows:
                break
            lo, hi = max(top, 0), min(top + height, rows)
            Y_J = Y[J * bs:(J + 1) * bs]
            out[lo:hi] += strip[lo - top:hi - top, :len(Y_J)] @ Y_J
        return out

    def right(self, X: np.ndarray, cols: int | None = None) -> np.ndarray:
        """The first ``cols`` columns of X M (all of them when None)."""
        height, bs = self.strips.shape[1:]
        n = X.shape[1]
        cols = n if cols is None else cols
        out = np.empty((len(X), cols), dtype=complex)
        for J in range(-(-cols // bs)):
            top = J * bs - self.reach
            lo, hi = max(top, 0), min(top + height, n)
            c0, c1 = J * bs, min((J + 1) * bs, cols)
            out[:, c0:c1] = X[:, lo:hi] @ self.strips[J, lo - top:hi - top, :c1 - c0]
        return out


def op_classical(sym: PrincipalSymbol, window: FrequencyWindow, k_min: int = K_MIN,
                 unit_fill: bool = False) -> np.ndarray:
    """Dense window matrix of ``TransferBand(sym, window, k_min, unit_fill)``."""
    return TransferBand(sym, window, k_min, unit_fill).dense()


# ---------------------------------------------------------------------------
# semiclassical terms (sampled in xi)
# ---------------------------------------------------------------------------

def op_h_term(term, h: float, window: FrequencyWindow) -> np.ndarray:
    """Dense matrix of one sampled term at semiclassical parameter h.

    ``term`` is any object with ``grid``, ``sample(xi) -> (M, len(xi))`` and
    ``xi_support_radius()`` (see semiclass.SampledTerm).  The window must
    reach the term's xi-support at this h: ``h * N_F >= radius``.
    """
    if not (0.0 < h <= 1.0):
        raise ValueError(f"h must be in (0, 1], got {h}")
    radius = term.xi_support_radius()
    if radius is not None and h * window.cutoff < radius:
        raise WindowTooSmallForH(
            f"h N_F = {h * window.cutoff:.3f} below xi-support radius {radius:.3f}")
    M = term.grid.size
    n, dim = window.cutoff, window.dim
    coeffs = np.fft.fft(term.sample(h * window.modes), axis=0)     # (M, dim)
    coeffs /= M
    transfers = np.arange(-2 * n, 2 * n + 1)
    row, alias = transfers % M, np.abs(transfers) > M // 2 - 1
    # entry (j, k) reads transfer j - k: entry j - k + 2 N_F of these vectors,
    # a skewed (dim, dim) view of each
    out = coeffs[_skewed(row, dim), np.arange(dim)]
    np.copyto(out, 0.0, where=_skewed(alias, dim))
    return out


def _skewed(v: np.ndarray, dim: int) -> np.ndarray:
    """The (dim, dim) view (j, k) -> v[j - k + dim - 1] of a vector of 2 dim - 1
    entries, with no copy."""
    step = v.strides[0]
    return as_strided(v[dim - 1:], (dim, dim), (step, -step), writeable=False)


# ---------------------------------------------------------------------------
# g-graded operators
# ---------------------------------------------------------------------------

class LabeledOperator:
    """Finitely supported map g -> window matrix, realizing sum K_g Phi_g.

    A part may hold only some rows of K_g, those of P sum K_g Phi_g for a row
    projection P; a product by an operator with full parts keeps those rows.
    A part may also be a ``TransferBand``: it is made dense when ``parts`` is
    first read, and ``bands`` reads it without that, as products and
    ``realize`` do (``_held``).
    """

    def __init__(self, realization: Realization, parts: dict[Element, np.ndarray | TransferBand]):
        self.realization = realization
        dim = realization.window.dim
        self._parts = {}
        for g, m in parts.items():
            m = m if isinstance(m, TransferBand) else np.asarray(m, dtype=complex)
            if m.shape[1:] != (dim,) or m.shape[0] > dim:
                raise WindowMismatch(f"part {g!r} has shape {m.shape}, window dim {dim}")
            self._parts[g] = m

    @property
    def parts(self) -> dict[Element, np.ndarray]:
        """The parts as dense blocks; a transfer band is made dense here, once."""
        self._parts.update({g: m.dense() for g, m in self._parts.items()
                            if isinstance(m, TransferBand)})
        return self._parts

    @property
    def bands(self) -> dict[Element, TransferBand] | None:
        """The held parts while all are transfer bands (clearing releases them), else None."""
        held = self._parts
        return held if all(isinstance(m, TransferBand) for m in held.values()) else None

    def _held(self, g: Element, banded: bool = True) -> np.ndarray | _Banded:
        """Part g for one product: its certified band if ``banded``, else dense; uncached."""
        K = self._parts[g]
        if not isinstance(K, TransferBand):
            return K
        return K.band if banded and K.band is not None else K.dense()

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit(cls, realization: Realization) -> "LabeledOperator":
        e = realization.group.identity
        return cls(realization, {e: np.eye(realization.window.dim, dtype=complex)})

    # -- plumbing -------------------------------------------------------------

    @property
    def window(self) -> FrequencyWindow:
        return self.realization.window

    @property
    def group(self):
        return self.realization.group

    @property
    def support(self) -> list[Element]:
        return sorted(self._parts, key=repr)

    def _check_compatible(self, other: "LabeledOperator"):
        if self.realization.family.signature() != other.realization.family.signature():
            raise GroupMismatch("labeled operators over different group actions")
        if self.window.cutoff != other.window.cutoff:
            raise WindowMismatch("labeled operators on different windows")

    def __add__(self, other: "LabeledOperator") -> "LabeledOperator":
        self._check_compatible(other)
        out = {g: m.copy() for g, m in self.parts.items()}
        for g, m in other.parts.items():
            out[g] = out[g] + m if g in out else m
        return LabeledOperator(self.realization, out)

    def __sub__(self, other: "LabeledOperator") -> "LabeledOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "LabeledOperator":
        return LabeledOperator(self.realization,
                               {g: scalar * m for g, m in self.parts.items()})

    def prune(self) -> "LabeledOperator":
        """Drop parts with norm <= PRUNE_TOL x the largest, on an infinite group
        only: there it keeps shift supports finite.  Norms are taken over the
        rows the parts hold, so a power on the traced rows is pruned on them.
        A finite group's supports are finite already, so its operators are
        returned unchanged."""
        if self.group.is_finite:
            return self
        norms = {g: np.linalg.norm(m) for g, m in self.parts.items()}
        top = max(norms.values(), default=0.0)
        if top == 0.0:
            return self
        kept = {g: m for g, m in self.parts.items() if norms[g] > PRUNE_TOL * top}
        return LabeledOperator(self.realization, kept)

    # -- algebra -----------------------------------------------------------------

    def conjugated_part(self, g: Element, h: Element,
                        memo: dict | None = None) -> np.ndarray | _Banded:
        """Phi_g K_h Phi_{g^{-1}}, memoized per (g, h) in ``memo`` when one is
        given; a memo serves one right factor only.  A certified band is kept:
        Phi_e is the unit, so at the identity it is the result, and under a
        weighted shift it gives the first factor K_h Phi_{g^{-1}}."""
        memo = {} if memo is None else memo
        if (g, h) not in memo:
            real, e = self.realization, self.group.identity
            K = self._held(h, banded=g == e or isinstance(real.phi(g), WeightedShift))
            if not isinstance(K, _Banded):
                memo[g, h] = real.conjugate(g, K)
            elif g == e:
                memo[g, h] = K
            else:
                memo[g, h] = real.phi(g).left_mul(K.left(real.phi(self.group.inv(g)).matrix()))
        return memo[g, h]

    def multiply(self, other: "LabeledOperator",
                 conjugates: dict | None = None) -> "LabeledOperator":
        """Graded product: (A B)_m = sum_{gh=m} K_g (Phi_g L_h Phi_{g^{-1}}).

        This is the general path, valid for every family, and the oracle of
        the index engine's group-Fourier blocks (``index_engine._block_traces``),
        which finite isometric problems take instead.  ``conjugates`` memoizes
        the conjugated parts of ``other`` across calls (``conjugated_part``).
        Of two bands, the right one is made dense.
        """
        self._check_compatible(other)
        grp = self.group
        out: dict[Element, np.ndarray] = {}
        for g in self.support:
            K = self._held(g)
            for h in other.support:
                m = grp.mul(g, h)
                L = other.conjugated_part(g, h, conjugates)
                if isinstance(K, _Banded) and isinstance(L, _Banded):
                    L = other._held(h, banded=False)
                contrib = (K.left(L) if isinstance(K, _Banded) else
                           L.right(K) if isinstance(L, _Banded) else K @ L)
                out[m] = out[m] + contrib if m in out else contrib
        return LabeledOperator(self.realization, out)

    def power(self, n: int) -> "LabeledOperator":
        """Left-associated power, pruned after each product; each part of ``self``
        is conjugated once."""
        if n < 1:
            raise ValueError("power needs n >= 1")
        conjugates: dict = {}
        acc = self
        for _ in range(n - 1):
            acc = acc.multiply(self, conjugates).prune()
        return acc

    def realize(self) -> np.ndarray:
        """sum_g K_g Phi_g as a dense window matrix, accumulated in place into
        the first term (a fresh array); zero when there are no parts.  Under
        mode maps a band part is made dense for its term only, else read as
        ``_held`` gives it."""
        if not self._parts:
            return np.zeros((self.window.dim, self.window.dim), dtype=complex)
        first, *rest = self.support
        out = self._term(first)
        for g in rest:
            out += self._term(g)
        return out

    def _term(self, g: Element) -> np.ndarray:
        K, phi = self._parts[g], self.realization.phi(g)
        if isinstance(K, TransferBand) and self.realization.family.is_isometric:
            term = K.dense()[:, ::phi.sign]
            term *= phi.phases
            return term
        K = self._held(g)
        return K.left(phi.matrix()) if isinstance(K, _Banded) else phi.right_mul(K)


def quantize_crossed(realization: Realization, sym: CrossedSymbol, k_min: int,
                     unit_fill: bool) -> LabeledOperator:
    """op of a crossed symbol's coefficients at order 0; ``unit_fill`` fills
    the zero-section cut of the identity coefficient with 1."""
    e = realization.group.identity
    return LabeledOperator(realization, {
        g: TransferBand(sym.coeff(g), realization.window, k_min, unit_fill and g == e)
        for g in sym.support})
