"""The principal symbol algebra C(S*S^1) x| G: twisted star products,
ellipticity, and leading-order inversion.

A principal symbol is a pair of circle functions (one per cosphere sheet);
a crossed symbol is a finitely supported map g -> principal symbol.  The
product twists the right factor by the group action,

    (a * b)_m = sum_{gh = m} a_g . (b_h o C_{g^{-1}}),

matching operator composition D_g Phi_g D_h Phi_h = D_g (Phi_g D_h Phi_g^{-1})
Phi_{gh} under the exact Egorov transport of this package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import PeriodicFunction, PeriodicGrid
from .errors import GroupMismatch, NeumannDivergence, NotElliptic, UnsupportedGroup
from .groups import Element
from .transforms import CanonicalTransform, RealizationFamily

ELLIPTIC_TOL = 1e-6     # singular-value floor separating invertible from noise
INVERSE_RESID_TOL = 1e-8
NEUMANN_TAIL_TOL = 1e-10    # integer_shift inverse: stop once the geometric tail is below
NEUMANN_MAX_TERMS = 200
MAX_INVERSE_GRID = 4096     # finest grid the inversion refines to
VERDICTS = ("elliptic", "not_elliptic", "undecided")    # of is_elliptic


@dataclass(frozen=True)
class PrincipalSymbol:
    """Restriction of an order-zero symbol to the two cosphere sheets."""

    plus: PeriodicFunction
    minus: PeriodicFunction

    def __post_init__(self):
        if self.plus.grid.size != self.minus.grid.size:
            raise GroupMismatch("sheet functions on different grids")

    @property
    def grid(self) -> PeriodicGrid:
        return self.plus.grid

    @classmethod
    def constant(cls, grid: PeriodicGrid, c: complex) -> "PrincipalSymbol":
        f = PeriodicFunction.constant(grid, c)
        return cls(f, f)

    @classmethod
    def from_coeffs(cls, grid: PeriodicGrid, plus: dict[int, complex],
                    minus: dict[int, complex] | None = None) -> "PrincipalSymbol":
        p = PeriodicFunction.from_coeff_dict(grid, plus)
        m = p if minus is None else PeriodicFunction.from_coeff_dict(grid, minus)
        return cls(p, m)

    def sheet(self, s: int) -> PeriodicFunction:
        return self.plus if s > 0 else self.minus

    def values(self) -> np.ndarray:
        """Stacked samples, row 0 = plus sheet, row 1 = minus sheet."""
        return np.stack([self.plus.values, self.minus.values])

    def transport(self, C: CanonicalTransform) -> "PrincipalSymbol":
        """The pullback a o C (exact for affine base maps)."""
        out = []
        for s in (1, -1):
            src = self.sheet(C.sheet_after(s))
            affine = C.sheet_affine(s)
            out.append(src.compose(C.base(s, self.grid.nodes)) if affine is None
                       else src.compose_affine(*affine))
        return PrincipalSymbol(out[0], out[1])

    def __mul__(self, other):
        if isinstance(other, PrincipalSymbol):
            return PrincipalSymbol(self.plus * other.plus, self.minus * other.minus)
        return PrincipalSymbol(self.plus * other, self.minus * other)

    __rmul__ = __mul__

    def __add__(self, other: "PrincipalSymbol") -> "PrincipalSymbol":
        return PrincipalSymbol(self.plus + other.plus, self.minus + other.minus)

    def norm_inf(self) -> float:
        return max(self.plus.norm_inf(), self.minus.norm_inf())

    def min_abs(self) -> float:
        return min(self.plus.min_abs(), self.minus.min_abs())


class CrossedSymbol:
    """Finitely supported map g -> PrincipalSymbol over a realized group action."""

    def __init__(self, family: RealizationFamily, coeffs: dict[Element, PrincipalSymbol],
                 grid: PeriodicGrid | None = None):
        self.family = family
        self.group = family.group
        self.coeffs = {g: s for g, s in coeffs.items() if s.norm_inf() > 0.0}
        grids = {s.grid.size for s in coeffs.values()}
        if grid is None:
            if not grids:
                raise ValueError("empty symbol needs an explicit grid")
            if len(grids) > 1:
                raise GroupMismatch("coefficients on different grids")
            grid = next(iter(coeffs.values())).grid
        self.grid = grid
        for g in self.coeffs:
            if not self.group.contains(g):
                raise GroupMismatch(f"element {g!r} not in the group")

    # -- constructors --------------------------------------------------------

    @classmethod
    def unit(cls, family: RealizationFamily, grid: PeriodicGrid) -> "CrossedSymbol":
        return cls(family, {family.group.identity: PrincipalSymbol.constant(grid, 1.0)}, grid)

    # -- plumbing --------------------------------------------------------------

    @property
    def support(self) -> list[Element]:
        return sorted(self.coeffs.keys(), key=repr)

    def coeff(self, g: Element) -> PrincipalSymbol:
        if g in self.coeffs:
            return self.coeffs[g]
        return PrincipalSymbol.constant(self.grid, 0.0)

    def _check_compatible(self, other: "CrossedSymbol"):
        if self.family.signature() != other.family.signature():
            raise GroupMismatch("crossed symbols over different group actions")
        if self.grid.size != other.grid.size:
            raise GroupMismatch("crossed symbols on different grids")

    def __add__(self, other: "CrossedSymbol") -> "CrossedSymbol":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for g, s in other.coeffs.items():
            out[g] = out[g] + s if g in out else s
        return CrossedSymbol(self.family, out, self.grid)

    def __sub__(self, other: "CrossedSymbol") -> "CrossedSymbol":
        return self + (-1.0) * other

    def __rmul__(self, scalar) -> "CrossedSymbol":
        return CrossedSymbol(self.family,
                             {g: s * scalar for g, s in self.coeffs.items()}, self.grid)

    def norm_inf(self) -> float:
        """sum_g sup |a_g|, submultiplicative for the star product."""
        return sum(s.norm_inf() for s in self.coeffs.values())

    def resampled(self, grid: PeriodicGrid) -> "CrossedSymbol":
        """Exact refinement of every coefficient onto a finer grid."""
        if grid.size == self.grid.size:
            return self
        coeffs = {g: PrincipalSymbol(s.plus.resampled(grid), s.minus.resampled(grid))
                  for g, s in self.coeffs.items()}
        return CrossedSymbol(self.family, coeffs, grid)

    # -- the star product --------------------------------------------------------

    def star(self, other: "CrossedSymbol") -> "CrossedSymbol":
        self._check_compatible(other)
        grp = self.group
        out: dict[Element, PrincipalSymbol] = {}
        for g, ag in sorted(self.coeffs.items(), key=lambda kv: repr(kv[0])):
            C_ginv = self.family.canonical(grp.inv(g))
            for h, bh in sorted(other.coeffs.items(), key=lambda kv: repr(kv[0])):
                m = grp.mul(g, h)
                term = ag * bh.transport(C_ginv)
                out[m] = out[m] + term if m in out else term
        return CrossedSymbol(self.family, out, self.grid)


# ---------------------------------------------------------------------------
# ellipticity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EllipticityVerdict:
    verdict: str                     # one of VERDICTS
    min_singular_value: float
    witness_sheet: int               # +1 / -1
    witness_point: float
    method: str                      # 'regular_representation' | 'dominance'

    @property
    def is_elliptic(self) -> bool:
        return self.verdict == "elliptic"


def _regular_rep_tensor(a: CrossedSymbol) -> np.ndarray:
    """Stacked left-regular covariant matrices over all sample points.

    Shape (2, M, n, n); entry [.,., h, k] is a_{h k^{-1}} evaluated at C_h(p).
    Row-transported evaluation is forced by multiplicativity: with the star
    product above, M(a * b) = M(a) M(b) holds pointwise (validated in tests
    against the hand-computed Z/2 example).
    """
    grp = a.group
    if not grp.is_finite:
        raise UnsupportedGroup("regular representation needs a finite group")
    els = grp.elements()
    n = len(els)
    M = a.grid.size
    # transported samples t[h][g] = values of a_g o C_h on both sheets
    transported: dict[Element, dict[Element, np.ndarray]] = {}
    for h in els:
        Ch = a.family.canonical(h)
        transported[h] = {g: a.coeff(g).transport(Ch).values() for g in a.support}
    zero = np.zeros((2, M), dtype=complex)
    out = np.zeros((2, M, n, n), dtype=complex)
    for i, h in enumerate(els):
        for j, k in enumerate(els):
            g = grp.mul(h, grp.inv(k))
            vals = transported[h].get(g)
            out[:, :, i, j] = zero if vals is None else vals
    return out


def _regular_rep_verdict(tensor: np.ndarray, grid: PeriodicGrid,
                         tol: float) -> EllipticityVerdict:
    """Ellipticity from the smallest singular value of a regular-representation tensor."""
    svals = np.linalg.svd(tensor, compute_uv=False)      # (2, M, n)
    mins = svals[..., -1]
    flat = int(np.argmin(mins))
    sheet_idx, point_idx = np.unravel_index(flat, mins.shape)
    value = float(mins[sheet_idx, point_idx])
    verdict = "elliptic" if value > tol else "not_elliptic"
    return EllipticityVerdict(verdict, value, 1 if sheet_idx == 0 else -1,
                              float(grid.nodes[point_idx]), "regular_representation")


def is_elliptic(a: CrossedSymbol, tol: float = ELLIPTIC_TOL) -> EllipticityVerdict:
    """Invertibility of the symbol in the crossed product algebra.

    Finite groups: minimal singular value of the left-regular representation
    over all points of both sheets.  integer_shift: sufficient dominance
    criterion ``min |a_e| - sum_{g != e} max |a_g| > tol`` (verdict
    'undecided' when the criterion fails but the symbol may still be
    invertible).
    """
    grp = a.group
    if grp.is_finite:
        return _regular_rep_verdict(_regular_rep_tensor(a), a.grid, tol)
    # integer shift: dominance
    e = grp.identity
    a_e = a.coeff(e)
    rest = sum(a.coeff(g).norm_inf() for g in a.support if g != e)
    margin = a_e.min_abs() - rest
    sheet, point = 1, 0.0
    if margin > tol:
        verdict = "elliptic"
    elif a_e.min_abs() <= tol and rest == 0.0:
        verdict = "not_elliptic"
    else:
        verdict = "undecided"
    return EllipticityVerdict(verdict, float(margin), sheet, point, "dominance")


def invert_principal(a: CrossedSymbol) -> CrossedSymbol:
    """Inverse of an elliptic symbol in the crossed product.

    Finite groups: pointwise inversion of the regular-representation matrices,
    coefficients read back from the first block-row.  integer_shift: Neumann
    series around the dominant identity coefficient.  The grid refines
    automatically (exact coefficient zero-padding) until the two-sided
    residuals meet INVERSE_RESID_TOL; barely elliptic symbols whose inverses
    are rougher than MAX_INVERSE_GRID resolves raise NotElliptic.
    """
    grp = a.group
    if grp.is_finite:       # the verdict reads the tensor the first inversion uses
        tensor = _regular_rep_tensor(a)
        verdict = _regular_rep_verdict(tensor, a.grid, ELLIPTIC_TOL)
    else:
        verdict = is_elliptic(a)
    if not verdict.is_elliptic:
        raise NotElliptic(f"symbol verdict {verdict.verdict}, "
                          f"min singular value {verdict.min_singular_value:.3e}")
    work = a
    while True:
        if grp.is_finite:
            els = grp.elements()
            e_idx = els.index(grp.identity)
            inv = np.linalg.inv(tensor)                       # (2, M, n, n)
            coeffs = {}
            for j, k in enumerate(els):
                m = grp.inv(k)
                vals = inv[:, :, e_idx, j]
                if np.max(np.abs(vals)) < 1e-15:
                    continue
                coeffs[m] = PrincipalSymbol(PeriodicFunction(work.grid, vals[0]),
                                            PeriodicFunction(work.grid, vals[1]))
            r = CrossedSymbol(work.family, coeffs, work.grid)
        else:
            r = _invert_neumann(work)
        res = _inverse_residual(work, r)
        if res <= INVERSE_RESID_TOL:
            return r
        if 2 * work.grid.size > MAX_INVERSE_GRID:
            raise NotElliptic(
                f"inverse residual {res:.2e} above {INVERSE_RESID_TOL} at grid "
                f"{work.grid.size}; symbol too close to the ellipticity boundary")
        work = work.resampled(PeriodicGrid(2 * work.grid.size))
        if grp.is_finite:
            tensor = _regular_rep_tensor(work)


def _invert_neumann(a: CrossedSymbol) -> CrossedSymbol:
    grp = a.group
    e = grp.identity
    u = CrossedSymbol(a.family, {e: PrincipalSymbol(
        a.coeff(e).plus.reciprocal(), a.coeff(e).minus.reciprocal())}, a.grid)
    b = CrossedSymbol(a.family, {g: s for g, s in a.coeffs.items() if g != e}, a.grid) \
        if len(a.support) > 1 else None
    if b is None:
        return u
    w = (-1.0) * b.star(u)              # a * u = 1 + b * u, so invert 1 - w
    q = w.norm_inf()
    if q >= 1.0:
        raise NeumannDivergence(f"contraction factor {q:.3f} >= 1")
    # r = u * (1 + w + w*w + ...), truncated when the geometric tail drops
    acc = CrossedSymbol.unit(a.family, a.grid)
    power = CrossedSymbol.unit(a.family, a.grid)
    for j in range(1, NEUMANN_MAX_TERMS + 1):
        power = power.star(w)
        acc = acc + power
        if power.norm_inf() < NEUMANN_TAIL_TOL * (1.0 - q):
            break
    else:
        raise NeumannDivergence(
            f"tail above {NEUMANN_TAIL_TOL} after {NEUMANN_MAX_TERMS} terms")
    return u.star(acc)


def _inverse_residual(a: CrossedSymbol, r: CrossedSymbol) -> float:
    unit = CrossedSymbol.unit(a.family, a.grid)
    return max((a.star(r) - unit).norm_inf(), (r.star(a) - unit).norm_inf())
