"""Canonical transformations of the punctured cotangent bundle of the circle
and their exact quantizations on a Fourier window.

The cosphere bundle is two copies of the circle, labeled by the fiber sign
``sheet in {+1, -1}``.  A group element g realized by a circle diffeomorphism
``alpha_g`` acts by the pushforward transformation

    C_g(x, xi) = (alpha_g(x), xi / alpha_g'(x)),

so ``C_g C_h = C_{gh}`` holds on the nose, and conjugation transports symbols
backwards: ``Phi_g op(a) Phi_g^{-1} = op(a o C_{g^{-1}})`` (exactly, for the
isometric families below).  The quantization is the half-density shift

    (Phi_g u)(x) = |(alpha_g^{-1})'(x)|^{1/2} u(alpha_g^{-1}(x)),

which is unitary on L^2 and reduces to exact diagonal / mode-permutation
matrices for rotations, reflections and the half-wave flow.
``RealizationFamily.canonical`` is the one description of how an element
moves each sheet: an affine base map ``(sign, shift)`` per sheet for the
isometric elements (the half-wave flow, which has no base map, shifts the
two sheets oppositely), or the circle diffeomorphism of a curved element.
The exact action ``Phi_g e_k = p(k) e_{s k}`` (``RealizationFamily.mode_map``,
read by the window unitaries ``ModeMap`` and the semiclassical trace
functionals) and both symbol transports (``PrincipalSymbol.transport``,
``semiclass.transport_term``) are derived from it.  Elements acting by a
curved diffeomorphism have no exact action and are quantized as a
``WeightedShift``, the dense ``weighted_shift_matrix`` with its recorded
truncation defect.  ``Realization.phi`` returns one of these two objects per
element; both offer ``matrix``, ``left_mul`` and ``right_mul``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .circle import FrequencyWindow, PeriodicGrid, power_of_two_grid
from .errors import InvalidParameter, NonIsometricAction, NotADiffeo
from .groups import Element, GroupSpec

TWO_PI = 2.0 * math.pi
DIFFEO_CHECK_TOL = 1e-10    # allowed |alpha(alpha^{-1}(x)) - x| on a grid
SHIFT_STRIP = 64            # modes k >= 0 of a weighted shift per FFT


# ---------------------------------------------------------------------------
# circle diffeomorphisms
# ---------------------------------------------------------------------------

class CircleDiffeo:
    """Orientation-preserving or -reversing circle diffeomorphism.

    Lifted to R as ``alpha(x) = sign * x + d(x)`` with 2 pi periodic
    displacement d.  Forward/inverse/derivative are vectorized callables so
    the map can be evaluated exactly on any grid.  ``sign_shift``
    is ``(sign, shift)`` when ``alpha(x) = sign * x + shift`` exactly (the
    isometries), else None.
    """

    def __init__(self, forward: Callable, inverse: Callable, deriv: Callable,
                 sign: int, sign_shift: tuple[int, float] | None = None):
        self.forward = forward
        self.inverse = inverse
        self.deriv = deriv
        self.sign = sign
        self.sign_shift = sign_shift

    @classmethod
    def affine(cls, sign: int, shift: float) -> "CircleDiffeo":
        if sign not in (1, -1):
            raise InvalidParameter("affine circle map needs sign +-1")
        fwd = lambda x: sign * np.asarray(x, dtype=float) + shift
        inv = lambda y: sign * (np.asarray(y, dtype=float) - shift)
        der = lambda x: np.full_like(np.asarray(x, dtype=float), float(sign))
        return cls(fwd, inv, der, sign, sign_shift=(sign, shift))

    @classmethod
    def conjugated_rotation(cls, angle: float, eps: float) -> "CircleDiffeo":
        """phi o R_angle o phi^{-1} with phi(x) = x + eps sin x (eps < 1)."""
        if not (0.0 <= eps < 1.0):
            raise NotADiffeo(f"conjugating map needs eps in [0, 1), got {eps}")

        def phi(x):
            x = np.asarray(x, dtype=float)
            return x + eps * np.sin(x)

        def phi_inv(y):
            y = np.asarray(y, dtype=float)
            x = y.copy()
            for _ in range(60):  # Newton; phi' = 1 + eps cos x >= 1 - eps > 0
                step = (x + eps * np.sin(x) - y) / (1.0 + eps * np.cos(x))
                x = x - step
                if np.max(np.abs(step)) < 1e-15:
                    break
            return x

        def phi_der(x):
            return 1.0 + eps * np.cos(np.asarray(x, dtype=float))

        fwd = lambda x: phi(phi_inv(x) + angle)
        inv = lambda y: phi(phi_inv(y) - angle)

        def der(x):
            u = phi_inv(x)
            return phi_der(u + angle) / phi_der(u)

        return cls(fwd, inv, der, sign=1)

    def check(self, grid: PeriodicGrid):
        """Verify alpha o alpha^{-1} = id and derivative positivity on the grid."""
        x = grid.nodes
        err = np.max(np.abs(self.forward(self.inverse(x)) - x))
        if err > DIFFEO_CHECK_TOL:
            raise NotADiffeo(f"alpha o alpha^-1 deviates from id by {err:.2e}")
        d = self.deriv(x) * self.sign
        if np.min(d) <= 0:
            raise NotADiffeo("derivative changes sign on the grid")


# ---------------------------------------------------------------------------
# canonical transformations
# ---------------------------------------------------------------------------

Affine = tuple[int, float]              # (sign, shift): x -> sign * x + shift


@dataclass(frozen=True)
class CanonicalTransform:
    """Action of a group element on the cosphere bundle {+1,-1} x S^1.

    ``sheets`` holds, for sheets +1 and -1, the affine base map
    ``(sign, shift)`` of an isometric element: ``(s, x, xi)`` goes to
    ``(sign s, sign x + shift_s, sign xi)``.  A rotation or reflection moves
    both sheets alike; the half-wave flow shifts them by ``-t`` and ``+t``.
    A curved element has ``sheets=None`` and carries its ``diffeo`` (both
    sheets share the base map, and swap iff it reverses orientation).
    """

    sheets: tuple[Affine, Affine] | None
    diffeo: CircleDiffeo | None = None

    @property
    def sheet_swap(self) -> bool:
        sign = self.diffeo.sign if self.sheets is None else self.sheets[0][0]
        return sign == -1

    def sheet_after(self, sheet: int) -> int:
        return -sheet if self.sheet_swap else sheet

    def sheet_affine(self, sheet: int) -> Affine | None:
        """(sign, shift) of the base map on ``sheet``; None for a curved element."""
        return None if self.sheets is None else self.sheets[0 if sheet > 0 else 1]

    def base(self, sheet: int, x: np.ndarray) -> np.ndarray:
        """Base-point image of (sheet, x)."""
        if self.sheets is None:
            return self.diffeo.forward(x)
        sign, shift = self.sheet_affine(sheet)
        return sign * np.asarray(x, dtype=float) + shift


# ---------------------------------------------------------------------------
# exact quantized transforms on a window
# ---------------------------------------------------------------------------

class ModeMap:
    """Exact unitary of the form ``e_k -> p(k) e_{s k}`` on a Fourier window.

    Closed under products and adjoints; covers rotations, reflections,
    dihedral elements and the half-wave flow.  The mode map is the identity
    or the reversal of the window, so every product acts through a view
    ``[::sign]`` and a phase multiply, never through an index array.
    """

    def __init__(self, window: FrequencyWindow, sign: int, phases: np.ndarray):
        self.window = window
        self.sign = sign
        self.phases = np.asarray(phases, dtype=complex)
        if self.phases.shape != (window.dim,):
            raise ValueError("phase vector does not match window")

    def matrix(self) -> np.ndarray:
        return np.diag(self.phases)[::self.sign]

    def source(self, k):
        """The window index of s k for window indices k: k, or dim - 1 - k
        under a reflection; so (K Phi)[:, k] = p(k) K[:, s k]."""
        return k if self.sign == 1 else len(self.phases) - 1 - k

    def compose(self, other: "ModeMap") -> "ModeMap":
        """self o other (apply ``other`` first)."""
        return ModeMap(self.window, self.sign * other.sign,
                       self.phases[::other.sign] * other.phases)

    def left_mul(self, mat: np.ndarray) -> np.ndarray:
        """Phi @ mat without densifying Phi."""
        return self.phases[::self.sign, None] * mat[::self.sign]

    def right_mul(self, mat: np.ndarray) -> np.ndarray:
        """mat @ Phi."""
        return mat[:, ::self.sign] * self.phases[None, :]

    def conjugate(self, mat: np.ndarray) -> np.ndarray:
        """Phi @ mat @ Phi^{-1} (exact, unitary)."""
        s = self.sign
        out = self.phases[::s, None] * mat[::s, ::s]
        out *= np.conj(self.phases[::s])[None, :]
        return out


class WeightedShift:
    """Dense window matrix of a curved element's weighted shift
    (``weighted_shift_matrix``): unitary on L^2, but only approximately
    unitary after window truncation (see ``truncation_defect``)."""

    def __init__(self, window: FrequencyWindow, dense: np.ndarray):
        self.window = window
        self._dense = dense

    @cached_property
    def truncation_defect(self) -> float:
        """|| (Phi^H Phi - I) P_half ||_2, computed on first read."""
        gram = self._dense.conj().T @ self._dense - np.eye(self.window.dim)
        return float(np.linalg.norm(gram[:, self.window.inner_mask()], 2))

    def matrix(self) -> np.ndarray:
        return self._dense

    def left_mul(self, mat: np.ndarray) -> np.ndarray:
        return self._dense @ mat

    def right_mul(self, mat: np.ndarray) -> np.ndarray:
        return mat @ self._dense


def weighted_shift_matrix(diffeo: CircleDiffeo, window: FrequencyWindow) -> np.ndarray:
    """Dense window matrix of u -> |(alpha^{-1})'|^{1/2} (u o alpha^{-1}).

    Column k holds the Fourier coefficients of x -> w(x) exp(i k alpha^{-1}(x)),
    built on a grid of at least 8 N_F nodes so that it resolves the spectral
    spread of the highest column.  The exponentials are taken for k >= 0
    only; w is real, so column -k of the table is the conjugate of column k.
    The table is built and transformed in strips of SHIFT_STRIP modes k >= 0,
    each with its conjugate columns, one FFT per strip, so only one strip is
    ever held; each column's FFT is independent of the others, so the matrix
    is bitwise the one of the whole table.
    """
    build_grid = power_of_two_grid(8 * window.cutoff)
    x = build_grid.nodes
    ainv = diffeo.inverse(x)
    w = np.sqrt(np.abs(1.0 / diffeo.deriv(ainv)))
    rows = np.mod(window.modes, build_grid.size)       # row j = coeff of e^{ijx}, j mod M
    nf = window.cutoff
    out = np.empty((window.dim, window.dim), dtype=complex)
    for lo in range(0, nf + 1, SHIFT_STRIP):
        hi = min(lo + SHIFT_STRIP, nf + 1)
        neg = hi - max(lo, 1)                           # modes -hi+1 .. -max(lo, 1)
        cols = np.empty((build_grid.size, neg + hi - lo), dtype=complex)
        half = cols[:, neg:]
        np.multiply(w[:, None], np.exp(1j * np.outer(ainv, np.arange(lo, hi))), out=half)
        np.conj(half[:, :-neg - 1:-1], out=cols[:, :neg])
        np.fft.fft(cols, axis=0, out=cols)
        cols /= build_grid.size
        out[:, nf - hi + 1:nf - hi + 1 + neg] = cols[rows, :neg]
        out[:, nf + lo:nf + hi] = cols[rows, neg:]
    return out


# ---------------------------------------------------------------------------
# group realizations
# ---------------------------------------------------------------------------

class RealizationFamily:
    """Window-independent assignment g -> (canonical transform, quantization recipe).

    Kinds:

    * ``trivial``          : the trivial group, identity only
    * ``rotation``         : cyclic(m) or integer_shift(theta) by rigid rotations
    * ``reflection``       : cyclic(2) by x -> -x
    * ``dihedral``         : dihedral(m) by x -> (-1)^f x + 2 pi j / m
    * ``curved_rotation``  : cyclic(m) by phi o R_{2 pi j/m} o phi^{-1}, phi = x + eps sin x
    * ``half_wave``        : integer_shift(t) by exp(i n t |D|)

    ``canonical`` is the one description of each element's action on the
    sheets; the exact mode action ``mode_map`` and both symbol transports
    read it.  A new kind is one row of the validity table in ``_validate``
    plus one branch: in ``diffeo`` for a circle-map kind (an affine map is
    exact, any other is quantized as a ``WeightedShift``), or in
    ``canonical`` for a flow with no base map, like ``half_wave``.
    """

    def __init__(self, group: GroupSpec, kind: str, eps: float = 0.0):
        self.group = group
        self.kind = kind
        self.eps = eps
        self._validate()

    def _validate(self):
        g, k = self.group, self.kind
        ok = {
            "trivial": g.kind == "trivial",
            "rotation": g.kind in ("cyclic", "integer_shift"),
            "reflection": g.kind == "cyclic" and g.m == 2,
            "dihedral": g.kind == "dihedral",
            "curved_rotation": g.kind == "cyclic",
            "half_wave": g.kind == "integer_shift",
        }.get(k)
        if ok is None:
            raise InvalidParameter(f"unknown realization kind {k!r}")
        if not ok:
            raise InvalidParameter(f"realization {k!r} incompatible with group {g.kind!r}")
        if k == "curved_rotation" and not (0.0 <= self.eps < 1.0):
            raise NotADiffeo(f"curved_rotation needs eps in [0,1), got {self.eps}")

    @property
    def is_isometric(self) -> bool:
        return self.kind != "curved_rotation" or self.eps == 0.0

    def signature(self) -> tuple:
        return (self.group.kind, self.group.m, round(self.group.theta, 12),
                self.kind, round(self.eps, 12))

    # -- per-element data ---------------------------------------------------

    def _angle(self, g: Element) -> float:
        if self.group.kind == "cyclic":
            return TWO_PI * g / self.group.m
        return self.group.theta * g

    def diffeo(self, g: Element) -> CircleDiffeo:
        k = self.kind
        if k in ("trivial",):
            return CircleDiffeo.affine(1, 0.0)
        if k == "rotation":
            return CircleDiffeo.affine(1, self._angle(g))
        if k == "reflection":
            return CircleDiffeo.affine(-1 if g == 1 else 1, 0.0)
        if k == "dihedral":
            j, f = g
            return CircleDiffeo.affine(-1 if f else 1, TWO_PI * j / self.group.m)
        if k == "curved_rotation":
            if g == 0 or self.eps == 0.0:
                return CircleDiffeo.affine(1, self._angle(g))
            return CircleDiffeo.conjugated_rotation(self._angle(g), self.eps)
        raise InvalidParameter(f"half_wave has no underlying circle diffeomorphism")

    def mode_map(self, g: Element, ks: np.ndarray) -> tuple[int, np.ndarray]:
        """(sign s, phases p) with Phi_g e_k = p(k) e_{s k} for the modes ``ks``:
        p(k) = exp(-i s k shift), with the shift of the sheet of k.

        Raises NonIsometricAction for elements acting by a curved
        diffeomorphism, which have no exact mode action.
        """
        ks = np.asarray(ks)
        if g == self.group.identity:
            return 1, np.ones(ks.shape, dtype=complex)
        sheets = self.canonical(g).sheets
        if sheets is None:
            raise NonIsometricAction("curved realizations have no exact mode action")
        (sign, up), (_, down) = sheets
        shift = up if up == down else np.where(ks >= 0, up, down)
        return sign, np.exp(-1j * sign * ks * shift)

    def canonical(self, g: Element) -> CanonicalTransform:
        """The one description of how g moves each cosphere sheet."""
        if self.kind == "half_wave":
            t = self.group.theta * g
            return CanonicalTransform(((1, -t), (1, t)))
        d = self.diffeo(g)
        return CanonicalTransform(None, d) if d.sign_shift is None \
            else CanonicalTransform((d.sign_shift, d.sign_shift))

    def at(self, window: FrequencyWindow) -> "Realization":
        return Realization(self, window)


class Realization:
    """A RealizationFamily instantiated on a fixed Fourier window; caches each
    Phi_g as a ModeMap (exact elements) or a WeightedShift (curved ones)."""

    def __init__(self, family: RealizationFamily, window: FrequencyWindow):
        if not family.is_isometric:
            window.require()
        self.family = family
        self.group = family.group
        self.window = window
        self._cache: dict[Element, ModeMap | WeightedShift] = {}

    def phi(self, g: Element) -> ModeMap | WeightedShift:
        if g in self._cache:
            return self._cache[g]
        phi = self._build(g)
        self._cache[g] = phi
        return phi

    def _build(self, g: Element) -> ModeMap | WeightedShift:
        fam, w = self.family, self.window
        if fam.is_isometric or g == self.group.identity:
            return ModeMap(w, *fam.mode_map(g, w.modes))
        return WeightedShift(w, weighted_shift_matrix(fam.diffeo(g), w))
