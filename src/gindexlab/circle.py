"""Grids, discrete Fourier transforms, and winding numbers on the circle.

Conventions used throughout the package:

* grid nodes ``x_j = 2 pi j / M``, ``j = 0 .. M-1``;
* Fourier coefficients ``c_k = (1/M) sum_j f(x_j) exp(-i k x_j)`` for
  ``k = -floor(M/2) .. ceil(M/2)-1`` (so ``f(x) = sum_k c_k exp(i k x)``
  for band-limited ``f``).

Off-grid evaluation of such sums goes through :func:`fourier_sum`, which
splits the modes into sqrt(M) blocks so that no M x M exponential table is
ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivisionNearZero, GridMismatch, NearZeroValue, UnresolvedWinding, WindowTooSmall

NEAR_ZERO = 1e-8          # invertibility threshold for functions on the grid
MIN_CUTOFF = 8            # smallest window cutoff an index sweep or curved shift accepts
MIN_GRID = 64             # smallest power-of-two build grid
MIN_GRID_SIZE = 4         # fewest nodes a PeriodicGrid accepts
INNER_FRACTION = 0.5      # inner sub-window |k| <= INNER_FRACTION * N_F


@dataclass(frozen=True)
class PeriodicGrid:
    """Equispaced grid on [0, 2 pi)."""

    size: int

    def __post_init__(self):
        if self.size < MIN_GRID_SIZE:
            raise ValueError(f"grid size must be >= {MIN_GRID_SIZE}, got {self.size}")

    @property
    def nodes(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size

    @property
    def max_mode(self) -> int:
        """The largest |mode| the grid resolves, M // 2 - 1; past it transfers alias."""
        return self.size // 2 - 1

    @property
    def modes(self) -> np.ndarray:
        """Coefficient indices -floor(M/2) .. ceil(M/2)-1 in ascending order."""
        half = self.size // 2
        return np.arange(-half, self.size - half)


def dft(values: np.ndarray) -> np.ndarray:
    """Fourier coefficients of grid samples, modes ascending as in ``PeriodicGrid.modes``."""
    return np.fft.fftshift(np.fft.fft(values)) / len(values)


def idft(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dft`."""
    return np.fft.ifft(np.fft.ifftshift(coeffs)) * len(coeffs)


def fourier_sum(coeffs: np.ndarray, first_mode: int, points: np.ndarray) -> np.ndarray:
    """``f(x) = sum_k c_k e^{ikx}`` over the modes ``k = first_mode .. first_mode+M-1``.

    ``coeffs`` has shape (M,) or (M, L); the result has shape (P,) or (P, L)
    for P points.  With ``B = ceil(sqrt(M))`` and ``k = first_mode + qB + r``,
    ``f(x) = sum_q e^{i(first_mode+qB)x} sum_r c_{qB+r} e^{irx}``: two P x sqrt(M)
    exponential tables and one P x B by B x L product per block q, so
    O(P sqrt(M)) exponentials and O(P (sqrt(M) + L)) memory, never a P x M table.
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    c = np.asarray(coeffs, dtype=complex)
    M = c.shape[0]
    B = math.isqrt(M - 1) + 1
    Q = -(-M // B)
    blocks = np.zeros((Q * B, c.size // M), dtype=complex)
    blocks[:M] = c.reshape(M, -1)
    blocks = blocks.reshape(Q, B, -1)
    x = 1j * points[:, None]
    inner = np.exp(x * np.arange(B))
    outer = np.exp(x * (first_mode + B * np.arange(Q)))
    out = np.zeros((len(points), blocks.shape[2]), dtype=complex)
    for q in range(Q):
        out += outer[:, q, None] * (inner @ blocks[q])
    return out.reshape((len(points),) + c.shape[1:])


class PeriodicFunction:
    """Complex function on a circle grid with a cached Fourier representation.

    Immutable by contract: none of the public operations mutate ``self``.
    """

    def __init__(self, grid: PeriodicGrid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.size,):
            raise ValueError(f"expected {grid.size} values, got shape {values.shape}")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
        self._coeffs: np.ndarray | None = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_callable(cls, grid: PeriodicGrid, fn) -> "PeriodicFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex))

    @classmethod
    def from_coeff_dict(cls, grid: PeriodicGrid, coeffs: dict[int, complex]) -> "PeriodicFunction":
        """Build from a sparse mode -> coefficient map (exact trig polynomial)."""
        x = grid.nodes
        vals = np.zeros(grid.size, dtype=complex)
        for k, c in coeffs.items():
            if abs(k) > grid.max_mode:
                raise ValueError(f"mode {k} not resolved on grid of size {grid.size}")
            vals += c * np.exp(1j * k * x)
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid: PeriodicGrid, c: complex) -> "PeriodicFunction":
        return cls(grid, np.full(grid.size, c, dtype=complex))

    # -- representations -------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = dft(self.values)
            self._coeffs.setflags(write=False)
        return self._coeffs

    def coeff(self, k: int) -> complex:
        """Single Fourier coefficient; zero beyond the grid's mode range."""
        half = self.grid.size // 2
        if not (-half <= k < self.grid.size - half):
            return 0.0
        return complex(self.coeffs[k + half])

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Trigonometric-interpolation evaluation at arbitrary points."""
        return fourier_sum(self.coeffs, -(self.grid.size // 2), points)

    # -- pointwise algebra -------------------------------------------------

    def _check_grid(self, other: "PeriodicFunction"):
        if self.grid.size != other.grid.size:
            raise GridMismatch(f"grids of size {self.grid.size} and {other.grid.size}")

    def __add__(self, other: "PeriodicFunction") -> "PeriodicFunction":
        self._check_grid(other)
        return PeriodicFunction(self.grid, self.values + other.values)

    def __mul__(self, other):
        if isinstance(other, PeriodicFunction):
            self._check_grid(other)
            return PeriodicFunction(self.grid, self.values * other.values)
        return PeriodicFunction(self.grid, self.values * other)

    __rmul__ = __mul__

    def reciprocal(self) -> "PeriodicFunction":
        if self.min_abs() < NEAR_ZERO:
            raise DivisionNearZero(f"min |f| = {self.min_abs():.3e} below {NEAR_ZERO}")
        return PeriodicFunction(self.grid, 1.0 / self.values)

    def compose(self, circle_map: np.ndarray) -> "PeriodicFunction":
        """f o m for a sampled circle map m (values of m at the grid nodes)."""
        return PeriodicFunction(self.grid, self.eval_at(np.asarray(circle_map, dtype=float)))

    def resampled(self, new_grid: PeriodicGrid) -> "PeriodicFunction":
        """Exact trigonometric resampling onto a finer grid (zero-padded modes)."""
        if new_grid.size == self.grid.size:
            return self
        if new_grid.size < self.grid.size:
            raise ValueError("resampling only refines")
        c = np.zeros(new_grid.size, dtype=complex)
        half_old = self.grid.size // 2
        half_new = new_grid.size // 2
        c[half_new - half_old: half_new - half_old + self.grid.size] = self.coeffs
        return PeriodicFunction(new_grid, idft(c))

    def compose_affine(self, sign: int, shift: float) -> "PeriodicFunction":
        """Exact composition with x -> sign*x + shift at coefficient level.

        ``(f o m)(x) = sum_k c_k e^{ik shift} e^{i k sign x}``: phase twist plus,
        for sign = -1, a mode flip.  Spectrally exact, no resampling error.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        c = self.coeffs * np.exp(1j * self.grid.modes * shift)
        if sign == -1:
            # reverse the modes -(ceil(M/2)-1) .. ceil(M/2)-1; the extreme mode
            # -M/2 of an even grid has no representable negation and is dropped
            even = 1 - self.grid.size % 2
            c[even:] = c[even:][::-1]
            c[:even] = 0.0
        vals = idft(c)
        return PeriodicFunction(self.grid, vals)

    # -- scalars -----------------------------------------------------------

    def min_abs(self) -> float:
        return float(np.min(np.abs(self.values)))

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))


def winding_number(f: PeriodicFunction) -> int:
    """Winding number of a nonvanishing function around the origin.

    Sums principal-branch increments of arg f between consecutive nodes
    (the closing segment back to node 0 included) and rounds; raises if the
    function dips near zero or the rounding residual exceeds 0.1.
    """
    if f.min_abs() <= NEAR_ZERO:
        raise NearZeroValue(f"min |f| = {f.min_abs():.3e} on the grid")
    v = f.values
    ratios = np.roll(v, -1) / v
    total = float(np.sum(np.angle(ratios))) / (2.0 * np.pi)
    w = int(np.rint(total))
    if abs(total - w) > 0.1:
        raise UnresolvedWinding(f"winding sum {total:.6f} not within 0.1 of an integer")
    return w


@dataclass(frozen=True)
class FrequencyWindow:
    """Symmetric Fourier mode window -N_F .. N_F (dimension 2 N_F + 1)."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be positive")

    @property
    def dim(self) -> int:
        return 2 * self.cutoff + 1

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.cutoff, self.cutoff + 1)

    def inner_mask(self, fraction: float = INNER_FRACTION) -> np.ndarray:
        """Boolean mask of the inner sub-window |k| <= fraction * N_F."""
        return np.abs(self.modes) <= fraction * self.cutoff

    def require(self):
        if self.cutoff < MIN_CUTOFF:
            raise WindowTooSmall(f"window cutoff {self.cutoff} below required {MIN_CUTOFF}")


def power_of_two_grid(need: int) -> PeriodicGrid:
    """The smallest power-of-two grid with at least ``need`` and MIN_GRID nodes."""
    return PeriodicGrid(1 << (max(need, MIN_GRID) - 1).bit_length())


def grid_for_window(window: FrequencyWindow) -> PeriodicGrid:
    """Power-of-two grid resolving all mode differences |j - k| <= 2 N_F."""
    return power_of_two_grid(4 * (window.cutoff + 1))
