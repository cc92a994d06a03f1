"""Fredholm index, parametrix construction, and conjugacy-class-localized
analytic indices.

Two finite-window facts shape all the numerics here:

* a square window truncation of a Fredholm operator always has equally many
  near-zero left and right singular vectors (boundary artifacts absorb the
  index), so kernel and cokernel dimensions are counted as *interior* null
  mass: the total weight of null vectors on the inner half-window.  Edge
  artifacts carry their mass at |k| ~ N_F and drop out.  The mass of a null
  space is the same in every orthonormal basis of it, so any basis serves.

* the trace of a commutator of window matrices vanishes identically, so the
  localized trace functional must also be restricted to the inner window;
  parametrix remainders decay away from the zero-section cut, which makes the
  interior trace converge to the infinite-dimensional one as windows grow.

With its modes in the order 0, 1, -1, 2, -2, ..., the window of a trig
symbol is banded, reflection parts included (a mode map k -> +-k moves a
mode by at most one place there).  ``index_of_matrix`` has two paths,
chosen by its input.  An operator whose parts are transfer bands under mode
maps, with a band that the bands certify (``_part_band``), is counted from
the band (``_banded_sides``): M^H M + mu^2 is assembled from column strips
as a block-tridiagonal matrix and factored block by block, three steps of
block inverse iteration find its smallest eigenvectors, and the SVD of the
n x 16 product M X (``_Banded.left``) gives Ritz values and vectors; the
same on M^H gives the cokernel: O(n b^2) work for band b against O(n^3) for
a full SVD.  Every entry of a part K_g Phi_g that the engine reads comes
from one gather (``_gather``) on the quantizer's transfer bands: the index
strips (``_window_strips``), the band certification and the irrep blocks
below.  Every other input goes to the dense SVD (``_dense_sides``, also the
band path's oracle) on the window realized once: a curved Phi_g, a band
above dim/8 or not certified, a dense matrix, and every window the band path
gives up on (a failed factorization, a null space that fills every block up
to dim/8, or unequal null counts on the two sides).

The localized index reads only Tr_g(S1^N) - Tr_g(S2^N), per element, from
the window's A and E0 (``GOperatorProblem.inverse_operator``), and never
builds the almost inverse E (only ``parametrix`` does).  Two paths compute
these traces:

* block path (finite group, isometric family): every Phi_g is a mode map and
  Phi_g Phi_h = Phi_gh, so X = sum_g K_g Phi_g -> X(pi) = sum_g pi(g) (x)
  K_g Phi_g is an algebra isomorphism onto one (d_pi dim)^2 block per irrep
  pi (``GroupSpec.irreps``), its modes in the interleaved order and pi's
  index fastest.  One builder (``_irrep_blocks``) makes every block, A(pi)
  as strips at the parts' band b and E0(pi) densely, from one gather per
  part.  There A(pi) is banded (d_pi b + d_pi - 1) and the inner window is
  a prefix.  The remainder powers come from the push-through identity S1 E0
  = E0 S2: with H_1 = E0 and H_{j+1} = E0 + H_j S2, exactly S1^k = 1 - H_k
  A and S2^k = 1 - A H_k (``_neumann_heads``).  So the only dense products
  are the N - N//2 - 1 steps of that recursion per irrep, run by row strips
  in E0(pi)'s storage (a row strip of H_{j+1} reads only the same strip of
  H_j and of E0), the last ones only on the rows and columns the traces
  read: at N = 4, H_2 takes E0(pi)'s place, E0(pi) and S2 are the only
  dense arrays, and the head costs about 0.8 n^3 multiply-adds for n = d_pi
  dim.  The irreps are taken smallest first, so the largest block's two
  dense arrays are formed with no other irrep's E0(pi) alive.  S1 is not
  formed; S2 = 1 - A E0, the prefix rows of S^{N - N//2} and the prefix
  columns of S^{N//2} go through A's band (``_Banded``), and A is never
  formed densely unless its band is not certified.  The inner diagonals of
  S^N = S^{N - N//2} S^{N//2} are read from those rows and columns, and
  Fourier inversion, Tr_l = (1/|G|) sum_pi d_pi sum_ab conj(pi(l)_ab)
  T_pi[a, b], recovers the element traces on the product supports of E0 and
  A, which a finite group never prunes.
* graded path (curved eps > 0 and integer_shift problems, and the test
  oracle of the block path): products by ``LabeledOperator.multiply``, where
  A E0, the identity pairs of E0 A, the first factor A_h Phi_{g^-1} of each
  conjugation and A's realized window read A's certified band
  (``TransferBand.band``); E0 certifies none.  S1 and S2 are formed in place
  on the fresh parts of E0 A and A E0 (``_one_minus``), one at a time: S2
  only once S1's traces are taken and its parts released.  The powers run
  on the inner rows, a conjugation by Phi_e is the held part itself, and the
  last product is traced in one pass over its pairs of parts, never formed.

A sweep takes at least two strictly increasing windows (drifts compare the
last two).  Each problem caches a window's index data (``_window_index``) and
remainder traces (``_window_traces``) per numerics, so every check on one
problem computes each window once; ``decomposition_check`` takes both from
one operator build per window.  ``_sweep`` computes the windows largest
first, so each smaller window's arrays fit in memory the larger one has
freed, and lists them in ascending order, as reports do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circle import INNER_FRACTION, FrequencyWindow, winding_number
from .errors import (NoHomomorphism, NonStabilized, NoSpectralGap,
                     UnsupportedGroup)
from .groups import Element
from .quantize import (BAND_FLOOR, RITZ_BLOCK, LabeledOperator, _Banded, _strip_layout,
                       certify_band)
from .samples import winding_problem
from .symbols import CrossedSymbol
from .problems import GOperatorProblem
from .transforms import ModeMap, WeightedShift

GAP_REQUIREMENT = 1e3
DEFAULT_ZERO_TOL = 1e-8
DRIFT_TOL = 1e-3
CHI_TOL = 1e-3             # |ind_<g0>| below this counts as vanishing
PARAMETRIX_ORDER = 4       # Neumann order N of the parametrix
HEAD_STRIP = 64            # rows of a block-path Neumann head per dense product


def _sweep(windows, per_window) -> list:
    """``per_window(cutoff)`` for at least two strictly increasing windows,
    computed largest first and listed in ascending order."""
    if len(windows) < 2 or any(a >= b for a, b in zip(windows, windows[1:])):
        raise ValueError(f"a window sweep needs at least two strictly increasing "
                         f"cutoffs, got {tuple(windows)}")
    return [per_window(cutoff) for cutoff in reversed(windows)][::-1]


# ---------------------------------------------------------------------------
# numerical Fredholm index via interior-weighted null counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowIndexData:
    cutoff: int
    index: int
    kernel_dim: int
    cokernel_dim: int
    sv_gap: float
    rounding_residual: float
    solver: str                # "banded" or "dense": the path that counted this window


@dataclass(frozen=True)
class IndexReport:
    index: int
    kernel_dim: int
    cokernel_dim: int
    sv_gap: float
    stabilization: list[WindowIndexData]
    zero_tol: float


def index_of_matrix(mat: np.ndarray | LabeledOperator, window: FrequencyWindow,
                    zero_tol: float = DEFAULT_ZERO_TOL,
                    inner_fraction: float = INNER_FRACTION) -> WindowIndexData:
    """Interior kernel/cokernel counts of one window matrix.

    Null singular vectors supported near the window edge are truncation
    artifacts, not spectral data: they are excluded from the kernel/cokernel
    counts and from the gap (the gap compares the smallest above-threshold
    singular value against the largest *interior* null one).  An operator
    whose transfer-band parts under mode maps certify their band is counted
    by ``_banded_sides``; any other ``mat``, and any window that path gives
    up on, by the dense SVD of the window realized once (``_dense_sides``).
    """
    inner = window.inner_mask(inner_fraction)
    sides, solver = None, "banded"
    if isinstance(mat, LabeledOperator) and mat.bands and mat.realization.family.is_isometric:
        parts = [(mat.bands[g], mat.realization.phi(g)) for g in mat.support]
        sides = _banded_sides(parts, _interleaved(window.dim), inner, zero_tol)
    if sides is None:
        mat = mat.realize() if isinstance(mat, LabeledOperator) else mat
        sides, solver = _dense_sides(mat, inner, zero_tol), "dense"
    return _window_data(window.cutoff, zero_tol, solver, *sides)


def _window_data(cutoff: int, zero_tol: float, solver: str, smax: float,
                 kernel: tuple, cokernel: tuple) -> WindowIndexData:
    """Counts and gap from each side's (singular values, inner masses of the
    near-zero ones): right vectors for the kernel, left for the cokernel."""
    (s_ker, v_mass), (s_coker, u_mass) = kernel, cokernel
    threshold = zero_tol * smax
    floor = smax * 1e-18
    s_all = np.concatenate([s_ker, s_coker])
    nonzero = s_all[s_all >= threshold]
    if v_mass.size == 0:
        gap = min(np.min(s_all) / threshold, 1e18)
        return WindowIndexData(cutoff, 0, 0, 0, float(gap), 0.0, solver)
    interior = np.concatenate([s_ker[s_ker < threshold][v_mass >= 0.25],
                               s_coker[s_coker < threshold][u_mass >= 0.25]])
    largest_interior_zero = float(np.max(interior)) if interior.size else floor
    smallest_nonzero = float(np.min(nonzero)) if nonzero.size else smax
    gap = min(smallest_nonzero / max(largest_interior_zero, floor), 1e18)
    ker_mass = float(np.sum(v_mass))
    coker_mass = float(np.sum(u_mass))
    ker = int(np.rint(ker_mass))
    coker = int(np.rint(coker_mass))
    resid = max(abs(ker_mass - ker), abs(coker_mass - coker))
    return WindowIndexData(cutoff, ker - coker, ker, coker, float(gap), resid, solver)


def _dense_sides(mat: np.ndarray, inner: np.ndarray, zero_tol: float):
    """Both sides from the full SVD: the fallback and the banded path's oracle."""
    U, s, Vh = np.linalg.svd(mat)
    smax = s[0] if s[0] > 0 else 1.0
    zero = s < zero_tol * smax
    v_mass = np.sum(np.abs(Vh[zero][:, inner]) ** 2, axis=1)
    u_mass = np.sum(np.abs(U[inner][:, zero]) ** 2, axis=0)
    return smax, (s, v_mass), (s, u_mass)


GRAM_SHIFT = 1e-7          # mu = GRAM_SHIFT * smax, above the Gram rounding floor
POWER_STEPS = 20           # power steps on M^H M for smax
INVERSE_STEPS = 3          # block inverse-iteration steps


def _interleaved(dim: int) -> np.ndarray:
    """Window positions of the modes 0, 1, -1, 2, -2, ...; in this order a mode
    map k -> +-k, and so a reflection part, is banded."""
    cutoff = dim // 2
    k = np.arange(1, cutoff + 1)
    order = np.empty(dim, dtype=np.intp)
    order[0], order[1::2], order[2::2] = cutoff, cutoff + k, cutoff - k
    return order


def _gather(K, phi: ModeMap, j: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(K Phi)[j, c] = p(c) K[j, s c] for broadcast window indices j and c, K a
    dense part or a transfer band."""
    out = K[j, phi.source(c)]
    out *= phi.phases[c]
    return out


def _window_strips(parts: list, order: np.ndarray, b: int, bs: int, transpose: bool) -> np.ndarray:
    """Column strips (``_strip_layout``) of the interleaved M = sum_g K_g Phi_g
    over (part, mode map) pairs, summed as ``realize`` sums, or of M^T when
    ``transpose``; M is not formed."""
    rows, cols, outside = _strip_layout(len(order), b, bs)
    j, c = (order[cols], order[rows]) if transpose else (order[rows], order[cols])
    (K, phi), *rest = parts
    out = _gather(K, phi, j, c)
    for K, phi in rest:
        out += _gather(K, phi, j, c)
    out[outside] = 0
    return out


def _part_band(parts: list, order: np.ndarray) -> int | None:
    """Band of M = sum_g K_g Phi_g, the largest |i - j| above the floor in
    M[order][:, order], from its (band, mode map) pairs, or None.

    A transfer t moves an entry at most 2|t| + 1 interleaved places (pos(k) =
    2|k| - [k > 0], s_g k = +-k), so reach 2T + 1 holds every entry above the
    floor for the T of ``certify_band``; None where it refuses."""
    found = certify_band([K for K, _ in parts], len(order), lambda T: _window_strips(
        parts, order, 2 * T + 1, max(4 * T + 2, RITZ_BLOCK), False))
    if found is None:
        return None
    mag = np.abs(found[1])
    r, c = np.nonzero((mag > BAND_FLOOR * mag.max()).any(axis=0))   # strip row r, column c
    return int(np.max(np.abs(r - 2 * found[0] - 1 - c), initial=0))


def _gram(M: _Banded) -> tuple[np.ndarray, np.ndarray]:
    """Block-tridiagonal M^H M: diagonal blocks D and subdiagonal blocks F.

    With blocks of at least 2b columns, strips I and I+1 share only the 2b
    rows after strip I's first bs, so no block couples further."""
    strips, b = M.strips, M.reach
    bs = strips.shape[2]
    H = strips.conj().swapaxes(1, 2)
    return H @ strips, H[1:, :, :2 * b] @ strips[:-1, bs:]


def _block_cholesky(D: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G = L L^H for block-tridiagonal G, returned as the inverses of the
    diagonal factors L_I and the subdiagonal blocks W_I = F_I L_I^{-H};
    raises LinAlgError unless G is positive definite."""
    L = np.empty_like(D)
    W = np.empty_like(F)
    for i in range(len(D)):
        L[i] = np.linalg.cholesky(D[i] - W[i - 1] @ W[i - 1].conj().T if i else D[i])
        if i < len(F):
            W[i] = np.linalg.solve(L[i], F[i].conj().T).conj().T
    return np.linalg.inv(L), W


def _cholesky_solve(Linv: np.ndarray, W: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """G^{-1} Y by forward and back substitution over the blocks."""
    Z = np.empty_like(Y)
    Z[0] = Linv[0] @ Y[0]
    for i in range(1, len(Y)):
        Z[i] = Linv[i] @ (Y[i] - W[i - 1] @ Z[i - 1])
    Z[-1] = Linv[-1].conj().T @ Z[-1]               # back substitution, in place
    for i in reversed(range(len(Y) - 1)):
        Z[i] = Linv[i].conj().T @ (Z[i] - W[i].conj().T @ Z[i + 1])
    return Z


def _start_block(n: int, k: int) -> np.ndarray:
    """Fixed pseudo-random n x k start vectors, entries uniform in the square
    |re|, |im| < 1/2: the SplitMix64 hash of each entry's index.  Not
    numpy.random: numpy imports it lazily, and that first import (about
    15 ms) would cost more than the sign calibration's three windows."""
    z = np.arange(1, 2 * n * k + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0 ** -53 - 0.5
    return (u[0::2] + 1j * u[1::2]).reshape(n, k)


def _largest_singular(D: np.ndarray, F: np.ndarray) -> float:
    """smax of M from power steps on the block-tridiagonal M^H M."""
    FH = F.conj().swapaxes(1, 2)
    x = _start_block(D.shape[0] * D.shape[1], 1).reshape(*D.shape[:2], 1)
    lam = 0.0
    for _ in range(POWER_STEPS):
        y = D @ x
        y[1:] += F @ x[:-1]
        y[:-1] += FH @ x[1:]
        lam = float(np.linalg.norm(y))
        x = y / (lam or 1.0)
    return np.sqrt(lam)


def _ritz_side(M: _Banded, D: np.ndarray, F: np.ndarray, n: int, inner: np.ndarray,
               smax: float, threshold: float):
    """Ritz values and the inner masses of the near-zero right Ritz vectors of
    the interleaved M, by block inverse iteration on G = M^H M + mu^2 (D, F
    are overwritten); None when G does not factor or the null space fills
    every block up to dim/8."""
    nb, bs = D.shape[:2]
    idx = np.arange(bs)
    pad = idx[idx >= n - (nb - 1) * bs]
    D[:, idx, idx] += (GRAM_SHIFT * smax) ** 2
    D[-1, pad, pad] = smax ** 2          # the padding columns stay far from the null space
    try:
        factors = _block_cholesky(D, F)
    except np.linalg.LinAlgError:
        return None
    k = RITZ_BLOCK
    while True:
        X = np.zeros((nb * bs, k), dtype=complex)
        X[:n] = _start_block(n, k)
        for _ in range(INVERSE_STEPS):
            X = _cholesky_solve(*factors, X.reshape(nb, bs, k)).reshape(-1, k)
            X = np.linalg.qr(X)[0]
        _, s, Wh = np.linalg.svd(M.left(X, n), full_matrices=False)
        zero = s < threshold
        if not zero.all():
            V = X[:n] @ Wh[zero].conj().T
            return s, np.sum(np.abs(V[inner]) ** 2, axis=0)
        k *= 2
        if k > n / 8:
            return None


def _banded_sides(parts: list, order: np.ndarray, inner: np.ndarray, zero_tol: float):
    """Both sides from the band b of the interleaved window M = sum_g K_g
    Phi_g over (part, mode map) pairs (``_window_strips``), or None for the
    dense SVD: when ``_part_band`` does not certify b, when a side gives up,
    or when the sides find different numbers of near-zero Ritz values (a
    square matrix has as many null left vectors as right ones, so a block
    that missed part of the null space shows here).  M's strips are freed
    before M^H's are gathered."""
    b = _part_band(parts, order)
    if b is None:
        return None
    n = len(order)
    bs = max(2 * b, RITZ_BLOCK)
    inner = inner[order]
    M = _Banded(_window_strips(parts, order, b, bs, False), b)
    D, F = _gram(M)
    smax = _largest_singular(D, F)
    threshold = zero_tol * smax
    kernel = _ritz_side(M, D, F, n, inner, smax, threshold)
    if kernel is None:
        return None
    del M, D, F
    strips = _window_strips(parts, order, b, bs, True)
    M = _Banded(np.conjugate(strips, out=strips), b)                  # M^H
    cokernel = _ritz_side(M, *_gram(M), n, inner, smax, threshold)
    if cokernel is None or cokernel[1].size != kernel[1].size:
        return None
    return smax, kernel, cokernel


def numerical_index(problem: GOperatorProblem, windows,
                    zero_tol: float = DEFAULT_ZERO_TOL,
                    inner_fraction: float = INNER_FRACTION) -> IndexReport:
    """Stabilized Fredholm index over an increasing window schedule.

    Raises NoSpectralGap when no window has a gap and NonStabilized when the
    windows disagree, so a returned report is always stabilized.
    """
    rows = _sweep(windows, lambda cutoff: _window_index(problem, cutoff, zero_tol, inner_fraction))
    if all(r.sv_gap < GAP_REQUIREMENT for r in rows):
        raise NoSpectralGap(
            f"sv_gap below {GAP_REQUIREMENT:g} at every window: "
            + ", ".join(f"{r.cutoff}:{r.sv_gap:.2e}" for r in rows))
    if len({r.index for r in rows}) > 1:
        raise NonStabilized(f"index varies across windows: "
                            + ", ".join(f"{r.cutoff}:{r.index}" for r in rows))
    last = rows[-1]
    return IndexReport(last.index, last.kernel_dim, last.cokernel_dim,
                       last.sv_gap, rows, zero_tol)


def winding_index_oracle(symbol: CrossedSymbol, sign: int) -> int:
    """Classical-index oracle for trivial-group symbols: s (w(minus) - w(plus))."""
    if symbol.group.kind != "trivial":
        raise UnsupportedGroup("winding oracle only applies to the trivial group")
    coeff = symbol.coeff(symbol.group.identity)
    return sign * (winding_number(coeff.minus) - winding_number(coeff.plus))


CALIBRATION_WINDOWS = (32, 48, 64)


@lru_cache(maxsize=1)
def calibrate_sign() -> int:
    """Pin the index sign convention from the w = 1 winding calibration run."""
    report = numerical_index(winding_problem(1), CALIBRATION_WINDOWS)
    if report.index not in (1, -1):
        raise NonStabilized(f"calibration run returned index {report.index}")
    return report.index


# ---------------------------------------------------------------------------
# parametrix and localized traces
# ---------------------------------------------------------------------------

@dataclass
class ParametrixData:
    """Full parametrix, built only by :func:`parametrix`; the localized path
    reads remainder traces alone and never forms E or the remainders."""

    E: LabeledOperator                 # almost inverse
    left_remainder: LabeledOperator    # 1 - E A   (= S1^N exactly)
    right_remainder: LabeledOperator   # 1 - A E   (= S2^N exactly)


def _one_minus(X: LabeledOperator, Y: LabeledOperator) -> LabeledOperator:
    """1 - X Y, formed in place on the fresh parts of the product X Y: the
    identity part through ``_unit_minus``, every other part times -1."""
    P = X.multiply(Y)
    e = P.group.identity
    if e not in P.parts:
        P.parts[e] = np.zeros((P.window.dim, P.window.dim), dtype=complex)
    for g, K in P.parts.items():
        if g == e:
            _unit_minus(K)
        else:
            K *= -1
    return P


def _neumann_start(A: LabeledOperator, E0: LabeledOperator):
    """The first remainders S1 = 1 - E0 A and S2 = 1 - A E0 (``_one_minus``)."""
    return _one_minus(E0, A).prune(), _one_minus(A, E0).prune()


def parametrix(A: LabeledOperator, E0: LabeledOperator,
               N: int = PARAMETRIX_ORDER) -> ParametrixData:
    """Neumann-series almost inverse E = (1 + S1 + ... + S1^{N-1}) E0.

    E0 is A's first inverse (``GOperatorProblem.inverse_operator``); the
    remainders are exact matrix identities 1 - EA = S1^N and 1 - AE = S2^N
    (telescoping), no resummation error enters.
    """
    if N < 2:
        raise ValueError("parametrix order N must be >= 2")
    S1, S2 = _neumann_start(A, E0)
    unit = LabeledOperator.unit(A.realization)
    # Horner form of (1 + S1 + ... + S1^{N-1})
    acc = unit
    for _ in range(N - 1):
        acc = (unit + S1.multiply(acc)).prune()
    E = acc.multiply(E0).prune()
    R1 = S1.power(N)
    R2 = S2.power(N)
    return ParametrixData(E, R1, R2)


def _inner_diagonal(K: np.ndarray, phi: ModeMap | WeightedShift, rows: np.ndarray,
                    C: np.ndarray | None = None) -> np.ndarray:
    """Entries ``rows`` of diag(K C Phi), C = 1 when None; no product is formed.
    K holds every row of the window, or only ``rows``."""
    if len(K) > len(rows):
        K = K[rows]
    if isinstance(phi, ModeMap):
        if C is None:
            return _gather(K, phi, np.arange(len(rows)), rows)
        return np.einsum("kj,jk->k", K, C[:, phi.source(rows)]) * phi.phases[rows]
    right = phi.matrix()[:, rows]
    if C is not None:
        right = C @ right
    return np.einsum("kj,jk->k", K, right)


def tr_g(X: LabeledOperator, cls: tuple[Element, ...],
         inner_fraction: float = INNER_FRACTION) -> complex:
    """Localized trace sum_{l in <g>} tr(X_l Phi_l) over the inner window."""
    rows = np.flatnonzero(X.window.inner_mask(inner_fraction))
    total = 0.0 + 0.0j
    for l in cls:
        if l not in X.parts:
            continue
        diag = _inner_diagonal(X.parts[l], X.realization.phi(l), rows)
        total += complex(np.sum(diag))
    return total


@dataclass
class LocalizedValue:
    cls: tuple
    value: complex
    drift: float
    per_window: list[tuple[int, complex]]


@dataclass(frozen=True)
class _WindowTraces:
    """Per-element traces Tr_l(S1^N) and Tr_l(S2^N) of one window."""

    left: dict[Element, complex]
    right: dict[Element, complex]

    def value(self, cls: tuple[Element, ...]) -> complex:
        """Tr_g(S1^N) - Tr_g(S2^N), summed over the class in tr_g's order."""
        return (sum((self.left[l] for l in cls if l in self.left), 0j)
                - sum((self.right[l] for l in cls if l in self.right), 0j))


def _power_traces(S: LabeledOperator, N: int, inner_fraction: float) -> dict[Element, complex]:
    """Tr_l(S^N) for every l = gh over the parts g of S^{N-1} and h of S,
    graded path; a class whose parts cancel is still listed.

    The powers keep the left-associated order of ``power``: the graded product
    through a dense weighted shift is associative only up to truncation.  They
    run on the inner rows P, the only ones the trace reads (P ((S S) S) S =
    (((P S) S) S) S), each pruned (``LabeledOperator.prune``) on those rows,
    and the last product is traced in one pass over its pairs (g, h) of parts,
    each adding the inner diagonal of K_g conj_g(L_h) Phi_gh to element gh.
    Finite isometric problems take the block path instead (``_block_traces``).
    """
    grp = S.group
    rows = np.flatnonzero(S.window.inner_mask(inner_fraction))
    conjugates: dict = {}           # S's conjugated parts, for every product by S
    head = LabeledOperator(S.realization, {g: K[rows] for g, K in S.parts.items()})
    for _ in range(N - 2):
        head = head.multiply(S, conjugates).prune()
    traces: dict[Element, complex] = {}
    for g in head.support:
        for h in S.support:
            l = grp.mul(g, h)
            diag = _inner_diagonal(head.parts[g], S.realization.phi(l), rows,
                                   S.conjugated_part(g, h, conjugates))
            traces[l] = traces.get(l, 0j) + complex(np.sum(diag))
    return traces


def _window_index(problem: GOperatorProblem, cutoff: int, zero_tol: float,
                  inner_fraction: float, A: LabeledOperator | None = None) -> WindowIndexData:
    """Index data of one window, counted once per numerics, from the window's
    operator ``A`` when the caller has built it."""
    key = (cutoff, zero_tol, inner_fraction)
    if key not in problem._index_cache:
        FrequencyWindow(cutoff).require()
        if A is None:
            A = problem.operator(cutoff)
        problem._index_cache[key] = index_of_matrix(A, A.window, zero_tol, inner_fraction)
    return problem._index_cache[key]


def _irrep_blocks(X: LabeledOperator, irreps, order: np.ndarray, banded: bool) -> list[_Banded]:
    """X(pi) = sum_g pi(g) (x) K_g Phi_g per irrep, with rows and columns in
    the interleaved ``order`` and pi's index fastest: entry (p d + a, q d + b)
    is pi(g)_ab (K_g Phi_g)[order[p], order[q]].

    Each part's interleaved window is gathered once (``_gather``) and added,
    times pi(g)_ab, into every block.  With ``banded`` (X's parts are
    transfer bands) it is gathered as column strips at b, the largest band of
    the parts (``_part_band``); strip J of X(pi) then holds the d x d blocks
    of the part strip J, reach d b (its band is d b + d - 1, but its rows
    start at a multiple of d).  Otherwise, or when a part's band is not
    certified, it is one dense strip, and so is every block.
    """
    dim = len(order)
    real = X.realization
    held = X.bands or X.parts
    bands = [_part_band([(K, real.phi(g))], order) for g, K in held.items()] if banded else [None]
    b = None if None in bands else max(bands, default=0)
    reach, bs = (0, dim) if b is None else (b, max(2 * b, RITZ_BLOCK))
    rows, cols, outside = _strip_layout(dim, reach, bs)
    nb, height = outside.shape[:2]
    sizes = [len(rep[X.group.identity]) for rep in irreps]
    out = [np.zeros((nb, d * height, d * bs), dtype=complex) for d in sizes]
    for g, K in held.items():
        window = _gather(K, real.phi(g), order[rows], order[cols])
        window[outside] = 0
        for rep, strips in zip(irreps, out):
            view = strips.reshape(nb, height, len(rep[g]), bs, -1)
            for (a, c), w in np.ndenumerate(rep[g]):
                view[:, :, a, :, c] += w * window
    return [_Banded(strips, d * reach) for d, strips in zip(sizes, out)]


def _inverse_fourier(irreps, l: Element) -> np.ndarray:
    """c with X_l = sum_i c_i X_i over the components i = (pi, a, b), X_i =
    X(pi)[a, b], pi by pi: c_i = d_pi conj(pi(l)_ab) / |G|."""
    return (np.concatenate([len(rep[l]) * np.conj(rep[l]).ravel() for rep in irreps])
            / sum(len(rep[l]) ** 2 for rep in irreps))


def _unit_minus(P: np.ndarray) -> np.ndarray:
    """1 - P in place, for P the leading rows or columns of a square matrix."""
    P *= -1
    P[np.diag_indices(min(P.shape))] += 1
    return P


def _neumann_heads(E: np.ndarray, S2: np.ndarray, N: int, keep: int):
    """H_{N - N//2} on its first ``keep`` rows and H_{N//2} on its first
    ``keep`` columns, where H_1 = E and H_{j+1} = E + H_j S2; E is taken over.

    For S1 = 1 - E A and S2 = 1 - A E, S1 E = E S2 (both are E - E A E), so
    H_j = sum_{i<j} S1^i E = sum_{i<j} E S2^i, and the sums telescope:
    S1^j = 1 - H_j A and S2^j = 1 - A H_j exactly, on every finite window.

    The recurrence runs by row strips of HEAD_STRIP rows, split at ``keep``:
    a row strip of H_{j+1} reads only the same strip of H_j and of E, so each
    strip's heads are formed from its own rows of E and then written over
    them.  Past ``keep`` only the first ``keep`` columns of the last head are
    formed.  The column head is E's storage; so is the row head when N is
    even, and otherwise it is a new ``keep``-row array.
    """
    k_rows, k_cols = N - N // 2, N // 2
    n = len(E)
    H_rows = E[:keep] if k_rows == k_cols else np.empty((keep, n), dtype=complex)
    bounds = [*range(0, keep, HEAD_STRIP), *range(keep, n, HEAD_STRIP), n]
    for lo, hi in zip(bounds, bounds[1:]):
        e = E[lo:hi]
        last, cols = (k_rows, slice(None)) if lo < keep else (k_cols, slice(keep))
        H = e
        for _ in range(last - 2):
            H = H @ S2
            H += e
        if lo < keep and k_rows > k_cols:       # H = H_{k_cols}: keep its first columns
            np.add(H @ S2, e, out=H_rows[lo:hi])
            e[:, :keep] = H[:, :keep]
        elif last > 1:                          # H = H_{last - 1}: the last head over E
            e[:, cols] += H @ S2[:, cols]
    return H_rows, E[:, :keep]


def _irrep_remainders(E: np.ndarray, A: _Banded, N: int, m: int, d: int):
    """The traces T[a, b] = sum_{p < m/d} (S^N)[p d + a, p d + b] over the
    traced prefix, for S1 = 1 - E A and S2 = 1 - A E of one irrep block; of
    the two, only S2 is formed, for the heads.

    S^N = S^{k1} S^{k2}, k1 = N - N//2 and k2 = N//2, and only the prefix rows
    of S^{k1} and the prefix columns of S^{k2} are formed, from H_{k1} and
    H_{k2} (``_neumann_heads``).  Those products by A's band read the first
    m + reach + bs rows of H_{k1} and columns of H_{k2}, so the heads are
    formed there alone, in E's storage: at N = 4 only E and S2 are dense, and
    at inner fraction 0.5 the head product is about 0.8 n^3 against n^3.
    Every other product runs through A's band; S2 is released once the heads
    exist.
    """
    keep = min(len(E), m + A.reach + A.strips.shape[2])
    H_rows, H_cols = _neumann_heads(E, _unit_minus(A.left(E)), N, keep)

    def trace(R, C):
        return np.einsum("paj,jpb->ab", R.reshape(-1, d, R.shape[1]), C.reshape(len(C), -1, d))

    T1 = trace(_unit_minus(A.right(H_rows[:m])), _unit_minus(A.right(H_cols, m)))
    T2 = trace(_unit_minus(A.left(H_rows, m)), _unit_minus(A.left(H_cols[:, :m])))
    return T1, T2


def _products(grp, left, right) -> set:
    return {grp.mul(g, h) for g in left for h in right}


def _block_traces(A: LabeledOperator, E0: LabeledOperator, N: int,
                  inner_fraction: float) -> _WindowTraces:
    """Remainder traces of one window from its A and E0, block path.

    In the interleaved order the inner window is a prefix of every block,
    and each block E0(pi) becomes its heads (``_irrep_remainders``).  The
    irreps are taken smallest first, so the largest block's dense arrays are
    formed once every other irrep's E0(pi) is gone.  The traces are
    reported on the graded path's supports: S1's support is E0's times A's,
    S2's is A's times E0's, each with the identity added, multiplied out
    N-fold.  No norm is taken, since a finite group prunes no part.
    """
    grp = A.group
    irreps = grp.irreps()
    window, dim = A.window, A.window.dim
    order = _interleaved(dim)
    keys = [_products(grp, E0.support, A.support) | {grp.identity},
            _products(grp, A.support, E0.support) | {grp.identity}]
    A_hat = _irrep_blocks(A, irreps, order, True)
    E_hat = _irrep_blocks(E0, irreps, order, False)
    inner = int(np.count_nonzero(window.inner_mask(inner_fraction)))
    per_irrep = []
    while E_hat:                    # irreps() lists the largest blocks last: pop them last
        d = len(E_hat[0].strips[0]) // dim
        per_irrep.append(_irrep_remainders(E_hat.pop(0).strips[0], A_hat.pop(0), N, d * inner, d))
    traces = []
    for T, first in zip(zip(*per_irrep), keys):
        support = first
        for _ in range(N - 1):
            support = _products(grp, support, first)
        t = np.concatenate([T_pi.ravel() for T_pi in T])
        traces.append({l: complex(_inverse_fourier(irreps, l) @ t) for l in support})
    return _WindowTraces(*traces)


def _graded_traces(A: LabeledOperator, E0: LabeledOperator, N: int,
                   inner_fraction: float) -> _WindowTraces:
    """Remainder traces of one window from its A and E0, graded path; the block
    path's oracle.  S1 = 1 - E0 A is traced and let go before S2 = 1 - A E0 exists."""
    left = _power_traces(_one_minus(E0, A).prune(), N, inner_fraction)
    return _WindowTraces(left, _power_traces(_one_minus(A, E0).prune(), N, inner_fraction))


def _window_traces(problem: GOperatorProblem, cutoff: int, N: int, inner_fraction: float,
                   zero_tol: float | None = None) -> _WindowTraces:
    """Remainder traces of one window; only these scalars are cached.  With
    ``zero_tol`` the window's index data (``_window_index``) is counted from
    the same operator build.  A and E0 are built here and go with the call.

    Finite groups under an isometric family take the block path: there Phi
    is a representation, so the map onto the irrep blocks is an algebra
    isomorphism and the block traces equal the graded ones up to rounding.
    Curved (eps > 0) and integer_shift problems take the graded path.
    """
    key = (cutoff, N, inner_fraction)
    if key not in problem._trace_cache:
        if N < 2:
            raise ValueError("parametrix order N must be >= 2")
        A = problem.operator(cutoff)
        if zero_tol is not None:
            _window_index(problem, cutoff, zero_tol, inner_fraction, A)
        path = (_block_traces if problem.group.is_finite and problem.family.is_isometric
                else _graded_traces)
        problem._trace_cache[key] = path(A, problem.inverse_operator(cutoff), N, inner_fraction)
    return problem._trace_cache[key]


def localized_index(problem: GOperatorProblem, cls: tuple[Element, ...],
                    windows, N: int = PARAMETRIX_ORDER, inner_fraction: float = INNER_FRACTION,
                    drift_tol: float = DRIFT_TOL) -> LocalizedValue:
    """ind_<g> = Tr_g(1 - EA) - Tr_g(1 - AE), stabilized over the windows;
    ``drift_tol=math.inf`` reports the drift without checking it."""
    traces = _sweep(windows, lambda cutoff: _window_traces(problem, cutoff, N, inner_fraction))
    series = [(cutoff, t.value(cls)) for cutoff, t in zip(windows, traces)]
    drift = abs(series[-1][1] - series[-2][1])
    if drift > drift_tol:
        raise NonStabilized(f"class {class_label(problem, cls)} drift {drift:.2e} "
                            f"over windows {tuple(windows)}")
    return LocalizedValue(cls, series[-1][1], drift, series)


@dataclass
class LocalizedIndexReport:
    per_class: dict[str, complex]
    total: complex
    fredholm_index: int
    residual: float
    drifts: dict[str, float]


def class_label(problem: GOperatorProblem, cls: tuple[Element, ...]) -> str:
    return "<" + problem.group.label(cls[0]) + ">"


def decomposition_check(problem: GOperatorProblem, windows, N: int = PARAMETRIX_ORDER,
                        inner_fraction: float = INNER_FRACTION, drift_tol: float = DRIFT_TOL,
                        zero_tol: float = DEFAULT_ZERO_TOL,
                        index_windows=None) -> LocalizedIndexReport:
    """Compare the sum of localized indices against the SVD Fredholm index.

    The classes are those the first window's remainder traces touch.  A
    window that is also an index window gets its index data and its traces
    from one operator build.
    """
    index_windows = index_windows or windows
    traces = _sweep(windows, lambda cutoff: _window_traces(
        problem, cutoff, N, inner_fraction, zero_tol if cutoff in index_windows else None))[0]
    classes = problem.group.conjugacy_classes(support=set(traces.left) | set(traces.right))
    values = [localized_index(problem, cls, windows, N, inner_fraction, drift_tol)
              for cls in classes]
    per_class = {class_label(problem, v.cls): v.value for v in values}
    drifts = {class_label(problem, v.cls): v.drift for v in values}
    total = sum(per_class.values())
    report = numerical_index(problem, index_windows, zero_tol, inner_fraction)
    residual = abs(total - report.index)
    return LocalizedIndexReport(per_class, total, report.index, residual, drifts)


@dataclass
class ChiVanishingReport:
    value: complex
    ok: bool


def chi_vanishing_check(problem: GOperatorProblem, g0: Element, windows,
                        N: int = PARAMETRIX_ORDER, inner_fraction: float = INNER_FRACTION,
                        drift_tol: float = DRIFT_TOL, tol: float = CHI_TOL) -> ChiVanishingReport:
    """Vanishing of ind_<g0> when an integer homomorphism has chi(g0) != 0."""
    grp = problem.group
    if not grp.has_nonzero_chi or grp.chi(g0) == 0:
        raise NoHomomorphism(f"no homomorphism with chi({grp.label(g0)}) != 0")
    cls = grp.conjugacy_class(g0)
    value = localized_index(problem, cls, windows, N, inner_fraction, drift_tol).value
    return ChiVanishingReport(value, abs(value) < tol)
