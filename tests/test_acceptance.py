"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
stream; every tolerance is pinned here, nothing is deferred to calibration.
"""

import itertools
import json
import time

import numpy as np
import pytest

from gindexlab.circle import FrequencyWindow, PeriodicGrid, grid_for_window
from gindexlab.groups import build_group
from gindexlab.index_engine import (calibrate_sign, decomposition_check,
                                    index_of_matrix, localized_index,
                                    numerical_index, chi_vanishing_check,
                                    winding_index_oracle)
from gindexlab.lab import emit_reports, parse_config, run
from gindexlab.samples import (annulus_term, dihedral_sample, egorov_curved_term,
                               egorov_isometry_term, reflection_term,
                               winding_problem, z2_sample, shift_neumann_problem)
from gindexlab.semiclass import (StarSeries, XiLattice, algebraic_index,
                                 egorov_defect, laurent_fit,
                                 tau_g, trace_power_law)
from gindexlab.transforms import RealizationFamily
from semiclass_samples import realize_series, star_consistency_pairs, weyl_test_terms

GRID = PeriodicGrid(256)
H_DIAG = np.geomspace(0.2, 0.02, 8)             # 8 points in [0.02, 0.2]
H_ALG = np.geomspace(0.05, 0.005, 8)


def verdict(criterion: int, ok: bool, detail: str, elapsed: float, budget: float):
    line = (f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} "
            f"[{elapsed:6.1f}s / {budget:.0f}s] {detail}")
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {criterion} exceeded budget: {line}"


def fam(kind, real, m=1, theta=1.0, eps=0.0):
    group = build_group(kind, m=m) if kind != "integer_shift" \
        else build_group(kind, theta=theta)
    kw = {"eps": eps} if real == "curved_rotation" else {}
    return RealizationFamily(group, real, **kw)


def test_criterion_1_winding_calibration():
    t0 = time.perf_counter()
    s = calibrate_sign()
    ok = True
    details = []
    for w in range(-3, 4):
        p = winding_problem(w)
        rep = numerical_index(p, (64, 128, 256))
        oracle = winding_index_oracle(p.symbol(grid_for_window(FrequencyWindow(256))), s)
        good = (rep.index == s * w and rep.sv_gap >= 1e3 and oracle == rep.index
                and len({r.index for r in rep.stabilization}) == 1)
        ok = ok and good
        details.append(f"w={w:+d}:{rep.index:+d}")
    verdict(1, ok, "winding family s*w exact, oracle agrees: " + " ".join(details),
            time.perf_counter() - t0, 30)


def test_criterion_2_unitary_indices():
    t0 = time.perf_counter()
    families = {
        "rotation": fam("cyclic", "rotation", m=4),
        "reflection": fam("cyclic", "reflection", m=2),
        "half_wave": fam("integer_shift", "half_wave", theta=0.7),
        "curved": fam("cyclic", "curved_rotation", m=2, eps=0.3),
    }
    ok = True
    for name, family in families.items():
        R = family.at(FrequencyWindow(96))
        g = 1
        data = index_of_matrix(R.phi(g).matrix(), R.window)
        ok = ok and data.index == 0 and data.kernel_dim == 0 and data.cokernel_dim == 0
    # exact group law for the isometric families
    for family in (families["rotation"], families["reflection"], families["half_wave"],
                   fam("dihedral", "dihedral", m=3)):
        R = family.at(FrequencyWindow(128))
        els = family.group.elements() if family.group.is_finite else [-1, 0, 1]
        for a, b in itertools.product(els, repeat=2):
            ab = family.group.mul(a, b)
            if not family.group.is_finite and abs(ab) > 1:
                continue
            lhs = R.phi(a).compose(R.phi(b)).matrix()
            ok = ok and np.max(np.abs(lhs - R.phi(ab).matrix())) <= 1e-9
    # decaying truncation defect for the curved shift
    defs = []
    for nf in (128, 256, 512):
        R = families["curved"].at(FrequencyWindow(nf))
        M = R.phi(1).matrix()
        mask = np.abs(R.window.modes) <= nf // 2
        D = (M @ M - np.eye(R.window.dim))[np.ix_(mask, mask)]
        defs.append(float(np.linalg.norm(D, 2)))
    ok = ok and defs[0] > defs[1] > defs[2]
    verdict(2, ok, f"unitary indices 0, group law 1e-9, curved defect "
            f"{defs[0]:.1e}->{defs[1]:.1e}->{defs[2]:.1e}",
            time.perf_counter() - t0, 60)


SAMPLES = [z2_sample(), dihedral_sample(7), dihedral_sample(11)]
DECOMP_WINDOWS = (128, 192, 256)


def test_criterion_3_index_decomposition():
    t0 = time.perf_counter()
    ok = True
    details = []
    for p in SAMPLES:
        rep = decomposition_check(p, DECOMP_WINDOWS, N=4)
        good = (rep.residual < 1e-2
                and int(np.rint(rep.total.real)) == rep.fredholm_index)
        ok = ok and good
        details.append(f"{p.name}: sum={rep.total.real:+.4f} svd={rep.fredholm_index:+d}")
    verdict(3, ok, "; ".join(details), time.perf_counter() - t0, 3 * 120)


def test_criterion_4_parametrix_independence():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for p in SAMPLES:
        for cls in p.group.conjugacy_classes():
            v3 = localized_index(p, cls, DECOMP_WINDOWS, N=3)
            v4 = localized_index(p, cls, DECOMP_WINDOWS, N=4)
            worst = max(worst, abs(v3.value - v4.value))
    ok = worst < 1e-3
    verdict(4, ok, f"ind_g for N=3 vs N=4 agree, worst deviation {worst:.2e}",
            time.perf_counter() - t0, 240)


def test_criterion_5_chi_vanishing():
    t0 = time.perf_counter()
    p = shift_neumann_problem()
    ok = True
    vals = []
    for g0 in (1, 2):
        rep = chi_vanishing_check(p, g0, (64, 96, 128), N=4, tol=1e-3)
        ok = ok and rep.ok
        vals.append(abs(rep.value))
    verdict(5, ok, f"shift sample |ind_1|={vals[0]:.1e}, |ind_2|={vals[1]:.1e}",
            time.perf_counter() - t0, 60)


def test_criterion_6_weyl_trace():
    t0 = time.perf_counter()
    lattice = XiLattice(3.5, 701)
    triv = fam("trivial", "trivial")
    ok = True
    errs = []
    for term in weyl_test_terms(GRID, lattice):
        series = StarSeries(triv, GRID, lattice, 0.25, {((), 0): term})
        ts = tau_g(series, ((),), H_DIAG)
        # independent quadrature oracle: trapezoid over the sampled values
        dx = 2 * np.pi / GRID.size
        integral = float(np.trapezoid(term.values.real, lattice.points, axis=1).sum() * dx)
        weyl = integral / (2 * np.pi)
        rel = abs(H_DIAG[-1] * ts.values[-1].real - weyl) / abs(weyl)
        ok = ok and rel < 0.05
        errs.append(rel)
    verdict(6, ok, f"h tr(op_h a) vs quadrature, rel errs {errs[0]:.1e}, {errs[1]:.1e}",
            time.perf_counter() - t0, 30)


def test_criterion_7_trace_power_laws():
    t0 = time.perf_counter()
    lattice = XiLattice(3.5, 701)
    triv = fam("trivial", "trivial")
    z2 = fam("cyclic", "reflection", m=2)
    c4 = fam("cyclic", "rotation", m=4)
    ann = annulus_term(GRID, lattice)
    s_id = trace_power_law(StarSeries(triv, GRID, lattice, 0.25, {((), 0): ann}),
                           ((),), H_DIAG).slope
    s_refl = trace_power_law(StarSeries(z2, GRID, lattice, 0.25,
                                        {(1, 0): reflection_term(GRID, lattice)}),
                             (1,), H_DIAG).slope
    ts_rot = tau_g(StarSeries(c4, GRID, lattice, 0.25, {(1, 0): ann}), (1,), H_DIAG)
    rot05 = float(np.abs(ts_rot.values[np.argmin(np.abs(H_DIAG - 0.05))]))
    ok = (abs(s_id + 1.0) < 0.05 and abs(s_refl) < 0.05 and rot05 < 1e-6)
    verdict(7, ok, f"slopes id={s_id:+.3f}, refl={s_refl:+.3f}, rot@h=.05={rot05:.1e}",
            time.perf_counter() - t0, 60)


def test_criterion_8_egorov():
    t0 = time.perf_counter()
    iso_term = egorov_isometry_term(GRID)
    worst_iso = 0.0
    for family, g in ((fam("cyclic", "rotation", m=4), 1),
                      (fam("cyclic", "reflection", m=2), 1),
                      (fam("integer_shift", "half_wave", theta=0.3), 1)):
        rep = egorov_defect(family, g, iso_term, H_DIAG)
        worst_iso = max(worst_iso, rep.max_defect)
    curved = fam("cyclic", "curved_rotation", m=2, eps=0.3)
    rep_c = egorov_defect(curved, 1, egorov_curved_term(GRID), H_DIAG, window_factor=2.0)
    ok = worst_iso < 1e-9 and 0.9 <= rep_c.slope <= 1.3
    verdict(8, ok, f"isometry defect {worst_iso:.1e}, curved slope {rep_c.slope:.3f}",
            time.perf_counter() - t0, 60)


def test_criterion_9_star_consistency():
    t0 = time.perf_counter()
    lattice = XiLattice(3.0, 601)
    pairs = star_consistency_pairs(GRID, lattice, fam("trivial", "trivial"),
                                   fam("cyclic", "reflection", m=2))
    ok = True
    slopes = []
    for N in (2, 3):
        for A, B in pairs:
            AB = A.star(B, N)
            defects = []
            for h in H_DIAG:
                w = FrequencyWindow(int(np.ceil(3.2 / h)) + 4)
                lhs = realize_series(A, h, w) @ realize_series(B, h, w)
                defects.append(np.linalg.norm(lhs - realize_series(AB, h, w), 2))
            slope = float(np.polyfit(np.log(H_DIAG), np.log(defects), 1)[0])
            slopes.append(f"N={N}:{slope:.2f}")
            ok = ok and slope >= N - 0.2
    verdict(9, ok, "composition-defect slopes " + " ".join(slopes),
            time.perf_counter() - t0, 60)


def test_criterion_10_algebraic_equals_analytic():
    t0 = time.perf_counter()
    lattice = XiLattice(3.0, 601)
    ok = True
    details = []
    for p in (winding_problem(1), z2_sample()):
        series = StarSeries.from_crossed(p.symbol(GRID), lattice, 0.5)
        analytic = decomposition_check(p, DECOMP_WINDOWS, N=4,
                                       index_windows=(256, 384, 512))
        total_c0 = 0.0 + 0.0j
        for cls, res in algebraic_index(series, 4, H_ALG).items():
            label = "<" + p.group.label(cls[0]) + ">"
            ind_g = analytic.per_class.get(label, 0.0 + 0.0j)
            ok = ok and res.negative_power_ok
            ok = ok and abs(res.constant_term - ind_g) < 1e-2
            total_c0 += res.constant_term
        rounded = int(np.rint(total_c0.real))
        ok = ok and rounded == analytic.fredholm_index
        details.append(f"{p.name}: sum c0={total_c0.real:+.4f} svd={analytic.fredholm_index:+d}")
    verdict(10, ok, "; ".join(details), time.perf_counter() - t0, 300)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = parse_config({
        "group": {"kind": "cyclic", "m": 2},
        "realization": {"kind": "reflection"},
        "symbols": {"e": {"plus": {"0": 2.0}, "minus": {"1": 2.0}},
                    "r": {"plus": {"0": 1.0}, "minus": {"0": 1.0}}},
        "experiment": "full_pipeline",
        "numerics": {"windows": [48, 64, 96]},
    })
    outs = []
    for d in ("first", "second"):
        files = emit_reports(run(cfg), tmp_path / d)
        outs.append({f.name: f.read_bytes() for f in files if f.name != "timings.json"})
    ok = outs[0] == outs[1]
    verdict(11, ok, f"{len(outs[0])} report files byte-identical across reruns",
            time.perf_counter() - t0, 300)
