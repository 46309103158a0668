"""Acceptance suite: one test per criterion, with a printed verdict line.

The convergence studies are shared between criteria through module-level
caches; run with ``pytest -v`` to get one line per criterion.
"""

import time

import numpy as np
import pytest
from oracles import (
    Poly2d,
    dirac_eps_list,
    estimate_rate,
    random_triangle,
    shifted_pivots,
    zero_problem,
)

from bilap_dpg.forms import Formulation
from bilap_dpg.mesh import make_sector_domain, make_unit_square, refine_nvb
from bilap_dpg.problems import l2_errors, singular_problem, smooth_problem
from bilap_dpg.dpg_solver import (
    adaptive_loop,
    assemble_and_solve,
    error_indicators,
    solve_and_record,
)
from bilap_dpg.shape import (
    REFERENCE_VERTICES,
    edge_quadrature,
    map_to_triangle,
    triangle_quadrature,
)
from bilap_dpg.trace_lab import (
    dirac_convergence_study,
    norm_identity_check,
    pair_trace_veps,
    unboundedness_demo,
)
from bilap_dpg.trace_space import apply_clamped_bc, build_trace_space
from test_dpg_solver import (
    cubic_problem,
    free_cols,
    normal_equation_residual,
    residual_norm,
    solve_capturing_full_system,
)
from test_trace_space import skeleton_pairing

_CACHE = {}


def _report(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} - {detail}")
    return ok


def smooth_records(scheme):
    key = ("smooth", scheme)
    if key not in _CACHE:
        prob = smooth_problem()
        form = Formulation(scheme=scheme)
        records = []
        t0 = time.perf_counter()
        for level, n in enumerate([2, 4, 8, 16, 32]):
            record, _, _ = solve_and_record(
                make_unit_square(n), form, prob, level
            )
            records.append(record)
        _CACHE[key] = (records, time.perf_counter() - t0)
    return _CACHE[key]


def singular_uniform_records(scheme, max_dofs=16500):
    key = ("singular-uniform", scheme)
    if key not in _CACHE:
        prob = singular_problem()
        form = Formulation(scheme=scheme)
        mesh = prob.make_domain()
        records = []
        level = 0
        while True:
            record, _, _ = solve_and_record(mesh, form, prob, level)
            records.append(record)
            if record.ndof_total > max_dofs:
                break
            mesh = refine_nvb(mesh, range(mesh.num_triangles))
            level += 1
        _CACHE[key] = records
    return _CACHE[key]


def singular_adaptive_records():
    if "singular-adaptive" not in _CACHE:
        prob = singular_problem()
        t0 = time.perf_counter()
        records = adaptive_loop(
            prob.make_domain(), Formulation(scheme=2), prob, 0.5, 20000
        )
        _CACHE["singular-adaptive"] = (records, time.perf_counter() - t0)
    return _CACHE["singular-adaptive"]


def test_criterion_1_smooth_rates_are_first_order():
    # uniform refinement, both schemes, p=0, k=4, meshes n = 2..32:
    # fitted rates of err_u, err_sigma, eta vs h in [0.85, 1.15]
    # over the last 4 levels
    verdicts = []
    details = []
    for scheme in (1, 2):
        records, elapsed = smooth_records(scheme)
        rates = {
            key: estimate_rate(records, key, "h") for key in ("eta", "err_u", "err_sigma")
        }
        details.append(
            f"scheme {scheme} ({elapsed:.0f}s): "
            + ", ".join(f"{k}={v:.3f}" for k, v in rates.items())
        )
        verdicts += [0.85 <= v <= 1.15 for v in rates.values()]
    ok = all(verdicts)
    _report(1, ok, "; ".join(details))
    assert ok


def test_criterion_2_singular_adaptive_recovers_half_order():
    # adaptive scheme 2, theta = 0.5, up to 2e4 dofs: eta rate vs ndof
    # >= 0.45, and strictly above the uniform scheme-2 rate
    adaptive, elapsed = singular_adaptive_records()
    uniform = singular_uniform_records(2)
    rate_adaptive = estimate_rate(adaptive, "eta", "ndof")
    rate_uniform = estimate_rate(uniform, "eta", "ndof")
    ok = rate_adaptive >= 0.45 and rate_uniform < rate_adaptive
    _report(
        2,
        ok,
        f"adaptive eta rate {rate_adaptive:.3f} (need >= 0.45), "
        f"uniform {rate_uniform:.3f} (need < adaptive); {elapsed:.0f}s",
    )
    assert ok


def test_criterion_3_scheme1_uniform_no_faster_than_scheme2():
    rate1 = estimate_rate(singular_uniform_records(1), "eta", "ndof")
    rate2 = estimate_rate(singular_uniform_records(2), "eta", "ndof")
    ok = rate1 <= rate2 + 0.05
    _report(3, ok, f"scheme1 eta rate {rate1:.3f} <= scheme2 {rate2:.3f} + 0.05")
    assert ok


def test_criterion_4_consistency_and_uniqueness():
    checks = []
    for scheme in (1, 2):
        for mesh in (make_unit_square(2), make_sector_domain()):
            sol = assemble_and_solve(mesh, Formulation(scheme=scheme), zero_problem())
            checks.append(np.all(sol.x_local == 0.0))
    prob = cubic_problem()
    worst_eta = worst_err = 0.0
    for scheme in (1, 2):
        form = Formulation(scheme=scheme, field_degree=3, test_degree=5)
        for n in (1, 2, 3):
            sol = assemble_and_solve(make_unit_square(n), form, prob)
            worst_eta = max(worst_eta, error_indicators(sol).total)
            err_u, err_s = l2_errors(sol, prob)
            worst_err = max(worst_err, err_u, err_s)
    ok = all(checks) and worst_eta <= 1e-7 and worst_err <= 1e-8
    _report(
        4,
        ok,
        f"zero-data exact: {all(checks)}; cubic eta <= {worst_eta:.2e}, "
        f"field errors <= {worst_err:.2e}",
    )
    assert ok


def test_criterion_5_minimum_residual_optimality(monkeypatch):
    rng = np.random.default_rng(23)
    prob = smooth_problem()
    never_decreased = True
    worst_orth = sym_defect = 0.0
    spd_ok = True
    for scheme in (1, 2):
        sol, a, rhs, w, wl = solve_capturing_full_system(
            monkeypatch, make_unit_square(2), Formulation(scheme=scheme), prob
        )
        eta0 = error_indicators(sol).total
        cols = free_cols(sol, prob)
        free = cols >= 0
        for _ in range(20):
            direction = rng.standard_normal(sol.ndof_total)
            for mag in (1e-3, 1e-1, 1.0):
                x = sol.x_local.copy()
                x[free] += mag * direction[cols[free]]
                if residual_norm(w, wl, x) < eta0 - 1e-9:
                    never_decreased = False
        worst_orth = max(worst_orth, normal_equation_residual(sol, prob, a, rhs))
        # symmetry and SPD of the matrix the solver factors
        sym_defect = max(sym_defect, abs(a - a.T).max() / abs(a).max())
        spd_ok = spd_ok and bool(np.all(shifted_pivots(a) > 0))
    ok = never_decreased and worst_orth <= 1e-8 and sym_defect <= 1e-12 and spd_ok
    _report(
        5,
        ok,
        f"perturbations never improve eta: {never_decreased}; normal-eq "
        f"residual {worst_orth:.2e} <= 1e-8; symmetry defect {sym_defect:.2e}; SPD: {spd_ok}",
    )
    assert ok


def test_criterion_6_trace_identities():
    rng = np.random.default_rng(29)
    vol_rule = triangle_quadrature(10)
    edge_rule = edge_quadrature(12)
    worst_ibp = 0.0
    for _ in range(5):
        tri = random_triangle(rng)
        v = Poly2d.random(rng, 4)
        z = Poly2d.random(rng, 4)
        pts, w = map_to_triangle(vol_rule, tri)
        volume = w @ (
            v.laplacian()(pts[:, 0], pts[:, 1]) * z(pts[:, 0], pts[:, 1])
            - v(pts[:, 0], pts[:, 1]) * z.laplacian()(pts[:, 0], pts[:, 1])
        )
        boundary = 0.0
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            d = b - a
            length = np.hypot(*d)
            n = np.array([d[1], -d[0]]) / length
            x = a[0] + edge_rule.points * d[0]
            y = a[1] + edge_rule.points * d[1]
            dnv = v.dx()(x, y) * n[0] + v.dy()(x, y) * n[1]
            dnz = z.dx()(x, y) * n[0] + z.dy()(x, y) * n[1]
            boundary += length * (edge_rule.weights @ (z(x, y) * dnv - v(x, y) * dnz))
        worst_ibp = max(worst_ibp, abs(volume - boundary))

    mesh = refine_nvb(make_unit_square(2), [0, 4, 5])
    space = apply_clamped_bc(build_trace_space(mesh))
    worst_jump = 0.0
    for _ in range(4):
        coeffs = np.where(space.constrained, 0.0, rng.uniform(-1, 1, len(space.values)))
        tau = Poly2d.random(rng, 3)
        worst_jump = max(worst_jump, abs(skeleton_pairing(mesh, coeffs, tau)))
    ok = worst_ibp <= 1e-10 and worst_jump <= 1e-10
    _report(
        6,
        ok,
        f"integration-by-parts defect {worst_ibp:.2e}; skeleton pairing "
        f"cancellation {worst_jump:.2e} (both <= 1e-10)",
    )
    assert ok


def test_criterion_7_dirac_approximation():
    t0 = time.perf_counter()
    study = dirac_convergence_study(dirac_eps_list())
    const_exact = all(
        abs(pair_trace_veps((0, 0), eps) - 1.0) <= 1e-10
        for eps in study.eps
    )
    elapsed = time.perf_counter() - t0
    ok = study.slope >= 0.40 and const_exact
    _report(
        7,
        ok,
        f"log-log slope {study.slope:.3f} >= 0.40; z=1 exact at every eps: "
        f"{const_exact}; {elapsed:.0f}s",
    )
    assert ok


def test_criterion_8_unbounded_point_values():
    rows = unboundedness_demo([10, 100])
    by_n = {n: (v, norm) for n, v, norm in rows}
    diverges = by_n[10][0] == pytest.approx(-np.log(10), abs=1e-12) and by_n[100][
        0
    ] == pytest.approx(-np.log(100), abs=1e-12)
    growth = by_n[100][1] / by_n[10][1]
    ok = diverges and growth <= 1.5
    _report(
        8,
        ok,
        f"corner values -log(n) exact: {diverges}; L2 growth factor "
        f"{growth:.4f} <= 1.5",
    )
    assert ok


def test_criterion_9_norm_identity_sandwich():
    z = (2, 1)  # x^2 y
    gaps = {}
    sandwich_ok = True
    for deg in (4, 6, 8):
        duality, extension = norm_identity_check(REFERENCE_VERTICES, z, deg)
        if duality > extension + 1e-9:
            sandwich_ok = False
        gaps[deg] = (extension - duality) / extension
    ok = sandwich_ok and gaps[8] <= gaps[4]
    _report(
        9,
        ok,
        f"duality <= extension at degrees 4,6,8: {sandwich_ok}; relative gap "
        f"{gaps[4]:.4f} (degree 4) -> {gaps[8]:.4f} (degree 8)",
    )
    assert ok
