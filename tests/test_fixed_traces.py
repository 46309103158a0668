"""Criterion 1's diagnosis as checked facts.

The acceptance gate for first-order rates on the smooth square fails
(README, "Numerical behavior and known limitations").  These tests pin
the two causes by fixing one trace unknown at every vertex to the
vertex-Hermite dofs of the exact solution (`oracles.fix_trace`):

* with uhat fixed to (u, grad u), err_u is the L2 error of the
  piecewise-constant projection of u: the fast err_u fit of the gate
  comes from the free uhat on the coarse meshes;
* with sigma_hat fixed to (sigma, grad sigma), scheme 1's err_sigma
  converges at first order: its space holds sigma's trace, and the
  stall of the gate comes from the sigma_hat the minimizer picks.

They are false if the reduced-HCT trace or the sigma_hat pairing
breaks.
"""

import numpy as np
import pytest
from oracles import Poly2d, fix_trace

from bilap_dpg.dpg_solver import assemble_and_solve
from bilap_dpg.forms import Formulation
from bilap_dpg.mesh import make_unit_square
from bilap_dpg.problems import l2_errors, smooth_problem
from bilap_dpg.shape import map_to_triangle, triangle_quadrature

# u = x^2 (1 - x)^2 y^2 (1 - y)^2, the smooth problem's solution
G = np.array([0.0, 0.0, 1.0, -2.0, 1.0])
U = Poly2d(np.outer(G, G))
SIGMA = U.laplacian()


def _p0_projection_error(mesh, u):
    """L2 error of the element-wise mean of u."""
    rule = triangle_quadrature(16)
    total = 0.0
    for verts in mesh.triangle_coords():
        pts, w = map_to_triangle(rule, verts)
        values = u(pts[:, 0], pts[:, 1])
        total += w @ (values - (w @ values) / w.sum()) ** 2
    return np.sqrt(total)


def _errors(monkeypatch, scheme, n, which, exact):
    problem = smooth_problem()
    mesh = make_unit_square(n)
    with monkeypatch.context() as patch:
        fix_trace(patch, which, exact, exact.grad)
        solution = assemble_and_solve(mesh, Formulation(scheme=scheme), problem)
    return mesh, l2_errors(solution, problem)


def test_oracle_solution_is_the_smooth_problem():
    problem = smooth_problem()
    x, y = np.random.default_rng(0).uniform(size=(2, 20))
    assert np.allclose(U(x, y), problem.u_exact(x, y), rtol=0, atol=1e-15)
    assert np.allclose(U.grad(x, y), problem.grad_u_exact(x, y), rtol=0, atol=1e-15)
    assert np.allclose(SIGMA(x, y), problem.sigma_exact(x, y), rtol=0, atol=1e-14)


@pytest.mark.parametrize("scheme", [1, 2])
def test_err_u_with_uhat_fixed_is_the_p0_projection_error(scheme, monkeypatch):
    for n in (4, 8, 16, 32):
        mesh, (err_u, _) = _errors(monkeypatch, scheme, n, 0, U)
        ratio = err_u / _p0_projection_error(mesh, U)
        assert abs(ratio - 1) <= 0.01, (n, ratio)


def test_scheme_1_err_sigma_with_sigma_hat_fixed_is_first_order(monkeypatch):
    ns = (8, 16, 32)
    errors = [_errors(monkeypatch, 1, n, 1, SIGMA)[1][1] for n in ns]
    rates = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all(rates >= 0.95), rates
