"""Manufactured problems and L2 error evaluation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from bilap_dpg import shape
from bilap_dpg.mesh import make_sector_domain, make_unit_square

#: reentrant-corner exponent and matching constant of the sector solution
SINGULAR_ALPHA = 0.673583432147380
SINGULAR_C = 1.234587795273723
#: dyadic levels of `shape.graded_rule` on the elements at the singular
#: corner in `l2_errors`
GRADED_LEVELS = 4


@dataclass(frozen=True)
class Problem:
    """Model data: exact solution, right-hand side, domain.

    All callables are vectorized over numpy arrays.  `grad_u_exact`
    returns (du/dx, du/dy) and `sigma_exact` the Laplacian of `u_exact`.
    The boundary data are (u, du/dx, du/dy) of `u_exact` at every
    boundary vertex: the solver fixes all three trace dofs there to
    them.  `make_domain()` returns the initial mesh.  `singular_corner`
    marks a mesh vertex where sigma is unbounded; `l2_errors` grades
    its quadrature on the elements there towards it.
    """

    u_exact: Callable
    grad_u_exact: Callable
    sigma_exact: Callable
    f: Callable
    make_domain: Callable
    singular_corner: tuple | None = None


def _g(t):
    return t * t * (1.0 - t) ** 2


def _g1(t):
    return 2.0 * t * (1.0 - t) * (1.0 - 2.0 * t)


def _g2(t):
    return 2.0 - 12.0 * t + 12.0 * t * t


def smooth_problem():
    """Tensor-product polynomial solution on the unit square.

    u(x, y) = g(x) g(y) with g(t) = t^2 (1-t)^2 satisfies the clamped
    conditions exactly: u and both components of its gradient
    (g'(x) g(y), g(x) g'(y)) are 0 at every boundary vertex.  The
    initial mesh is the 2-by-2 square, level 0 of the uniform study.
    """

    def u(x, y):
        return _g(x) * _g(y)

    def grad_u(x, y):
        return _g1(x) * _g(y), _g(x) * _g1(y)

    def sigma(x, y):
        return _g2(x) * _g(y) + _g(x) * _g2(y)

    def f(x, y):
        return 24.0 * _g(y) + 2.0 * _g2(x) * _g2(y) + 24.0 * _g(x)

    return Problem(
        u_exact=u,
        grad_u_exact=grad_u,
        sigma_exact=sigma,
        f=f,
        make_domain=lambda: make_unit_square(2),
    )


def singular_problem():
    """Biharmonic corner solution on the 5*pi/4 sector.

    u(r, phi) = r^(1+alpha) (cos((alpha+1) phi) + C cos((alpha-1) phi))
    in polar coordinates centered at the reentrant corner, with phi
    measured symmetrically about the positive x-axis.  u and du/dn
    vanish on the two straight edges phi = +-5*pi/8, not on the arc.
    f = 0, and sigma = Delta u ~ r^(alpha-1) is unbounded at the origin.
    """
    a, c = SINGULAR_ALPHA, SINGULAR_C

    # np.power, not **: a numpy scalar's ** rounds differently from the
    # array loop in the last bit, and scalar and array calls must agree
    def u(x, y):
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        return np.power(r, 1 + a) * (np.cos((a + 1) * phi) + c * np.cos((a - 1) * phi))

    def grad_u(x, y):
        # O(r^alpha): r**a is 0 at the corner, and nothing divides by r
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        ur = (1 + a) * r**a * (np.cos((a + 1) * phi) + c * np.cos((a - 1) * phi))
        ut_over_r = r**a * (
            -(a + 1) * np.sin((a + 1) * phi) - c * (a - 1) * np.sin((a - 1) * phi)
        )
        cos, sin = np.cos(phi), np.sin(phi)
        return ur * cos - ut_over_r * sin, ur * sin + ut_over_r * cos

    def sigma(x, y):
        r = np.hypot(x, y)
        phi = np.arctan2(y, x)
        return 4.0 * a * c * r ** (a - 1) * np.cos((a - 1) * phi)

    def f(x, y):
        return np.zeros_like(np.asarray(x, dtype=float))

    return Problem(
        u_exact=u,
        grad_u_exact=grad_u,
        sigma_exact=sigma,
        f=f,
        make_domain=make_sector_domain,
        singular_corner=(0.0, 0.0),
    )


def l2_errors(solution, problem):
    """Element-wise L2 errors of the two field variables.

    Two batched passes: the plain rule of exactness
    2 * test_degree + 2 over every element, and `shape.graded_rule` of
    the same exactness with GRADED_LEVELS levels over the elements
    touching `problem.singular_corner`, whose plain weights are zeroed.
    Each corner element's vertices are rolled cyclically, which keeps
    its orientation, so that the corner comes first and the rule grades
    towards it.

    Parameters
    ----------
    solution : object with `mesh`, `u`, `sigma` broken fields
    problem : Problem

    Returns
    -------
    (err_u, err_sigma)
    """
    mesh = solution.mesh
    exactness = 2 * solution.formulation.test_degree + 2
    coords = mesh.triangle_coords()

    def squared(tris, p, w):
        x, y = p[..., 0], p[..., 1]
        du = problem.u_exact(x, y) - solution.u.eval(tris, p)
        ds = problem.sigma_exact(x, y) - solution.sigma.eval(tris, p)
        return np.array([np.sum(w * du * du), np.sum(w * ds * ds)])

    pts, wts = shape.map_to_triangle(shape.triangle_quadrature(exactness), coords)
    total = 0.0
    if problem.singular_corner is not None:
        dist = np.hypot(*(coords - problem.singular_corner).transpose(2, 0, 1))
        touching = np.nonzero(dist.min(axis=1) < 1e-12)[0]
        wts[touching] = 0.0
        roll = (np.argmin(dist[touching], axis=1)[:, None] + np.arange(3)) % 3
        rolled = np.take_along_axis(coords[touching], roll[..., None], axis=1)
        graded = shape.graded_rule(exactness, GRADED_LEVELS)
        total = squared(touching, *shape.map_to_triangle(graded, rolled))
    total = total + squared(np.arange(mesh.num_triangles), pts, wts)
    return float(np.sqrt(total[0])), float(np.sqrt(total[1]))
