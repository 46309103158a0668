"""Polynomial bases on the reference triangle, quadrature rules and
affine element maps.

The reference triangle has vertices (0,0), (1,0), (0,1).  The element
kernels use `orthonormal_basis`, an L2-orthonormal, degree-graded basis
of P_d (its first dim P_q members span P_q for every q <= d), tabulated
once per degree (`reference_tables`) and mapped to each affine element
(`affine_maps`, `hessian_map`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

REFERENCE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

_MAX_TENSOR_EXACTNESS = 60


class QuadratureError(Exception):
    """Unsupported quadrature request."""


def basis_dimension(degree):
    return (degree + 1) * (degree + 2) // 2


def monomial_exponents(degree):
    """Graded monomial exponents (i, j) for x^i y^j, total degree <= degree."""
    out = [(q - j, j) for q in range(degree + 1) for j in range(q + 1)]
    return np.array(out, dtype=np.int64)


def monomials(degree, points):
    """The monomials of `monomial_exponents(degree)`, in that order, at
    points (..., 2), shape (..., dim P_degree).

    Each degree is the one below times x, plus its last member times
    y: one product per member, where `**` would call pow twice."""
    x, y = points[..., 0], points[..., 1]
    level = [np.ones_like(x)]
    out = list(level)
    for _ in range(degree):
        level = [x * m for m in level] + [y * level[-1]]
        out += level
    return np.stack(out, axis=-1)


class Jet(NamedTuple):
    """Values (..., k), gradients (..., k, 2) and Hessian components
    (..., k, 3), ordered (xx, xy, yy), of k basis functions."""

    val: np.ndarray
    grad: np.ndarray
    hess: np.ndarray


def _monomial_jet(degree, points):
    """Graded monomials of s = 3x - 1, t = 3y - 1 (centred at the
    reference centroid) at points (..., 2), with their x/y derivatives."""
    ex = monomial_exponents(degree)
    i, j = ex[:, 0], ex[:, 1]
    s, t = 3.0 * points[..., 0, None] - 1.0, 3.0 * points[..., 1, None] - 1.0

    def power(base, n):  # base**n with n < 0 read as zero
        return np.where(n >= 0, base ** np.maximum(n, 0), 0.0)

    val = power(s, i) * power(t, j)
    grad = np.stack([3 * i * power(s, i - 1) * power(t, j),
                     3 * j * power(s, i) * power(t, j - 1)], axis=-1)
    hess = np.stack([9 * i * (i - 1) * power(s, i - 2) * power(t, j),
                     9 * i * j * power(s, i - 1) * power(t, j - 1),
                     9 * j * (j - 1) * power(s, i) * power(t, j - 2)], axis=-1)
    return Jet(val, grad, hess)


def _check_reference_points(pts):
    x, y = pts[..., 0], pts[..., 1]
    tol = 1e-12
    if np.any(x < -tol) or np.any(y < -tol) or np.any(x + y > 1 + tol):
        raise ValueError("point outside the closed reference triangle")


@dataclass(frozen=True)
class QuadRule:
    """Quadrature points and weights with a certified exactness degree."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int
    domain: str  # "triangle" (reference coords) or "edge" ([0, 1])

    def integrate(self, f):
        """Integrate a callable over the reference domain."""
        if self.domain == "triangle":
            vals = f(self.points[:, 0], self.points[:, 1])
        else:
            vals = f(self.points)
        return float(self.weights @ np.asarray(vals, dtype=float))


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# hand-checkable symmetric rules; everything else tensorizes
_TRI_TABLE = {
    1: (np.array([[1 / 3, 1 / 3]]), np.array([0.5])),
    2: (
        np.array([[1 / 6, 1 / 6], [2 / 3, 1 / 6], [1 / 6, 2 / 3]]),
        np.array([1 / 6, 1 / 6, 1 / 6]),
    ),
}


def triangle_quadrature(exactness):
    """Rule on the reference triangle, exact for total degree `exactness`.

    Low degrees come from a symmetric table; higher degrees use a
    collapsed (Duffy) tensor-product Gauss rule, whose weights are
    always positive.
    """
    if exactness < 0:
        raise QuadratureError("exactness must be nonnegative")
    exactness = int(exactness)
    if exactness in _TRI_TABLE:
        pts, w = _TRI_TABLE[exactness]
        return QuadRule(pts.copy(), w.copy(), exactness, "triangle")
    if exactness > _MAX_TENSOR_EXACTNESS:
        raise QuadratureError(
            f"exactness {exactness} above table and tensor-rule limit"
        )
    # x = xi*(1 - eta), y = eta, Jacobian (1 - eta): xi-degree <= k,
    # eta-degree <= k + 1
    nx = exactness // 2 + 1
    ny = (exactness + 1) // 2 + 1
    xi, wx = _gauss01(nx)
    eta, wy = _gauss01(ny)
    X = np.outer(1.0 - eta, xi)
    Y = np.broadcast_to(eta[:, None], X.shape)
    W = np.outer(wy * (1.0 - eta), wx)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return QuadRule(pts, W.ravel(), exactness, "triangle")


def edge_quadrature(exactness):
    """Gauss rule on [0, 1], exact for degree `exactness`."""
    if exactness < 0:
        raise QuadratureError("exactness must be nonnegative")
    n = int(exactness) // 2 + 1
    t, w = _gauss01(n)
    return QuadRule(t, w, 2 * n - 1, "edge")


def map_to_triangle(rule, vertices):
    """Map a reference-triangle rule to a physical triangle.

    Returns (points (nq, 2), weights (nq,)); weights absorb the affine
    Jacobian so that `weights @ f(points)` approximates the integral.
    """
    v = np.asarray(vertices, dtype=float)
    d1, d2 = v[1] - v[0], v[2] - v[0]
    jac = d1[0] * d2[1] - d1[1] * d2[0]
    pts = v[0] + np.outer(rule.points[:, 0], d1) + np.outer(rule.points[:, 1], d2)
    return pts, rule.weights * jac


@lru_cache(maxsize=None)
def _orthonormal_coefficients(degree):
    """Upper-triangular C with the centred monomials times C orthonormal.

    C = R^-1 for the R factor (positive diagonal) of the weighted
    monomial table's QR on a rule exact for degree 2d; triangularity
    keeps the basis degree-graded."""
    rule = triangle_quadrature(2 * degree)
    val = _monomial_jet(degree, rule.points).val
    r = np.linalg.qr(np.sqrt(rule.weights)[:, None] * val, mode="r")
    r *= np.sign(np.diag(r))[:, None]
    c = np.linalg.inv(r)
    c.setflags(write=False)  # cached: shared by every caller
    return c


def orthonormal_basis(degree, points):
    """The L2-orthonormal, degree-graded P_degree basis on the reference
    triangle at reference points (..., 2), as a `Jet`.

    The constant member is sqrt(2); members of degree <= 1 have
    vanishing Hessians.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    points = np.asarray(points, dtype=float)
    _check_reference_points(points)
    mono = _monomial_jet(degree, points)
    c = _orthonormal_coefficients(degree)
    return Jet(
        mono.val @ c,
        np.einsum("...md,mk->...kd", mono.grad, c),
        np.einsum("...mc,mk->...kc", mono.hess, c),
    )


@dataclass(frozen=True)
class ReferenceTables:
    """`orthonormal_basis` of one degree d at the points element kernels use.

    `tri` is tabulated at the points of `quad` (triangle rule of
    exactness 2d + 2), `edge` at the points of `edge_rule` (exactness
    2d + 4) on each edge slot in both directions, shape (3, 2, n, ...):
    slot s runs from reference vertex s to vertex s + 1 (direction 0)
    or back (direction 1), and `vertex` at the three reference vertices.
    `hess_coeffs` (3, m, k) expands the Hessian components of every
    member in the first m = dim P_(d-2) members, which span the
    Hessians of P_d.
    """

    degree: int
    quad: QuadRule
    edge_rule: QuadRule
    tri: Jet
    edge: Jet
    vertex: Jet
    hess_coeffs: np.ndarray

    @property
    def dim(self):
        return basis_dimension(self.degree)


@lru_cache(maxsize=None)
def reference_tables(degree):
    """The `ReferenceTables` of a degree, built on first use."""
    quad = triangle_quadrature(2 * degree + 2)
    edge_rule = edge_quadrature(2 * degree + 4)
    a = REFERENCE_VERTICES
    b = np.roll(REFERENCE_VERTICES, -1, axis=0)
    t = edge_rule.points[None, :, None]
    edge_pts = np.stack([a[:, None] + t * (b - a)[:, None],
                         b[:, None] + t * (a - b)[:, None]], axis=1)
    tri = orthonormal_basis(degree, quad.points)
    m = basis_dimension(degree - 2) if degree >= 2 else 0
    weighted = quad.weights[:, None] * tri.val[:, :m]
    hess_coeffs = np.einsum("qm,qkc->cmk", weighted, tri.hess)
    tables = ReferenceTables(
        degree, quad, edge_rule, tri,
        orthonormal_basis(degree, edge_pts),
        orthonormal_basis(degree, REFERENCE_VERTICES),
        hess_coeffs,
    )
    for arr in (quad.points, quad.weights, edge_rule.points, edge_rule.weights,
                *tables.tri, *tables.edge, *tables.vertex, hess_coeffs):
        arr.setflags(write=False)  # cached: shared by every caller
    return tables


def affine_maps(coords):
    """Affine maps x = v0 + J x_ref of triangles (n, 3, 2): returns jac
    (n, 2, 2) with columns v1 - v0 and v2 - v0, the signed det (n,) and
    jinv (n, 2, 2)."""
    coords = np.asarray(coords, dtype=float)
    jac = np.stack([coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]], axis=2)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    adj = np.stack([jac[:, 1, 1], -jac[:, 0, 1], -jac[:, 1, 0], jac[:, 0, 0]], axis=1)
    return jac, det, adj.reshape(-1, 2, 2) / det[:, None, None]


def hessian_map(jinv):
    """(n, 3, 3) linear maps of the Hessian components (xx, xy, yy) to
    the element: with K = J^-1 the physical Hessian is K^T H_ref K."""
    a, b, c, d = jinv[:, 0, 0], jinv[:, 0, 1], jinv[:, 1, 0], jinv[:, 1, 1]
    rows = [
        [a * a, 2 * a * c, c * c],
        [a * b, a * d + b * c, c * d],
        [b * b, 2 * b * d, d * d],
    ]
    return np.array(rows).transpose(2, 0, 1)


def map_jet(jet, jinv, det):
    """A reference `Jet` mapped to one element (jinv (2, 2), det): values
    scale by |det J|^(-1/2), which keeps an orthonormal basis orthonormal,
    gradients map by J^-T and Hessians by J^-T H J^-1."""
    scale = abs(det) ** -0.5
    return Jet(
        scale * jet.val,
        scale * jet.grad @ jinv,
        scale * jet.hess @ hessian_map(jinv[None])[0].T,
    )
