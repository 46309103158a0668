"""Polynomial bases on the reference triangle, quadrature rules and
affine element maps.

The reference triangle has vertices (0,0), (1,0), (0,1).  The element
kernels use `orthonormal_basis`, an L2-orthonormal, degree-graded basis
of P_d (its first dim P_q members span P_q for every q <= d), tabulated
once per degree (`reference_tables`) and mapped to each affine element
(`affine_maps`, `hessian_map`).  Every quadrature rule, the one graded
towards a vertex (`graded_rule`) too, lives on the reference triangle
and is mapped to elements by `map_to_triangle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

REFERENCE_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

_MAX_TENSOR_EXACTNESS = 60
#: the largest degree of `reference_tables`, whose rule is exact for 2d + 2
MAX_TABLE_DEGREE = (_MAX_TENSOR_EXACTNESS - 2) // 2


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


def _check_reference_points(pts):
    x, y = pts[..., 0], pts[..., 1]
    tol = 1e-12
    if np.any(x < -tol) or np.any(y < -tol) or np.any(x + y > 1 + tol):
        raise ValueError("point outside the closed reference triangle")


@dataclass(frozen=True)
class QuadRule:
    """Quadrature points and weights."""

    points: np.ndarray
    weights: np.ndarray


def _gauss01(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def triangle_quadrature(exactness):
    """Rule on the reference triangle, exact for total degree `exactness`.

    One collapsed (Duffy) tensor-product Gauss rule serves every
    exactness; its weights are always positive.
    """
    if exactness < 0:
        raise QuadratureError("exactness must be nonnegative")
    exactness = int(exactness)
    if exactness > _MAX_TENSOR_EXACTNESS:
        raise QuadratureError(f"exactness {exactness} above tensor-rule limit")
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
    return QuadRule(pts, W.ravel())


def edge_quadrature(exactness):
    """Gauss rule on [0, 1], exact for degree `exactness`."""
    if exactness < 0:
        raise QuadratureError("exactness must be nonnegative")
    n = int(exactness) // 2 + 1
    t, w = _gauss01(n)
    return QuadRule(t, w)


def map_to_triangle(rule, coords):
    """Map a reference-triangle rule to triangles (..., 3, 2).

    Returns (points (..., nq, 2), weights (..., nq)): the points are the
    rule's barycentric coordinates times the vertices, and the weights
    absorb |det J| so that `weights @ f(points)` approximates the
    integral over each triangle.
    """
    coords = np.asarray(coords, dtype=float)
    d1 = coords[..., 1, :] - coords[..., 0, :]
    d2 = coords[..., 2, :] - coords[..., 0, :]
    det = np.abs(d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0])
    bary = np.column_stack([1 - rule.points[:, 0] - rule.points[:, 1], rule.points])
    return bary @ coords, det[..., None] * rule.weights


def graded_rule(exactness, levels):
    """Rule on the reference triangle graded towards vertex (0, 0).

    `levels` dyadic annuli of two triangles each and the innermost
    corner triangle of side 2^-levels, each carrying
    `triangle_quadrature(exactness)`: mildly singular integrands at the
    vertex are resolved wherever the rule is mapped with that vertex
    first.
    """
    o, a, b = REFERENCE_VERTICES
    tris = []
    for lev in range(levels):
        s_out, s_in = 0.5**lev, 0.5 ** (lev + 1)
        tris += [(s_out * a, s_out * b, s_in * a), (s_out * b, s_in * b, s_in * a)]
    s = 0.5**levels
    tris.append((o, s * a, s * b))
    pts, w = map_to_triangle(triangle_quadrature(exactness), np.array(tris))
    return QuadRule(pts.reshape(-1, 2), w.ravel())


def _jet(*components):
    """A jet stacked as (val, x, y, xx, xy, yy) on axis 0, its components
    broadcast together."""
    return np.stack(np.broadcast_arrays(*components))


def _times(a, b):
    """The product of two stacked jets, by the product rule."""
    v, x, y, xx, xy, yy = a
    bv, bx, by, bxx, bxy, byy = b
    return np.stack([
        v * bv, x * bv + v * bx, y * bv + v * by,
        xx * bv + 2 * x * bx + v * bxx,
        xy * bv + x * by + y * bx + v * bxy,
        yy * bv + 2 * y * by + v * byy,
    ])


def orthonormal_basis(degree, points):
    """The L2-orthonormal, degree-graded P_degree basis on the reference
    triangle at reference points (..., 2), as a `Jet`.

    Its members are the Dubiner-Koornwinder polynomials psi_pq, ordered
    as `monomial_exponents` (psi_pq in the place of x^p y^q) and scaled
    to unit norm by sqrt((2p + 1)(2p + 2q + 2)): the constant member is
    sqrt(2) and members of degree <= 1 have vanishing Hessians.  Values
    and derivatives run together through the three-term recurrences in
    x and y that have no singularity at the top vertex (Kirby 2010),
        psi_(p+1,0) = (2p+1)/(p+1) (2x + y - 1) psi_p0
                      - p/(p+1) (1 - y)^2 psi_(p-1,0),
        psi_(p,q+1) = (a (2y - 1) + b) psi_pq - c psi_(p,q-1),
    with (a, b, c) the recurrence coefficients of the Jacobi polynomials
    P_q^(2p+1, 0), from psi_00 = 1.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    points = np.asarray(points, dtype=float)
    _check_reference_points(points)
    x, y = points[..., 0, None], points[..., 1, None]
    linear = _jet(2 * x + y - 1, 2.0, 1.0, 0.0, 0.0, 0.0)
    square = _jet((1 - y) ** 2, 0.0, 2 * y - 2, 0.0, 0.0, 2.0)
    psi = [_jet(np.ones_like(x), 0.0, 0.0, 0.0, 0.0, 0.0)]
    for p in range(degree):
        nxt = (2 * p + 1) / (p + 1) * _times(linear, psi[p])
        if p:
            nxt -= p / (p + 1) * _times(square, psi[p - 1])
        psi.append(nxt)
    # column q holds psi_pq for p <= degree - q: the y-recurrence runs
    # for every p at once
    cols = [np.concatenate(psi, axis=-1)]
    for q in range(degree):
        alpha = 2.0 * np.arange(degree - q) + 1
        s = 2 * q + alpha
        a = (s + 1) * (s + 2) / (2 * (q + 1) * (q + alpha + 1))
        b = alpha**2 * (s + 1) / (2 * (q + 1) * (q + alpha + 1) * s)
        c = q * (q + alpha) * (s + 2) / ((q + 1) * (q + alpha + 1) * s)
        nxt = _times(_jet(a * (2 * y - 1) + b, 0.0, 2 * a, 0.0, 0.0, 0.0), cols[q][..., :-1])
        if q:
            nxt -= c * cols[q - 1][..., :-2]
        cols.append(nxt)
    pq = monomial_exponents(degree)
    jet = np.stack([cols[q][..., p] for p, q in pq], axis=-1)
    jet *= np.sqrt((2 * pq[:, 0] + 1) * (2 * pq.sum(axis=1) + 2))
    return Jet(jet[0], np.stack(jet[1:3], axis=-1), np.stack(jet[3:], axis=-1))


@dataclass(frozen=True)
class ReferenceTables:
    """`orthonormal_basis` of one degree d at the points element kernels use.

    `tri` is tabulated at the points of `quad` (triangle rule of
    exactness 2d + 2), `edge` at the points of `edge_rule` (exactness
    2d + 4) on each edge slot, shape (3, n, ...): slot s runs from
    reference vertex s to vertex s + 1, and `vertex` at the three
    reference vertices.
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
    edge_pts = a[:, None] + edge_rule.points[None, :, None] * (b - a)[:, None]
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

