import re
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import Poly2d, random_triangle

from bilap_dpg.shape import (
    QuadratureError,
    QuadRule,
    affine_maps,
    basis_dimension,
    edge_quadrature,
    map_jet,
    map_to_triangle,
    monomial_exponents,
    monomials,
    orthonormal_basis,
    reference_tables,
    triangle_quadrature,
)


def tri_monomial_integral(i, j):
    # oracle: int_T x^i y^j over the reference triangle
    return factorial(i) * factorial(j) / factorial(i + j + 2)


def _coefficients(degree, f):
    # L2 coefficients of f in the orthonormal basis
    rule = triangle_quadrature(2 * degree + 2)
    val = orthonormal_basis(degree, rule.points).val
    return val.T @ (rule.weights * f(rule.points[:, 0], rule.points[:, 1]))


def test_degree1_barycenter():
    # the linear members are orthogonal to constants, so they have mean
    # zero and vanish at the barycenter; the constant member is sqrt(2)
    vals = orthonormal_basis(1, np.array([1 / 3, 1 / 3])).val
    assert np.allclose(vals, [np.sqrt(2.0), 0.0, 0.0], atol=1e-14)


def test_degree1_partition_of_unity_and_zero_hessian():
    # the leading members reproduce 1 and the degree <= 1 members have
    # vanishing Hessians
    rng = np.random.default_rng(0)
    pts = rng.dirichlet([1, 1, 1], size=40)[:, :2]
    vals, _, hess = orthonormal_basis(3, pts)
    c = _coefficients(3, lambda x, y: np.ones_like(x))
    assert np.allclose(c[1:], 0.0, atol=1e-13)
    assert np.allclose(vals[:, :3] @ c[:3], 1.0, atol=1e-13)
    assert np.allclose(hess[:, :3], 0.0)


def test_degree2_x_squared_member():
    # x^2 lies in the span of the six degree-2 members: its coefficients
    # reproduce its values, gradient and Hessian
    pts = np.array([[0.2, 0.3], [0.5, 0.1], [0.0, 0.7]])
    vals, grads, hess = orthonormal_basis(2, pts)
    c = _coefficients(2, lambda x, y: x**2)
    assert np.allclose(vals @ c, pts[:, 0] ** 2)
    assert np.allclose(grads[:, :, 0] @ c, 2 * pts[:, 0])
    assert np.allclose(grads[:, :, 1] @ c, 0.0)
    assert np.allclose(np.einsum("qkc,k->qc", hess, c), [2.0, 0.0, 0.0])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    pts = 0.1 + 0.3 * rng.random((10, 2))
    h = 1e-6
    for degree in (2, 4):
        vals_px = orthonormal_basis(degree, pts + [h, 0]).val
        vals_mx = orthonormal_basis(degree, pts - [h, 0]).val
        vals_py = orthonormal_basis(degree, pts + [0, h]).val
        vals_my = orthonormal_basis(degree, pts - [0, h]).val
        grads = orthonormal_basis(degree, pts).grad
        assert np.allclose((vals_px - vals_mx) / (2 * h), grads[..., 0], atol=1e-6)
        assert np.allclose((vals_py - vals_my) / (2 * h), grads[..., 1], atol=1e-6)


def test_point_outside_reference_triangle_raises():
    with pytest.raises(ValueError):
        orthonormal_basis(2, np.array([0.7, 0.7]))


def test_basis_dimension():
    assert [basis_dimension(d) for d in range(5)] == [1, 3, 6, 10, 15]


@pytest.mark.parametrize("exactness", range(0, 15))
def test_triangle_quadrature_exactness(exactness):
    rule = triangle_quadrature(exactness)
    assert rule.domain == "triangle"
    assert np.all(rule.weights > 0)
    assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
    for i in range(exactness + 1):
        for j in range(exactness + 1 - i):
            got = rule.integrate(lambda x, y, i=i, j=j: x**i * y**j)
            assert got == pytest.approx(tri_monomial_integral(i, j), abs=1e-12)


def test_triangle_quadrature_spec_values():
    assert triangle_quadrature(1).integrate(lambda x, y: 1.0 + 0 * x) == pytest.approx(0.5)
    assert triangle_quadrature(2).integrate(lambda x, y: x * y) == pytest.approx(1 / 24)
    assert triangle_quadrature(4).integrate(lambda x, y: x**4) == pytest.approx(1 / 30)


def test_triangle_quadrature_rejects_unsupported():
    with pytest.raises(QuadratureError):
        triangle_quadrature(-1)
    with pytest.raises(QuadratureError):
        triangle_quadrature(10_000)


def test_edge_quadrature():
    assert edge_quadrature(0).integrate(lambda t: np.ones_like(t)) == pytest.approx(1.0)
    rule2 = edge_quadrature(3)
    assert len(rule2.points) == 2
    assert rule2.integrate(lambda t: t**3) == pytest.approx(0.25, abs=1e-14)
    # a 1-point rule is inexact for t^2: midpoint gives 1/4, not 1/3
    rule1 = edge_quadrature(1)
    assert len(rule1.points) == 1
    got = rule1.integrate(lambda t: t**2)
    assert got == pytest.approx(0.25)
    assert abs(got - 1 / 3) > 1e-2


@pytest.mark.parametrize("exactness", range(0, 12))
def test_edge_quadrature_exactness(exactness):
    rule = edge_quadrature(exactness)
    for k in range(exactness + 1):
        assert rule.integrate(lambda t, k=k: t**k) == pytest.approx(
            1 / (k + 1), abs=1e-13
        )


def test_integration_by_parts_identity():
    # (Delta v, z)_T - (v, Delta z)_T = sum_edges int (z dn v - v dn z) ds
    rng = np.random.default_rng(7)
    vol_rule = triangle_quadrature(10)
    edge_rule = edge_quadrature(12)
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
        assert volume == pytest.approx(boundary, abs=1e-10)


def test_quadrule_dataclass_fields():
    rule = triangle_quadrature(3)
    assert isinstance(rule, QuadRule)
    assert rule.exactness >= 3


@st.composite
def affine_elements(draw):
    """Positively oriented triangles of size 1e-3..10, any rotation,
    shear in [-1, 1] and aspect ratio up to 1e3."""
    v0 = np.array([draw(st.floats(-2, 2)), draw(st.floats(-2, 2))])
    size = 10 ** draw(st.floats(-3, 1))
    aspect = 10 ** draw(st.floats(0, 3))
    angle = draw(st.floats(0, 2 * np.pi))
    shear = draw(st.floats(-1, 1))
    e1 = size * np.array([np.cos(angle), np.sin(angle)])
    e2 = shear * e1 + np.array([-e1[1], e1[0]]) / aspect
    return np.array([v0, v0 + e1, v0 + e2])


def _mapped(degree, tri, points):
    """The orthonormal basis mapped to `tri`, at physical points."""
    _, det, jinv = affine_maps(tri[None])
    ref = (points - tri[0]) @ jinv[0].T
    return map_jet(orthonormal_basis(degree, ref), jinv[0], det[0])


@settings(max_examples=60, deadline=None)
@given(affine_elements(), st.integers(0, 6))
def test_mapped_basis_is_orthonormal(tri, degree):
    # the element's quadrature: reference points mapped forward, as the
    # element kernels use them, with weights from map_to_triangle
    rule = triangle_quadrature(2 * degree + 2)
    _, w = map_to_triangle(rule, tri)
    _, det, jinv = affine_maps(tri[None])
    val = map_jet(orthonormal_basis(degree, rule.points), jinv[0], det[0]).val
    gram = np.einsum("q,qi,qj->ij", w, val, val)
    assert np.abs(gram - np.eye(basis_dimension(degree))).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(affine_elements(), st.integers(1, 5), st.floats(0.1, 0.8), st.floats(0.1, 0.8))
def test_mapped_derivatives_match_finite_differences(tri, degree, a, b):
    # central differences of the mapped values, with steps scaled to the
    # element's smallest width so thin elements are resolved; the element
    # is moved to the origin (the map's derivatives do not see v0) so the
    # steps are not lost against large coordinates
    tri = tri - tri[0]
    x = tri[0] + a * (1 - b) * (tri[1] - tri[0]) + a * b * (tri[2] - tri[0])
    _, _, jinv = affine_maps(tri[None])
    k_norm = np.linalg.norm(jinv[0], 2)
    step = 1e-5 / k_norm
    jet = _mapped(degree, tri, x[None])
    # derivative scales on this element (also where a member's own
    # derivative vanishes)
    grad_scale = max(np.abs(jet.grad).max(), k_norm * np.abs(jet.val).max())
    hess_scale = max(np.abs(jet.hess).max(), k_norm**2 * np.abs(jet.val).max())
    unit = np.eye(2)

    def val(p):
        return _mapped(degree, tri, p[None]).val[0]

    for d in range(2):
        e = step * unit[d]
        fd = (val(x + e) - val(x - e)) / (2 * step)
        assert np.abs(fd - jet.grad[0, :, d]).max() <= 1e-6 * grad_scale
    h2 = 10 * step
    for comp, (d1, d2) in enumerate([(0, 0), (0, 1), (1, 1)]):
        e1, e2 = h2 * unit[d1], h2 * unit[d2]
        fd = (val(x + e1 + e2) - val(x + e1 - e2) - val(x - e1 + e2) + val(x - e1 - e2)) / (
            4 * h2 * h2
        )
        assert np.abs(fd - jet.hess[0, :, comp]).max() <= 1e-4 * hess_scale


def test_orthonormal_basis_is_graded():
    # the leading dim P_q members span P_q: members of degree <= 1 have
    # zero Hessians and the constant member is sqrt(2) (area 1/2)
    tab = reference_tables(4)
    assert np.all(tab.tri.hess[:, :3] == 0.0)
    assert np.allclose(tab.tri.val[:, 0], np.sqrt(2.0), rtol=1e-14)
    # P_2 members have constant Hessians
    assert np.allclose(tab.tri.hess[:, 3:6], tab.tri.hess[:1, 3:6], atol=1e-12)


@pytest.mark.parametrize("degree", range(5))
def test_monomials_against_exact_products_and_power_form(degree):
    rng = np.random.default_rng(degree)
    pts = rng.uniform(-1.5, 1.5, size=(400, 7, 2))
    got = monomials(degree, pts)
    ex = monomial_exponents(degree)
    power = pts[..., 0, None] ** ex[:, 0] * pts[..., 1, None] ** ex[:, 1]
    assert got.shape == power.shape
    q = ex.sum(axis=1)
    eps = np.finfo(float).eps
    # a monomial of degree q takes q - 1 rounded products, so its
    # relative error is at most gamma_(q-1) = (q-1)u / (1 - (q-1)u),
    # u = eps / 2; checked in exact rational arithmetic
    u_round = Fraction(eps) / 2
    for (x, y), row in zip(pts[:5].reshape(-1, 2).tolist(), got[:5].reshape(-1, len(ex))):
        for (i, j), value, n in zip(ex.tolist(), row.tolist(), (q - 1).clip(0).tolist()):
            exact = Fraction(x) ** i * Fraction(y) ** j
            gamma = n * u_round / (1 - n * u_round)
            assert abs(Fraction(value) - exact) <= gamma * abs(exact)
    # the pow form is exact up to degree 1; above that numpy's pow is
    # not correctly rounded (x**2 differs from x*x in the last bit for
    # some x): allow 1 ulp (2u) per pow, u for its product and
    # gamma_(q-1) for the repeated products, at most (q + 1) eps
    if degree <= 1:
        assert got.tobytes() == power.tobytes()
    else:
        assert np.all(np.abs(got - power) <= (q + 1) * eps * np.abs(power))


def test_no_power_form_monomials_in_src():
    src = Path(monomials.__code__.co_filename).parent
    pattern = re.compile(r"\*\*\s*(ex|exponents)\[")
    hits = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
