import numpy as np
import pytest
from oracles import Poly2d, interpolate_function, mesh_topology

from bilap_dpg.mesh import make_sector_domain, make_unit_square, refine_nvb
from bilap_dpg.shape import edge_quadrature
from bilap_dpg.trace_space import (
    apply_clamped_bc,
    build_trace_space,
    edge_dof_tables,
    interpolate_boundary_data,
)


def test_dof_counts():
    assert len(build_trace_space(make_unit_square(1)).values) == 12
    assert len(build_trace_space(make_sector_domain()).values) == 21


def test_dof_count_after_uniform_refinement():
    m = make_unit_square(1)
    r = refine_nvb(m, range(m.num_triangles))
    assert len(build_trace_space(r).values) == 3 * r.num_vertices


def _segment_trace(mesh, coeffs, a, b, t):
    """Trace value and normal derivative along the segment from vertex a
    to vertex b at the parameters t, against the normal that turns the
    tangent clockwise (outward for a counterclockwise element), through
    the element kernels' `edge_dof_tables`; returns them with the
    segment's length, the points and the normal."""
    pa, pb = mesh.vertices[a], mesh.vertices[b]
    along = pb - pa
    length = np.hypot(*along)
    normal = np.array([along[1], -along[0]]) / length
    t = np.atleast_1d(t)
    dofs = np.asarray(coeffs, dtype=float).reshape(-1, 3)[[a, b]].ravel()
    val, nder = edge_dof_tables(along[None], normal[None], t)
    points = pa + t[:, None] * along
    return val[0] @ dofs, nder[0] @ dofs, length, points, normal


def edge_trace(mesh, coeffs, edge, t):
    """Trace value and normal derivative along one edge, t running from
    its lower- to its higher-index vertex."""
    return _segment_trace(mesh, coeffs, *mesh.edges[edge], t)[:2]


def _edge_between(mesh, a_xy, b_xy):
    for e in range(mesh.num_edges):
        pts = mesh.vertices[mesh.edges[e]]
        if (np.allclose(pts[0], a_xy) and np.allclose(pts[1], b_xy)) or (
            np.allclose(pts[0], b_xy) and np.allclose(pts[1], a_xy)
        ):
            return e
    raise AssertionError("edge not found")


def test_eval_linear_function_on_bottom_edge():
    # dofs interpolating u(x, y) = x: value(t) = t, normal derivative 0
    m = make_unit_square(1)
    coeffs = interpolate_function(m, lambda x, y: x, lambda x, y: (1.0, 0.0))
    e = _edge_between(m, [0, 0], [1, 0])
    t = np.linspace(0, 1, 9)
    value, nder = edge_trace(m, coeffs, e, t)
    lo = m.edges[e][0]
    x_lo = m.vertices[lo][0]  # param runs lo -> hi
    expect = x_lo + t * (1.0 - 2.0 * x_lo)
    assert np.allclose(value, expect, atol=1e-13)
    assert np.allclose(nder, 0.0, atol=1e-13)


def test_eval_zero_coeffs():
    m = make_unit_square(1)
    value, nder = edge_trace(m, np.zeros(3 * m.num_vertices), 0, np.linspace(0, 1, 5))
    assert np.all(value == 0) and np.all(nder == 0)


def test_cubic_hermite_reproduces_cubic_on_edge():
    m = make_unit_square(1)
    coeffs = interpolate_function(m, lambda x, y: x**3, lambda x, y: (3 * x**2, 0.0))
    e = _edge_between(m, [0, 0], [1, 0])
    t = np.linspace(0, 1, 11)
    value, _ = edge_trace(m, coeffs, e, t)
    assert np.allclose(value, t**3, atol=1e-13)


def test_cubic_reproduction_all_edges():
    # interpolation of any global cubic reproduces edge values exactly;
    # degree <= 1 also reproduces the normal derivative exactly
    rng = np.random.default_rng(2)
    m = refine_nvb(make_unit_square(2), [0, 1, 2])
    cubic = Poly2d.random(rng, 3)
    coeffs = interpolate_function(m, cubic, cubic.grad)
    t = np.linspace(0, 1, 7)
    for e in range(m.num_edges):
        lo, hi = m.vertices[m.edges[e]]
        pts = lo[None, :] + t[:, None] * (hi - lo)[None, :]
        value, _ = edge_trace(m, coeffs, e, t)
        assert np.allclose(value, cubic(pts[:, 0], pts[:, 1]), atol=1e-12)

    linear = Poly2d(np.array([[0.3, -1.2], [0.7, 0.0]]))
    coeffs = interpolate_function(m, linear, linear.grad)
    for e in range(m.num_edges):
        _, nder, _, pts, n = _segment_trace(m, coeffs, *m.edges[e], t)
        gx, gy = linear.grad(pts[:, 0], pts[:, 1])
        assert np.allclose(nder, gx * n[0] + gy * n[1], atol=1e-12)


def test_clamped_bc_counts():
    sq1 = apply_clamped_bc(build_trace_space(make_unit_square(1)))
    assert np.all(sq1.constrained)
    assert np.all(sq1.values == 0.0)
    sq2 = apply_clamped_bc(build_trace_space(make_unit_square(2)))
    assert np.count_nonzero(~sq2.constrained) == 3  # only the center vertex is interior


def test_clamped_bc_boundary_trace_vanishes():
    m = make_unit_square(2)
    space = apply_clamped_bc(build_trace_space(m))
    coeffs = np.where(space.constrained, space.values, 1.37)  # junk interior
    t = np.linspace(0, 1, 6)
    edge_tris = mesh_topology(m.vertices, m.triangles)[2]
    for e in np.nonzero(edge_tris[:, 1] < 0)[0]:
        value, nder = edge_trace(m, coeffs, e, t)
        assert np.all(value == 0) and np.all(nder == 0)


def test_interpolate_zero_equals_clamped():
    m = make_unit_square(2)
    a = apply_clamped_bc(build_trace_space(m))
    b = interpolate_boundary_data(a, lambda x, y: 0.0, lambda x, y: (0.0, 0.0))
    assert np.array_equal(a.constrained, b.constrained)
    assert np.allclose(a.values, b.values)


@pytest.mark.parametrize("clamped", [False, True], ids=["free", "clamped"])
def test_interpolate_leaves_the_constraint_mask_as_it_finds_it(clamped):
    # only the dofs already fixed get data; a free dof stays free at 0
    m = refine_nvb(make_unit_square(2), [0, 4, 5])
    space = build_trace_space(m)
    if clamped:
        space = apply_clamped_bc(space)
    mask = space.constrained.copy()
    out = interpolate_boundary_data(
        space, lambda x, y: 1.0 + x, lambda x, y: (np.ones_like(x), 2.0 + y)
    )
    assert np.array_equal(out.constrained, mask)
    assert np.array_equal(space.constrained, mask)
    assert np.all(out.values[~mask] == 0.0)
    x, y = m.vertices.T
    want = np.column_stack([1.0 + x, np.ones_like(x), 2.0 + y]).ravel()
    assert np.array_equal(out.values[mask], want[mask])


def test_interpolate_linear_data():
    m = make_unit_square(1)
    space = interpolate_boundary_data(
        apply_clamped_bc(build_trace_space(m)), lambda x, y: x, lambda x, y: (1.0, 0.0)
    )
    for v in range(m.num_vertices):
        x = m.vertices[v][0]
        assert np.allclose(space.values[3 * v : 3 * v + 3], (x, 1.0, 0.0))


def test_interpolate_names_the_first_vertex_with_non_finite_data():
    # the value is NaN right of x = 0.6 and the y-derivative infinite
    # above y = 0.6, on arrays of all boundary vertices at once: the
    # error names the lowest-numbered vertex where either occurs
    m = make_unit_square(2)
    x, y = m.vertices.T
    bad = np.nonzero(m.is_boundary_vertex & ((x > 0.6) | (y > 0.6)))[0][0]
    with pytest.raises(ValueError, match=rf"at vertex {bad} \({x[bad]}, {y[bad]}\)$"):
        interpolate_boundary_data(
            apply_clamped_bc(build_trace_space(m)),
            lambda x, y: np.where(x > 0.6, np.nan, x),
            lambda x, y: (np.zeros_like(x), np.where(y > 0.6, np.inf, 0.0)),
        )
    values = interpolate_boundary_data(
        apply_clamped_bc(build_trace_space(m)), lambda x, y: x,
        lambda x, y: (np.ones_like(x), 0.0),
    ).values.reshape(-1, 3)
    assert np.array_equal(values[m.is_boundary_vertex], np.column_stack(
        [x, np.ones_like(x), np.zeros_like(x)]
    )[m.is_boundary_vertex])
    assert np.all(values[~m.is_boundary_vertex] == 0.0)


def test_interpolate_singular_solution_origin_dofs_vanish():
    from bilap_dpg.problems import singular_problem

    prob = singular_problem()
    m = make_sector_domain()
    space = interpolate_boundary_data(
        apply_clamped_bc(build_trace_space(m)), prob.u_exact, prob.grad_u_exact
    )
    assert np.allclose(space.values[0:3], 0.0)  # vertex 0 is the origin


def skeleton_pairing(mesh, coeffs, test_poly, exactness=14):
    """sum_T int_dT (w dn(tau) - dn(w) tau) ds for a global test
    polynomial, each element's edges run in its own counterclockwise
    traversal with its outward normal, as the element kernels run them."""
    rule = edge_quadrature(exactness)
    total = 0.0
    for tri in mesh.triangles:
        for a, b in zip(tri, np.roll(tri, -1)):
            w_val, w_nd, length, pts, n = _segment_trace(mesh, coeffs, a, b, rule.points)
            gx, gy = test_poly.grad(pts[:, 0], pts[:, 1])
            integrand = w_val * (gx * n[0] + gy * n[1]) - w_nd * test_poly(
                pts[:, 0], pts[:, 1]
            )
            total += length * (rule.weights @ integrand)
    return total


def test_conforming_trace_pairing_cancels():
    # homogeneous-constrained trace data pairs to zero with any globally
    # smooth test function: interior faces cancel, the boundary vanishes
    rng = np.random.default_rng(4)
    mesh = refine_nvb(make_unit_square(2), [0, 4, 5])
    space = apply_clamped_bc(build_trace_space(mesh))
    for _ in range(4):
        coeffs = np.where(space.constrained, 0.0, rng.uniform(-1, 1, len(space.values)))
        tau = Poly2d.random(rng, 3)
        assert abs(skeleton_pairing(mesh, coeffs, tau)) < 1e-10
