import numpy as np
import pytest
from oracles import Poly2d, monomial_local_systems, random_triangle

from bilap_dpg import forms, shape
from bilap_dpg.dpg_solver import assemble_and_solve, error_indicators
from bilap_dpg.forms import (
    Formulation,
    FormsError,
    build_local_systems,
    local_b,
    local_gram,
    local_load,
    translation_classes,
)
from bilap_dpg.linsolve import NotPositiveDefiniteError, cholesky_spd
from bilap_dpg.mesh import (
    Mesh,
    doerfler_mark,
    make_sector_domain,
    make_unit_square,
    refine_nvb,
)
from bilap_dpg.problems import singular_problem
from bilap_dpg.shape import REFERENCE_VERTICES, monomial_exponents
from bilap_dpg.trace_space import build_trace_space, interpolate_function

VF1 = Formulation(scheme=1)
VF2 = Formulation(scheme=2)


def test_formulation_validation():
    assert VF2.tag == "VF2" and VF1.field_degree == 0 and VF1.test_degree == 4
    with pytest.raises(FormsError):
        Formulation(scheme=3)
    with pytest.raises(FormsError):
        Formulation(scheme=1, field_degree=2, test_degree=3)


def test_gram_degree0_reference_triangle():
    # the test basis is L2-orthonormal on the element, so the constant
    # member has unit mass
    g = local_gram(REFERENCE_VERTICES, VF1, test_degree=0)
    assert np.allclose(g, np.diag([1.0, 1.0]), atol=1e-14)


def test_gram_vf2_degree1_is_mass_matrix():
    # linear test block: Hessian term vanishes, leaving the mass matrix,
    # computed here by quadrature of the mapped basis
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    g = local_gram(tri, VF2, test_degree=1)
    pts, w = shape.map_to_triangle(shape.triangle_quadrature(4), tri)
    jac, det, jinv = (x[0] for x in shape.affine_maps(tri[None]))
    val = shape.map_jet(shape.orthonormal_basis(1, (pts - tri[0]) @ jinv.T), jinv, det).val
    mass = np.einsum("q,qi,qj->ij", w, val, val)
    assert np.allclose(g[:3, :3], mass, atol=1e-13)
    assert np.allclose(mass, np.eye(3), atol=1e-13)


def _thin_triangle(rng, aspect):
    angle = rng.uniform(0, 2 * np.pi)
    e1 = np.array([np.cos(angle), np.sin(angle)])
    e2 = rng.uniform(-1, 1) * e1 + np.array([-e1[1], e1[0]]) / aspect
    v0 = rng.uniform(-1, 1, size=2)
    return np.array([v0, v0 + e1, v0 + e2])


@pytest.mark.parametrize("form", [VF1, VF2])
@pytest.mark.parametrize("thin", [False, True])
def test_gram_symmetric_and_spd(form, thin):
    # round random elements, or thin ones with aspect ratios to 1e3
    rng = np.random.default_rng(8)
    for _ in range(4):
        tri = _thin_triangle(rng, 10 ** rng.uniform(1, 3)) if thin else random_triangle(rng)
        g = local_gram(tri, form)
        assert np.abs(g - g.T).max() <= 1e-13 * np.abs(g).max()
        cholesky_spd(g)  # raises if not SPD


def test_gram_rejects_degenerate_element():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-16]])
    with pytest.raises(FormsError):
        local_gram(tri, VF1)


def test_local_b_constants_example():
    # constant trial and test functions, both of unit L2 norm: the u
    # column vanishes, the sigma column pairs with tau as -(sigma, tau) = -1
    mesh = make_unit_square(1)
    for tri in range(mesh.num_triangles):
        b = local_b(mesh, tri, VF1, test_degree=0)
        assert b.shape == (2, 20)
        assert b[1, 0] == pytest.approx(0.0, abs=1e-15)  # (u, Delta tau)
        assert b[0, 1] == pytest.approx(0.0, abs=1e-15)  # (sigma, Delta v)
        assert b[1, 1] == pytest.approx(-1.0, abs=1e-14)  # -(sigma, tau)


def test_local_b_uhat_linear_against_constant_tau():
    # uhat interpolating u(x, y) = x against a constant tau: the edge
    # pairing reduces to tau * int_dT n_x ds = 0 (divergence theorem)
    mesh = make_unit_square(1)
    space = build_trace_space(mesh)
    coeffs = interpolate_function(space, lambda x, y: x, lambda x, y: (1.0, 0.0))
    for tri in range(mesh.num_triangles):
        b = local_b(mesh, tri, VF1, test_degree=0)
        cols = np.zeros(20)
        for loc, v in enumerate(mesh.triangles[tri]):
            cols[2 + 3 * loc : 5 + 3 * loc] = coeffs[3 * v : 3 * v + 3]
        assert b @ cols == pytest.approx(np.zeros(2), abs=1e-13)


def test_local_b_zero_trial_vector():
    mesh = make_unit_square(1)
    b = local_b(mesh, 0, VF2)
    assert np.allclose(b @ np.zeros(b.shape[1]), 0.0)


def test_load_examples():
    # the constant test member is |T|^(-1/2), so (c, v_0) = c |T|^(1/2)
    one = lambda x, y: np.ones_like(x)
    l = local_load(REFERENCE_VERTICES, one, VF1, test_degree=0)
    assert l[0] == pytest.approx(np.sqrt(0.5), abs=1e-15)
    assert l[1] == 0.0
    zero = lambda x, y: np.zeros_like(x)
    assert np.all(local_load(REFERENCE_VERTICES, zero, VF1) == 0.0)
    tri = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]])  # area 3
    five = lambda x, y: 5.0 * np.ones_like(x)
    l = local_load(tri, five, VF2, test_degree=0)
    assert l[0] == pytest.approx(5.0 * np.sqrt(3.0), rel=1e-14)


def test_vf1_vf2_b_matrices_coincide():
    mesh = refine_nvb(make_unit_square(2), [0, 1])
    for tri in (0, 3, 7):
        b1 = local_b(mesh, tri, VF1)
        b2 = local_b(mesh, tri, VF2)
        scale = np.abs(b1).max()
        assert np.abs(b1 - b2).max() <= 1e-12 * scale


def test_element_basis_matches_reference_on_unit_triangle():
    # affine chain rule: each reference member mapped to a physical
    # triangle, expanded in physical monomials by interpolation, has the
    # mapped values, gradients (J^-T grad) and Hessians (J^-T H J^-1)
    rng = np.random.default_rng(15)
    tri = random_triangle(rng)
    jac, det, jinv = (x[0] for x in shape.affine_maps(tri[None]))
    degree = 3
    ref_pts = rng.dirichlet([1, 1, 1], size=12)[:, :2]
    phys = tri[0] + ref_pts @ jac.T
    mapped = shape.map_jet(shape.orthonormal_basis(degree, ref_pts), jinv, det)

    nodes_ref = rng.dirichlet([1, 1, 1], size=40)[:, :2]
    nodes_phys = tri[0] + nodes_ref @ jac.T
    v_nodes = shape.map_jet(shape.orthonormal_basis(degree, nodes_ref), jinv, det).val
    ex = monomial_exponents(degree)
    vander = nodes_phys[:, None, 0] ** ex[:, 0] * nodes_phys[:, None, 1] ** ex[:, 1]
    coef, *_ = np.linalg.lstsq(vander, v_nodes, rcond=None)
    x, y = phys[:, 0], phys[:, 1]
    # orthonormal members are O(|T|^-1/2) and gain a factor ~1/h per
    # derivative: each comparison is relative to its table's magnitude
    atol = [1e-12 * max(1.0, np.abs(table).max()) for table in mapped]
    for m in range(coef.shape[1]):
        c = np.zeros((degree + 1, degree + 1))
        c[ex[:, 0], ex[:, 1]] = coef[:, m]
        p = Poly2d(c)
        assert np.allclose(p(x, y), mapped.val[:, m], atol=atol[0])
        grad = np.column_stack(p.grad(x, y))
        assert np.allclose(grad, mapped.grad[:, m], atol=atol[1])
        hess = np.column_stack([p.dx().dx()(x, y), p.dx().dy()(x, y), p.dy().dy()(x, y)])
        assert np.allclose(hess, mapped.hess[:, m], atol=atol[2])


def _local_trial_vector(mesh, tri, form, u_poly, sigma_poly, uhat, shat):
    """Exact-solution coefficients in the element's trial layout.

    The trial basis is the centred, diameter-scaled monomials times
    L^-T, L the Cholesky factor of their moment matrix: an L2-orthonormal
    basis, so the field coefficients are L2 projections.
    """
    dim_p = form.field_dim
    verts = mesh.triangle_coords()[tri]
    pts, w = shape.map_to_triangle(shape.triangle_quadrature(2 * form.test_degree + 2), verts)
    ex = monomial_exponents(form.field_degree)
    u = (pts - verts.mean(axis=0)) / mesh.diameters[tri]
    mono = u[:, None, 0] ** ex[:, 0] * u[:, None, 1] ** ex[:, 1]
    chol = np.linalg.cholesky(np.einsum("q,qi,qj->ij", w, mono, mono))
    val = np.linalg.solve(chol, mono.T).T
    x = np.zeros(2 * dim_p + 18)
    x[:dim_p] = val.T @ (w * u_poly(pts[:, 0], pts[:, 1]))
    x[dim_p : 2 * dim_p] = val.T @ (w * sigma_poly(pts[:, 0], pts[:, 1]))
    for loc, v in enumerate(mesh.triangles[tri]):
        x[2 * dim_p + 3 * loc : 2 * dim_p + 3 * loc + 3] = uhat[3 * v : 3 * v + 3]
        x[2 * dim_p + 9 + 3 * loc : 2 * dim_p + 12 + 3 * loc] = shat[3 * v : 3 * v + 3]
    return x


@pytest.mark.parametrize("scheme", [1, 2])
@pytest.mark.parametrize(
    "mesh_builder",
    [
        lambda: make_unit_square(2),
        lambda: refine_nvb(make_unit_square(1), [0, 1]),
        make_sector_domain,
    ],
)
def test_adjoint_consistency_quadratic(scheme, mesh_builder):
    # a global quadratic u with sigma = Delta u and exact Hermite trace
    # data solves the discrete equations with zero residual (f = 0)
    rng = np.random.default_rng(21)
    mesh = mesh_builder()
    u = Poly2d.random(rng, 2)
    sigma = u.laplacian()
    form = Formulation(scheme=scheme, field_degree=2, test_degree=4)
    space = build_trace_space(mesh)
    uhat = interpolate_function(space, u, u.grad)
    shat = interpolate_function(space, sigma, sigma.grad)
    zero = lambda x, y: np.zeros_like(x)
    for tri in range(mesh.num_triangles):
        b = local_b(mesh, tri, form)
        l = local_load(mesh.triangle_coords()[tri], zero, form)
        x = _local_trial_vector(mesh, tri, form, u, sigma, uhat, shat)
        assert np.abs(l - b @ x).max() < 1e-9


def test_adjoint_consistency_cubic_on_structured_mesh():
    # u = x^3 + y^3 has edgewise-linear normal derivatives on structured
    # square meshes, so its reduced-HCT interpolant is an exact trace
    mesh = make_unit_square(2)
    u = Poly2d(np.array([[0, 0, 0, 1.0], [0, 0, 0, 0], [0, 0, 0, 0], [1.0, 0, 0, 0]]))
    sigma = u.laplacian()
    form = Formulation(scheme=2, field_degree=3, test_degree=5)
    space = build_trace_space(mesh)
    uhat = interpolate_function(space, u, u.grad)
    shat = interpolate_function(space, sigma, sigma.grad)
    zero = lambda x, y: np.zeros_like(x)
    for tri in range(mesh.num_triangles):
        b = local_b(mesh, tri, form)
        l = local_load(mesh.triangle_coords()[tri], zero, form)
        x = _local_trial_vector(mesh, tri, form, u, sigma, uhat, shat)
        assert np.abs(l - b @ x).max() < 1e-9


def test_build_local_systems_shapes():
    mesh = make_unit_square(2)
    f = lambda x, y: np.ones_like(x)
    loc1 = build_local_systems(mesh, VF1, f)
    nt, k = mesh.num_triangles, VF1.test_dim
    assert loc1.w.shape == (nt, 2 * k, VF1.num_local_cols)
    assert loc1.corner_cols is None
    loc2 = build_local_systems(mesh, VF2, f)
    # scheme 2 appends six corner-functional columns per element
    assert loc2.w.shape == (nt, 2 * k, VF2.num_local_cols + 6)
    assert loc2.corner_cols.shape == (nt, 6)
    assert loc2.corner_cols.max() < 2 * mesh.num_edges
    assert loc2.wl.shape == (nt, 2 * k)
    assert loc2.trial_chol.shape == (nt, 1, 1)


def test_monomial_exponents_graded():
    ex = monomial_exponents(2)
    assert [tuple(r) for r in ex] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _jittered_square(n, seed):
    mesh = make_unit_square(n)
    vertices = mesh.vertices.copy()
    inner = ~mesh.is_boundary_vertex
    rng = np.random.default_rng(seed)
    vertices[inner] += rng.uniform(-0.15 / n, 0.15 / n, size=(inner.sum(), 2))
    return Mesh(vertices, mesh.triangles)


def _random_nvb(mesh, seed, rounds=4):
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        nt = mesh.num_triangles
        mesh = refine_nvb(mesh, rng.choice(nt, size=max(1, nt // 4), replace=False))
    return mesh


def test_square_class_count_does_not_grow():
    counts = [len(translation_classes(make_unit_square(n))[0]) for n in (2, 4, 8, 16, 32)]
    assert counts == [counts[0]] * len(counts)


def test_jittered_square_has_one_class_per_element():
    mesh = _jittered_square(8, seed=1)
    first, cls, counts = translation_classes(mesh)
    assert len(first) == mesh.num_triangles
    assert np.all(counts == 1) and np.array_equal(np.sort(cls), np.arange(mesh.num_triangles))


CLASS_MESHES = {
    "square": lambda: make_unit_square(4),
    "sector": make_sector_domain,
    "square-nvb": lambda: _random_nvb(make_unit_square(2), seed=11),
    "sector-nvb-a": lambda: _random_nvb(make_sector_domain(), seed=12),
    "sector-nvb-b": lambda: _random_nvb(make_sector_domain(), seed=13, rounds=6),
}


@pytest.mark.parametrize("name", sorted(CLASS_MESHES))
@pytest.mark.parametrize("scheme", [1, 2])
@pytest.mark.parametrize("degree", [0, 1])
def test_class_cache_matches_shifted_mesh(name, scheme, degree):
    # a non-dyadic shift changes the rounding of the relative vertex
    # coordinates and so splits the classes: this compares the cached
    # kernels of the mesh against (mostly) per-element ones
    offset = np.array([0.1, 0.3])
    mesh = CLASS_MESHES[name]()
    shifted = Mesh(mesh.vertices + offset, mesh.triangles)
    form = Formulation(scheme=scheme, field_degree=degree, test_degree=4)
    f = lambda x, y: np.sin(3 * x + 1) * np.cos(2 * y) + x * y
    g = lambda x, y: f(x - offset[0], y - offset[1])
    a = build_local_systems(mesh, form, f)
    b = build_local_systems(shifted, form, g)
    if name == "square":
        assert len(translation_classes(shifted)[0]) > len(translation_classes(mesh)[0])
    for field in ("w", "wl", "h", "trial_chol"):
        x, y = getattr(a, field), getattr(b, field)
        assert np.abs(x - y).max() <= 1e-8 * np.abs(x).max(), field
    assert np.allclose(b.centroid, a.centroid + offset, rtol=0, atol=1e-14)
    if scheme == 2:
        assert np.array_equal(a.corner_cols, b.corner_cols)
    else:
        assert a.corner_cols is None and b.corner_cols is None


def _doerfler_sector(steps):
    problem = singular_problem()
    mesh = make_sector_domain()
    for _ in range(steps):
        indicators = error_indicators(assemble_and_solve(mesh, VF2, problem))
        mesh = refine_nvb(mesh, doerfler_mark(indicators.per_element, 0.5))
    return mesh


ORACLE_MESHES = {
    "jittered-square": lambda: _jittered_square(6, seed=4),
    "graded-sector": lambda: _doerfler_sector(6),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
@pytest.mark.parametrize("scheme,degree", [(1, 1), (2, 0)])
def test_local_systems_match_monomial_oracle(name, scheme, degree):
    # W^T W = B^T G^-1 B, W^T wl and |wl|^2 do not depend on the test
    # basis: the mapped reference tables must reproduce an element-wise
    # monomial-seeded computation
    mesh = ORACLE_MESHES[name]()
    f = lambda x, y: np.sin(3 * x + 1) * np.cos(2 * y) + x * y + 2.0
    loc = build_local_systems(mesh, Formulation(scheme, degree, 4), f)
    wtw, wtl, ll = monomial_local_systems(mesh, scheme, degree, 4, f)
    got_wtw = np.einsum("eri,erj->eij", loc.w, loc.w)
    got_wtl = np.einsum("eri,er->ei", loc.w, loc.wl)
    got_ll = np.einsum("er,er->e", loc.wl, loc.wl)
    for got, want in ((got_wtw, wtw), (got_wtl, wtl)):
        err = np.abs(got - want).reshape(len(want), -1).max(axis=1)
        assert np.all(err <= 1e-9 * np.abs(want).reshape(len(want), -1).max(axis=1))
    assert np.all(np.abs(got_ll - ll) <= 1e-9 * ll)


def _mesh_with_sliver(area):
    # positively oriented triangle (0, 1, 2) of the given area, inside a
    # conforming three-triangle mesh
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 2.0 * area], [0.5, 1.0]])
    return Mesh(vertices, np.array([[2, 0, 1], [0, 2, 3], [2, 1, 3]]))


@pytest.mark.parametrize("form", [VF1, VF2])
def test_build_local_systems_rejects_sliver(form):
    mesh = _mesh_with_sliver(1e-16)
    assert mesh.areas[0] == pytest.approx(1e-16)
    f = lambda x, y: np.ones_like(x)
    with pytest.raises(FormsError, match="degenerate element 0"):
        build_local_systems(mesh, form, f)


@pytest.mark.parametrize("form", [VF1, VF2])
def test_build_local_systems_singular_gram_block(form, monkeypatch):
    # with the area guard off, a sliver whose inverse Jacobian overflows
    # leaves no usable Gram factor: the whitening must raise, naming it
    monkeypatch.setattr(forms, "MIN_ELEMENT_AREA", 0.0)
    mesh = _mesh_with_sliver(1e-300)
    f = lambda x, y: np.ones_like(x)
    message = r"test Gram block is singular \(element 0\)"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NotPositiveDefiniteError, match=message):
            build_local_systems(mesh, form, f)
