import dataclasses
import functools

import numpy as np
import pytest
from oracles import (
    Poly2d,
    interpolate_function,
    map_jet,
    monomial_local_systems,
    random_ccw_elements,
    random_triangle,
    skeleton_b_by_edges,
)

from bilap_dpg import forms, shape
from bilap_dpg.dpg_solver import (
    BrokenField,
    SolverError,
    assemble_and_solve,
    error_indicators,
    solve_and_record,
)
from bilap_dpg.forms import (
    Formulation,
    FormsError,
    build_local_systems,
    translation_classes,
)
from bilap_dpg.mesh import (
    Mesh,
    doerfler_mark,
    make_sector_domain,
    make_unit_square,
    refine_nvb,
)
from bilap_dpg.problems import singular_problem, smooth_problem
from bilap_dpg.shape import monomial_exponents

VF1 = Formulation(scheme=1)
VF2 = Formulation(scheme=2)
RIGHT_TRIANGLE = [[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]]  # area 3


def _per_element(loc, field):
    """A field of `LocalSystems` per element: the class kernels gathered
    by each element's class, the other fields as they are."""
    value = getattr(loc, field)
    return value[loc.cls] if field in ("w_v", "w_tau", "u_recovery") else value


def _one_element(vertices):
    """The mesh of one element, whose local system is that element's."""
    return Mesh(np.asarray(vertices, dtype=float), np.array([[0, 1, 2]]))


def _const(c):
    return lambda x, y: np.full_like(x, c)


def test_formulation_validation():
    assert VF2.scheme == 2 and VF1.field_degree == 0 and VF1.test_degree == 4
    with pytest.raises(FormsError):
        Formulation(scheme=3)
    with pytest.raises(FormsError):
        Formulation(scheme=1, field_degree=2, test_degree=3)


def _thin_triangle(rng, aspect):
    angle = rng.uniform(0, 2 * np.pi)
    e1 = np.array([np.cos(angle), np.sin(angle)])
    e2 = rng.uniform(-1, 1) * e1 + np.array([-e1[1], e1[0]]) / aspect
    v0 = rng.uniform(-1, 1, size=2)
    return np.array([v0, v0 + e1, v0 + e2])


@pytest.mark.parametrize("form", [VF1, VF2])
@pytest.mark.parametrize("thin", [False, True])
def test_gram_symmetric_and_spd(form, thin):
    # G = S^T S is never formed: the whitening raises unless the R
    # factor of QR(S) has a finite nonzero diagonal, that is unless G is
    # SPD.  Round random elements, or thin ones with aspect ratios to
    # 1e3; the tau block of W does not depend on the scheme
    other = VF2 if form is VF1 else VF1
    rng = np.random.default_rng(8)
    for _ in range(4):
        tri = _thin_triangle(rng, 10 ** rng.uniform(1, 3)) if thin else random_triangle(rng)
        mesh = _one_element(tri)
        loc = build_local_systems(mesh, form, _const(1.0))
        assert np.all(np.isfinite(loc.w_v)) and np.all(np.isfinite(loc.w_tau))
        loc_other = build_local_systems(mesh, other, _const(1.0))
        assert np.array_equal(loc.w_tau, loc_other.w_tau)


def test_gram_rejects_degenerate_element():
    mesh = _one_element([[0.0, 0.0], [1.0, 0.0], [2.0, 1e-16]])
    with pytest.raises(FormsError, match="degenerate element 0"):
        build_local_systems(mesh, VF1, _const(1.0))


def test_local_b_constants_example():
    # trial fields of degree <= 1 lie in the span of the leading test
    # members, which have no Hessian, so the tau-block Gram matrix acts
    # on them as the identity: the tau block's sigma columns,
    # -(sigma, tau), stay orthonormal after whitening, and the u
    # columns, (u, Delta tau), are orthogonal to them since the trial
    # fields are harmonic.  So condensing u leaves the sigma columns as
    # they are, and u is recovered without them
    mesh = _one_element(RIGHT_TRIANGLE)
    for scheme in (1, 2):
        for degree in (0, 1):
            form = Formulation(scheme, degree)
            p = form.field_dim
            loc = build_local_systems(mesh, form, _const(1.0))
            sigma, recovery = loc.w_tau[loc.cls[0]][:, :p], loc.u_recovery[loc.cls[0]]
            assert np.abs(sigma.T @ sigma - np.eye(p)).max() <= 1e-14
            assert np.abs(recovery[:, :p]).max() <= 1e-14 * np.abs(recovery).max()


def test_load_examples():
    # the constant test member is |T|^(-1/2), so f = 5 loads it with
    # 5 |T|^(1/2) and is orthogonal to the others; it has no Hessian, so
    # whitening keeps it: |wl|^2 = 25 |T| = 75.  Only the v block has a load
    mesh = _one_element(RIGHT_TRIANGLE)
    for scheme in (1, 2):
        for degree in (0, 1):
            form = Formulation(scheme, degree)
            wl = build_local_systems(mesh, form, _const(5.0)).wl_v
            assert wl.shape == (1, form.test_dim)
            assert wl[0] @ wl[0] == pytest.approx(75.0, rel=1e-14)
            assert np.all(build_local_systems(mesh, form, _const(0.0)).wl_v == 0.0)


def test_non_finite_load_names_its_first_element():
    # f is NaN on the square's lower right cell, elements 6 and 7 of the
    # 4x4 mesh: the solve must stop there, not run CGLS to its cap and
    # report NaN errors, and the level's record names the level too
    def f(x, y):
        return np.where((x > 0.75) & (y < 0.25), np.nan, 1.0)

    problem = dataclasses.replace(smooth_problem(), f=f)
    message = r"^level 0 \(32 triangles\): load evaluation failed on element 6 at \("
    for form in (VF1, VF2):
        with pytest.raises(SolverError, match=message) as failure:
            solve_and_record(make_unit_square(4), form, problem, 0)
        assert isinstance(failure.value.__cause__, FormsError)


def test_vf1_vf2_b_matrices_coincide():
    # both schemes share B and the tau-block Gram matrix: the tau blocks
    # of W are bit-equal, and scheme 2's corner columns meet the v block only
    for mesh in (_one_element(RIGHT_TRIANGLE), refine_nvb(make_unit_square(2), [0, 1])):
        for degree in (0, 1):
            loc1 = build_local_systems(mesh, Formulation(1, degree), _const(1.0))
            loc2 = build_local_systems(mesh, Formulation(2, degree), _const(1.0))
            n = 2 * Formulation(1, degree).field_dim + 18  # columns before the corners
            assert np.array_equal(loc2.w_tau, loc1.w_tau)
            assert np.array_equal(loc2.u_recovery, loc1.u_recovery)
            assert np.array_equal(loc2.tau_cols, loc1.tau_cols)
            assert np.array_equal(loc2.v_cols, np.r_[loc1.v_cols, n : n + 6])


@pytest.mark.parametrize("degree", [2, 4, 8, 16, 29])
def test_skeleton_b_matches_the_edge_by_edge_kernel(degree):
    # the reference table mapped by K = |det J| J^-1 J^-T and J^T gives
    # the trace columns that the edge loop integrates at mapped points,
    # from h = 1e-4 to 10 and aspect ratios down to 1e-3
    coords = random_ccw_elements(np.random.default_rng(30), 500)
    jac, det, jinv = forms._maps(coords, np.arange(len(coords)))
    tab = shape.reference_tables(degree)
    got = forms._skeleton_b(tab, jac, det, jinv)
    want = skeleton_b_by_edges(coords, tab, det**-0.5, jinv)
    scale = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-13 * scale)


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
    mapped = map_jet(shape.orthonormal_basis(degree, ref_pts), jinv, det)

    nodes_ref = rng.dirichlet([1, 1, 1], size=40)[:, :2]
    nodes_phys = tri[0] + nodes_ref @ jac.T
    v_nodes = map_jet(shape.orthonormal_basis(degree, nodes_ref), jinv, det).val
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


def _local_trial_vector(mesh, tri, form, chol, u_poly, sigma_poly, uhat, shat):
    """Exact-solution coefficients in the element's trial layout.

    The trial basis is the centred, diameter-scaled monomials times
    L^-T, L = `chol` the element's trial factor: an L2-orthonormal
    basis, so the field coefficients are L2 projections.
    """
    dim_p = form.field_dim
    verts = mesh.triangle_coords()[tri]
    pts, w = shape.map_to_triangle(shape.triangle_quadrature(2 * form.test_degree + 2), verts)
    ex = monomial_exponents(form.field_degree)
    u = (pts - verts.mean(axis=0)) / mesh.diameters[tri]
    mono = u[:, None, 0] ** ex[:, 0] * u[:, None, 1] ** ex[:, 1]
    val = np.linalg.solve(chol, mono.T).T
    x = np.zeros(2 * dim_p + 18)
    x[:dim_p] = val.T @ (w * u_poly(pts[:, 0], pts[:, 1]))
    x[dim_p : 2 * dim_p] = val.T @ (w * sigma_poly(pts[:, 0], pts[:, 1]))
    for loc, v in enumerate(mesh.triangles[tri]):
        x[2 * dim_p + 3 * loc : 2 * dim_p + 3 * loc + 3] = uhat[3 * v : 3 * v + 3]
        x[2 * dim_p + 9 + 3 * loc : 2 * dim_p + 12 + 3 * loc] = shat[3 * v : 3 * v + 3]
    return x


def _exact_residuals(mesh, form, u, sigma):
    """Whitened residuals wl - W x of every element at the trial vector
    x of (u, sigma) and their Hermite traces, with f = 0, followed by the
    error u + G x_tau of the recovered u.  Corner coefficients stay 0:
    the corner jumps of a smooth sigma telescope to zero."""
    uhat = interpolate_function(mesh, u, u.grad)
    shat = interpolate_function(mesh, sigma, sigma.grad)
    loc = build_local_systems(mesh, form, _const(0.0))
    x = np.zeros((mesh.num_triangles, loc.v_cols[-1] + 1))
    for tri in range(mesh.num_triangles):
        x[tri, : 2 * form.field_dim + 18] = _local_trial_vector(
            mesh, tri, form, loc.trial_chol[tri], u, sigma, uhat, shat
        )
    recovered = -(loc.u_recovery[loc.cls] @ x[:, loc.tau_cols, None])[..., 0]
    return np.concatenate(
        [load - (w[loc.cls] @ x[:, c][:, :, None])[..., 0] for w, load, c in loc.blocks()]
        + [x[:, : form.field_dim] - recovered],
        axis=1,
    )


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
    u = Poly2d.random(rng, 2)
    form = Formulation(scheme=scheme, field_degree=2, test_degree=4)
    r = _exact_residuals(mesh_builder(), form, u, u.laplacian())
    assert np.abs(r).max() < 1e-9


def test_adjoint_consistency_cubic_on_structured_mesh():
    # u = x^3 + y^3 has edgewise-linear normal derivatives on structured
    # square meshes, so its reduced-HCT interpolant is an exact trace
    u = Poly2d(np.array([[0, 0, 0, 1.0], [0, 0, 0, 0], [0, 0, 0, 0], [1.0, 0, 0, 0]]))
    form = Formulation(scheme=2, field_degree=3, test_degree=5)
    r = _exact_residuals(make_unit_square(2), form, u, u.laplacian())
    assert np.abs(r).max() < 1e-9


def test_build_local_systems_shapes():
    mesh = make_unit_square(2)
    f = lambda x, y: np.ones_like(x)
    loc1 = build_local_systems(mesh, VF1, f)
    nt, k, p = mesh.num_triangles, VF1.test_dim, VF1.field_dim
    # v meets [sigma | sigma_hat], the condensed tau block [sigma | uhat],
    # and u is recovered from the latter
    assert loc1.cls.shape == (nt,)
    assert loc1.w_v[loc1.cls].shape == (nt, k, p + 9)
    assert loc1.w_tau[loc1.cls].shape == (nt, k, p + 9)
    assert loc1.u_recovery[loc1.cls].shape == (nt, p, p + 9)
    loc2 = build_local_systems(mesh, VF2, f)
    # scheme 2 appends six corner-functional columns to the v block
    assert loc2.w_v[loc2.cls].shape == (nt, k, p + 15)
    assert loc2.w_tau[loc2.cls].shape == (nt, k, p + 9)
    assert loc2.u_recovery[loc2.cls].shape == (nt, p, p + 9)
    assert loc2.wl_v.shape == (nt, k)
    assert loc2.trial_chol.shape == (nt, 1, 1)
    # together the blocks cover every column but u's, and only sigma is
    # in both
    for loc, ncol in ((loc1, 2 * p + 18), (loc2, 2 * p + 24)):
        assert np.array_equal(np.union1d(loc.v_cols, loc.tau_cols), np.arange(p, ncol))
        assert np.array_equal(np.intersect1d(loc.v_cols, loc.tau_cols), np.arange(p, 2 * p))


@pytest.mark.parametrize("degree", [1, 2])
def test_fields_are_the_leading_test_members(degree):
    # field coefficient e_j is test member j: |det J|^(-1/2) times the
    # reference table's column j at the mapped quadrature points
    mesh = _one_element(RIGHT_TRIANGLE)
    form = Formulation(scheme=1, field_degree=degree, test_degree=degree + 2)
    loc = build_local_systems(mesh, form, _const(1.0))
    tab = shape.reference_tables(form.test_degree)
    pts, _ = shape.map_to_triangle(tab.quad, mesh.triangle_coords())
    abs_det = 2.0 * mesh.areas[0]
    for j, coeffs in enumerate(np.eye(form.field_dim)):
        field = BrokenField(degree, coeffs[None], loc.centroid, loc.h, loc.trial_chol)
        want = abs_det**-0.5 * tab.tri.val[:, j]
        assert np.abs(field.eval([0], pts)[0] - want).max() <= 1e-10


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
    first, cls, _ = translation_classes(mesh)
    assert len(first) == mesh.num_triangles
    assert np.all(np.bincount(cls) == 1) and np.array_equal(np.sort(cls), np.arange(mesh.num_triangles))


def test_local_systems_store_each_class_kernel_once():
    # the class arrays of the square keep its 2 rows however fine the
    # mesh; a jittered square has one row per element
    for n in (8, 16, 32):
        loc = build_local_systems(make_unit_square(n), VF2, _const(1.0))
        assert [len(x) for x in (loc.w_v, loc.w_tau, loc.u_recovery)] == [2, 2, 2]
        assert len(loc.cls) == len(loc.wl_v) == len(loc.trial_chol) == 2 * n * n
    mesh = _jittered_square(8, seed=1)
    loc = build_local_systems(mesh, VF1, _const(1.0))
    nt = mesh.num_triangles
    assert [len(x) for x in (loc.w_v, loc.w_tau, loc.u_recovery)] == [nt, nt, nt]


def test_similar_elements_of_different_size_get_different_classes():
    # the dyadic half-size copy has the same relative coordinates in
    # units of its own binade: only the binade exponent tells them apart
    mesh = make_unit_square(2)
    half = Mesh(mesh.vertices / 2, mesh.triangles)
    keys, half_keys = translation_classes(mesh)[2], translation_classes(half)[2]
    assert len(np.unique(np.concatenate([keys, half_keys]))) == len(keys) + len(half_keys)


def _nudged_square(step):
    """The 4x4 square with one interior vertex moved by `step` in x, and
    the elements that touch it."""
    mesh = make_unit_square(4)
    vertex = np.nonzero(~mesh.is_boundary_vertex)[0][0]
    vertices = mesh.vertices.copy()
    vertices[vertex, 0] = step(vertices[vertex, 0])
    return mesh, Mesh(vertices, mesh.triangles), np.any(mesh.triangles == vertex, axis=1)


def test_translate_perturbed_by_one_ulp_shares_its_class():
    mesh, nudged, touched = _nudged_square(lambda x: np.nextafter(x, 2.0))
    assert not np.array_equal(mesh.triangle_coords(), nudged.triangle_coords())
    first, cls, _ = translation_classes(mesh)
    nudged_first, nudged_cls, _ = translation_classes(nudged)
    assert touched.any() and len(nudged_first) == len(first)
    assert np.array_equal(nudged_cls, cls)


def test_element_perturbed_by_1e_9_h_gets_its_own_class():
    h = make_unit_square(4).h_max
    mesh, nudged, touched = _nudged_square(lambda x: x + 1e-9 * h)
    first, _, _ = translation_classes(mesh)
    nudged_first, nudged_cls, _ = translation_classes(nudged)
    assert len(nudged_first) == len(first) + touched.sum()
    assert np.all(np.bincount(nudged_cls)[nudged_cls[touched]] == 1)


def _exact_byte_classes(mesh):
    """Class count of keys made of the exact bytes of the relative
    vertex coordinates."""
    coords = mesh.triangle_coords()
    return len(np.unique((coords[:, 1:] - coords[:, :1]).reshape(-1, 4), axis=0))


def test_size_relative_key_merges_more_graded_sector_elements_than_exact_bytes():
    # the NVB midpoints of the sector's irrational vertices make
    # translates differ in the last bits
    mesh = _oracle_mesh("graded-sector")
    assert len(translation_classes(mesh)[0]) < _exact_byte_classes(mesh)


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
def test_class_cache_matches_shifted_mesh(name, scheme, degree, monkeypatch):
    # the class kernels of the mesh, computed from its keys, against
    # those of a shifted copy keyed at the last bit of each binade,
    # which are the kernels of its elements' own coordinates; the
    # non-dyadic shift changes the rounding of the relative vertex
    # coordinates, the size-relative key absorbs that rounding, so the
    # shifted square keeps its class count
    offset = np.array([0.1, 0.3])
    mesh = CLASS_MESHES[name]()
    shifted = Mesh(mesh.vertices + offset, mesh.triangles)
    form = Formulation(scheme=scheme, field_degree=degree, test_degree=4)
    f = lambda x, y: np.sin(3 * x + 1) * np.cos(2 * y) + x * y
    g = lambda x, y: f(x - offset[0], y - offset[1])
    if name == "square":
        assert len(translation_classes(shifted)[0]) == len(translation_classes(mesh)[0])
    a = build_local_systems(mesh, form, f)
    monkeypatch.setattr(forms, "KEY_BITS", 52)
    b = build_local_systems(shifted, form, g)
    for field in ("w_v", "wl_v", "w_tau", "u_recovery", "h", "trial_chol"):
        x, y = _per_element(a, field), _per_element(b, field)
        assert np.abs(x - y).max() <= 1e-8 * np.abs(x).max(), field
    assert np.allclose(b.centroid, a.centroid + offset, rtol=0, atol=1e-14)


@pytest.mark.parametrize("scheme", [1, 2])
@pytest.mark.parametrize("degree", [0, 1])
def test_local_systems_do_not_depend_on_the_mesh_numbering(scheme, degree):
    # the same graded mesh with its vertex numbers and its triangle
    # order reversed, each triangle keeping its local vertex order: every
    # global edge changes its lo/hi direction and its owner, but no field
    # of an element's local system may change in a single bit, nor the
    # column layout
    mesh = _oracle_mesh("graded-sector")
    nv = mesh.num_vertices
    renumbered = Mesh(mesh.vertices[::-1], (nv - 1 - mesh.triangles)[::-1])
    form = Formulation(scheme=scheme, field_degree=degree, test_degree=4)
    f = lambda x, y: np.sin(3 * x + 1) * np.cos(2 * y) + x * y
    a = build_local_systems(mesh, form, f)
    b = build_local_systems(renumbered, form, f)
    for field in dataclasses.fields(forms.LocalSystems):
        x, y = _per_element(a, field.name), _per_element(b, field.name)
        if not field.name.endswith("_cols"):
            y = y[::-1]
        assert np.array_equal(x, y), field.name


def _doerfler_sector(steps):
    problem = singular_problem()
    mesh = make_sector_domain()
    for _ in range(steps):
        indicators = error_indicators(assemble_and_solve(mesh, VF2, problem))
        mesh = refine_nvb(mesh, doerfler_mark(indicators.per_element, 0.5))
    return mesh


ORACLE_MESHES = {
    "one-element": lambda: _one_element(RIGHT_TRIANGLE),
    "jittered-square": lambda: _jittered_square(6, seed=4),
    "graded-sector": lambda: _doerfler_sector(6),
}


@functools.cache
def _oracle_mesh(name):
    return ORACLE_MESHES[name]()


@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
@pytest.mark.parametrize("scheme,degree", [(1, 1), (2, 0), (1, 0), (2, 1)])
def test_local_systems_match_monomial_oracle(name, scheme, degree):
    # each test block is whitened by its own Gram matrix, so its
    # w^T w = B^T G^-1 B, w^T wl and |wl|^2 do not depend on the test
    # basis, nor do the Schur complement of the tau block's w^T w on u
    # and the map G with A_uu G = A_ur that recovers u: the mapped
    # reference tables and the condensation must reproduce an
    # element-wise monomial-seeded computation, whose W is exactly zero
    # outside the two blocks.  G itself is a difference of nearly equal
    # numbers, so it is checked as A_uu G against A_ur, at the scale of
    # the uncondensed tau block's w^T w
    mesh = _oracle_mesh(name)
    f = lambda x, y: np.sin(3 * x + 1) * np.cos(2 * y) + x * y + 2.0
    loc = build_local_systems(mesh, Formulation(scheme, degree, 4), f)
    w_v, got_tau, recovery = (_per_element(loc, x) for x in ("w_v", "w_tau", "u_recovery"))
    w, wl = monomial_local_systems(mesh, scheme, degree, 4, f, loc.trial_chol)
    k, p = w_v.shape[1], recovery.shape[1]
    outside = np.ones(w.shape[1:], dtype=bool)
    outside[:k, loc.v_cols] = outside[k:, : loc.tau_cols[-1] + 1] = False
    assert np.all(w[:, outside] == 0.0) and np.all(wl[:, k:] == 0.0)

    def close(got, want, scale=None):
        def size(x):
            return np.abs(x).reshape(len(x), -1).max(axis=1)

        return np.all(size(got - want) <= 1e-9 * size(want if scale is None else scale))

    def gram(x, y):
        return np.swapaxes(x, 1, 2) @ y

    want_v = w[:, :k][:, :, loc.v_cols]
    assert close(gram(w_v, w_v), gram(want_v, want_v))
    w_tau = w[:, k:, : loc.tau_cols[-1] + 1]
    a_tau = gram(w_tau, w_tau)
    a_uu, a_ur, a_rr = a_tau[:, :p, :p], a_tau[:, :p, p:], a_tau[:, p:, p:]
    assert close(a_uu @ recovery, a_ur, scale=a_tau)
    schur = a_rr - np.swapaxes(a_ur, 1, 2) @ np.linalg.solve(a_uu, a_ur)
    assert close(gram(got_tau, got_tau), schur)
    assert close(
        np.einsum("eri,er->ei", w_v, loc.wl_v), np.einsum("eri,er->ei", want_v, wl[:, :k])
    )
    got_ll, ll = np.einsum("er,er->e", loc.wl_v, loc.wl_v), np.einsum("er,er->e", wl, wl)
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
        with pytest.raises(FormsError, match=message):
            build_local_systems(mesh, form, f)


@pytest.mark.parametrize("k", [1, 2, 3, 15, 28])
def test_upper_inverse_matches_the_general_inverse(k):
    # R factors of seeded stacks with rows scaled over 1e-8..1, as R's
    # Hessian rows grow like h^-2: the block recursion must agree with
    # np.linalg.inv to rounding and stay upper triangular
    rng = np.random.default_rng(k)
    r = np.linalg.qr(rng.standard_normal((64, 3 * k, k)), mode="r")
    r *= np.sign(np.einsum("eii->ei", r))[:, :, None]
    r *= rng.permuted(np.broadcast_to(np.logspace(-8, 0, k), (64, k)), axis=1)[:, :, None]
    x = forms._upper_inverse(r)
    reference = np.linalg.inv(r)
    gap = np.linalg.norm(x - reference, axis=(1, 2)) / np.linalg.norm(reference, axis=(1, 2))
    assert gap.max() <= 1e-14
    assert np.array_equal(x, np.triu(x))


def test_upper_inverse_is_exact_on_diagonal_r():
    d = np.random.default_rng(2).uniform(1e-8, 1.0, (16, 15))
    x = forms._upper_inverse(d[:, :, None] * np.eye(15))
    assert np.array_equal(x, (1.0 / d)[:, :, None] * np.eye(15))


@pytest.mark.parametrize("bad", ["zero", "nan"])
def test_inverse_factor_names_the_first_element_with_a_bad_diagonal(bad):
    # element 2 of four gets a zero column (R's diagonal entry is exactly
    # zero) or a NaN, and element 3 a zero column: the first is named
    s = np.random.default_rng(1).standard_normal((4, 30, 15))
    s[2, :, 4] = 0.0 if bad == "zero" else np.nan
    s[3, :, 7] = 0.0
    with pytest.raises(FormsError, match=r"test Gram block is singular \(element 12\)"):
        forms._inverse_factor(s, [10, 11, 12, 13])
