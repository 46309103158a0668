import numpy as np
import pytest
from oracles import estimate_rate, zero_problem

from bilap_dpg.mesh import Mesh, make_sector_domain, make_unit_square, refine_nvb
from bilap_dpg.problems import (
    SINGULAR_ALPHA,
    SINGULAR_C,
    l2_errors,
    singular_problem,
    smooth_problem,
)
from bilap_dpg.shape import graded_rule, map_to_triangle, triangle_quadrature


def test_smooth_point_values():
    p = smooth_problem()
    assert p.u_exact(0.5, 0.5) == pytest.approx(0.00390625, abs=1e-15)
    assert p.sigma_exact(0.5, 0.5) == pytest.approx(-0.125, abs=1e-15)
    assert p.f(0.5, 0.5) == pytest.approx(5.0, abs=1e-12)


def test_singular_parameters_and_point_value():
    p = singular_problem()
    assert SINGULAR_ALPHA == 0.673583432147380
    assert SINGULAR_C == 1.234587795273723
    assert p.u_exact(1.0, 0.0) == pytest.approx(1 + SINGULAR_C, abs=1e-13)
    assert p.f(0.3, -0.2) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_singular_scalar_and_array_calls_agree_bit_for_bit(seed):
    # the boundary vertices of random newest-vertex refinements of the
    # sector: at some of them numpy's scalar ** and its array loop differ
    # in the last bit (seed 0)
    rng = np.random.default_rng(seed)
    mesh = make_sector_domain()
    for _ in range(8):
        nt = mesh.num_triangles
        mesh = refine_nvb(mesh, rng.choice(nt, size=max(1, nt // 3), replace=False))
    x, y = mesh.vertices[mesh.is_boundary_vertex].T
    u = singular_problem().u_exact
    assert np.array_equal([u(float(xi), float(yi)) for xi, yi in zip(x, y)], u(x, y))


def test_singular_gradient_limit_at_corner():
    p = singular_problem()
    gx, gy = p.grad_u_exact(0.0, 0.0)
    assert gx == 0.0 and gy == 0.0


def test_singular_clamped_rays():
    p = singular_problem()
    w = 5 * np.pi / 8
    ts = np.linspace(0.05, 1.0, 20)
    for sgn in (+1, -1):
        d = np.array([np.cos(sgn * w), np.sin(sgn * w)])
        n = np.array([-d[1], d[0]])
        x, y = ts * d[0], ts * d[1]
        assert np.max(np.abs(p.u_exact(x, y))) < 1e-10
        gx, gy = p.grad_u_exact(x, y)
        assert np.max(np.abs(gx * n[0] + gy * n[1])) < 1e-8


@pytest.mark.parametrize("prob_name", ["smooth", "singular"])
def test_sigma_is_fd_laplacian_of_u(prob_name):
    p = smooth_problem() if prob_name == "smooth" else singular_problem()
    rng = np.random.default_rng(12)
    count = 0
    h = 1e-4
    while count < 50:
        if prob_name == "smooth":
            x, y = rng.uniform(0.1, 0.9, 2)
        else:
            r = rng.uniform(0.05, 0.9)
            phi = rng.uniform(-0.6 * np.pi, 0.6 * np.pi) * 5 / 6
            x, y = r * np.cos(phi), r * np.sin(phi)
        lap = (
            p.u_exact(x + h, y)
            + p.u_exact(x - h, y)
            + p.u_exact(x, y + h)
            + p.u_exact(x, y - h)
            - 4 * p.u_exact(x, y)
        ) / h**2
        assert lap == pytest.approx(p.sigma_exact(x, y), rel=1e-5, abs=1e-8)
        count += 1


def test_smooth_gradient_is_fd_gradient_of_u():
    p = smooth_problem()
    rng = np.random.default_rng(12)
    h = 1e-5
    for x, y in rng.uniform(0.0, 1.0, (50, 2)):
        gx, gy = p.grad_u_exact(x, y)
        dx = (p.u_exact(x + h, y) - p.u_exact(x - h, y)) / (2 * h)
        dy = (p.u_exact(x, y + h) - p.u_exact(x, y - h)) / (2 * h)
        assert dx == pytest.approx(gx, rel=1e-6, abs=1e-10)
        assert dy == pytest.approx(gy, rel=1e-6, abs=1e-10)


def _nvb_square():
    rng = np.random.default_rng(0)
    mesh = make_unit_square(2)
    for _ in range(8):
        nt = mesh.num_triangles
        mesh = refine_nvb(mesh, rng.choice(nt, size=max(1, nt // 3), replace=False))
    return mesh


@pytest.mark.parametrize(
    "make_mesh",
    [lambda: make_unit_square(2), lambda: make_unit_square(16), lambda: make_unit_square(128),
     _nvb_square],
    ids=["square2", "square16", "square128", "nvb"],
)
def test_smooth_boundary_data_are_exactly_zero(make_mesh):
    mesh = make_mesh()
    p = smooth_problem()
    x, y = mesh.vertices[mesh.is_boundary_vertex].T
    gx, gy = p.grad_u_exact(x, y)
    assert np.all(p.u_exact(x, y) == 0.0)
    assert np.all(gx == 0.0) and np.all(gy == 0.0)


def test_f_is_fd_bilaplacian_of_u_smooth():
    p = smooth_problem()
    rng = np.random.default_rng(3)
    h = 1e-2
    stencil = [
        (0, 0, 20),
        (1, 0, -8), (-1, 0, -8), (0, 1, -8), (0, -1, -8),
        (1, 1, 2), (1, -1, 2), (-1, 1, 2), (-1, -1, 2),
        (2, 0, 1), (-2, 0, 1), (0, 2, 1), (0, -2, 1),
    ]
    for _ in range(20):
        x, y = rng.uniform(0.25, 0.75, 2)
        bilap = sum(c * p.u_exact(x + i * h, y + j * h) for i, j, c in stencil) / h**4
        assert bilap == pytest.approx(p.f(x, y), rel=1e-3, abs=1e-6)


class FieldStub:
    """Element field defined by a callable (independent of the solver)."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self, tris, pts):
        return self.fn(pts[..., 0], pts[..., 1])


class SolutionStub:
    def __init__(self, mesh, u_fn, sigma_fn, test_degree=4):
        from types import SimpleNamespace

        self.mesh = mesh
        self.u = FieldStub(u_fn)
        self.sigma = FieldStub(sigma_fn)
        self.formulation = SimpleNamespace(test_degree=test_degree)


def test_l2_error_of_zero_field_is_norm_of_u():
    p = smooth_problem()
    mesh = make_unit_square(4)
    sol = SolutionStub(mesh, lambda x, y: 0.0 * x, lambda x, y: 0.0 * x)
    err_u, _ = l2_errors(sol, p)
    assert err_u == pytest.approx(1 / 630, rel=1e-10)


def test_l2_error_exact_representation_is_zero():
    p = smooth_problem()
    mesh = make_unit_square(3)
    sol = SolutionStub(mesh, p.u_exact, p.sigma_exact)
    err_u, err_s = l2_errors(sol, p)
    assert err_u < 1e-14 and err_s < 1e-13


def _projection_error(mesh, problem, degree):
    # oracle: element-wise least-squares polynomial fit via quadrature
    rule = triangle_quadrature(12)
    total = 0.0
    for t in range(mesh.num_triangles):
        pts, w = map_to_triangle(rule, mesh.triangle_coords()[t])
        powers = [(i, j) for q in range(degree + 1) for i, j in
                  [(q - jj, jj) for jj in range(q + 1)]]
        V = np.column_stack([pts[:, 0] ** i * pts[:, 1] ** j for i, j in powers])
        target = problem.u_exact(pts[:, 0], pts[:, 1])
        sqw = np.sqrt(w)
        coef, *_ = np.linalg.lstsq(V * sqw[:, None], target * sqw, rcond=None)
        resid = target - V @ coef
        total += w @ resid**2
    return np.sqrt(total)


def test_projection_error_monotone_in_degree():
    p = smooth_problem()
    mesh = make_unit_square(2)
    e0 = _projection_error(mesh, p, 0)
    e1 = _projection_error(mesh, p, 1)
    assert e1 <= e0


def test_graded_quadrature_integrates_singular_sigma():
    # oracle: int over the sector of r^(2a-2) cos^2((a-1) phi) in polar form
    from scipy.integrate import quad

    p = singular_problem()
    a = SINGULAR_ALPHA
    mesh = make_sector_domain()
    # every fan triangle has the corner in slot 0
    pts, wts = map_to_triangle(graded_rule(12, 24), mesh.triangle_coords())
    got = np.sum(wts * p.sigma_exact(pts[..., 0], pts[..., 1]) ** 2)
    # the polygonal fan underestimates the true sector: integrate the
    # exact density over each fan triangle in polar coordinates
    expect = 0.0
    for t in range(mesh.num_triangles):
        coords = mesh.triangle_coords()[t]
        others = [v for v in coords if np.hypot(*v) > 1e-12]
        phis = sorted(np.arctan2(v[1], v[0]) for v in others)
        b0, b1 = others if np.arctan2(others[0][1], others[0][0]) == phis[0] else others[::-1]

        def rmax(phi):
            # distance from origin to the chord b0-b1 along direction phi
            d = np.array([np.cos(phi), np.sin(phi)])
            m = np.column_stack([d, -(b1 - b0)])
            s, _ = np.linalg.solve(m, b0)
            return s

        def integrand(phi):
            c = (4 * a * SINGULAR_C * np.cos((a - 1) * phi)) ** 2
            return c * rmax(phi) ** (2 * a) / (2 * a)

        val, _ = quad(integrand, phis[0], phis[1], epsabs=1e-13, epsrel=1e-13)
        expect += val
    assert got == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("k", [1, 2])
def test_graded_l2_follows_the_corner_in_any_slot(k):
    # the same elements with the corner vertex moved to slot k: err_sigma
    # of a zero field is the graded integral of sigma^2 over the corner
    # elements, which a rule that always grades slot 0 misses by 3e-5 to 1e-4
    mesh = make_sector_domain()
    for _ in range(3):
        mesh = refine_nvb(mesh, range(mesh.num_triangles))
    rolled = Mesh(mesh.vertices, np.roll(mesh.triangles, k, axis=1))
    p = singular_problem()

    def zero(x, y):
        return 0.0 * x

    _, ref = l2_errors(SolutionStub(mesh, zero, zero), p)
    _, got = l2_errors(SolutionStub(rolled, zero, zero), p)
    assert abs(got - ref) < 1e-8 * ref


def test_estimate_rate_examples():
    recs = [
        dict(h_max=1.0, ndof_total=10, eta=1.0, err_u=1.0, err_sigma=1.0),
        dict(h_max=0.5, ndof_total=40, eta=0.5, err_u=0.5, err_sigma=1.0),
        dict(h_max=0.25, ndof_total=160, eta=0.25, err_u=0.25, err_sigma=1.0),
    ]
    assert estimate_rate(recs, "eta", "h") == pytest.approx(1.0, abs=1e-12)
    assert estimate_rate(recs, "err_sigma", "h") == pytest.approx(0.0, abs=1e-12)
    ndof_recs = [
        dict(h_max=1.0, ndof_total=n, eta=3.0 * n**-0.5, err_u=1, err_sigma=1)
        for n in (10, 100, 1000, 10000)
    ]
    assert estimate_rate(ndof_recs, "eta", "ndof") == pytest.approx(0.5, abs=1e-12)


def test_estimate_rate_errors():
    recs = [dict(h_max=1.0, ndof_total=10, eta=1.0, err_u=1, err_sigma=1)] * 2
    with pytest.raises(ValueError):
        estimate_rate(recs, "eta", "h")
    bad = [dict(h_max=1.0, ndof_total=10, eta=0.0, err_u=1, err_sigma=1)] * 3
    with pytest.raises(ValueError):
        estimate_rate(bad, "eta", "h")
    with pytest.raises(ValueError):
        estimate_rate(bad, "nope", "h")


def test_zero_problem():
    p = zero_problem()
    assert p.f(0.3, 0.4) == 0.0
    assert p.grad_u_exact(0.3, 0.4) == (0.0, 0.0)
    mesh, square = p.make_domain(), make_unit_square(2)
    assert np.array_equal(mesh.vertices, square.vertices)
    assert np.array_equal(mesh.triangles, square.triangles)
