import numpy as np
import pytest
from scipy.integrate import quad

from oracles import Poly2d, dirac_eps_list, edge_trace_moments, exact_trace_norms

from bilap_dpg import trace_lab
from bilap_dpg.shape import (
    MAX_TABLE_DEGREE,
    REFERENCE_VERTICES,
    basis_dimension,
    monomial_exponents,
    reference_tables,
)
from bilap_dpg.trace_lab import (
    DiracStudy,
    _norm_stack,
    _panel_gauss,
    _zero_trace_columns,
    dirac_convergence_study,
    mollifier,
    mollifier_constant,
    norm_identity_check,
    pair_trace_veps,
    unboundedness_demo,
)


def test_mollifier_constant_value():
    # oracle: adaptive quadrature of the bump profile
    integral, _ = quad(lambda s: np.exp(-1 / (1 - s * s)), 0, 1, epsabs=1e-13)
    assert integral == pytest.approx(0.22200, abs=1e-4)
    c = mollifier_constant()
    assert c == pytest.approx(1 / (2 * integral), rel=1e-13)
    assert c == pytest.approx(2.2523, abs=1e-3)


@pytest.mark.parametrize("eps", [0.25, 0.125, 0.05])
def test_mollifier_normalization(eps):
    val, _ = quad(lambda t: mollifier(t, eps), 0, eps, epsabs=1e-12, limit=200)
    assert val == pytest.approx(0.5, abs=1e-9)


def test_mollifier_vanishes_at_support_edge():
    eps = 0.25
    assert mollifier(eps, eps) == 0.0
    assert mollifier(eps + 1e-12, eps) == 0.0
    # continuity from the left: the profile decays to zero at t = eps
    assert mollifier(eps * (1 - 1e-6), eps) < 1e-200


def test_mollifier_support_of_v_and_gradient():
    # v_eps(x, y) = -(x + y) phi_eps(|(x, y)|) and its central
    # differences vanish on and outside the circle of radius eps
    eps, h = 0.2, 1e-7
    angles = np.linspace(0, np.pi / 2, 7)

    def v(x, y):
        return -(x + y) * mollifier(np.hypot(x, y), eps)

    for r in (eps, 1.2 * eps, 0.7):
        x, y = r * np.cos(angles), r * np.sin(angles)
        assert np.all(v(x, y) == 0.0)
        assert np.all(v(x + h, y) - v(x - h, y) == 0.0)
        assert np.all(v(x, y + h) - v(x, y - h) == 0.0)


def test_pair_constant_is_one():
    for eps in (0.25, 0.125, 2.0**-7, 0.49):
        assert pair_trace_veps((0, 0), eps) == pytest.approx(1.0, abs=1e-10)


def test_pair_linear_bound():
    z = (1, 0)  # z = x
    for k in range(2, 9):
        eps = 2.0**-k
        assert abs(pair_trace_veps(z, eps)) <= 1.0 * eps


def test_pair_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pair_trace_veps((0, 0), 0.5)
    with pytest.raises(ValueError):
        pair_trace_veps((0, 0), 0.0)
    for z in [(7, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="not a monomial of degree <= 6"):
            pair_trace_veps(z, 0.25)


@pytest.mark.parametrize("eps", [0.25, 2.0**-7])
def test_pair_matches_the_oracle_polynomial(eps):
    # oracle: the two edge integrals of the pairing from `Poly2d` values
    # of x^i y^j and its derivatives, on the same composite Gauss panels
    t, w = _panel_gauss(eps)
    phi = mollifier(t, eps)
    zero = np.zeros_like(t)
    for i, j in monomial_exponents(6).tolist():
        c = np.zeros((i + 1, j + 1))
        c[i, j] = 1.0
        z = Poly2d(c)
        dn_term = w @ (phi * z(t, zero)) + w @ (phi * z(zero, t))
        v_term = w @ (t * phi * z.dy()(t, zero)) + w @ (t * phi * z.dx()(zero, t))
        expect = dn_term - v_term
        assert pair_trace_veps((i, j), eps) == pytest.approx(
            expect, rel=1e-14, abs=0.0 if expect else 1e-14
        ), (i, j)


def test_dirac_study_slope():
    study = dirac_convergence_study(dirac_eps_list())
    assert isinstance(study, DiracStudy)
    assert study.slope >= 0.40


def test_dirac_study_flat_test_functions():
    # z vanishing to second order at the corner: one extra order in the
    # study's worst-case error, each z scaled by its norm ||z||_{2,T}
    z_list = [(2, 0), (1, 1), (0, 2), (2, 1)]
    norms = [np.linalg.norm(np.matmul(*_norm_stack(REFERENCE_VERTICES, z, sum(z), 2)))
             for z in z_list]
    eps = dirac_eps_list()
    error = [max(abs(pair_trace_veps(z, e)) / n for z, n in zip(z_list, norms)) for e in eps]
    assert np.polyfit(np.log(eps), np.log(error), 1)[0] >= 0.9


def test_dirac_study_constant_only_is_exact():
    # ||1||_{2,T} = 2^(-1/2) on the reference triangle
    assert pair_trace_veps((0, 0), 0.25) == pytest.approx(1.0, abs=1e-12 / 2**0.5)


def test_weighted_mollifier_norm_decays():
    # ||t phi_eps(t)|| decays like eps^(1/2)
    eps_list = [2.0**-k for k in range(2, 9)]
    norms = []
    for eps in eps_list:
        val, _ = quad(lambda t: (t * mollifier(t, eps)) ** 2, 0, eps, limit=200)
        norms.append(np.sqrt(val))
    norms = np.array(norms)
    assert np.all(np.diff(norms) < 0)
    slope = np.polyfit(np.log(eps_list), np.log(norms), 1)[0]
    assert slope >= 0.45


def test_scaled_sup_bound_ratio_is_constant():
    # v(t) = t^2 on (0, eps): ||v||_inf / (eps^1/2 ||v'||) = sqrt(3)/2 exactly
    for k in range(1, 11):
        eps = 2.0**-k
        ratio = eps**2 / (np.sqrt(eps) * np.sqrt(4 * eps**3 / 3))
        assert ratio == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-10)


def test_unboundedness_demo_values():
    rows = unboundedness_demo([1, 10, 100])
    by_n = {n: (v, norm) for n, v, norm in rows}
    assert by_n[1][0] == 0.0
    assert by_n[10][0] == pytest.approx(-2.302585, abs=1e-6)
    assert by_n[100][0] == pytest.approx(-np.log(100), abs=1e-12)
    # the L2 norms stay bounded while the point values diverge
    assert by_n[100][1] / by_n[10][1] <= 1.5
    assert by_n[100][1] > 0


def test_unboundedness_norm_against_independent_quadrature():
    # oracle: polar double quadrature over the same 24-chord fan polygon
    from scipy.integrate import dblquad

    n_ang = 24
    angles = np.linspace(0, np.pi, n_ang + 1)
    expect = 0.0
    for a0, a1 in zip(angles[:-1], angles[1:]):
        b0 = np.array([np.cos(a0), np.sin(a0)])
        b1 = np.array([np.cos(a1), np.sin(a1)])

        def rmax(theta):
            d = np.array([np.cos(theta), np.sin(theta)])
            m = np.column_stack([d, -(b1 - b0)])
            s, _ = np.linalg.solve(m, b0)
            return s

        def integrand(r, theta):
            x, y = r * np.cos(theta), r * np.sin(theta)
            return np.log(np.hypot(x, y + 0.5)) ** 2 * r

        val, _ = dblquad(integrand, a0, a1, 0, rmax, epsabs=1e-11)
        expect += val
    rows = unboundedness_demo([2])
    assert rows[0][2] == pytest.approx(np.sqrt(expect), rel=1e-6)


def test_log_potentials_are_harmonic():
    # Delta v_n = 0 inside the half disk (finite-difference check)
    h = 1e-4
    for n in (3, 10):
        def v(x, y):
            return np.log(np.hypot(x, y + 1.0 / n))

        for x, y in [(0.2, 0.3), (-0.4, 0.2), (0.0, 0.6)]:
            lap = (v(x + h, y) + v(x - h, y) + v(x, y + h) + v(x, y - h) - 4 * v(x, y)) / h**2
            assert abs(lap) < 1e-4


def test_norm_identity_sandwich_and_gap():
    z = (2, 1)  # x^2 y
    results = {}
    for deg in (4, 5, 6, 7, 8):
        duality, extension = norm_identity_check(REFERENCE_VERTICES, z, deg)
        assert duality <= extension + 1e-9
        results[deg] = (duality, extension)
    gaps = {
        deg: (ext - dual) / ext for deg, (dual, ext) in results.items()
    }
    # the gap shrinks as the degree grows (5% wobble allowance)
    for lo, hi in zip((4, 5, 6, 7), (5, 6, 7, 8)):
        assert gaps[hi] <= gaps[lo] * 1.05 + 1e-12
    assert gaps[8] <= gaps[4]


def test_norm_identity_input_validation():
    with pytest.raises(ValueError):
        norm_identity_check(REFERENCE_VERTICES, (5, 0), 4)
    with pytest.raises(ValueError):
        norm_identity_check(REFERENCE_VERTICES, (-1, 2), 4)
    with pytest.raises(ValueError):
        norm_identity_check(REFERENCE_VERTICES, (2, 1), 3)


TRIANGLES = {
    "ref": REFERENCE_VERTICES,
    "other": np.array([[0.1, 0.2], [1.3, 0.4], [0.5, 1.7]]),
}


@pytest.mark.parametrize("name", sorted(TRIANGLES))
def test_zero_trace_columns_span_the_edge_moment_null_space(name):
    # the closed form b^2 P_(d-6) against a search for the polynomials
    # whose edge moments of the trace pair vanish: the moment matrix has
    # exactly dim P_(d-6) singular values below 1e-11 of its largest, and
    # every closed-form column is a null direction by that cut (the
    # float64 tabulation of the degree-10 basis on the edges rounds at
    # about 1e-11 relative, which sets the floor of the oracle itself)
    vertices = TRIANGLES[name]
    for degree in range(6, 11):
        c = edge_trace_moments(vertices, degree)
        null = _zero_trace_columns(reference_tables(degree))
        s = np.linalg.svd(c, compute_uv=False)
        rank = int(np.sum(s > 1e-11 * s[0]))
        assert c.shape[1] - rank == null.shape[1] == basis_dimension(degree - 6)
        assert np.linalg.matrix_rank(null) == null.shape[1]
        defect = np.linalg.norm(c @ null, axis=0) / np.linalg.norm(null, axis=0)
        assert np.all(defect <= 1e-11 * s[0])


@pytest.mark.parametrize(
    "key", [(name, degree) for name in sorted(TRIANGLES) for degree in range(4, 11)],
    ids=lambda k: f"{k[0]}-{k[1]}",
)
def test_norm_identity_matches_the_edge_moment_search(key):
    # oracle: both sides of x^2 y from monomial Gram matrices, exact in
    # rationals and solved at 60 digits (`exact_trace_norms`); the test
    # keeps the name of the pinned edge-moment-search values it replaced
    name, degree = key
    got = norm_identity_check(TRIANGLES[name], (2, 1), degree)
    expect = exact_trace_norms(TRIANGLES[name], (2, 1), degree)
    assert got == pytest.approx(expect, rel=1e-13, abs=0)


@pytest.mark.parametrize("name", sorted(TRIANGLES))
def test_extension_norm_does_not_rise_with_the_degree(name):
    # over every degree the tables reach: the extension spaces
    # z + b^2 P_(d-6) are nested, so the minimum cannot rise, and so are
    # the duality side's spaces, so the maximum cannot drop (degrees 4
    # and 5 have no zero-trace columns and differ by rounding only).
    # The two sides sandwich the trace norm at each degree, and at
    # degree 29 they meet to rounding
    duality, extension = np.array([
        norm_identity_check(TRIANGLES[name], (2, 1), degree)
        for degree in range(4, MAX_TABLE_DEGREE + 1)
    ]).T
    assert (np.diff(extension) / extension[:-1]).max() <= 1e-13
    assert (-np.diff(duality) / duality[:-1]).max() <= 1e-13
    assert np.all(duality <= extension * (1 + 1e-13))


def test_default_z_list_spans_degree_4(monkeypatch):
    # the study pairs each monomial of degree <= 4 once per eps
    seen = []
    pair = trace_lab.pair_trace_veps

    def recording(z, eps):
        seen.append(tuple(z))
        return pair(z, eps)

    monkeypatch.setattr(trace_lab, "pair_trace_veps", recording)
    dirac_convergence_study([0.25])
    assert sorted(seen) == sorted(map(tuple, monomial_exponents(4)))
