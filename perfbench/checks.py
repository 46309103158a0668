"""Correctness checks made apart from the program.

Every check reads the study CSV the program wrote, the meshes it was
given and the data the benchmark captured at the program's module
boundaries.  The exact solution, the quadrature, the edge extraction
and the rate fits are the benchmark's own code, so a fault shared by
the program and these checks has to be made twice.

Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import numpy as np

DOFS_PER_VERTEX = 3  # value and gradient of each skeleton trace per vertex
MAX_REL_RESIDUAL = 1e-8
EXACT_ERROR_RTOL = 1e-6
GAUSS_POINTS = 10  # per direction of the collapsed rule: exact to degree 18


# -- exact smooth solution, retyped: u = g(x) g(y), g(t) = t^2 (1 - t)^2 --


def _g(t):
    return t**2 * (1.0 - t) ** 2


def _g_second(t):
    return 2.0 - 12.0 * t + 12.0 * t**2


def smooth_u(x, y):
    return _g(x) * _g(y)


def smooth_sigma(x, y):
    """Laplacian of `smooth_u`."""
    return _g_second(x) * _g(y) + _g(x) * _g_second(y)


def collapsed_gauss(n=GAUSS_POINTS):
    """Barycentric points (q, 3) and weights (q,) on the unit triangle.

    The square [0, 1]^2 is collapsed onto the triangle at its first
    vertex; weights sum to 1/2, the reference area.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    a, b = np.meshgrid(s, s, indexing="ij")
    l1 = a * (1.0 - b)
    l2 = a * b
    bary = np.column_stack([(1.0 - l1 - l2).ravel(), l1.ravel(), l2.ravel()])
    weights = (np.outer(ws, ws) * a).ravel()
    return bary, weights


def _monomial_exponents(degree):
    return [(q - j, j) for q in range(degree + 1) for j in range(q + 1)]


def field_values(field, points):
    """Values of a broken field at points (nt, q, 2).

    `field` holds the program's per-element coefficients, the centre
    and scale of its monomials and the lower Cholesky factor L of its
    moment matrix; the trial basis is mono L^-T, so the monomial
    coefficients are L^-T c.
    """
    coeffs = field["coeffs"]
    if field["trial_chol"] is not None:
        lt = np.swapaxes(field["trial_chol"], 1, 2)
        coeffs = np.linalg.solve(lt, coeffs[:, :, None])[:, :, 0]
    u = (points - field["centroid"][:, None, :]) / field["h"][:, None, None]
    mono = np.stack(
        [u[..., 0] ** i * u[..., 1] ** j for i, j in _monomial_exponents(field["degree"])],
        axis=-1,
    )
    return np.einsum("tqd,td->tq", mono, coeffs)


def own_l2_errors(vertices, triangles, u_field, sigma_field):
    """L2 errors of (u_h, sigma_h) against the retyped smooth solution."""
    bary, weights = collapsed_gauss()
    coords = vertices[triangles]
    points = np.einsum("qr,trd->tqd", bary, coords)
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    jac = np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    wts = jac[:, None] * weights[None, :]
    x, y = points[..., 0], points[..., 1]
    du = smooth_u(x, y) - field_values(u_field, points)
    ds = smooth_sigma(x, y) - field_values(sigma_field, points)
    return float(np.sqrt(np.sum(wts * du * du))), float(np.sqrt(np.sum(wts * ds * ds)))


def expected_ndof(vertices, triangles, scheme, field_dim):
    """Free unknowns derived from mesh topology alone.

    2 nt dim_p field dofs, the trace u-hat at interior vertices only
    (every boundary vertex is constrained), sigma-hat at every vertex,
    and for scheme 2 two corner coefficients per edge less one gauge per
    vertex.
    """
    nv, nt = len(vertices), len(triangles)
    pairs = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    pairs = np.sort(pairs, axis=1)
    keys, counts = np.unique(pairs[:, 0] * nv + pairs[:, 1], return_counts=True)
    if np.any(counts > 2):
        raise ValueError("an edge is shared by more than two triangles")
    boundary = keys[counts == 1]
    n_bvert = len(np.unique(np.concatenate([boundary // nv, boundary % nv])))
    ndof = 2 * nt * field_dim + DOFS_PER_VERTEX * (nv - n_bvert) + DOFS_PER_VERTEX * nv
    if scheme == 2:
        ndof += 2 * len(keys) - nv
    return ndof


def fitted_rate(xs, ys, window, axis):
    """Decay rate from a least-squares fit of log y over the last levels.

    Positive means decay: y ~ h^rate on the ``h`` axis, y ~ ndof^-rate
    on the ``ndof`` axis.
    """
    xs, ys = np.log(xs[-window:]), np.log(ys[-window:])
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope) if axis == "h" else float(-slope)


def read_study_csv(path):
    """Columns of a study CSV as float arrays keyed by header name."""
    lines = path.read_text(encoding="ascii").split()
    header = lines[0].split(",")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: table[:, k] for k, name in enumerate(header)}


def run_checks(spec, result):
    """All checks of one study.

    `spec` holds the workload's formulation and expectations (see
    ``study.WORKLOADS``); `result` holds ``rows`` (CSV columns),
    ``meshes`` ((vertices, triangles) per level), ``u``/``sigma`` (the
    finest level's fields) and ``residuals`` (relative residual of every
    level's linear solve).
    """
    rows, meshes = result["rows"], result["meshes"]
    config, expect = spec["config"], spec["expect"]
    out = []

    field_dim = (config["field_degree"] + 1) * (config["field_degree"] + 2) // 2
    counted = [expected_ndof(v, t, config["scheme"], field_dim) for v, t in meshes]
    reported = [int(n) for n in rows["ndof_total"]]
    out.append(("dof_count", counted == reported, f"program {reported}, topology {counted}"))

    if config["problem"] == "smooth":
        vertices, triangles = meshes[-1]
        own = own_l2_errors(vertices, triangles, result["u"], result["sigma"])
        prog = (float(rows["err_u"][-1]), float(rows["err_sigma"][-1]))
        rel = max(abs(a - b) / b for a, b in zip(prog, own))
        out.append(
            (
                "exact_error",
                bool(rel <= EXACT_ERROR_RTOL),
                f"program (err_u, err_sigma) {prog}, own quadrature {own}, rel diff {rel:.2e}",
            )
        )

    drops = {key: bool(np.all(np.diff(rows[key]) < 0)) for key in ("eta", "err_u", "err_sigma")}
    out.append(("decrease", all(drops.values()), f"strictly decreasing: {drops}"))

    axis_column = {"h": "h_max", "ndof": "ndof_total"}
    for key, axis, window, lo, hi in expect["rates"]:
        rate = fitted_rate(rows[axis_column[axis]], rows[key], window, axis)
        out.append(
            (
                f"rate_{key}",
                lo <= rate <= hi,
                f"{key} rate vs {axis} over last {window} levels {rate:.4f}, want [{lo}, {hi}]",
            )
        )

    ratio = rows["err_sigma"] / rows["eta"]
    lo, hi = expect["band"]
    out.append(
        (
            "err_eta_band",
            bool(np.all((lo <= ratio) & (ratio <= hi))),
            f"err_sigma/eta in [{ratio.min():.4f}, {ratio.max():.4f}], want [{lo}, {hi}]",
        )
    )

    residuals = result["residuals"]
    worst = max(residuals, default=float("inf"))
    out.append(
        (
            "residual",
            len(residuals) == len(reported) and worst <= MAX_REL_RESIDUAL,
            f"max |Ax-b|/|b| over {len(residuals)} solves {worst:.2e}",
        )
    )
    return out
