import logging
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from bilap_dpg import dpg_solver
from bilap_dpg.forms import Formulation
from bilap_dpg.linsolve import (
    LinearSolveError,
    NotPositiveDefiniteError,
    _pcg,
    sparse_spd_solve,
)
from bilap_dpg.mesh import Mesh, make_unit_square
from bilap_dpg.problems import smooth_problem


def test_sparse_diagonal():
    a = scipy.sparse.diags([1.0, 2.0, 4.0]).tocsr()
    x = sparse_spd_solve(a, np.array([1.0, 1.0, 1.0]))
    assert np.allclose(x, [1.0, 0.5, 0.25], atol=1e-12)


def test_sparse_tridiagonal_hand_solution():
    # tridiag(-1, 2, -1), b = ones: x_i = i (n + 1 - i) / 2
    n = 5
    a = scipy.sparse.diags(
        [-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ).tocsr()
    x = sparse_spd_solve(a, np.ones(n))
    assert np.allclose(x, [2.5, 4.0, 4.5, 4.0, 2.5], atol=1e-10)


def test_sparse_indefinite_rejected():
    a = scipy.sparse.diags([1.0, -1.0, 1.0]).tocsr()
    with pytest.raises(NotPositiveDefiniteError):
        sparse_spd_solve(a, np.ones(3))


def test_sparse_integer_matrix():
    a = scipy.sparse.csr_matrix(np.array([[2, 1], [1, 2]]))
    assert np.allclose(sparse_spd_solve(a, np.array([3, 3])), [1.0, 1.0], atol=1e-12)


def test_sparse_asymmetric_rejected():
    a = scipy.sparse.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(LinearSolveError):
        sparse_spd_solve(a, np.ones(2))


def test_sparse_random_spd_matches_dense():
    rng = np.random.default_rng(9)
    n = 40
    m = rng.standard_normal((n, n))
    dense = m.T @ m + np.eye(n)
    a = scipy.sparse.csr_matrix(dense)
    b = rng.standard_normal(n)
    x = sparse_spd_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert np.allclose(x, np.linalg.solve(dense, b), atol=1e-8)


def test_eps_shift_is_logged(caplog):
    # rank-2 Gram matrix of the columns of [[1, 2, 3], [4, 5, 6]]: its
    # equilibrated factorization ends on a roundoff-negative pivot
    v = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    dense = v.T @ v
    b = dense @ np.array([1.0, 2.0, 3.0])
    with caplog.at_level(logging.WARNING, logger="bilap_dpg.linsolve"):
        x = sparse_spd_solve(scipy.sparse.csr_matrix(dense), b)
    assert np.linalg.norm(dense @ x - b) <= 1e-10 * np.linalg.norm(b)
    shifts = [r for r in caplog.records if "refactoring with diagonal shift" in r.getMessage()]
    assert len(shifts) == 1
    assert shifts[0].levelno == logging.WARNING
    assert "n=3" in shifts[0].getMessage()
    assert "pivot 2 " in shifts[0].getMessage()


def test_shift_retry_factors_a_fresh_shifted_input(monkeypatch):
    # the rank-2 Gram matrix above: the retry factors D^-1/2 A D^-1/2 +
    # 1e-12 I, rebuilt from A, and the first input is gone by then
    v = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    dense = v.T @ v
    splu = scipy.sparse.linalg.splu
    inputs, alive = [], []

    def recording_splu(m, *args, **kwargs):
        alive.extend(ref() is not None for ref, _ in inputs)
        inputs.append((weakref.ref(m), m.toarray()))
        return splu(m, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    sparse_spd_solve(scipy.sparse.csr_matrix(dense), dense @ np.ones(3))
    assert len(inputs) == 2 and alive == [False]
    s = 1.0 / np.sqrt(np.diag(dense))
    scaled = s[:, None] * dense * s[None, :]
    assert np.array_equal(inputs[0][1], scaled)
    assert np.array_equal(inputs[1][1], scaled + 1e-12 * np.eye(3))


def _traced_peak(fn):
    """Peak bytes traced by tracemalloc while `fn` runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_solve_holds_at_most_one_extra_copy_of_a(monkeypatch):
    # the scheme-2, p = 0 system on the 16x16 square (3,877 dofs): the
    # solve's traced peak may exceed that of its factorization and pivot
    # read alone by at most one copy of A (keeping A in a second format,
    # a scaled copy and |A| alive together measured 3.1 copies)
    captured = []

    def capture(a, b):
        captured.append((a, b))
        return sparse_spd_solve(a, b)

    monkeypatch.setattr(dpg_solver, "sparse_spd_solve", capture)
    dpg_solver.assemble_and_solve(make_unit_square(16), Formulation(scheme=2), smooth_problem())
    [(a, b)] = captured
    copy = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    s = 1.0 / np.sqrt(a.diagonal())
    scaled = a.tocsc()
    scaled.data = s[scaled.indices] * scaled.data * np.repeat(s, np.diff(scaled.indptr))

    def factor_alone():
        lu = scipy.sparse.linalg.splu(
            scaled,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        lu.U.diagonal()

    excess = _traced_peak(lambda: sparse_spd_solve(a, b)) - _traced_peak(factor_alone)
    assert excess <= copy


def _neumann_laplacian(n):
    a = scipy.sparse.diags(
        [-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ).tolil()
    a[0, 0] = a[n - 1, n - 1] = 1.0
    return a.tocsr()


SINGULAR = {
    "ones-2x2": scipy.sparse.csr_matrix(np.ones((2, 2))),
    "neumann-1d": _neumann_laplacian(6),
}


@pytest.mark.parametrize("name", sorted(SINGULAR))
def test_exactly_singular_factor_is_shifted(name, caplog):
    # positive semidefinite with an exactly zero pivot: SuperLU reports
    # an exactly singular factor, which takes the same eps-shift retry as
    # a roundoff-negative pivot; b lies in the range, so the shifted
    # solve succeeds
    a = SINGULAR[name]
    n = a.shape[0]
    b = a @ np.arange(1.0, n + 1.0)
    with caplog.at_level(logging.WARNING, logger="bilap_dpg.linsolve"):
        x = sparse_spd_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
    shifts = [r for r in caplog.records if "refactoring with diagonal shift" in r.getMessage()]
    assert len(shifts) == 1
    assert shifts[0].levelno == logging.WARNING
    assert "exactly singular" in shifts[0].getMessage()
    assert f"n={n};" in shifts[0].getMessage()


def test_singular_after_shift_raises_not_positive_definite(monkeypatch, caplog):
    def always_singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", always_singular)
    with caplog.at_level(logging.WARNING, logger="bilap_dpg.linsolve"):
        with pytest.raises(NotPositiveDefiniteError, match=r"exactly singular.*n=2 "):
            sparse_spd_solve(SINGULAR["ones-2x2"], np.array([1.0, -1.0]))
    assert len(caplog.records) == 1


def test_pcg_best_iterate_is_logged(caplog):
    n = 5
    a = scipy.sparse.diags(
        [-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
    ).tocsr()
    b = np.ones(n)
    with caplog.at_level(logging.WARNING, logger="bilap_dpg.linsolve"):
        x, iterations = _pcg(a, b, lambda r: r, rtol=1e-13, maxiter=2)
    assert iterations == 2
    relative = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
    assert 1e-13 < relative < 1.0
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "after 2 iterations" in record.getMessage()
    logged = float(re.search(r"relative residual (\S+)", record.getMessage()).group(1))
    assert logged == pytest.approx(relative, rel=1e-3)


def test_solve_logs_one_debug_record(caplog):
    a = scipy.sparse.diags([1.0, 2.0, 4.0]).tocsr()
    with caplog.at_level(logging.DEBUG, logger="bilap_dpg.linsolve"):
        sparse_spd_solve(a, np.ones(3))
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    for field in ("n=3", "nnz(A)=3", "nnz(L+U)=", "polish_iterations=1"):
        assert field in message


def test_ordering_reduces_fill_on_dpg_system(caplog, monkeypatch):
    # the scheme-2, p = 0 system on the 8x8 square: minimum degree on
    # A + A^T must beat COLAMD's fill on the same equilibrated matrix
    captured = []

    def capture(a, b):
        captured.append(a)
        return sparse_spd_solve(a, b)

    monkeypatch.setattr(dpg_solver, "sparse_spd_solve", capture)
    with caplog.at_level(logging.DEBUG, logger="bilap_dpg.linsolve"):
        dpg_solver.assemble_and_solve(
            make_unit_square(8), Formulation(scheme=2), smooth_problem()
        )
    [record] = [r for r in caplog.records if r.levelno == logging.DEBUG]
    fill = int(re.search(r"nnz\(L\+U\)=(\d+)", record.getMessage()).group(1))

    [a] = captured
    s = scipy.sparse.diags(1.0 / np.sqrt(a.diagonal()))
    a_scaled = (s @ a @ s).tocsc()
    colamd = scipy.sparse.linalg.splu(
        a_scaled,
        permc_spec="COLAMD",
        diag_pivot_thresh=0.0,
        options=dict(SymmetricMode=True),
    )
    assert fill <= 0.8 * colamd.nnz


def test_fill_does_not_depend_on_rounding(caplog):
    # the same scheme-2 system on the 16x16 square and on a copy shifted
    # by (0.1, 0.3): the shift changes only the rounding of the element
    # kernels, so entries that vanish by symmetry come out as exact
    # zeros on one mesh and as roundoff on the other; the stored pattern,
    # and with it the ordering and the fill, must not follow them
    # (pruning the zeros gave 624,208 against 446,404)
    mesh = make_unit_square(16)
    shifted = Mesh(mesh.vertices + np.array([0.1, 0.3]), mesh.triangles)
    fills = []
    for m in (mesh, shifted):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bilap_dpg.linsolve"):
            dpg_solver.assemble_and_solve(m, Formulation(scheme=2), smooth_problem())
        [record] = [r for r in caplog.records if r.levelno == logging.DEBUG]
        sizes = re.search(r"nnz\(A\)=(\d+) nnz\(L\+U\)=(\d+)", record.getMessage())
        fills.append(sizes.groups())
    assert fills[0] == fills[1]
