import logging
import re

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bilap_dpg import dpg_solver
from bilap_dpg.forms import Formulation
from bilap_dpg.linsolve import (
    LinearSolveError,
    NotPositiveDefiniteError,
    SparseSymBuilder,
    _pcg,
    cholesky_spd,
    dense_spd_solve,
    sparse_spd_solve,
)
from bilap_dpg.mesh import make_unit_square
from bilap_dpg.problems import smooth_problem


def test_dense_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    assert np.allclose(dense_spd_solve(np.eye(3), rhs), rhs)


def test_dense_hand_solve():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = dense_spd_solve(a, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-13)


def test_dense_zero_pivot_reports_index():
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError) as err:
        dense_spd_solve(a, np.ones(3))
    assert err.value.pivot == 1


def test_dense_asymmetric_rejected():
    with pytest.raises(LinearSolveError):
        cholesky_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_dense_random_spd_residuals():
    rng = np.random.default_rng(5)
    for n in (3, 10, 50):
        m = rng.standard_normal((n, n))
        a = m.T @ m + np.eye(n)
        b = rng.standard_normal(n)
        x = dense_spd_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


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
    assert np.allclose(x, dense_spd_solve(dense, b), atol=1e-8)


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


def test_builder_sums_duplicates():
    builder = SparseSymBuilder(3)
    builder.add([0, 1, 0], [0, 1, 0], [1.0, 2.0, 3.0])
    builder.add([2], [2], [5.0])
    a = builder.tocsr()
    assert a[0, 0] == 4.0
    assert a[1, 1] == 2.0
    assert a[2, 2] == 5.0
    assert a.nnz == 3


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_builder_insertion_order_invariance(rnd):
    rng = np.random.default_rng(rnd.randint(0, 2**31))
    n_trip = rng.integers(3, 25)
    rows = rng.integers(0, 6, n_trip)
    cols = rng.integers(0, 6, n_trip)
    vals = rng.standard_normal(n_trip)
    perm = rng.permutation(n_trip)

    b1 = SparseSymBuilder(6)
    b1.add(rows, cols, vals)
    b2 = SparseSymBuilder(6)
    b2.add(rows[perm], cols[perm], vals[perm])
    a1, a2 = b1.tocsr(), b2.tocsr()
    assert (a1 != a2).nnz == 0 or np.abs((a1 - a2).toarray()).max() <= 1e-15
