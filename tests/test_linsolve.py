import contextlib
import logging
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from bilap_dpg import dpg_solver, linsolve
from bilap_dpg.forms import Formulation
from bilap_dpg.linsolve import (
    LinearSolveError,
    NotPositiveDefiniteError,
    _cgls,
    sparse_spd_solve,
)
from bilap_dpg.mesh import Mesh, make_sector_domain, make_unit_square, refine_nvb
from bilap_dpg.problems import singular_problem, smooth_problem


def halves(n):
    """Two blocks over n unknowns that overlap on the middle one."""
    return [np.arange(n // 2 + 1), np.arange(n // 2, n)]


def lstsq_solve(w, load):
    """`sparse_spd_solve` on a dense W: A = W^T W and b = W^T load,
    with the unknowns in two overlapping blocks."""
    w = np.asarray(w)
    return sparse_spd_solve(
        scipy.sparse.csr_matrix(w.T @ w), w.T @ load,
        scipy.sparse.linalg.aslinearoperator(w), load, halves(w.shape[1]),
    )


def any_w(a):
    """A W, a load and one block for input that is rejected before W
    is used."""
    n = a.shape[0]
    return scipy.sparse.linalg.aslinearoperator(np.eye(n)), np.ones(n), [np.arange(n)]


def difference_matrix(rows, n):
    """rows x n, x -> x_i - x_(i-1) with x_(-1) = 0 when rows = n + 1
    (W^T W = tridiag(-1, 2, -1)), and x_(i+1) - x_i when rows = n - 1
    (the 1-D Neumann Laplacian, singular)."""
    d = np.zeros((rows, n))
    if rows == n + 1:
        d[np.arange(n), np.arange(n)] = 1.0
        d[np.arange(1, n + 1), np.arange(n)] = -1.0
    else:
        d[np.arange(rows), np.arange(rows)] = -1.0
        d[np.arange(rows), np.arange(1, n)] = 1.0
    return d


def test_sparse_diagonal():
    d = np.array([1.0, 2.0, 4.0])
    x = lstsq_solve(np.diag(np.sqrt(d)), 1.0 / np.sqrt(d))
    assert np.allclose(x, [1.0, 0.5, 0.25], atol=1e-12)


def test_sparse_tridiagonal_hand_solution():
    # W^T W = tridiag(-1, 2, -1) and W^T load = ones: x_i = i (n + 1 - i) / 2,
    # and the residual, -5/2 on every row, is orthogonal to the range of W
    n = 5
    w = difference_matrix(n + 1, n)
    load = -np.arange(n + 1.0)
    x = lstsq_solve(w, load)
    assert np.allclose(x, [2.5, 4.0, 4.5, 4.0, 2.5], atol=1e-10)
    assert np.allclose(load - w @ x, -2.5, atol=1e-10)


def test_sparse_indefinite_rejected():
    a = scipy.sparse.diags([1.0, -1.0, 1.0]).tocsr()
    with pytest.raises(NotPositiveDefiniteError):
        sparse_spd_solve(a, np.ones(3), *any_w(a))


def test_indefinite_factor_raises_with_its_pivot():
    # a positive diagonal, but the second pivot is 1 - 4 = -3: with W = I
    # the Gram probe sees A - W^T W = [[0, 2], [2, 0]]
    a = scipy.sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError, match=r"not W\^T W: probe gap 1.995e\+00, n=2"):
        sparse_spd_solve(a, np.ones(2), *any_w(a))


def test_indefinite_input_that_cgls_solves_exactly_raises():
    # with W = I and load = b = e1, CGLS returns e1 in one step with r = 0
    # and a x = b exactly, so no check of the answer rejects this input:
    # the Gram probe must
    a = scipy.sparse.csr_matrix(np.array([[1.0, 0, 0], [0, 1, 2], [0, 2, 1]]))
    e1 = np.array([1.0, 0, 0])
    w = scipy.sparse.linalg.aslinearoperator(np.eye(3))
    with pytest.raises(NotPositiveDefiniteError, match=r"not W\^T W: probe gap 1.076e\+00, n=3"):
        sparse_spd_solve(a, e1, w, e1, halves(3))


def test_perturbed_gram_matrix_raises():
    # symmetric and positive definite (smallest eigenvalue 1.003), but
    # not W^T W: 3e-10 max|A| on one off-diagonal pair is below what the
    # normal-equation residual check can see (it rejects 1e-9), and the
    # Gram probe's relative gap reads 1.2e-11
    rng = np.random.default_rng(9)
    n = 40
    w = np.vstack([rng.standard_normal((n, n)), np.eye(n)])
    load = rng.standard_normal(2 * n)
    a = w.T @ w
    a[[0, 1], [1, 0]] += 3e-10 * np.abs(a).max()
    with pytest.raises(NotPositiveDefiniteError, match=r"probe gap 1.156e-11, n=40"):
        sparse_spd_solve(
            scipy.sparse.csr_matrix(a), w.T @ load, scipy.sparse.linalg.aslinearoperator(w), load,
            halves(n),
        )


def test_exactly_singular_factor_raises(monkeypatch):
    def always_singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", always_singular)
    # a Gram input, so that the solve gets past the probe to the factor
    w = np.array([[1.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError, match=r"exactly singular.*n=2"):
        lstsq_solve(w, np.ones(1))


def test_sparse_integer_matrix():
    # W^T W = [[2, 1], [1, 2]] and W^T load = [3, 3], all integers
    w = np.array([[1, 1], [1, 0], [0, 1]])
    assert np.allclose(lstsq_solve(w, np.array([2, 1, 1])), [1.0, 1.0], atol=1e-12)


def test_sparse_asymmetric_rejected():
    a = scipy.sparse.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(LinearSolveError):
        sparse_spd_solve(a, np.ones(2), *any_w(a))


def test_sparse_random_spd_matches_dense():
    # A = W^T W = M^T M + I for a tall W = [M; I]: x is the least-squares
    # minimizer of |load - W x|
    rng = np.random.default_rng(9)
    n = 40
    w = np.vstack([rng.standard_normal((n, n)), np.eye(n)])
    load = rng.standard_normal(2 * n)
    x = lstsq_solve(w, load)
    reference = np.linalg.lstsq(w, load, rcond=None)[0]
    assert np.linalg.norm(w.T @ (load - w @ x)) <= 1e-10 * np.linalg.norm(w.T @ load)
    assert np.allclose(x, reference, atol=1e-8)


def test_non_finite_load_is_rejected(caplog):
    # a NaN load makes the CGLS iterate and the residual NaN, which no
    # tolerance comparison may pass; CGLS stops at its first NaN step
    # rather than running to its cap
    w = np.vstack([np.eye(3), np.eye(3)])
    with caplog.at_level(logging.WARNING, logger="bilap_dpg.linsolve"):
        with pytest.raises(LinearSolveError, match="residual nan above tolerance"):
            lstsq_solve(w, np.array([1.0, np.nan, 2.0, 0.0, 1.0, 1.0]))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


@pytest.mark.parametrize(
    "w", [np.array([[1.0, 1.0]]), difference_matrix(5, 6)], ids=["ones-2x2", "neumann-1d"]
)
def test_rank_deficient_w_gives_a_least_squares_minimizer(w):
    # W^T W is singular: [[1, 1], [1, 1]] and the 1-D Neumann Laplacian.
    # The shifted factor stays positive, and CGLS reaches a minimizer
    load = np.arange(1.0, w.shape[0] + 1.0)
    x = lstsq_solve(w, load)
    reference = np.linalg.lstsq(w, load, rcond=None)[0]
    assert np.linalg.norm(w.T @ (load - w @ x)) <= 1e-10 * np.linalg.norm(w.T @ load)
    assert np.linalg.norm(load - w @ x) <= np.linalg.norm(load - w @ reference) + 1e-12


def test_one_factorization_per_block(monkeypatch):
    # the rank-2 Gram matrix A of the columns of [[1, 2, 3], [4, 5, 6]],
    # whose unshifted factor ends on a roundoff-negative pivot, in the
    # blocks {0, 1} and {1, 2}: one factorization of each block's
    # principal submatrix of A, transposed, with each diagonal entry d
    # raised to exactly d + 2 spacing(d), made on a copy of its own,
    # and CGLS on W
    w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    splu = scipy.sparse.linalg.splu
    inputs = []

    def recording_splu(m, *args, **kwargs):
        inputs.append((m, m.toarray(), args, kwargs))
        return splu(m, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    load = np.array([1.0, -2.0])
    a = scipy.sparse.csr_matrix(w.T @ w)
    blocks = halves(3)
    x = sparse_spd_solve(a, w.T @ load, scipy.sparse.linalg.aslinearoperator(w), load, blocks)
    assert np.linalg.norm(load - w @ x) <= 1e-12
    assert len(inputs) == len(blocks)
    for (m, factored, args, kwargs), ids in zip(inputs, blocks):
        # four-column panels, relax at SuperLU's default, from the one
        # definition the tests' own factorizations use
        assert args == () and kwargs == linsolve.SPLU_OPTIONS
        assert kwargs["panel_size"] == 4 and "relax" not in kwargs
        assert not any(np.shares_memory(u, v) for u in (m.data, m.indices, m.indptr)
                       for v in (a.data, a.indices, a.indptr))
        block = (w.T @ w)[np.ix_(ids, ids)].T
        d = np.diag(block).copy()
        np.fill_diagonal(block, d + 2 * np.spacing(d))
        assert np.array_equal(factored, block)
        assert np.array_equal(np.diag(factored), linsolve.shifted_diagonal(d))


def _sector_system(monkeypatch, bisections):
    """The scheme-2 system of the sector with its corner elements
    bisected `bisections` times: the arguments of `sparse_spd_solve`
    and the preconditioner that CGLS gets."""
    mesh = make_sector_domain()
    for _ in range(bisections):
        corner = np.abs(mesh.triangle_coords()).sum(axis=2).min(axis=1) == 0
        mesh = refine_nvb(mesh, np.flatnonzero(corner))
    captured = []

    def capture(w, load, b, precond):
        captured.append(precond)
        return _cgls(w, load, b, precond)

    solve = dpg_solver.sparse_spd_solve

    def capture_args(*args):
        captured.append(args)
        return solve(*args)

    with monkeypatch.context() as patch:
        patch.setattr(linsolve, "_cgls", capture)
        patch.setattr(dpg_solver, "sparse_spd_solve", capture_args)
        dpg_solver.assemble_and_solve(mesh, Formulation(scheme=2), singular_problem())
    [args, precond] = captured
    return args, precond


def test_preconditioner_matches_the_jacobi_scaled_factor(monkeypatch):
    # on the sector with its corner elements bisected twice, the sweep
    # over the blocks' factors, A_s being a block of A with its diagonal
    # shifted, must agree with the same sweep over the factors of each
    # A_s scaled by its own diagonal D_s, D_s^-1/2 A_s D_s^-1/2, applied
    # as D_s^-1/2 (.) D_s^-1/2, since forced diagonal pivots never
    # compare magnitudes.  Both are accurate only to roundoff over the
    # smallest pivot ratio, so six such bisections (h_min = 2^-5) part
    # them by 1e-7.  The sweep is built here from its definition: the
    # smaller factor, the larger one and the smaller again, each stage
    # after the first on its block's rows of g - A z
    (a, _, _, _, blocks), precond = _sector_system(monkeypatch, 2)
    factors = []
    for ids in blocks:
        scaled = a[ids][:, ids].tocsc()
        scaled.setdiag(linsolve.shifted_diagonal(scaled.diagonal()))
        s = 1.0 / np.sqrt(scaled.diagonal())
        scaled.data = s[scaled.indices] * scaled.data * np.repeat(s, np.diff(scaled.indptr))
        factors.append((ids, s, scipy.sparse.linalg.splu(scaled, **linsolve.SPLU_OPTIONS)))
    small, large = sorted(factors, key=lambda f: f[2].nnz)
    rng = np.random.default_rng(3)
    for g in rng.standard_normal((5, a.shape[0])):
        expected = np.zeros_like(g)
        for ids, s, lu in (small, large, small):
            expected[ids] += s * lu.solve(s * (g - a @ expected)[ids])
        assert np.linalg.norm(precond(g) - expected) <= 1e-10 * np.linalg.norm(expected)


def test_sweep_is_symmetric_and_positive(monkeypatch):
    # the sweep's M^-1 = (I - E) A^-1, E = (I - P_s)(I - P_l)(I - P_s)
    # with P the A-orthogonal block projections: symmetric, and positive
    # because the blocks cover every unknown.  A equals A^T and the
    # factors their blocks only to rounding, so the two sides of
    # u^T M^-1 v = v^T M^-1 u part by roundoff over the smallest pivot
    # ratio: 2.1e-12 relative with two bisections, 2.5e-9 with six
    (a, _, _, _, _), precond = _sector_system(monkeypatch, 2)
    rng = np.random.default_rng(5)
    for u, v in rng.standard_normal((5, 2, a.shape[0])):
        mu, mv = precond(u), precond(v)
        assert abs(u @ mv - v @ mu) <= 1e-10 * np.linalg.norm(u) * np.linalg.norm(mv)
        assert u @ mu > 0 and v @ mv > 0


@pytest.mark.parametrize(
    "w, load, precond, step",
    [
        # M^-1 = -I: g^T M^-1 g is negative from the start
        (difference_matrix(6, 5), -np.arange(6.0), lambda g: -g, 0),
        # M^-1 = diag(1, -1) on W = I: positive at the start, where g
        # leans on the first axis, and negative after one step
        (np.eye(2), np.array([1.0, 1e-3]), lambda g: g * [1.0, -1.0], 1),
    ],
    ids=["negative-start", "negative-later"],
)
def test_indefinite_preconditioner_raises_naming_the_step(w, load, precond, step):
    # CGLS used to stop silently at a nonpositive g^T M^-1 g, which is how
    # incomplete-factor preconditioners returned x off by 100 %
    w = scipy.sparse.linalg.aslinearoperator(w)
    with pytest.raises(NotPositiveDefiniteError, match=rf"at CGLS step {step}, n={w.shape[1]}$"):
        _cgls(w, load, w.rmatvec(load), precond)


def test_iteration_cap_is_logged(monkeypatch, caplog):
    # unpreconditioned CGLS needs n steps on the difference matrix
    n = 5
    w = scipy.sparse.linalg.aslinearoperator(difference_matrix(n + 1, n))
    load = -np.arange(n + 1.0)
    monkeypatch.setattr(linsolve, "MAXITER", 2)
    with caplog.at_level(logging.WARNING, logger="bilap_dpg.linsolve"):
        x, iterations, stop, _ = _cgls(w, load, w.rmatvec(load), lambda g: g)
    assert (iterations, stop) == (2, "cap")
    g, g_0 = w.rmatvec(load - w.matvec(x)), w.rmatvec(load)
    relative = np.linalg.norm(g) / np.linalg.norm(g_0)
    assert 1e-12 < relative < 1.0
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "cap of 2 iterations" in record.getMessage()
    logged = float(re.search(r"normal residual (\S+)", record.getMessage()).group(1))
    assert logged == pytest.approx(relative, rel=1e-3)


def test_solve_holds_no_copy_of_a(monkeypatch):
    # the scheme-2, p = 0 system on the 16x16 square (3,365 free
    # unknowns): every block is copied to be factored, so at most one
    # block copy may be alive, at every factorization and through CGLS
    # none.  tracemalloc sees none of SuperLU's own memory: what the
    # solve holds when CGLS starts, its own vectors, is 0.06 MB, under
    # the 0.27 MB of the smaller block's copy, which any block copy
    # alive then would reach; A is 1.14 MB
    captured = []

    def capture(*args):
        captured.append(args)
        return sparse_spd_solve(*args)

    monkeypatch.setattr(dpg_solver, "sparse_spd_solve", capture)
    dpg_solver.assemble_and_solve(make_unit_square(16), Formulation(scheme=2), smooth_problem())
    [(a, b, w, load, blocks)] = captured
    copies = [a[ids][:, ids] for ids in blocks]
    smallest = min(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in copies)
    del copies
    splu = scipy.sparse.linalg.splu
    inputs, alive = [], []

    def recording_splu(m, *args, **kwargs):
        alive.append([ref() is not None for ref in inputs])
        inputs.append(weakref.ref(m.data))
        return splu(m, *args, **kwargs)

    def measured_cgls(*args):
        alive.append([ref() is not None for ref in inputs])
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return _cgls(*args)

    held = []
    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    monkeypatch.setattr(linsolve, "_cgls", measured_cgls)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sparse_spd_solve(a, b, w, load, blocks)
    finally:
        tracemalloc.stop()
    assert alive == [[], [False], [False, False]]
    assert held[0] < smallest


def _gram_case(n=6):
    """A = W^T W in CSR, W = [M; I] for a seeded M, and a load."""
    rng = np.random.default_rng(4)
    w = np.vstack([rng.standard_normal((n, n)), np.eye(n)])
    return scipy.sparse.csr_matrix(w.T @ w), w, rng.standard_normal(2 * n)


def _singular_splu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _indefinite_cgls(*args):
    raise NotPositiveDefiniteError("indefinite preconditioner")


@pytest.mark.parametrize(
    "patch, nan_load, raises",
    [
        (None, False, None),
        ((scipy.sparse.linalg, "splu", _singular_splu), False, "exactly singular"),
        ((linsolve, "_cgls", _indefinite_cgls), False, "indefinite preconditioner"),
        (None, True, "residual nan above tolerance"),
    ],
    ids=["returns", "singular-factor", "indefinite-cgls", "nan-residual"],
)
def test_a_comes_back_bit_identical(monkeypatch, patch, nan_load, raises):
    # the shift goes onto the block copies alone, so on return and
    # after every raise A keeps its arrays and their bits
    a, w, load = _gram_case()
    if patch:
        monkeypatch.setattr(*patch)
    if nan_load:
        load[1] = np.nan
    arrays = (a.data, a.indices, a.indptr)
    before = [v.copy() for v in arrays]
    expected = pytest.raises(LinearSolveError, match=raises) if raises else contextlib.nullcontext()
    with expected:
        sparse_spd_solve(
            a, w.T @ load, scipy.sparse.linalg.aslinearoperator(w), load, halves(a.shape[0])
        )
    assert all(v is u for v, u in zip((a.data, a.indices, a.indptr), arrays))
    assert all(np.array_equal(v, u) for v, u in zip(arrays, before))


def test_unstored_diagonal_entry_raises_and_leaves_a_alone():
    # W's second column is zero, so A = [[2, 0], [0, 0]] and CSR stores
    # one entry: the shift has nowhere to go, and the solver raises
    # rather than insert the entry into A
    w = np.array([[1.0, 0.0], [1.0, 0.0]])
    load = np.array([1.0, 2.0])
    a = scipy.sparse.csr_matrix(w.T @ w)
    assert a.nnz == 1
    before = [v.copy() for v in (a.data, a.indices, a.indptr)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.sparse.SparseEfficiencyWarning)
        with pytest.raises(NotPositiveDefiniteError, match=r"1 diagonal entries unstored, n=2"):
            sparse_spd_solve(
                a, w.T @ load, scipy.sparse.linalg.aslinearoperator(w), load, halves(2)
            )
    assert a.nnz == 1
    assert all(np.array_equal(v, u) for v, u in zip((a.data, a.indices, a.indptr), before))


def test_duplicate_and_unsorted_entries_are_left_in_a():
    # A in CSR with its rows' entries reversed and its first diagonal
    # entry split in two: each block copy sums its duplicates, and A,
    # only read, comes back as it was given, not in canonical form
    a, w, load = _gram_case()
    dense = a.toarray()
    rows = [list(zip(a.indices[s:e], a.data[s:e]))[::-1] for s, e in zip(a.indptr, a.indptr[1:])]
    (j, v) = rows[0][-1]
    rows[0][-1:] = [(j, v / 2), (j, v - v / 2)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    cols, data = zip(*[e for r in rows for e in r])
    a = scipy.sparse.csr_matrix((np.array(data), np.array(cols), indptr), shape=a.shape)
    assert not a.has_canonical_format
    before = [v.copy() for v in (a.data, a.indices, a.indptr)]
    x = sparse_spd_solve(
        a, w.T @ load, scipy.sparse.linalg.aslinearoperator(w), load, halves(a.shape[0])
    )
    assert np.allclose(x, np.linalg.lstsq(w, load, rcond=None)[0], atol=1e-10)
    assert all(np.array_equal(v, u) for v, u in zip((a.data, a.indices, a.indptr), before))
    assert np.array_equal(a.toarray(), dense)


def test_factored_matrices_share_no_memory_with_a(monkeypatch):
    # the scheme-1 and scheme-2 systems on the 4x4 square: SuperLU gets
    # block copies alone, and A's arrays come back bit-identical
    splu = scipy.sparse.linalg.splu
    factored = []

    def recording_splu(m, *args, **kwargs):
        factored.append(m)
        return splu(m, *args, **kwargs)

    def checked_solve(a, *args):
        arrays = (a.data, a.indices, a.indptr)
        before = [v.copy() for v in arrays]
        factored.clear()
        x = sparse_spd_solve(a, *args)
        assert len(factored) == 2
        assert not any(np.shares_memory(u, v) for m in factored
                       for u in (m.data, m.indices, m.indptr) for v in arrays)
        assert all(v is u for v, u in zip((a.data, a.indices, a.indptr), arrays))
        assert all(np.array_equal(v, u) for v, u in zip(arrays, before))
        return x

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    monkeypatch.setattr(dpg_solver, "sparse_spd_solve", checked_solve)
    for scheme in (1, 2):
        dpg_solver.assemble_and_solve(make_unit_square(4), Formulation(scheme), smooth_problem())


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([[0, 1, 2], [2, 4]], "unknown 3 is in no block, n=5"),
        ([[0, 1], [3, 4]], "unknown 2 is in no block, n=5"),
        ([[0, 2, 1], [2, 3, 4]], "block of 3 ids not sorted, unique and in 0..4"),
        ([[0, 1, 1, 2], [2, 3, 4]], "block of 4 ids not sorted, unique and in 0..4"),
        ([[0, 1, 2], [2, 3, 4, 5]], "block of 4 ids not sorted, unique and in 0..4"),
        ([[-1, 0, 1, 2], [2, 3, 4]], "block of 4 ids not sorted, unique and in 0..4"),
        ([[], [0, 1, 2, 3, 4]], "block of 0 ids not sorted, unique and in 0..4"),
    ],
    ids=["uncovered-3", "uncovered-2", "unsorted", "repeated", "past-n", "negative", "empty"],
)
def test_blocks_must_cover_every_unknown(monkeypatch, blocks, message):
    # an unknown in no block would get no preconditioning and CGLS
    # would stall on it: the blocks are checked before any factorization
    def no_splu(*args, **kwargs):
        raise AssertionError("factored before the blocks were checked")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
    w = difference_matrix(6, 5)
    load = np.ones(6)
    with pytest.raises(LinearSolveError, match=re.escape(message) + "$"):
        sparse_spd_solve(
            scipy.sparse.csr_matrix(w.T @ w), w.T @ load, scipy.sparse.linalg.aslinearoperator(w),
            load, [np.array(ids, dtype=np.int64) for ids in blocks],
        )


def test_solve_logs_one_debug_record(caplog):
    # A = diag(1, 2, 4), [[2, 1], [1, 2]] and [[4, 1, 1], [1, 1, 0], [1, 0, 1]]
    # in two blocks that overlap on the middle unknown; A z and W^T W z
    # round apart on the last one (gap 1.8e-16)
    cases = [
        (np.diag(np.sqrt([1.0, 2.0, 4.0])),
         ("n=3", "nnz(A)=3", "block_n=2,2", "block_nnz(L+U)=4,4", "cgls_iterations=1")),
        (np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), ("n=2", "nnz(A)=4", "block_n=2,1")),
        (np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
         ("n=3", "nnz(A)=7", "block_n=2,2")),
    ]
    for w, fields in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bilap_dpg.linsolve"):
            lstsq_solve(w, np.ones(w.shape[0]))
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        for field in fields:
            assert f" {field} " in message
        assert " shift_ulps=2 " in message
        assert float(re.search(r"probe_gap=(\S+) ", message).group(1)) <= 1e-15
        # the fill is the block factors' together, and the sweep runs
        # over the smaller factor, the larger and the smaller again
        fill = int(re.search(r" nnz\(L\+U\)=(\d+) ", message).group(1))
        block_fill = re.search(r" block_nnz\(L\+U\)=(\S+) ", message).group(1).split(",")
        assert fill == sum(map(int, block_fill))
        small = min(range(2), key=lambda k: int(block_fill[k]))
        assert f" sweep={small},{1 - small},{small} " in message
        assert re.search(r" stop=rtol energy_estimate=\S+ ", message)


def _square_system(n, scheme):
    """The arguments that `assemble_and_solve` passes to
    `sparse_spd_solve` on the smooth problem and the n x n square."""
    captured = []

    def capture(*args):
        captured.append(args)
        return sparse_spd_solve(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dpg_solver, "sparse_spd_solve", capture)
        dpg_solver.assemble_and_solve(make_unit_square(n), Formulation(scheme), smooth_problem())
    [args] = captured
    return args


def _shifted_fill(a, ids, permc_spec):
    """nnz(L+U) of a's principal submatrix on ids, its diagonal shifted
    as the solver shifts it, factored with the solver's options and
    the ordering permc_spec."""
    shifted = a[ids][:, ids].tocsc()
    shifted.setdiag(linsolve.shifted_diagonal(shifted.diagonal()))
    options = {**linsolve.SPLU_OPTIONS, "permc_spec": permc_spec}
    return scipy.sparse.linalg.splu(shifted, **options).nnz


def test_ordering_reduces_fill_on_dpg_system(caplog):
    # the scheme-2, p = 0 system on the 32x32 square: on each block the
    # solver factors, explicit zeros included, minimum degree on A + A^T
    # must beat COLAMD's fill on the same shifted block: 989,340 against
    # 1,646,034 on the v block, 325,392 against 448,254 on the tau
    # block.  (On the 8x8 square's v block, 706 unknowns, MMD gives
    # 41,882 and COLAMD 40,064)
    a, b, w, load, blocks = _square_system(32, 2)
    with caplog.at_level(logging.DEBUG, logger="bilap_dpg.linsolve"):
        sparse_spd_solve(a, b, w, load, blocks)
    [record] = [r for r in caplog.records if r.levelno == logging.DEBUG]
    fills = re.search(r"block_nnz\(L\+U\)=(\S+) ", record.getMessage()).group(1)
    fills = [int(f) for f in fills.split(",")]
    assert fills == [989_340, 325_392]
    for fill, ids in zip(fills, blocks):
        assert fill == _shifted_fill(a, ids, linsolve.SPLU_OPTIONS["permc_spec"])
        assert fill <= 0.8 * _shifted_fill(a, ids, "COLAMD")


@pytest.mark.parametrize("scheme, fills", [(1, (125_254, 249_244)), (2, (242_980, 475_704))])
def test_block_fill_is_below_the_whole_factors(scheme, fills, caplog):
    # the p = 0 system on the 16x16 square: the two block factors
    # together fill half of what A factored whole with the same options
    # and shift did, since û and (σ̂, corners) share no entry of A
    a, b, w, load, blocks = _square_system(16, scheme)
    with caplog.at_level(logging.DEBUG, logger="bilap_dpg.linsolve"):
        sparse_spd_solve(a, b, w, load, blocks)
    [record] = [r for r in caplog.records if r.levelno == logging.DEBUG]
    fill = int(re.search(r" nnz\(L\+U\)=(\d+) ", record.getMessage()).group(1))
    whole = _shifted_fill(a, np.arange(a.shape[0]), linsolve.SPLU_OPTIONS["permc_spec"])
    assert (fill, whole) == fills
    assert fill < 0.6 * whole


def test_fill_does_not_depend_on_rounding(caplog):
    # the same scheme-2 system on the 16x16 square and on a copy shifted
    # by (0.1, 0.3): the shift changes only the rounding of the element
    # kernels, so entries that vanish by symmetry come out as exact
    # zeros on one mesh and as roundoff on the other; the stored pattern,
    # and with it each block's ordering and fill, must not follow them
    # (pruning the zeros gave 624,208 against 446,404 when A was
    # factored whole)
    mesh = make_unit_square(16)
    shifted = Mesh(mesh.vertices + np.array([0.1, 0.3]), mesh.triangles)
    fills = []
    for m in (mesh, shifted):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bilap_dpg.linsolve"):
            dpg_solver.assemble_and_solve(m, Formulation(scheme=2), smooth_problem())
        [record] = [r for r in caplog.records if r.levelno == logging.DEBUG]
        sizes = re.search(
            r"nnz\(A\)=(\d+) nnz\(L\+U\)=(\d+) block_n=(\S+) block_nnz\(L\+U\)=(\S+) ",
            record.getMessage(),
        )
        fills.append(sizes.groups())
    assert fills[0] == fills[1]


def _graded_sector_system(monkeypatch, max_dofs):
    """The arguments of `sparse_spd_solve` on the last level of the
    scheme-2 adaptive sector study (Doerfler 0.5) to max_dofs."""
    systems = []

    def capture(*args):
        systems[:] = [args]
        return sparse_spd_solve(*args)

    with monkeypatch.context() as patch:
        patch.setattr(dpg_solver, "sparse_spd_solve", capture)
        prob = singular_problem()
        dpg_solver.adaptive_loop(prob.make_domain(), Formulation(scheme=2), prob, 0.5, max_dofs)
    [system] = systems
    return system


def _cgls_run(monkeypatch, system, **constants):
    """`sparse_spd_solve` on `system` with the linsolve module's
    attributes set to `constants`: what CGLS returned, and its
    preconditioner."""
    runs = []

    def recording_cgls(w, load, b, precond):
        out = _cgls(w, load, b, precond)
        runs.append((*out, precond))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(linsolve, "_cgls", recording_cgls)
        for name, value in constants.items():
            patch.setattr(linsolve, name, value)
        sparse_spd_solve(*system)
    [run] = runs
    return run


@pytest.mark.slow
def test_two_ulp_shift_takes_fewer_cgls_steps_on_a_graded_sector(monkeypatch):
    # the scheme-2 system of the adaptive sector's first level past
    # 10,000 dofs (n = 9,850 free unknowns): the block factors with two
    # ulps on their diagonals are closer to A than ones with the
    # diagonal times 1 + 1e-15 (5 to 10 ulps), which took 11 CGLS steps
    # where two ulps take 8.  Both meet CGLS's RTOL test
    system = _graded_sector_system(monkeypatch, 10_000)
    a, b, w, load, _ = system
    assert a.shape[0] == 9_850

    def steps(shift):
        x, iterations, stop, _, precond = _cgls_run(monkeypatch, system, shifted_diagonal=shift)
        g = w.rmatvec(load - w.matvec(x))
        gamma, gamma_0 = g @ precond(g), b @ precond(b)
        assert stop == "rtol"
        assert 0 <= gamma <= linsolve.RTOL**2 * gamma_0
        return iterations

    two_ulps = steps(linsolve.shifted_diagonal)
    reference = steps(lambda d: d * (1 + 1e-15))
    assert two_ulps < reference


@pytest.mark.slow
def test_energy_stop_meets_its_tolerance_in_fewer_steps_on_a_graded_sector(monkeypatch):
    # the last level of the sector study to 20,000 dofs (n = 18,613, the
    # final sector-s2-adaptive level): CGLS stops once the last
    # ENERGY_DELAY steps' decreases of |r|^2 sum to at most ENERGY_TOL^2
    # |r|^2, after 18 steps where the RTOL test alone takes 23.  Against
    # x* from a run to g^T M^-1 g <= 1e-30 of its start, with residual
    # eta, the returned x's energy error |W(x - x*)| is 6.8e-7 eta, at
    # most ENERGY_TOL eta
    system = _graded_sector_system(monkeypatch, 20_000)
    a, _, w, load, _ = system
    assert a.shape[0] == 18_613
    x, steps, stop, _, _ = _cgls_run(monkeypatch, system)
    _, rtol_steps, rtol_stop, _, _ = _cgls_run(monkeypatch, system, ENERGY_TOL=0.0)
    x_ref, _, _, _, _ = _cgls_run(monkeypatch, system, ENERGY_TOL=0.0, RTOL=1e-15)
    eta = np.linalg.norm(load - w.matvec(x_ref))
    assert (stop, rtol_stop) == ("energy", "rtol")
    assert linsolve.ENERGY_DELAY <= steps < rtol_steps
    assert np.linalg.norm(w.matvec(x - x_ref)) <= linsolve.ENERGY_TOL * eta


def test_exact_recovery_stops_by_the_rtol_test(caplog):
    # W^T W = tridiag(-1, 2, -1) on 20 unknowns, one block each (a
    # symmetric Gauss-Seidel sweep), and load = W x_true: the minimum
    # residual is zero, so |r|^2 is the energy error itself, and the
    # last ENERGY_DELAY steps' decreases of it never fall to
    # ENERGY_TOL^2 of it.  CGLS takes 17 steps, past ENERGY_DELAY, and
    # the RTOL test stops it at x_true
    n = 20
    w = difference_matrix(n + 1, n)
    x_true = np.random.default_rng(1).standard_normal(n)
    load = w @ x_true
    with caplog.at_level(logging.DEBUG, logger="bilap_dpg.linsolve"):
        x = sparse_spd_solve(
            scipy.sparse.csr_matrix(w.T @ w), w.T @ load, scipy.sparse.linalg.aslinearoperator(w),
            load, [np.array([i]) for i in range(n)],
        )
    [record] = caplog.records
    message = record.getMessage()
    assert int(re.search(r"cgls_iterations=(\d+) ", message).group(1)) >= linsolve.ENERGY_DELAY
    assert " stop=rtol " in message
    assert np.abs(x - x_true).max() <= 1e-12
