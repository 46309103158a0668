import contextlib
import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from oracles import monomial_local_systems, sparse_normal_matrix, uncondensed_ids

from bilap_dpg import dpg_solver, linsolve
from bilap_dpg.dpg_solver import _global_columns, _trace_spaces
from bilap_dpg.forms import Formulation, build_local_systems
from bilap_dpg.linsolve import (
    LinearSolveError,
    NotPositiveDefiniteError,
    _cgls,
    sparse_spd_solve,
)
from bilap_dpg.mesh import Mesh, make_sector_domain, make_unit_square, refine_nvb
from bilap_dpg.problems import singular_problem, smooth_problem


def lstsq_solve(w, load):
    """`sparse_spd_solve` on a dense W: A = W^T W and b = W^T load."""
    w = np.asarray(w)
    return sparse_spd_solve(
        scipy.sparse.csr_matrix(w.T @ w), w.T @ load,
        scipy.sparse.linalg.aslinearoperator(w), load,
    )


def any_w(a):
    """A W for input that is rejected before W is used."""
    return scipy.sparse.linalg.aslinearoperator(np.eye(a.shape[0])), np.ones(a.shape[0])


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
        sparse_spd_solve(a, e1, w, e1)


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
            scipy.sparse.csr_matrix(a), w.T @ load, scipy.sparse.linalg.aslinearoperator(w), load
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


def test_one_factorization_per_solve(monkeypatch):
    # the rank-2 Gram matrix of the columns of [[1, 2, 3], [4, 5, 6]],
    # whose unshifted factor ends on a roundoff-negative pivot: one
    # factorization of A as assembled with each diagonal entry d raised
    # to exactly d + 2 spacing(d), read from A's own arrays, and CGLS on W
    w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    splu = scipy.sparse.linalg.splu
    inputs = []

    def recording_splu(m, *args, **kwargs):
        inputs.append((m, m.toarray(), args, kwargs))
        return splu(m, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording_splu)
    load = np.array([1.0, -2.0])
    a = scipy.sparse.csr_matrix(w.T @ w)
    x = sparse_spd_solve(a, w.T @ load, scipy.sparse.linalg.aslinearoperator(w), load)
    assert np.linalg.norm(load - w @ x) <= 1e-12
    [(m, factored, args, kwargs)] = inputs
    # four-column panels, relax at SuperLU's default, from the one
    # definition the tests' own factorizations use
    assert args == () and kwargs == linsolve.SPLU_OPTIONS
    assert kwargs["panel_size"] == 4 and "relax" not in kwargs
    assert np.shares_memory(m.data, a.data)
    dense = w.T @ w
    d = np.diag(dense).copy()
    np.fill_diagonal(dense, d + 2 * np.spacing(d))
    assert np.array_equal(factored, dense)
    assert np.array_equal(np.diag(factored), linsolve.shifted_diagonal(d))


def test_preconditioner_matches_the_jacobi_scaled_factor(monkeypatch):
    # the scheme-2 system of the sector with its corner elements bisected
    # twice: applying the factor of A with its diagonal shifted, A_s,
    # must agree with the factor of A_s scaled by its own diagonal D_s,
    # D_s^-1/2 A_s D_s^-1/2, applied as D_s^-1/2 (.) D_s^-1/2, since
    # forced diagonal pivots never compare magnitudes.  Both are accurate
    # only to roundoff over the smallest pivot ratio, so six such
    # bisections (h_min = 2^-5) part them by 1e-7
    mesh = make_sector_domain()
    for _ in range(2):
        corner = np.abs(mesh.triangle_coords()).sum(axis=2).min(axis=1) == 0
        mesh = refine_nvb(mesh, np.flatnonzero(corner))
    captured = []

    def capture(w, load, b, precond):
        captured.append(precond)
        return _cgls(w, load, b, precond)

    solve = dpg_solver.sparse_spd_solve

    def capture_a(a, *args):
        captured.append(a)
        return solve(a, *args)

    monkeypatch.setattr(linsolve, "_cgls", capture)
    monkeypatch.setattr(dpg_solver, "sparse_spd_solve", capture_a)
    dpg_solver.assemble_and_solve(mesh, Formulation(scheme=2), singular_problem())
    [a, precond] = captured
    scaled = a.tocsc()
    scaled.setdiag(linsolve.shifted_diagonal(scaled.diagonal()))
    s = 1.0 / np.sqrt(scaled.diagonal())
    scaled.data = s[scaled.indices] * scaled.data * np.repeat(s, np.diff(scaled.indptr))
    lu_j = scipy.sparse.linalg.splu(scaled, **linsolve.SPLU_OPTIONS)
    rng = np.random.default_rng(3)
    for g in rng.standard_normal((5, a.shape[0])):
        expected = s * lu_j.solve(s * g)
        assert np.linalg.norm(precond(g) - expected) <= 1e-10 * np.linalg.norm(expected)


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
        x, iterations = _cgls(w, load, w.rmatvec(load), lambda g: g)
    assert iterations == 2
    g, g_0 = w.rmatvec(load - w.matvec(x)), w.rmatvec(load)
    relative = np.linalg.norm(g) / np.linalg.norm(g_0)
    assert 1e-12 < relative < 1.0
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "cap of 2 iterations" in record.getMessage()
    logged = float(re.search(r"normal residual (\S+)", record.getMessage()).group(1))
    assert logged == pytest.approx(relative, rel=1e-3)


def _traced_peak(fn):
    """Peak bytes traced by tracemalloc while `fn` runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_solve_holds_no_copy_of_a(monkeypatch):
    # the scheme-2, p = 0 system on the 16x16 square (3,877 dofs):
    # tracemalloc sees none of SuperLU's own memory, so the factorization
    # alone traces 2.6 KB.  SuperLU reads A's own arrays, shifted in
    # place, so what the solve adds is the W products' gathered kernel
    # slices (0.71 MB for one product) and vectors: 0.96 MB, under the
    # 1.14 MB of one copy of A, which any copy alive at any time would
    # reach.  Factoring a shifted CSC copy measured 1.30 MB; reading U's
    # diagonal converted both factors to CSC, 5.8 MB here
    captured = []

    def capture(a, b, *args):
        captured.append((a, b, *args))
        return sparse_spd_solve(a, b, *args)

    monkeypatch.setattr(dpg_solver, "sparse_spd_solve", capture)
    dpg_solver.assemble_and_solve(make_unit_square(16), Formulation(scheme=2), smooth_problem())
    [(a, b, w, load)] = captured
    copy = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    shifted = a.tocsc()
    shifted.setdiag(linsolve.shifted_diagonal(shifted.diagonal()))

    def factor_alone():
        scipy.sparse.linalg.splu(shifted, **linsolve.SPLU_OPTIONS)

    excess = _traced_peak(lambda: sparse_spd_solve(a, b, w, load)) - _traced_peak(factor_alone)
    assert excess < copy


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
    # the shift is written onto A's own diagonal and taken off again,
    # on return and after every raise that follows it: A keeps its
    # arrays and their bits
    a, w, load = _gram_case()
    if patch:
        monkeypatch.setattr(*patch)
    if nan_load:
        load[1] = np.nan
    arrays = (a.data, a.indices, a.indptr)
    before = [v.copy() for v in arrays]
    expected = pytest.raises(LinearSolveError, match=raises) if raises else contextlib.nullcontext()
    with expected:
        sparse_spd_solve(a, w.T @ load, scipy.sparse.linalg.aslinearoperator(w), load)
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
            sparse_spd_solve(a, w.T @ load, scipy.sparse.linalg.aslinearoperator(w), load)
    assert a.nnz == 1
    assert all(np.array_equal(v, u) for v, u in zip((a.data, a.indices, a.indptr), before))


def test_duplicate_and_unsorted_entries_are_summed_first():
    # A in CSR with its rows' entries reversed and its first diagonal
    # entry split in two: splu sums and sorts its input in place, which
    # on A's own arrays would move entries from under the diagonal
    # offsets the shift is taken off at.  A is summed first, so it comes
    # back as the same matrix in canonical form
    a, w, load = _gram_case()
    dense = a.toarray()
    rows = [list(zip(a.indices[s:e], a.data[s:e]))[::-1] for s, e in zip(a.indptr, a.indptr[1:])]
    (j, v) = rows[0][-1]
    rows[0][-1:] = [(j, v / 2), (j, v - v / 2)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    cols, data = zip(*[e for r in rows for e in r])
    a = scipy.sparse.csr_matrix((np.array(data), np.array(cols), indptr), shape=a.shape)
    assert not a.has_canonical_format
    x = sparse_spd_solve(a, w.T @ load, scipy.sparse.linalg.aslinearoperator(w), load)
    assert np.allclose(x, np.linalg.lstsq(w, load, rcond=None)[0], atol=1e-10)
    assert a.has_canonical_format
    assert np.array_equal(a.toarray(), dense)


def test_solve_logs_one_debug_record(caplog):
    # A = diag(1, 2, 4), [[2, 1], [1, 2]] and [[4, 1, 1], [1, 1, 0], [1, 0, 1]];
    # A z and W^T W z round apart on the last one (gap 1.8e-16)
    cases = [
        (np.diag(np.sqrt([1.0, 2.0, 4.0])),
         ("n=3", "nnz(A)=3", "nnz(L+U)=", "cgls_iterations=1")),
        (np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), ("n=2", "nnz(A)=4")),
        (np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
         ("n=3", "nnz(A)=7")),
    ]
    for w, fields in cases:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="bilap_dpg.linsolve"):
            lstsq_solve(w, np.ones(w.shape[0]))
        [record] = caplog.records
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        for field in fields:
            assert field in message
        assert " shift_ulps=2 " in message
        assert float(re.search(r"probe_gap=(\S+) ", message).group(1)) <= 1e-15


def test_ordering_reduces_fill_on_dpg_system(caplog):
    # the uncondensed scheme-2, p = 0 system on the 8x8 square, u
    # included and numbered in front of the solver's free unknowns,
    # built from the oracle's element blocks with every block
    # coupling stored as the solver's assembly stores them: minimum
    # degree on A + A^T must beat COLAMD's fill on the same shifted
    # matrix, explicit zeros included.  (On the system the solver gets
    # now, with u condensed out, MMD gives 85,318 and COLAMD 83,120.)
    mesh, prob, form = make_unit_square(8), smooth_problem(), Formulation(scheme=2)
    loc = build_local_systems(mesh, form, prob.f)
    cols, _, n = _global_columns(mesh, form, _trace_spaces(mesh, prob))
    w, _ = monomial_local_systems(mesh, 2, 0, form.test_degree, prob.f)
    block_cols = (loc.v_cols, np.arange(loc.tau_cols[-1] + 1))
    a, w_free = sparse_normal_matrix(w, uncondensed_ids(cols, n, form.field_dim), block_cols)
    load = w_free @ np.ones(a.shape[0])
    with caplog.at_level(logging.DEBUG, logger="bilap_dpg.linsolve"):
        sparse_spd_solve(a, w_free.T @ load, scipy.sparse.linalg.aslinearoperator(w_free), load)
    [record] = [r for r in caplog.records if r.levelno == logging.DEBUG]
    fill = int(re.search(r"nnz\(L\+U\)=(\d+)", record.getMessage()).group(1))
    assert fill == 68_320  # as when the solver assembled this system itself

    shifted = a.tocsc()
    shifted.setdiag(linsolve.shifted_diagonal(shifted.diagonal()))
    colamd = scipy.sparse.linalg.splu(shifted, **{**linsolve.SPLU_OPTIONS, "permc_spec": "COLAMD"})
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


@pytest.mark.slow
def test_two_ulp_shift_takes_fewer_cgls_steps_on_a_graded_sector(monkeypatch):
    # the scheme-2 system of the adaptive sector's first level past
    # 10,000 dofs (n = 9,850 free unknowns): the factor of A with two
    # ulps on its diagonal is closer to A than one with the diagonal
    # times 1 + 1e-15 (5 to 10 ulps), which took 12 CGLS steps where
    # two ulps take 8.  Both meet CGLS's stopping test
    systems = []

    def capture(a, b, w, load):
        systems[:] = [(a, b, w, load)]
        return sparse_spd_solve(a, b, w, load)

    monkeypatch.setattr(dpg_solver, "sparse_spd_solve", capture)
    prob = singular_problem()
    dpg_solver.adaptive_loop(prob.make_domain(), Formulation(scheme=2), prob, 0.5, 10_000)
    [(a, b, w, load)] = systems
    assert a.shape[0] == 9_850

    def cgls_run(shift):
        runs = []

        def recording_cgls(w, load, b, precond):
            x, iterations = _cgls(w, load, b, precond)
            runs.append((x, iterations, precond))
            return x, iterations

        with monkeypatch.context() as m:
            m.setattr(linsolve, "_cgls", recording_cgls)
            m.setattr(linsolve, "shifted_diagonal", shift)
            sparse_spd_solve(a, b, w, load)
        [(x, iterations, precond)] = runs
        g = w.rmatvec(load - w.matvec(x))
        gamma, gamma_0 = g @ precond(g), b @ precond(b)
        assert iterations < linsolve.MAXITER
        assert 0 <= gamma <= linsolve.RTOL**2 * gamma_0
        return iterations

    two_ulps = cgls_run(linsolve.shifted_diagonal)
    reference = cgls_run(lambda d: d * (1 + 1e-15))
    assert two_ulps < reference
