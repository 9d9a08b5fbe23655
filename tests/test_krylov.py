"""Restarted GMRES on its own, against a sparse direct solve.

The test matrix is a 2-D convection-diffusion operator with a strong
upwind term: nonsymmetric, well conditioned enough for a direct solve to
be an oracle, and slow enough for GMRES that a short restart window is
exhausted before convergence.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, spsolve

from sigmaflow.krylov import gmres


def convection_diffusion(m=20, wind=30.0):
    h = 1.0 / (m + 1)
    lap = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m)) / h ** 2
    grad = sparse.diags([-1.0, 1.0], [-1, 0], shape=(m, m)) / h
    eye = sparse.identity(m)
    one = lap + wind * grad
    return sparse.csr_array(sparse.kron(eye, one) + sparse.kron(one, eye))


class Counted:
    """A matvec operator that counts its applies."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.applies = 0

    def matvec(self, x):
        self.applies += 1
        return self.matrix @ x


def rhs(size, seed=0):
    return np.random.default_rng(seed).standard_normal(size)


def test_restarted_solve_matches_direct_solve():
    a = convection_diffusion()
    b = rhs(a.shape[0])
    estimates = []
    x, info, residual = gmres(LinearOperator(a.shape, matvec=lambda v: a @ v),
                              b, rtol=1e-10, restart=15, maxiter=200,
                              callback=estimates.append)
    exact = spsolve(a.tocsc(), b)
    assert info == 0
    assert len(estimates) > 15  # at least one restart was needed
    assert residual <= 1e-10 * np.linalg.norm(b)
    assert residual == np.linalg.norm(b - a @ x)
    assert np.max(np.abs(x - exact)) <= 1e-7 * np.max(np.abs(exact))


def test_callback_runs_once_per_inner_iteration():
    # every inner iteration applies A once; each cycle adds one product
    # for its residual
    a = Counted(convection_diffusion())
    estimates = []
    gmres(a, rhs(a.matrix.shape[0], 1), rtol=1e-14, restart=7, maxiter=3,
          callback=estimates.append)
    assert len(estimates) == 21
    assert a.applies == 21 + 3
    assert all(later <= earlier for earlier, later in
               zip(estimates[:7], estimates[1:7]))


def test_restart_cap_reports_failure_with_true_residual():
    a = convection_diffusion()
    b = rhs(a.shape[0], 2)
    x, info, residual = gmres(Counted(a), b, rtol=1e-12, restart=5,
                              maxiter=4)
    assert info == 4
    true = np.linalg.norm(b - a @ x)
    assert residual == true
    assert true > 1e-12 * np.linalg.norm(b)
    assert true < np.linalg.norm(b)


def test_zero_right_hand_side():
    a = Counted(convection_diffusion())
    calls = []
    x, info, residual = gmres(a, np.zeros(a.matrix.shape[0]), rtol=1e-8,
                              restart=10, maxiter=2, callback=calls.append)
    assert info == 0 and residual == 0.0
    assert not np.any(x)
    assert a.applies == 0 and not calls


def test_invariant_subspace_ends_the_cycle_exactly():
    # b is an eigenvector: the first direction spans an invariant subspace
    a = Counted(sparse.diags(np.arange(1.0, 41.0)).tocsr())
    b = np.zeros(40)
    b[6] = 3.0
    x, info, residual = gmres(a, b, rtol=1e-14, restart=10, maxiter=2)
    assert info == 0 and a.applies == 2
    assert np.max(np.abs(x - b / 7.0)) <= 1e-15
