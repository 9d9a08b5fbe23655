"""Restarted GMRES (Saad and Schultz 1986) for the Newton steps of eigen.

One basis of restart + 1 vectors is allocated per call and reused by every
cycle. Each new direction is orthogonalized by classical Gram-Schmidt
with one reorthogonalization pass (Giraud, Langou and Rozloznik 2005): two
matrix-vector products against the basis per pass instead of one small
product per basis vector, which keeps the number of numpy calls per inner
iteration fixed. The least-squares residual of the Hessenberg problem is
tracked by Givens rotations in scalar arithmetic. A cycle ends on that
estimate and solves the triangular system of its rotated Hessenberg
matrix with numpy.linalg, so the module needs numpy alone. The residual
b - A x is then formed with one product by A and is what decides
convergence, seeds the next cycle and is returned.
"""

from __future__ import annotations

import math

import numpy as np

EPS = np.finfo(float).eps


def gmres(A, b, rtol=1e-5, restart=20, maxiter=1, callback=None):
    """Solve A x = b from x = 0 by GMRES(restart).

    A needs only a matvec method that returns a new float array to work in.
    Stops once |b - A x| <= rtol |b| (2-norms) or after maxiter cycles.
    callback, when given, is called once per inner iteration with the
    estimated relative residual. Returns (x, info, residual): info is 0 on
    convergence and maxiter otherwise, residual the 2-norm of b - A x at
    the returned x.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0, 0.0
    target = rtol * bnorm
    m = min(restart, b.size)
    basis = np.empty((m + 1, b.size))
    r, rnorm = b, bnorm
    for _ in range(maxiter):
        hess = np.zeros((m, m))
        rotations = []
        g = [rnorm]
        size = 0
        np.multiply(r, 1.0 / rnorm, out=basis[0])
        for j in range(m):
            w = A.matvec(basis[j])
            scale = float(np.linalg.norm(w))
            v = basis[:j + 1]
            h = v @ w
            w -= h @ v
            c = v @ w
            w -= c @ v
            h += c
            hnorm = float(np.linalg.norm(w))
            if hnorm <= EPS * scale:
                hnorm = 0.0  # A maps the basis into its own span
            col = h.tolist()
            col.append(hnorm)
            for i, (cs, sn) in enumerate(rotations):
                col[i], col[i + 1] = (cs * col[i] + sn * col[i + 1],
                                      cs * col[i + 1] - sn * col[i])
            diag = math.hypot(col[j], hnorm)
            if diag > 0.0:  # else the column is singular: solve without it
                cs, sn = col[j] / diag, hnorm / diag
                rotations.append((cs, sn))
                col[j] = diag
                hess[:j + 1, j] = col[:j + 1]
                g.append(-sn * g[j])
                g[j] *= cs
                size = j + 1
            if callback is not None:
                callback(abs(g[size]) / bnorm)
            if abs(g[size]) <= target or hnorm == 0.0:
                break
            np.multiply(w, 1.0 / hnorm, out=basis[size])
        # hess[:size, :size] is upper triangular with a positive diagonal
        # (singular columns are left out), so LAPACK's pivoted LU inside
        # np.linalg.solve swaps no rows and is back substitution
        y = np.linalg.solve(hess[:size, :size], g[:size])
        x += y @ basis[:size]
        r = b - A.matvec(x)
        rnorm = float(np.linalg.norm(r))
        if rnorm <= target:
            return x, 0, rnorm
    return x, maxiter, rnorm
