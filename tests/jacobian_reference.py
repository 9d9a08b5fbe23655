"""The matrix-free Frechet derivative and the J-based two-level
preconditioner, as oracles for eigen's assembled Jacobian and its J Z
coarse correction.

frechet_apply applies the derivative through the stencils, forming
dW(rho) from rho's Hessian and gradient; the package combines the chart's
derivative matrices, built from shift matrices apart from the stencil
code, with the state's linearization weights, so the two share no formula
for dW.

two_level applies the coarse correction through J itself: the coarse
solution Z c is formed on the grid and multiplied by J. The package
multiplies c by the count-column matrix J Z instead, which is the same
operator up to rounding.
"""

import math

import numpy as np
import scipy.linalg

from sigmaflow import fieldalg
from sigmaflow.conformal import ConformalState


def frechet_apply(problem, u, rho):
    """Directional derivative of problem.residual at u in direction rho:
    (1/k) sigma_k^{1/k-1} <T_{k-1}(W), dW(rho)> - h e^u rho with
    dW = Hess rho + du (x) drho + drho (x) du - <du, drho> g0; u must be
    admissible."""
    geom = problem.geometry
    k = problem.k
    n = geom.grid.ndim
    state = ConformalState(geom, u, k)
    state.require_admissible()
    rho = np.asarray(rho, dtype=float)
    ek = state.sigma_w_table()[..., k]
    t_field = state.newton_components()
    prefac = (ek ** (1.0 / k - 1.0)) / k
    grad_u = state.frame_gradient()
    zeroth = problem.h_field() * np.exp(state.u)
    hess, grad_r, _ = geom.frame_derivatives(rho)
    dot = grad_u[0] * grad_r[0]
    for a in range(1, n):
        dot = dot + grad_u[a] * grad_r[a]
    inner = 0.0
    for (a, b), t_ab, h_ab in zip(fieldalg.pairs(n), t_field, hess):
        dw = h_ab + grad_u[a] * grad_r[b] + grad_r[a] * grad_u[b]
        inner = inner + (t_ab * (dw - dot) if a == b else 2.0 * t_ab * dw)
    return prefac * inner - zeroth * rho


def aggregates(grid, block):
    """Coarse-space aggregate of every node (flattened), block nodes per
    axis, and the number of aggregates."""
    counts = [-(-size // block) for size in grid.shape]
    index = np.zeros((1,) * grid.ndim, dtype=np.intp)
    for axis, (size, count) in enumerate(zip(grid.shape, counts)):
        index = index * count + grid.axis_vector(
            axis, np.arange(size) // block).astype(np.intp)
    return np.broadcast_to(index, grid.shape).reshape(-1), math.prod(counts)


def two_level(grid, jac, block):
    """x = M^{-1} y: an exact solve on the span of the aggregate
    indicators Z, Z^T J Z summed from J's pattern, then one Jacobi sweep
    on y - J Z c with J's diagonal."""
    agg, count = aggregates(grid, block)
    entry = np.repeat(agg * count, np.diff(jac.indptr)) + agg[jac.indices]
    coarse = np.bincount(entry, weights=jac.data,
                         minlength=count * count).reshape(count, count)
    lu = scipy.linalg.lu_factor(coarse)
    inv_diag = 1.0 / jac.diagonal()

    def apply(y):
        x = scipy.linalg.lu_solve(lu, np.bincount(agg, weights=y,
                                                  minlength=count))[agg]
        x += (y - jac @ x) * inv_diag
        return x

    return apply
