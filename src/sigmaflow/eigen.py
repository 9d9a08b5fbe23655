"""Nonlinear eigenvalue problem for sigma_k^{1/k} by the continuity method.

The equation solved is sigma_k^{1/k}(W(u)) - h e^u = rhs pointwise, with
W(u) the deformed Schouten expression assembled by the conformal module.
An auxiliary problem fixes (k, h); the continuation walks the right-hand
side from an f for which u identically delta_lo is an exact solution to
the constant lambda, warm-starting a damped Newton iteration. Each
Newton step solves on the broadcast of the slabs (conformal.slab) of its
data, u, h and the right-hand side: a line of nodes for zonal data. J
keeps fields constant along the other axes, so the direction is one too.
J is assembled there, dense on a line of nodes or one node and CSR
elsewhere (geometry.derivative_matrices): the chart's Hessian and
gradient matrices at that shape, built once per shape from its shift
matrices, combined with the conformal state's weights of d sigma_k(W),
scaled by sigma_k^{1/k-1}/k, minus h e^u. It solves with restarted GMRES
(the krylov module) under a two-level preconditioner. lambda* is then
the supremum of solvable lambda, located by bisection, and the
eigenfunction is recovered by the renormalization phi = u - max u. Every
lambda is solved by Newton on the target equation from the field at hand
(the guess at the lower end, the last solvable u at a midpoint), else by
the walk from its exact start (no field, no convergence, a failed check).

Admissibility (W(u) in the Gamma_k+ cone) is enforced on the initial
guess, on every accepted Newton iterate, and during line searches, where a
cone-violating candidate is treated as a failed step and the damping
halved. A linear solve that misses KRYLOV_RTOL is counted, not raised.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .conformal import ConformalState, admissible_state, slab
from .errors import (
    ConfigurationError,
    ContinuationFailureError,
    NonconvergenceError,
)
from .krylov import gmres

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
KRYLOV_RTOL = 1e-8
# Near lambda* the Jacobian tends to c Lap_h, whose near-null constants
# the coarse space of the preconditioner resolves: the lambda* searches
# of criterion 8 on 16^3 take at most 79 applies per solve (median 1), so
# one window of 100 holds a whole solve. The basis, restart + 1 system
# fields, is allocated once per solve and reused by its restarts.
KRYLOV_RESTART = 100
KRYLOV_MAX_RESTARTS = 2
# nodes per axis of one coarse-space aggregate
COARSE_BLOCK = 4
MIN_DAMPING = 2.0 ** -30
# continuation's t-step starts at T_STEP; a step halved below MIN_T_STEP,
# or max u below ESCAPE_FLOOR, means lambda is presumed >= lambda*
T_STEP = 0.25
MIN_T_STEP = 1e-4
ESCAPE_FLOOR = -50.0


@dataclass(frozen=True)
class AuxiliaryProblem:
    """sigma_k^{1/k}(W(u)) = h e^u + rhs on a background geometry, the
    right-hand side given per solve. h >= 0 may be a scalar or a field;
    it is kept as its slab (conformal.slab), as a state keeps u.
    """

    geometry: object
    k: int
    h: np.ndarray | float = 1.0

    def __post_init__(self):
        n = self.geometry.grid.ndim
        if not 1 <= self.k <= n:
            raise ConfigurationError(f"curvature order k={self.k} outside 1..{n}")
        _, h = slab(self.h, self.geometry.grid.shape)
        if not np.all(np.isfinite(h)) or np.any(h < 0.0):
            raise ConfigurationError("coefficient h must be finite and >= 0")
        object.__setattr__(self, "h", h)

    def h_field(self):
        return np.broadcast_to(self.h, self.geometry.grid.shape)

    @functools.cached_property
    def s0(self):
        """sigma_k^{1/k}(S0), of the state u = 0; computed once, shared."""
        base = self._state(np.zeros((1,) * self.geometry.grid.ndim))
        return base.sigma_w_table()[..., self.k] ** (1.0 / self.k)

    # --------------------------------------------------------- evaluation

    def _state(self, u):
        state = ConformalState(self.geometry, u, self.k)
        state.require_admissible()
        return state

    def _residual_of(self, state, rhs):
        # the system's shape: the broadcast of the slabs of u and h and rhs
        ek = state.sigma_w_table()[..., self.k]
        return ek ** (1.0 / self.k) - self.h * np.exp(state.u_slab) - rhs

    def residual(self, u, rhs):
        """Pointwise sigma_k^{1/k}(W(u)) - h e^u - rhs; u must be admissible."""
        return self._residual_of(self._state(u), rhs)

    def jacobian(self, u):
        """The Frechet derivative of residual at u over the flattened grid
        (C order), as a CSR array: the grid's storage in
        geometry.derivative_matrices."""
        return self._jacobian_of(self._state(u), self.geometry.grid.shape)

    def _jacobian_of(self, state, shape):
        # J = diag(p) d sigma_k(W) - diag(h e^u), p = sigma_k^{1/k-1} / k,
        # with d sigma_k(W) the chart's maps at shape (a slab holding the
        # state's) combined with its linearization weights, scaled by p.
        maps = self.geometry.derivative_matrices(shape)
        ek = state.sigma_w_table()[..., self.k]
        weights = state.linearization_weights()
        weights *= (ek ** (1.0 / self.k - 1.0)) / self.k
        zeroth = self.h * np.exp(state.u_slab)
        return maps.combine(
            np.broadcast_to(weights, (maps.count,) + shape).reshape(
                maps.count, -1), -np.broadcast_to(zeroth, shape).reshape(-1))


def _two_level(maps, jac):
    """x = M^{-1} y: an exact solve on the span of the aggregate
    indicators Z (the coarse matrix Z^T J Z inverted densely by
    numpy.linalg once per Newton step, a few dozen rows), then one Jacobi
    sweep with J's diagonal. An exactly singular coarse matrix raises
    NonconvergenceError, as a non-finite Newton direction does.

    Near lambda* J tends to c Lap_h, whose smooth low modes Jacobi alone
    cannot resolve; the piecewise constants of Z carry them (a coarse
    space in the manner of Nicolaides 1987). Z c is constant on each
    aggregate, so the sweep reads J Z c = (J Z) c, not J. maps, the
    storage J was combined in, forms J Z and Z^T J Z (coarse_products,
    through its coarse space of the shape, built once) and reads J's
    diagonal, so the algorithm is one for a CSR and a dense J.
    """
    agg, count, jz, coarse = maps.coarse_products(jac, COARSE_BLOCK)
    try:
        coarse_inv = np.linalg.inv(coarse)
    except np.linalg.LinAlgError as err:
        raise NonconvergenceError(
            "coarse matrix Z^T J Z is singular (singular linearization)",
            diagnostics={"coarse_size": count}) from err
    inv_diag = 1.0 / maps.diagonal_of(jac)

    def apply(y):
        c = coarse_inv @ np.bincount(agg, weights=y, minlength=count)
        return c[agg] + (y - jz @ c) * inv_diag

    return apply


def _merge(acc, part, solved=True):
    """Fold the counters held by the stats dict part into acc: on every
    solve linear_solves and linear_misses add up and worst_linear_residual
    is the larger; newton_iterations and krylov_iterations add up only
    when solved, for the solves behind a solvable verdict."""
    counts = ("linear_solves", "linear_misses")
    if solved:
        counts += ("newton_iterations", "krylov_iterations")
    for key in counts:
        if key in part:
            acc[key] = acc.get(key, 0) + part[key]
    worst = "worst_linear_residual"
    if worst in part:
        acc[worst] = max(acc.get(worst, 0.0), part[worst])


def _newton_direction(problem, state, res, stats):
    """Solve J d = -res on res's shape, a slab of the grid or the grid;
    returns d and the number of applies of J M^{-1}, and merges the
    solve's linear counters into stats."""
    jac = problem._jacobian_of(state, res.shape)
    precond = _two_level(problem.geometry.derivative_matrices(res.shape), jac)
    op = SimpleNamespace(shape=jac.shape, dtype=jac.dtype,
                         matvec=lambda y: jac @ precond(y))
    applies = [0]

    def count(_):
        applies[0] += 1

    b = -res.reshape(-1)
    # |b - J M^{-1} y| is |J d - b| for d = M^{-1} y
    y, info, residual = gmres(op, b, rtol=KRYLOV_RTOL,
                              restart=KRYLOV_RESTART,
                              maxiter=KRYLOV_MAX_RESTARTS, callback=count)
    _merge(stats, {"linear_solves": 1, "linear_misses": int(info != 0),
                   "worst_linear_residual":
                       residual / float(np.linalg.norm(b))})
    return precond(y).reshape(res.shape), applies[0]


def newton_solve(problem, rhs, guess, stats=None):
    """Damped Newton for residual(u, rhs) = 0 to NEWTON_TOL in at most
    NEWTON_MAX_ITER iterations, from an admissible guess; rhs is a
    scalar, a slab (geometry's _fit) or a grid field.

    Line search halves the step on residual max-norm increase or on a
    cone-violating candidate; a step that cannot make progress at minimal
    damping raises NonconvergenceError. Each iteration assembles the
    Jacobian J where u, h and rhs vary (_newton_direction) and solves
    J d = -r there by restarted GMRES (krylov.gmres) on J M^{-1}
    preconditioned from the right, d = M^{-1} y, with M^{-1} the two-level
    preconditioner of _two_level, whose coarse correction reads J Z. GMRES
    returns the residual of its last iterate, so an iteration costs one
    product by J per Krylov step and per cycle.

    stats, when given, gains newton_iterations, krylov_iterations (applies
    of J M^{-1} inside the Krylov steps) and residual_history on success,
    and on every linear solve, failed Newton attempts included,
    linear_solves, linear_misses (GMRES ended above KRYLOV_RTOL) and
    worst_linear_residual (max |J d + r| / |r| in the 2-norm).
    """
    geom = problem.geometry
    rhs = np.asarray(rhs, dtype=float)
    state = problem._state(np.asarray(guess, dtype=float))
    res = problem._residual_of(state, rhs)
    rnorm = float(np.max(np.abs(res)))
    history = [rnorm]
    krylov = 0
    stats = {} if stats is None else stats

    for iteration in range(NEWTON_MAX_ITER):
        if rnorm <= NEWTON_TOL:
            break
        direction, applies = _newton_direction(problem, state, res, stats)
        krylov += applies
        if not np.all(np.isfinite(direction)):
            raise NonconvergenceError(
                "Newton direction is non-finite (singular linearization)",
                diagnostics={"iteration": iteration, "residual_norm": rnorm})

        alpha = 1.0
        accepted = None
        while alpha >= MIN_DAMPING:
            with np.errstate(over="ignore", invalid="ignore"):
                trial = admissible_state(
                    geom, state.u_slab + alpha * direction, problem.k)
                if trial is not None:
                    trial_res = problem._residual_of(trial, rhs)
                    if (np.all(np.isfinite(trial_res))
                            and float(np.max(np.abs(trial_res))) < rnorm):
                        accepted = (trial, trial_res)
                        break
            alpha *= 0.5
        if accepted is None:
            raise NonconvergenceError(
                "Newton stalled: no residual decrease at minimal damping",
                diagnostics={"iteration": iteration, "residual_norm": rnorm,
                             "krylov_iterations": krylov})
        state, res = accepted
        rnorm = float(np.max(np.abs(res)))
        history.append(rnorm)

    if rnorm > NEWTON_TOL:
        raise NonconvergenceError(
            f"Newton did not reach tolerance {NEWTON_TOL:g} in "
            f"{NEWTON_MAX_ITER} iterations (residual {rnorm:.3g})",
            diagnostics={"residual_norm": rnorm, "history": history,
                         "krylov_iterations": krylov})
    _merge(stats, {"newton_iterations": len(history) - 1,
                   "krylov_iterations": krylov})
    stats["residual_history"] = history
    return state.u


def _path_bounds(problem, lam):
    """The maximum-principle bounds (delta_lo, delta_hi) that every
    solution on the continuation path to lam obeys."""
    if not lam > 0.0:
        raise ConfigurationError(f"continuation target lambda={lam} must be > 0")
    h_max, h_min = float(np.max(problem.h)), float(np.min(problem.h))
    if h_min <= 0.0:
        raise ConfigurationError(
            "continuation needs a strictly positive coefficient h")
    s_min, s_max = float(np.min(problem.s0)), float(np.max(problem.s0))
    if not s_min - lam > 0.0:
        raise ContinuationFailureError(
            f"cannot bracket the start: lambda={lam:.6g} is not below "
            f"min sigma_k^(1/k)(S0) = {s_min:.6g}",
            diagnostics={"lam": lam, "s_min": s_min})
    delta_lo = min(0.0, math.log((s_min - lam) / h_max)) - 1.0
    delta_hi = max(0.0, math.log((s_max - lam) / h_min)) + 1.0
    return delta_lo, delta_hi


def _check_solution(u, t, lam, bounds):
    """Raise unless u lies within the maximum-principle bounds (a
    NonconvergenceError) and max u is at or above ESCAPE_FLOOR (a
    ContinuationFailureError: lam presumed >= lambda*), read on u's slab."""
    delta_lo, delta_hi = bounds
    _, u = slab(u, u.shape)
    u_min, u_max = float(u.min()), float(u.max())
    slack = 1e-8 * (1.0 + abs(delta_lo) + abs(delta_hi))
    if u_min < delta_lo - slack or u_max > delta_hi + slack:
        raise NonconvergenceError(
            f"maximum principle bounds [{delta_lo:.6g}, {delta_hi:.6g}] "
            f"violated at t={t:.6g}",
            diagnostics={"t": t, "min_u": u_min, "max_u": u_max})
    if u_max < ESCAPE_FLOOR:
        raise ContinuationFailureError(
            f"solutions escaping (max u < {ESCAPE_FLOOR:g}); "
            "lambda presumed >= lambda*",
            diagnostics={"t": t, "max_u": u_max, "lam": lam})


def continuation_run(problem, lam, stats=None):
    """Walk the right-hand side from f to the constant lam; return the
    solution u at lam.

    The start value u identically delta_lo solves the t=0 problem exactly
    by construction of f = sigma_k^{1/k}(S0) - h e^{delta_lo}. The t-step
    starts at T_STEP, halves on Newton failure and doubles after two easy
    successes; an underflow below MIN_T_STEP means lam is presumed at or
    above lambda*. stats, when given, gains the counters of every
    newton_solve the walk runs, failed attempts and a failed walk included.
    """
    bounds = _path_bounds(problem, lam)
    delta_lo = bounds[0]
    f = problem.s0 - problem.h * math.exp(delta_lo)
    stats = {} if stats is None else stats
    start = np.full((1,) * problem.geometry.grid.ndim, delta_lo)
    u = newton_solve(problem, f, start, stats=stats)
    _check_solution(u, 0.0, lam, bounds)
    t = 0.0
    dt = T_STEP
    streak = 0
    while t < 1.0:
        t_try = min(1.0, t + dt)
        rhs = t_try * lam + (1.0 - t_try) * f
        before = stats.get("newton_iterations", 0)
        try:
            u_next = newton_solve(problem, rhs, u, stats=stats)
        except NonconvergenceError:
            dt *= 0.5
            if dt < MIN_T_STEP:
                raise ContinuationFailureError(
                    f"continuation step underflow at t={t:.6g} "
                    f"(lambda={lam:.6g} presumed >= lambda*)",
                    diagnostics={"t_reached": t, "lam": lam, "dt": dt})
            continue
        u = u_next
        t = t_try
        _check_solution(u, t, lam, bounds)
        if stats.get("newton_iterations", 0) - before <= 3:
            streak += 1
            if streak >= 2:
                dt = min(2.0 * dt, 0.5)
                streak = 0
        else:
            streak = 0
    return u


def _warm_solve(problem, lam, guess, stats):
    """Damped Newton on the target equation (rhs = lam) from guess.

    Returns the solution when Newton converges and the result passes the
    checks continuation_run applies at t = 1 (the maximum-principle bounds
    and the escape floor), else None; stats gains the solve's counters.
    """
    try:
        bounds = _path_bounds(problem, lam)
        u = newton_solve(problem, lam, guess, stats=stats)
        _check_solution(u, 1.0, lam, bounds)
    except NonconvergenceError:
        return None
    return u


def maclaurin_ceiling(geometry, k):
    """A-priori upper bound for lambda*: C(n,k)^{1/k} trace(S0) / n.

    The Maclaurin inequality bounds sigma_k^{1/k} by the first elementary
    mean; integrating the trace of W kills the Hessian and the gradient
    terms only lower it, leaving the mean of the background Schouten
    trace, which is the constant trace of schouten0.
    """
    n = geometry.grid.ndim
    trace = float(np.trace(geometry.schouten0))
    return math.comb(n, k) ** (1.0 / k) * trace / n


def _solve_lambda(problem, lam, warm_start, acc):
    """One lambda of the search: Newton from warm_start (_warm_solve),
    else, or when warm_start is None, continuation from its exact start.

    Returns (u, record): u is None when lam is unsolvable, and record is
    the record of lambda_star_search. acc gains the counters of every
    solve run for lam by _merge's rule: the Newton and Krylov counts are
    those of the route that gave a solvable verdict.
    """
    warm, walk = {}, {}
    u = None if warm_start is None else _warm_solve(problem, lam,
                                                    warm_start, warm)
    record = {"lam": lam, "solvable": True, "route": "warm", "error": None,
              "message": None}
    if u is None:
        record["route"] = "continuation"
        try:
            u = continuation_run(problem, lam, stats=walk)
        except ContinuationFailureError as failure:
            record.update(solvable=False, error=type(failure).__name__,
                          message=str(failure))
    _merge(acc, warm, solved=record["route"] == "warm")
    _merge(acc, walk, solved=record["solvable"])
    for key in ("newton_iterations", "linear_solves"):
        record[key] = warm.get(key, 0) + walk.get(key, 0)
    return u, record


def lambda_star_search(problem, tolerance, guess=None, stats=None):
    """Bisect lambda between solvable and unsolvable; return (phi, lambda*).

    phi = u - max u from the largest solvable lambda found, formed on u's
    slab and broadcast (read-only) over the grid; lambda* is the final
    bracket midpoint. The lower end starts at a tenth of the worst
    constant-state value (guaranteed solvable), the upper end at the
    Maclaurin ceiling (at or above lambda*, hence unsolvable).

    One rule (_solve_lambda) solves every lambda: damped Newton on the
    target equation from the field at hand (route "warm"), which is guess
    for the lower end (the CLI passes its seeded zonal line unless
    amplitude=0) and the last solvable u for each midpoint. When that
    fails, its result fails the checks of continuation_run, or no guess
    is given, continuation_run walks from its exact start (route
    "continuation"), and its outcome is the verdict.

    stats, when given, gains the bracket, the ceiling, the bisection count,
    the counters of every solve by _merge's rule, `lower_end`, the record
    of lam_lo, and `midpoints`, one record per bisection midpoint. A
    record holds lam, solvable, route, newton_iterations (of the Newton
    solves that converged), linear_solves (one per Newton iteration run,
    failed attempts included), and for an unsolvable lambda the error
    class and message.
    """
    if not tolerance > 0.0:
        raise ConfigurationError(f"tolerance={tolerance} must be > 0")
    lam_lo = 0.1 * float(np.min(problem.s0))
    lam_hi = maclaurin_ceiling(problem.geometry, problem.k)
    if not lam_hi > lam_lo:
        raise ConfigurationError(
            f"degenerate bracket: ceiling {lam_hi:.6g} <= start {lam_lo:.6g}")

    acc = {"newton_iterations": 0, "krylov_iterations": 0,
           "linear_solves": 0, "linear_misses": 0,
           "worst_linear_residual": 0.0}
    u_best, lower_end = _solve_lambda(problem, lam_lo, guess, acc)
    if u_best is None:
        raise ConfigurationError(
            f"no solvable lambda found (failed at {lam_lo:.6g}: "
            f"{lower_end['message']}); "
            "the chart does not admit the k-th cone problem")
    lo, hi = lam_lo, lam_hi
    midpoints = []
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        u, record = _solve_lambda(problem, mid, u_best, acc)
        if u is None:
            hi = mid
        else:
            lo, u_best = mid, u
        midpoints.append(record)

    _, u_slab = slab(u_best, u_best.shape)
    phi = np.broadcast_to(u_slab - float(u_slab.max()), u_best.shape)
    lambda_star = 0.5 * (lo + hi)
    if stats is not None:
        stats.update(acc, bisections=len(midpoints), ceiling=lam_hi,
                     bracket=(lo, hi), lambda_solvable=lo,
                     lower_end=lower_end, midpoints=midpoints)
    return phi, lambda_star
