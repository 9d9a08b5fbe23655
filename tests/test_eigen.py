"""Eigen-module checks: residual, Frechet derivative, Newton, continuation.

Oracle strategy: on round charts the background Schouten tensor is half the
identity, so constants give closed forms for everything: the residual of
u = 0 is sigma_k^{1/k}(S0) - h - rhs with sigma_k^{1/k}(S0) equal to 3/2,
sqrt(3)/2, 1/2 for k = 1, 2, 3, the continuation target u = log(s - lam)
is exact, and the Maclaurin ceiling coincides with lambda*. The Frechet
derivative is checked against a symmetric difference quotient, and the
assembled Jacobian against the matrix-free derivative. Gates sit a few
orders above measured values.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import jacobian_reference as ref
from sigmaflow import cli, eigen
from sigmaflow.eigen import (
    AuxiliaryProblem,
    continuation_run,
    lambda_star_search,
    maclaurin_ceiling,
    newton_solve,
)
from sigmaflow.errors import (
    ConeViolationError,
    ConfigurationError,
    ContinuationFailureError,
    NonconvergenceError,
)
from sigmaflow.geometry import (
    build_hopf_product,
    build_round_sphere,
    build_synthetic,
)

S_OF_K = {1: 1.5, 2: math.sqrt(3.0) / 2.0, 3: 0.5}


def zonal(geom, fn):
    th = geom.grid.axis_vector(0, geom.grid.coordinates(0))
    return np.broadcast_to(fn(th), geom.grid.shape).copy()


def constant(geom, c):
    return np.full(geom.grid.shape, float(c))


# -------------------------------------------------------------- residual


def test_residual_constant_closed_form():
    geom = build_round_sphere(3, 16)
    zero = constant(geom, 0.0)
    for k in (1, 2, 3):
        prob = AuxiliaryProblem(geom, k)
        res = prob.residual(zero, zero)
        expected = S_OF_K[k] - 1.0
        assert np.max(np.abs(res - expected)) <= 1e-15


def test_residual_vanishes_at_exact_solution():
    # rhs chosen so u = 0 solves the equation; holds bitwise on both
    # stencil orders because constants difference to exact zero
    for fd_order in (2, 4):
        geom = build_round_sphere(3, 16, fd_order=fd_order)
        prob = AuxiliaryProblem(geom, 2)
        rhs = constant(geom, S_OF_K[2] - 1.0)
        assert np.max(np.abs(prob.residual(constant(geom, 0.0), rhs))) == 0.0


def test_residual_shift_enters_only_through_exponential():
    # W(u) is shift invariant, so residual(u + c) - residual(u) must equal
    # -h (e^{u+c} - e^u) up to stencil roundoff on the curvature term
    geom = build_round_sphere(3, 16)
    prob = AuxiliaryProblem(geom, 2)
    u = zonal(geom, lambda t: 0.08 * np.cos(t) + 0.05 * np.cos(2.0 * t))
    rhs = constant(geom, 0.0)
    c = 0.37
    got = prob.residual(u + c, rhs) - prob.residual(u, rhs)
    pred = -(np.exp(u + c) - np.exp(u))
    assert np.max(np.abs(got - pred)) <= 1e-10 * np.max(np.abs(pred))


# ---------------------------------------------------- Frechet derivative


def test_linearize_kills_constants_up_to_zeroth_term():
    # at u = 0 the Hessian part annihilates rho = 1 exactly, leaving -h e^u
    geom = build_round_sphere(3, 16)
    for k in (1, 2, 3):
        prob = AuxiliaryProblem(geom, k)
        out = ref.frechet_apply(prob, constant(geom, 0.0),
                                constant(geom, 1.0))
        assert np.max(np.abs(out + 1.0)) <= 1e-15


def test_linearize_matches_difference_quotient():
    geom = build_round_sphere(3, 16)
    prob = AuxiliaryProblem(geom, 2)
    u = zonal(geom, lambda t: 0.08 * np.cos(t) + 0.05 * np.cos(2.0 * t))
    rho = zonal(geom, lambda t: 0.3 * np.cos(t) + 0.2)
    rhs = constant(geom, 0.0)
    eps = 1e-5
    lin = ref.frechet_apply(prob, u, rho)
    fd = (prob.residual(u + eps * rho, rhs)
          - prob.residual(u - eps * rho, rhs)) / (2.0 * eps)
    # measured 2.3e-11 relative; dominated by the eps^2 truncation term
    assert np.max(np.abs(lin - fd)) <= 1e-8 * np.max(np.abs(lin))


@functools.lru_cache(maxsize=None)
def jacobian_chart(name, fd_order):
    if name == "round_sphere":
        return build_round_sphere(3, 16, fd_order=fd_order)
    return build_hopf_product(3, 1.0, 16, fd_order=fd_order)


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("name", ("round_sphere", "hopf_product"))
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_assembled_jacobian_matches_linearize_apply(name, fd_order, seed):
    # J is assembled from the chart's Hessian and gradient matrices with
    # pointwise weights; applied to any rho it must agree with the
    # matrix-free derivative to rounding (measured 4e-16). u is a random
    # combination of first harmonics (x_0, x_2 on S^3; the circle and the
    # S^2 factor on S^1 x S^2), small enough to stay in the cone; k = 2 on
    # the sphere and k = 1 on the product, whose background is outside
    # Gamma_2+.
    geom = jacobian_chart(name, fd_order)
    rng = np.random.default_rng(seed)
    t = [geom.grid.axis_vector(a, geom.grid.coordinates(a)) for a in range(3)]
    if name == "round_sphere":
        k = 2
        modes = [np.cos(t[0]), np.sin(t[0]) * np.sin(t[1]) * np.cos(t[2])]
    else:
        k = 1
        modes = [np.cos(t[0]), np.cos(t[1]), np.sin(t[1]) * np.sin(t[2])]
    c = rng.uniform(-0.1, 0.1, size=len(modes))
    u = np.broadcast_to(sum(ci * m for ci, m in zip(c, modes)) - 0.5,
                        geom.grid.shape)
    rho = rng.standard_normal(geom.grid.shape)
    prob = AuxiliaryProblem(geom, k)
    expected = ref.frechet_apply(prob, u, rho).reshape(-1)
    got = prob.jacobian(u) @ rho.reshape(-1)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


# ------------------------------------------- two-level preconditioner


def admissible_jacobian(name):
    """J at a fixed admissible non-constant state: k = 2 on S^3, k = 1 on
    S^1 x S^2 (fd2), u built as in the assembled-Jacobian test."""
    geom = jacobian_chart(name, 2)
    t = [geom.grid.axis_vector(a, geom.grid.coordinates(a)) for a in range(3)]
    if name == "round_sphere":
        k, c = 2, (0.07, -0.05)
        modes = [np.cos(t[0]), np.sin(t[0]) * np.sin(t[1]) * np.cos(t[2])]
    else:
        k, c = 1, (0.06, -0.08, 0.05)
        modes = [np.cos(t[0]), np.cos(t[1]), np.sin(t[1]) * np.sin(t[2])]
    u = np.broadcast_to(sum(ci * m for ci, m in zip(c, modes)) - 0.5,
                        geom.grid.shape)
    return geom, AuxiliaryProblem(geom, k).jacobian(u)


@pytest.mark.parametrize("name", ("round_sphere", "hopf_product"))
def test_two_level_matches_the_j_based_apply(name, monkeypatch):
    # The coarse correction reads J Z where the oracle forms Z c on the
    # grid and multiplies by J; the two differ by rounding only (measured
    # 9e-14 and 3e-14 relative). The coarse matrix handed to the dense
    # inverse must be Z^T J Z (measured equal), and the preconditioner must
    # reproduce the coarse space: M^{-1} J Z c = Z c (measured 8e-15 and
    # 2e-15 relative).
    geom, jac = admissible_jacobian(name)
    factored = []
    inv = np.linalg.inv
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "inv",
                      lambda a: factored.append(a.copy()) or inv(a))
        apply = eigen._two_level(geom.derivative_matrices(), jac)
    want = ref.two_level(geom.grid, jac, eigen.COARSE_BLOCK)
    rng = np.random.default_rng(11)
    for _ in range(4):
        y = rng.standard_normal(jac.shape[0])
        expected = want(y)
        assert np.max(np.abs(apply(y) - expected)) \
            <= 1e-12 * np.max(np.abs(expected))

    agg, count = ref.aggregates(geom.grid, eigen.COARSE_BLOCK)
    size = jac.shape[0]
    z = sparse.csr_array((np.ones(size), agg, np.arange(size + 1)),
                         shape=(size, count))
    ztjz = (z.T @ (jac @ z)).toarray()
    assert len(factored) == 1
    assert np.max(np.abs(factored[0] - ztjz)) <= 1e-14 * np.max(np.abs(ztjz))
    zc = z @ rng.standard_normal(count)
    assert np.max(np.abs(apply(jac @ zc) - zc)) <= 1e-12 * np.max(np.abs(zc))


def test_singular_coarse_matrix_is_a_nonconvergence(monkeypatch):
    # numpy.linalg raises LinAlgError on an exactly singular Z^T J Z; the
    # Newton solve must end as the typed failure (CLI exit code 4), as a
    # non-finite direction does, and not as an untyped traceback. A
    # grid-shaped rhs solves on the grid (a CSR J), a scalar one from the
    # zonal guess on the line of nodes (a dense J).
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    geom = build_round_sphere(3, 16)
    prob = AuxiliaryProblem(geom, 2)
    guess = zonal(geom, lambda t: 0.05 * np.cos(t))
    monkeypatch.setattr(np.linalg, "inv", singular)
    for rhs in (constant(geom, S_OF_K[2] - 1.0), S_OF_K[2] - 1.0):
        with pytest.raises(NonconvergenceError, match="singular") as failure:
            newton_solve(prob, rhs, guess)
        assert failure.value.exit_code == 4
        assert isinstance(failure.value.__cause__, np.linalg.LinAlgError)
    assert list(geom._derivative_matrices) == [geom.grid.shape, (16, 1, 1)]


def test_coarse_space_is_built_once_per_shape(monkeypatch):
    # Every Newton iteration reads the one coarse space of its system's
    # shape (on the grid the map from J's pattern onto J Z's, on the line
    # the aggregates' starts); it is built on the first and kept. A
    # scalar rhs from a zonal guess solves on the line of nodes along the
    # first axis, a grid-shaped rhs on the grid.
    geom = build_round_sphere(3, 16)
    prob = AuxiliaryProblem(geom, 2)
    for rhs, shape in ((S_OF_K[2] - 1.0, (16, 1, 1)),
                       (constant(geom, S_OF_K[2] - 1.0), geom.grid.shape)):
        maps = geom.derivative_matrices(shape)
        seen = []
        coarse_space = maps.coarse_space
        monkeypatch.setattr(maps, "coarse_space",
                            lambda block: seen.append(coarse_space(block))
                            or seen[-1])
        stats = {}
        newton_solve(prob, rhs, zonal(geom, lambda t: 0.05 * np.cos(t)),
                     stats=stats)
        assert stats["newton_iterations"] >= 3
        assert len(seen) == stats["linear_solves"] == stats["newton_iterations"]
        assert all(space is seen[0] for space in seen)
        assert list(maps._coarse) == [eigen.COARSE_BLOCK]
    assert list(geom._derivative_matrices) == [(16, 1, 1), geom.grid.shape]


# ------------------------------------------------------------ Newton


def test_newton_recovers_constant_solution():
    geom = build_round_sphere(3, 16)
    prob = AuxiliaryProblem(geom, 2)
    rhs = constant(geom, S_OF_K[2] - 1.0)
    stats = {}
    u = newton_solve(prob, rhs, zonal(geom, lambda t: 0.01 * np.cos(t)),
                     stats=stats)
    assert np.max(np.abs(u)) <= 1e-10
    assert stats["newton_iterations"] <= 6


def test_newton_residual_history_is_quadratic():
    geom = build_round_sphere(3, 16)
    prob = AuxiliaryProblem(geom, 2)
    rhs = constant(geom, S_OF_K[2] - 1.0)
    stats = {}
    newton_solve(prob, rhs, zonal(geom, lambda t: 0.01 * np.cos(t)),
                 stats=stats)
    history = stats["residual_history"]
    assert history == sorted(history, reverse=True)
    for r0, r1 in zip(history, history[1:]):
        if r1 > 1e-13:
            # full-step damped Newton contracts quadratically; measured
            # ratios r1 / r0^2 were 0.07 and 0.27
            assert r1 <= 10.0 * r0 * r0


def test_newton_supercritical_rhs_fails_cleanly():
    # rhs above the solvability threshold: e^u cannot absorb a surplus, so
    # the damped iteration stalls and must say so with diagnostics
    geom = build_round_sphere(3, 16)
    prob = AuxiliaryProblem(geom, 2)
    with pytest.raises(NonconvergenceError) as err:
        newton_solve(prob, constant(geom, 10.0), constant(geom, 0.0))
    diag = err.value.diagnostics
    assert {"iteration", "krylov_iterations", "residual_norm"} <= set(diag)
    assert np.isfinite(diag["residual_norm"])


# -------------------------------------------------------- continuation


def test_continuation_hits_constant_target():
    geom = build_round_sphere(3, 16)
    lam = 0.3
    prob = AuxiliaryProblem(geom, 2)
    u = continuation_run(prob, lam)
    expected = math.log(S_OF_K[2] - lam)
    assert abs(float(np.max(u)) - expected) <= 1e-12
    assert float(np.ptp(u)) <= 1e-12
    bounds = eigen._path_bounds(prob, lam)
    assert bounds[0] < expected < bounds[1]


def test_continuation_solutions_decrease_in_lambda():
    geom = build_round_sphere(3, 16)
    prob = AuxiliaryProblem(geom, 2)
    low = continuation_run(prob, 0.3)
    high = continuation_run(prob, 0.6)
    assert np.all(high < low)


def test_failed_walk_keeps_its_linear_counters(monkeypatch):
    # Newton capped at one iteration cannot follow the path, so every
    # t-step fails until the step underflows; the stats of the failed walk
    # still hold the linear solves of its failed attempts.
    monkeypatch.setattr(eigen, "NEWTON_MAX_ITER", 1)
    geom = build_round_sphere(3, 16)
    stats = {}
    with pytest.raises(ContinuationFailureError, match="underflow"):
        continuation_run(AuxiliaryProblem(geom, 2), 0.3, stats=stats)
    assert stats["linear_solves"] > 0
    assert stats["newton_iterations"] == 0


def test_continuation_rejects_lambda_above_curvature_floor():
    geom = build_round_sphere(3, 16)
    with pytest.raises(ContinuationFailureError, match="cannot bracket"):
        continuation_run(AuxiliaryProblem(geom, 1), 2.0)


def test_continuation_propagates_cone_violation():
    # the Hopf background has a negative principal curvature, so k = 2
    # already fails at the base state and must not be masked
    geom = build_hopf_product(3, 1.0, 8)
    with pytest.raises(ConeViolationError):
        continuation_run(AuxiliaryProblem(geom, 2), 0.1)


def test_continuation_validation():
    geom = build_round_sphere(3, 16)
    with pytest.raises(ConfigurationError):
        continuation_run(AuxiliaryProblem(geom, 1), 0.0)
    with pytest.raises(ConfigurationError, match="positive coefficient"):
        continuation_run(AuxiliaryProblem(geom, 1, h=0.0), 0.3)


# ------------------------------------------------------- problem setup


def test_auxiliary_problem_validation():
    geom = build_round_sphere(3, 16)
    with pytest.raises(ConfigurationError):
        AuxiliaryProblem(geom, 0)
    with pytest.raises(ConfigurationError):
        AuxiliaryProblem(geom, 4)
    for bad_h in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="finite"):
            AuxiliaryProblem(geom, 1, h=bad_h)
    assert AuxiliaryProblem(geom, 1, h=0.0).h_field().shape == geom.grid.shape


def test_maclaurin_ceiling_closed_forms():
    geom = build_round_sphere(3, 16)
    for k in (1, 2, 3):
        ceiling = maclaurin_ceiling(geom, k)
        assert abs(ceiling - S_OF_K[k]) <= 1e-12 * S_OF_K[k]
    # S0 is constant, so the ceiling is exact where its closed form is
    for points in (16, 24):
        geom = build_round_sphere(3, points)
        assert maclaurin_ceiling(geom, 1) == 1.5
        assert maclaurin_ceiling(geom, 3) == 0.5
    hopf = build_hopf_product(3, 1.0, 8)
    assert abs(maclaurin_ceiling(hopf, 1) - 0.5) <= 1e-12


# ------------------------------------------------------ lambda* search


def test_lambda_star_search_brackets_the_sharp_value():
    # on the round chart the ceiling equals lambda*, so the upper end never
    # moves and the bisection converges one-sidedly from below
    geom = build_round_sphere(3, 16)
    stats = {}
    phi, lam = lambda_star_search(AuxiliaryProblem(geom, 1), 0.05,
                                  stats=stats)
    assert abs(lam - 1.5) <= 0.05
    assert float(np.max(phi)) == 0.0
    assert float(np.ptp(phi)) <= 1e-12
    assert abs(stats["ceiling"] - 1.5) <= 1e-12
    assert stats["lambda_solvable"] < 1.5
    assert stats["bisections"] == 5
    assert stats["newton_iterations"] > 0
    assert stats["krylov_iterations"] > 0


@pytest.mark.parametrize("k", (1, 2))
def test_lambda_star_is_sigma_k_of_s0_for_non_constant_h(k):
    # S0 is constant on the round chart, so constants are sub- and
    # super-solutions for every lambda below sigma_k^{1/k}(S0) whatever
    # h > 0 is: lambda* = sigma_k^{1/k}(S0) exactly, in the discrete
    # problem too (measured errors -4.12e-5 for k = 1, -4.76e-5 for k = 2).
    geom = build_round_sphere(3, 16)
    h = 1.0 + 0.5 * zonal(geom, np.cos)
    stats = {}
    _, lam = lambda_star_search(AuxiliaryProblem(geom, k, h=h), 1e-4,
                                stats=stats)
    lo, hi = stats["bracket"]
    assert abs(lam - S_OF_K[k]) <= 1e-4
    assert lo < S_OF_K[k] <= hi and hi - lo <= 1e-4


def test_lambda_star_search_bracket_and_linear_solves():
    # The bracket is pinned to the matrix-free solver's: the assembled
    # Jacobian changes how each Newton step is solved, not where the
    # bisection lands. Every GMRES solve meets KRYLOV_RTOL on this search.
    geom = build_round_sphere(3, 16)
    stats = {}
    lambda_star_search(AuxiliaryProblem(geom, 2), 2.5e-3, stats=stats)
    assert stats["bracket"] == (0.86450309350434895, 0.86602540378443871)
    assert stats["linear_solves"] >= stats["newton_iterations"] > 0
    assert stats["linear_misses"] == 0
    assert 0.0 < stats["worst_linear_residual"] <= eigen.KRYLOV_RTOL


def test_zonal_search_solves_on_the_line_of_nodes(monkeypatch):
    # From the CLI's seeded zonal guess with constant h, J maps zonal
    # fields to zonal fields, so every Newton direction is solved on the
    # line of nodes along the first axis and every state stays zonal
    # (axes <= 1); the search is the eigen-k2-16 workload's and its
    # bracket the grid solver's. Newton from the seeded line solves the
    # lower end in 4 iterations, where the walk from its exact start
    # takes 16.
    shapes = []
    direction = eigen._newton_direction

    def recorded(problem, state, res, stats):
        d, applies = direction(problem, state, res, stats)
        shapes.append((state.axes, d.shape))
        return d, applies

    monkeypatch.setattr(eigen, "_newton_direction", recorded)
    geom = build_round_sphere(3, 16)
    stats = {}
    phi, _ = lambda_star_search(AuxiliaryProblem(geom, 2), 2.5e-3,
                                guess=cli._seeded_initial(geom, 0.1, 1),
                                stats=stats)
    assert stats["bracket"] == (0.86450309350434895, 0.86602540378443871)
    assert stats["newton_iterations"] == 46
    lower_end = stats["lower_end"]
    assert lower_end["route"] == "warm" and lower_end["solvable"]
    assert lower_end["newton_iterations"] == lower_end["linear_solves"] == 4
    assert len(shapes) == stats["linear_solves"]
    assert all(axes <= 1 and shape in ((16, 1, 1), (1, 1, 1))
               for axes, shape in shapes)
    assert geom.grid.shape not in geom._derivative_matrices
    assert float(np.max(np.abs(phi))) == 0.0


def test_zonal_search_at_128_keeps_its_peak_at_the_line_scale():
    # phi is formed on the slab of the last solvable u and broadcast over
    # the grid, and every check of a solution reads that slab: a warm
    # 128^3 zonal search (the CLI's seeded guess) traces a peak of 0.28
    # MB, where a grid phi and the finiteness check of a broadcast guess
    # each take a grid array (16.8 MB of doubles, 2.1 MB of booleans).
    geom = build_round_sphere(3, 128)
    problem = AuxiliaryProblem(geom, 2)
    guess = cli._seeded_initial(geom, 0.1, 1)
    lambda_star_search(problem, 2.5e-3, guess=guess)  # the chart's caches
    tracemalloc.start()
    try:
        phi, lam = lambda_star_search(problem, 2.5e-3, guess=guess)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * geom.grid.total_points / 16
    assert abs(lam - S_OF_K[2]) <= 2.5e-3
    assert phi.shape == geom.grid.shape and not phi.flags.writeable
    assert float(phi.max()) == 0.0


def test_seeded_k1_search_meets_every_krylov_tolerance():
    # With the grid solver 8 of the 85 GMRES solves of this search (the
    # CLI's defaults at k = 1) ended above KRYLOV_RTOL, chasing rounding
    # noise off the zonal subspace; on the line of nodes every solve meets
    # it, and the bracket is the grid solver's.
    geom = build_round_sphere(3, 16)
    stats = {}
    lambda_star_search(AuxiliaryProblem(geom, 1), 1e-4,
                       guess=cli._seeded_initial(geom, 0.1, 0), stats=stats)
    assert stats["bracket"] == (1.4999176025390626, 1.5)
    assert stats["linear_solves"] == stats["newton_iterations"] == 67
    assert stats["linear_misses"] == 0
    assert stats["worst_linear_residual"] <= eigen.KRYLOV_RTOL


def test_zonal_h_builds_no_grid_matrices():
    # h = 1 + cos(theta_1)/2 is kept as its line, so the unions of the
    # slabs of u, h and rhs are that line or, for the constant start, the
    # single node, and no grid-shaped matrix is ever built.
    geom = build_round_sphere(3, 16)
    h = 1.0 + 0.5 * zonal(geom, np.cos)
    prob = AuxiliaryProblem(geom, 2, h=h)
    assert prob.h.shape == (16, 1, 1)
    assert np.array_equal(prob.h_field(), h)
    stats = {}
    _, lam = lambda_star_search(prob, 1e-4, stats=stats)
    assert abs(lam - S_OF_K[2]) <= 1e-4
    assert stats["linear_misses"] == 0
    assert set(geom._derivative_matrices) <= {(16, 1, 1), (1, 1, 1)}


def test_generic_h_search_solves_on_the_grid():
    # h = 1 + sin t1 sin t2 cos phi / 5 varies along every axis, so every
    # Newton step solves on the grid as before: the counts and the
    # bracket are the grid solver's.
    geom = build_round_sphere(3, 16)
    t = [geom.grid.axis_vector(a, geom.grid.coordinates(a)) for a in range(3)]
    h = 1.0 + 0.2 * np.sin(t[0]) * np.sin(t[1]) * np.cos(t[2])
    stats = {}
    _, lam = lambda_star_search(AuxiliaryProblem(geom, 2, h=h), 2.5e-3,
                                stats=stats)
    assert stats["bracket"] == (0.864503093504349, 0.8660254037844387)
    assert stats["newton_iterations"] == stats["linear_solves"] == 60
    assert list(geom._derivative_matrices) == [geom.grid.shape]


def test_lambda_star_search_midpoint_records():
    # On S^3 the ceiling is lambda*, so every midpoint is solvable and the
    # warm Newton start from the last solvable u carries each one. The
    # records account for the search's counters.
    geom = build_round_sphere(3, 16)
    stats = {}
    lambda_star_search(AuxiliaryProblem(geom, 2), 2.5e-3, stats=stats)
    records = stats["midpoints"]
    assert len(records) == stats["bisections"] == 9
    assert [r["lam"] for r in records] == sorted(r["lam"] for r in records)
    assert records[-1]["lam"] == stats["lambda_solvable"]
    for r in records:
        assert r["solvable"] and r["route"] == "warm"
        assert r["error"] is None and r["message"] is None
        assert 0 < r["newton_iterations"] == r["linear_solves"]
    assert stats["newton_iterations"] > sum(r["newton_iterations"]
                                            for r in records)


def test_lambda_star_search_totals_add_up():
    # Every lambda of these searches is solved on its first route, so the
    # search's totals are those of the lower end's record plus the
    # midpoints'. Without a guess the lower end walks from its exact
    # start; from the CLI's seeded line it is solved warm.
    geom = build_round_sphere(3, 16)
    for guess, route in ((None, "continuation"),
                         (cli._seeded_initial(geom, 0.1, 1), "warm")):
        stats = {}
        lambda_star_search(AuxiliaryProblem(geom, 2), 2.5e-3, guess=guess,
                           stats=stats)
        lower_end, midpoints = stats["lower_end"], stats["midpoints"]
        assert lower_end["solvable"] and lower_end["route"] == route
        assert len(midpoints) == stats["bisections"]
        assert all(r["route"] == "warm" for r in midpoints)
        for key in ("newton_iterations", "linear_solves"):
            assert stats[key] == lower_end[key] + sum(r[key]
                                                      for r in midpoints)


@pytest.mark.parametrize("k", [1, 2])
def test_far_guess_falls_back_to_the_walk(k):
    # Newton on the target equation stalls from the admissible u = -60, so
    # the lower end falls back to the walk from its exact start, the
    # stalled attempt's linear solve stays counted, and the search is the
    # unseeded one bit for bit.
    geom = build_round_sphere(3, 16)
    prob = AuxiliaryProblem(geom, k)
    plain, far = {}, {}
    phi_plain, lam_plain = lambda_star_search(prob, 2.5e-3, stats=plain)
    phi_far, lam_far = lambda_star_search(
        prob, 2.5e-3, guess=np.full((1, 1, 1), -60.0), stats=far)
    assert lam_far == lam_plain
    assert far["bracket"] == plain["bracket"]
    assert np.array_equal(phi_far, phi_plain)
    assert far["lower_end"]["route"] == "continuation"
    assert far["lower_end"]["solvable"]
    assert far["lower_end"]["linear_solves"] > plain["lower_end"][
        "linear_solves"]


def test_lambda_star_search_falls_back_when_warm_start_fails(monkeypatch):
    # The warm attempts run and are then rejected, so every midpoint is
    # decided by continuation from scratch: the bracket must be the one
    # pinned above, and the rejected attempts' solves stay counted.
    warm_solve = eigen._warm_solve

    def rejected(problem, lam, guess, stats):
        warm_solve(problem, lam, guess, stats)
        return None

    monkeypatch.setattr(eigen, "_warm_solve", rejected)
    geom = build_round_sphere(3, 16)
    stats = {}
    lambda_star_search(AuxiliaryProblem(geom, 2), 2.5e-3, stats=stats)
    assert stats["bracket"] == (0.86450309350434895, 0.86602540378443871)
    for r in stats["midpoints"]:
        assert r["solvable"] and r["route"] == "continuation"
        assert r["linear_solves"] >= r["newton_iterations"] > 0
    assert stats["linear_solves"] > stats["newton_iterations"]


def test_lambda_star_search_unsolvable_midpoints():
    # A constant Schouten tensor diag(1, 2, 3) on the flat torus: constants
    # solve the target equation up to min sigma_2^(1/2)(S0) = sqrt(11), and
    # above it continuation cannot even start, so the upper midpoints are
    # unsolvable. The bracket is pinned to the one of continuation from
    # scratch at every midpoint.
    geom = build_synthetic(3, [1.0, 2.0, 3.0], 16, fd_order=2)
    stats = {}
    _, lam = lambda_star_search(AuxiliaryProblem(geom, 2), 1e-2, stats=stats)
    assert stats["bracket"] == (3.311150485445264, 3.3172685306329637)
    assert abs(lam - math.sqrt(11.0)) <= 1e-2
    failed = [r for r in stats["midpoints"] if not r["solvable"]]
    assert [r["lam"] for r in failed] == [3.366212892134561,
                                          3.3172685306329637]
    for r in failed:
        assert r["route"] == "continuation"
        assert r["error"] == "ContinuationFailureError"
        assert "cannot bracket" in r["message"]
    for r in stats["midpoints"]:
        if r["solvable"]:
            assert r["route"] == "warm" and r["error"] is None


def test_linear_misses_are_counted_not_raised(monkeypatch):
    # No solve reaches a relative residual of 1e-16, so every GMRES run
    # ends on its restart cap (kept short here to bound the run time); the
    # search records the misses and goes on.
    monkeypatch.setattr(eigen, "KRYLOV_RTOL", 1e-16)
    monkeypatch.setattr(eigen, "KRYLOV_RESTART", 20)
    geom = build_round_sphere(3, 16)
    stats = {}
    _, lam = lambda_star_search(AuxiliaryProblem(geom, 1), 0.2, stats=stats)
    assert abs(lam - 1.5) <= 0.2
    assert 0 < stats["linear_misses"] <= stats["linear_solves"]
    assert stats["worst_linear_residual"] > 1e-16


def test_lambda_star_search_validation():
    geom = build_round_sphere(3, 16)
    with pytest.raises(ConfigurationError):
        lambda_star_search(AuxiliaryProblem(geom, 1), 0.0)
    # an enormous h pushes the start state below the escape floor, so not
    # even the guaranteed-solvable low end works
    with pytest.raises(ConfigurationError,
                       match="no solvable lambda.*solutions escaping"):
        lambda_star_search(AuxiliaryProblem(geom, 1, h=1e300), 0.1)

