"""Acceptance suite: nine end-to-end criteria, one pass/fail line each.

Each test prints `[criterion N] PASS/FAIL <measured numbers>` and asserts
the criterion at its stated tolerance and runtime budget. Long runs are
shared through module fixtures: the conservation run feeds the
monotonicity and dissipation checks, so the suite does the expensive
resolution-32 integration exactly twice (two dt legs) plus one
convergence run.

The dissipation identity check (criterion 7) still fails on this
discretization. The derivative of the discrete F_k along the speed has a
defect linear in the speed, while the identity's right-hand side is
quadratic, and the flow settles on a conformally round, non-constant u.
The defect's Laplacian-sum part (the discrete Hessian trace integrated
against the weights) is zero since the trace became a discrete divergence;
it was -16.7 times the right-hand side at t = 2 on 32^3. The product-rule
remainder is fourth order in h and stays: -0.18 times the right-hand side
at t = 2 on 32^3, -0.57 on 24^3. The mismatch peaks at 0.18 for t in
[1, 2] and reaches about 0.55 after t = 2. See the notes section of the
README.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from sigmaflow import cli, symfun
from sigmaflow.conformal import ConformalState
from sigmaflow.eigen import AuxiliaryProblem, lambda_star_search
from sigmaflow.flow import FlowConfig, cfl_dt, flow_speed, run, step
from sigmaflow.geometry import (
    build_hopf_product,
    build_round_sphere,
    curvature_oracle,
)


def report(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def zonal(geom, fn):
    th = geom.grid.axis_vector(0, geom.grid.coordinates(0))
    return np.broadcast_to(fn(th), geom.grid.shape).copy()


# ----------------------------------------------------- shared long runs


@pytest.fixture(scope="module")
def conservation_runs():
    """Round S3, k=2, u0 = 0.1 cos theta1, resolution 32, t_end 5.

    Two fixed-dt legs (8e-4 and 4e-4) for the drift-halving check; the
    coarse leg's records also drive criteria 5 and 7. Fourth-order
    stencils keep the spatial error floor out of the dt scaling, and the
    step-bound safety factor is raised so the requested dt is what
    actually runs (at the default 0.4 the bound sits near 4e-4 on this
    grid and would silently clip the coarse leg).
    """
    geom = build_round_sphere(3, 32, fd_order=4)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    legs = {}
    t0 = time.perf_counter()
    for dt in (8e-4, 4e-4):
        config = FlowConfig(k=2, t_end=5.0, dt_initial=dt, cfl_safety=0.85,
                            monitor_every=10, convergence_tol=0.0)
        state, records = run(geom, u0, config)
        volumes = np.array([rec.volume for rec in records])
        drift = float(np.max(np.abs(volumes - volumes[0])) / volumes[0])
        legs[dt] = {"records": records, "drift": drift}
    legs["elapsed"] = time.perf_counter() - t0
    return legs


# -------------------------------------------------------------- 1..3


def test_criterion_1_symmetric_functions():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_minor = worst_fd = worst_ident = 0.0
    eps = 1e-6
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        lam = np.linalg.eigvalsh(a)
        lam_cone = lam - lam.min() + 0.1    # positive spectrum, in every cone
        for k in range(1, n + 1):
            want = sum(float(np.linalg.det(a[np.ix_(idx, idx)]))
                       for idx in itertools.combinations(range(n), k))
            got = symfun.sigma_k_matrix(a, k)
            worst_minor = max(worst_minor,
                              abs(got - want) / max(1.0, abs(want)))

            b = rng.standard_normal((n, n))
            b = 0.5 * (b + b.T)
            fd = (symfun.sigma_k_matrix(a + eps * b, k)
                  - symfun.sigma_k_matrix(a - eps * b, k)) / (2.0 * eps)
            pred = float(np.sum(symfun.grad_sigma_k(a, k) * b))
            worst_fd = max(worst_fd, abs(fd - pred) / max(1.0, abs(pred)))

            # row sum over deleted entries
            drop = sum(symfun.sigma_k(np.delete(lam, i), k - 1)
                       for i in range(n))
            row = (n - k + 1) * symfun.sigma_k(lam, k - 1)
            worst_ident = max(worst_ident,
                              abs(drop - row) / max(1.0, abs(row)))
            # sum_i sigma_{k-1}(lam_i removed) lam_i^2
            quad = sum(symfun.sigma_k(np.delete(lam, i), k - 1) * lam[i] ** 2
                       for i in range(n))
            sk1 = symfun.sigma_k(lam, k + 1) if k + 1 <= n else 0.0
            second = (symfun.sigma_k(lam, 1) * symfun.sigma_k(lam, k)
                      - (k + 1) * sk1)
            worst_ident = max(worst_ident,
                              abs(quad - second) / max(1.0, abs(second)))
            # trace of the Newton transformation
            if k < n:
                tk = symfun.newton_transform(a, k)
                worst_ident = max(
                    worst_ident,
                    abs(np.trace(tk) - (n - k) * symfun.sigma_k(lam, k))
                    / max(1.0, abs(symfun.sigma_k(lam, k))))
                # Newton-Maclaurin in Gamma_{k+1}+
                lhs = (k + 1) * symfun.sigma_k(lam_cone, k + 1)
                rhs = ((n - k) / n * symfun.sigma_k(lam_cone, 1)
                       * symfun.sigma_k(lam_cone, k))
                worst_ident = max(worst_ident,
                                  max(0.0, (lhs - rhs) / abs(rhs)))
    elapsed = time.perf_counter() - started
    ok = (worst_minor <= 1e-12 and worst_fd <= 1e-6
          and worst_ident <= 1e-12 and elapsed <= 10.0)
    report(1, ok,
           f"1000 matrices: minors {worst_minor:.2e} (<=1e-12), "
           f"grad fd {worst_fd:.2e} (<=1e-6), identities "
           f"{worst_ident:.2e} (<=1e-12), {elapsed:.1f}s (<=10s)")


def test_criterion_2_curvature_oracle():
    started = time.perf_counter()
    errors = {}
    for res in (24, 48):
        sphere = build_round_sphere(3, res)
        target = np.broadcast_to(sphere.schouten0,
                                 sphere.grid.shape + (3, 3))
        errors[("sphere", res)] = float(
            np.max(np.abs(curvature_oracle(sphere) - target)))
        hopf = build_hopf_product(3, 1.0, res)
        eigs = np.linalg.eigvalsh(curvature_oracle(hopf))
        errors[("hopf", res)] = float(
            np.max(np.abs(eigs - np.array([-0.5, 0.5, 0.5]))))
    order_s = math.log2(errors[("sphere", 24)] / errors[("sphere", 48)])
    order_h = math.log2(errors[("hopf", 24)] / errors[("hopf", 48)])
    elapsed = time.perf_counter() - started
    ok = order_s >= 1.9 and order_h >= 1.9 and elapsed <= 60.0
    report(2, ok,
           f"sphere order {order_s:.3f}, hopf order {order_h:.3f} "
           f"(>=1.9), {elapsed:.1f}s (<=1min)")


def test_criterion_3_fixed_points():
    started = time.perf_counter()
    geom = build_round_sphere(3, 16)
    worst_speed = worst_drift = 0.0
    for c in (0.0, 0.7):
        for k in (1, 2, 3):
            state = ConformalState(geom, np.full(geom.grid.shape, c), k)
            worst_speed = max(worst_speed,
                              float(np.max(np.abs(flow_speed(state)))))
            walked = state
            dt = cfl_dt(state, 0.4)
            for _ in range(100):
                walked, _, _ = step(walked, dt)
            worst_drift = max(worst_drift,
                              float(np.max(np.abs(walked.u - c))))
    elapsed = time.perf_counter() - started
    ok = worst_speed <= 1e-10 and worst_drift <= 1e-12 and elapsed <= 60.0
    report(3, ok,
           f"u=0 and u=0.7, k=1..3: speed {worst_speed:.2e} (<=1e-10), "
           f"100-step drift {worst_drift:.2e} (<=1e-12), "
           f"{elapsed:.1f}s (<=1min)")


# -------------------------------------------------------------- 4..7


def test_criterion_4_volume_conservation(conservation_runs):
    coarse = conservation_runs[8e-4]["drift"]
    fine = conservation_runs[4e-4]["drift"]
    ratio = coarse / fine
    elapsed = conservation_runs["elapsed"]
    ok = coarse <= 1e-3 and 1.6 <= ratio <= 2.4 and elapsed <= 300.0
    report(4, ok,
           f"drift {coarse:.3e} (<=1e-3), halving dt scales it by "
           f"1/{ratio:.3f} (expect ~1/2), {elapsed:.0f}s (<=5min)")


@pytest.fixture(scope="module")
def hopf_run():
    geom = build_hopf_product(3, 1.0, 16, fd_order=4)
    u0 = zonal(geom, lambda x: 0.05 * np.cos(x))
    config = FlowConfig(k=1, t_end=3.0, dt_initial=1e-3, cfl_safety=0.4,
                        monitor_every=10, convergence_tol=0.0)
    _, records = run(geom, u0, config)
    return records


def test_criterion_5_monotonicity(conservation_runs, hopf_run):
    """k=2 exceeds n/2 on the sphere run, so F2 must not decrease; the
    k=1 product run sits below n/2, so F1 must not increase."""
    records = conservation_runs[8e-4]["records"]
    F2 = np.array([rec.F_k for rec in records])
    dips2 = np.diff(F2) / (1e-8 * np.abs(F2[:-1]))
    worst2 = float(-dips2.min())    # positive = an actual decrease

    F1 = np.array([rec.F_k for rec in hopf_run])
    rises1 = np.diff(F1) / (1e-8 * np.abs(F1[:-1]))
    worst1 = float(rises1.max())
    ok = worst2 <= 1.0 and worst1 <= 1.0
    report(5, ok,
           f"F2 worst decrease {worst2:.3f} and F1 worst increase "
           f"{worst1:.3f} in units of the 1e-8 relative band (<=1)")


def test_criterion_6_convergence_and_beta():
    started = time.perf_counter()
    geom = build_round_sphere(3, 32, fd_order=4)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    config = FlowConfig(k=2, t_end=20.0, cfl_safety=0.4, monitor_every=10,
                        convergence_tol=1e-4)
    state, records = run(geom, u0, config)
    elapsed = time.perf_counter() - started
    min_sigma = min(rec.min_sigma for rec in records)

    volume0 = ConformalState(geom, u0, 2).volume()
    c = -math.log(volume0 / (2.0 * math.pi ** 2)) / 3.0
    beta_oracle = math.exp(4.0 * c) * 0.75
    beta_err = abs(state.beta - beta_oracle) / beta_oracle
    ok = (state.converged and state.time < 20.0 and min_sigma > 0.0
          and beta_err <= 0.01 and elapsed <= 900.0)
    report(6, ok,
           f"residual<1e-4 at t={state.time:.3f} (<20), min sigma "
           f"{min_sigma:.3f} (>0), beta {state.beta:.6f} vs oracle "
           f"{beta_oracle:.6f} rel err {beta_err:.2e} (<=1e-2), "
           f"{state.accepted} steps accepted, {state.rejected} rejected, "
           f"{elapsed:.0f}s (<=15min)")


def test_criterion_7_dissipation_identity(conservation_runs):
    records = conservation_runs[8e-4]["records"]
    t = np.array([rec.time for rec in records])
    F2 = np.array([rec.F_k for rec in records])
    rhs = np.array([rec.dissipation_rhs for rec in records])
    # second-order one-sided differences at both ends of the series, like
    # the centered ones inside; first-order ends would add their own error
    lhs = np.gradient(F2, t, edge_order=2)
    mask = (np.abs(lhs) > 1e-10) & (np.abs(rhs) > 1e-10)
    rel = (np.abs(lhs - rhs)[mask]
           / np.maximum(np.abs(lhs), np.abs(rhs))[mask])
    worst = float(rel.max())
    crossings = t[mask][rel > 0.05]
    first = f"first >5% at t={crossings[0]:.3f}" if crossings.size \
        else "never exceeds 5%"
    ok = worst <= 0.05
    report(7, ok,
           f"max |dF/dt - rhs| mismatch {worst:.3f} over the window where "
           f"both exceed 1e-10 (<=0.05); {first}")


# -------------------------------------------------------------- 8..9


def test_criterion_8_eigenvalue_problem():
    started = time.perf_counter()
    geom = build_round_sphere(3, 16)
    results = {}
    for k, exact in ((1, 1.5), (2, math.sqrt(3.0) / 2.0)):
        phi, lam = lambda_star_search(AuxiliaryProblem(geom, k), 1e-4)
        results[k] = (phi, lam, abs(lam - exact), float(np.ptp(phi)))
    # uniqueness regression: an independent initialization of the k=1
    # search must land on the same renormalized eigenfunction
    seeded = zonal(geom, lambda t: 0.1 * (np.cos(t) + 0.3 * np.cos(2 * t)))
    phi_b, lam_b = lambda_star_search(AuxiliaryProblem(geom, 1), 1e-4,
                                      guess=seeded)
    agree = float(np.max(np.abs(results[1][0] - phi_b)))
    lam_agree = abs(results[1][1] - lam_b)
    elapsed = time.perf_counter() - started
    ok = (results[1][2] <= 1e-4 and results[2][2] <= 1e-4
          and results[1][3] <= 1e-5 and results[2][3] <= 1e-5
          and agree <= 1e-6 and lam_agree <= 1e-6 and elapsed <= 600.0)
    report(8, ok,
           f"lambda* errors {results[1][2]:.2e} (k=1), {results[2][2]:.2e} "
           f"(k=2) (<=1e-4); phi spreads {results[1][3]:.1e}, "
           f"{results[2][3]:.1e} (<=1e-5); two-init agreement {agree:.1e} "
           f"(<=1e-6), {elapsed:.0f}s (<=10min)")


def test_criterion_9_guarded_failure(tmp_path, capsys):
    out_a = str(tmp_path / "synthetic")
    code_a = cli.main(["flow", "chart=synthetic", "n=3", "k=1",
                       "resolution=8", "t_end=1", "s0_diag=0,0,0",
                       f"output_dir={out_a}"])
    err_a = capsys.readouterr().err
    out_b = str(tmp_path / "hopf")
    code_b = cli.main(["eigen", "chart=hopf_product", "n=4", "k=2",
                       "resolution=8", f"output_dir={out_b}"])
    err_b = capsys.readouterr().err
    emitted = [p for p in (out_a, out_b) if os.path.exists(p)]
    explained = "sigma_1 = 0" in err_a and "sigma_2 = 0" in err_b
    ok = (code_a == 3 and code_b == 3 and explained and not emitted)
    report(9, ok,
           f"synthetic S0=0 exit {code_a}, hopf n=4 k=2 exit {code_b} "
           f"(both 3), cone explanations present={explained}, "
           f"files emitted={len(emitted)} (none)")
