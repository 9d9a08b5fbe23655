"""Flow-module checks: speed, CFL bound, stepping, monitors, run loop.

Oracle strategy: fixed points and mean-zero come from exact structure
(constants solve the flow, and so do the Mobius factors of the round
sphere up to truncation error; the speed is mean-free against dvol(g) by
construction). The CFL bound is pinned by closed forms evaluated by hand
from the stencil symbol and the frame factors, and checked against a power
iteration on the speed's Jacobian. Monotonicity, the
dissipation identity, and volume conservation are checked against the
analytic rates on short runs at gates calibrated a factor of several away
from measured values, far below any plausible formula error.
"""

import math
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad

from matrix_form import matrix
from sigmaflow import fieldalg, symfun
from sigmaflow.conformal import ConformalState, admissible_state, varying_axes
from sigmaflow.errors import (
    ConeViolationError,
    ConfigurationError,
    FlowFailureError,
)
from sigmaflow.flow import (
    MONITOR_FIELDS,
    FlowConfig,
    cfl_dt,
    diffusion_bound,
    flow_speed,
    _record,
    _residual,
    run,
    step,
    write_monitor_csv,
)
from sigmaflow.geometry import build_hopf_product, build_round_sphere


def zonal(geom, fn):
    th = geom.grid.axis_vector(0, geom.grid.coordinates(0))
    return np.broadcast_to(fn(th), geom.grid.shape).copy()


def smooth_u(geom, amp, seed):
    rng = np.random.default_rng(seed)
    a, b = amp * (0.5 + rng.random(2))
    g = geom.grid
    t1, t2, phi = [g.axis_vector(ax, g.coordinates(ax)) for ax in range(3)]
    u = a * np.cos(t1) + b * np.sin(t1) * np.sin(t2) * np.cos(phi)
    return np.broadcast_to(u, g.shape).copy()


def l2_residual(state):
    # ||sigma - r||_L2(g), computed from public accessors only
    diff = state.sigma_field() - state.r_k()
    w = state.conformal_weight()
    return math.sqrt(state.geometry.integrate(diff * diff, weight=w))


# ------------------------------------------------------------ fixed points


def test_constants_are_fixed_points():
    geom = build_round_sphere(3, 16)
    for k in (1, 2, 3):
        for c in (0.0, 0.7):
            st = ConformalState(geom, np.full(geom.grid.shape, c), k)
            assert np.max(np.abs(flow_speed(st))) <= 1e-12


def test_hopf_constant_fixed_point_k1():
    geom = build_hopf_product(3, 1.0, 8)
    st = ConformalState(geom, np.full(geom.grid.shape, 0.3), 1)
    assert np.max(np.abs(flow_speed(st))) <= 1e-12


def test_quotient_constant_fixed_point():
    geom = build_round_sphere(3, 16)
    st = ConformalState(geom, np.full(geom.grid.shape, 0.2), 2)
    assert np.max(np.abs(flow_speed(st, quotient_l=1))) <= 1e-12


def mobius_u(geom, tilt, a=0.3):
    """u_a = log(1 + a x) - log(1 - a^2) / 2 for an ambient coordinate x of
    the round S^3: e^{-2 u_a} g0 is the pullback of g0 by a conformal map,
    so sigma_k(g) is constant and the flow speed vanishes in the continuum."""
    g = geom.grid
    t1, t2, phi = [g.axis_vector(ax, g.coordinates(ax)) for ax in range(3)]
    x = np.cos(t1) if tilt == "zonal" else np.sin(t1) * np.sin(t2) * np.cos(phi)
    u = np.log(1.0 + a * x) - 0.5 * math.log(1.0 - a * a)
    return np.broadcast_to(u, g.shape).copy()


@pytest.mark.parametrize("tilt, fd_order", [
    ("zonal", 2), ("zonal", 4), ("non-zonal", 4),
    # The azimuthal second difference in the rows next to a pole corner
    # carries 1/H_phi^2 ~ 16/h^4 against the m = 1 content's H_phi, so
    # its h^2 truncation error stays O(1) at fd2: the max speed is flat at
    # 0.079 (k = 1) and 0.174 (k = 2) from 16 to 32 points.
    pytest.param("non-zonal", 2, marks=pytest.mark.xfail(
        strict=True, reason="fd2 is inconsistent at the pole corners")),
])
def test_mobius_fixed_points_converge(tilt, fd_order):
    # max |speed| at 16 and 32 points; measured orders 1.85-2.03
    for k in (1, 2):
        errs = []
        for points in (16, 32):
            geom = build_round_sphere(3, points, fd_order=fd_order)
            state = ConformalState(geom, mobius_u(geom, tilt), k)
            errs.append(float(np.max(np.abs(flow_speed(state)))))
        assert math.log2(errs[0] / errs[1]) >= 1.7, (k, errs)


def test_speed_is_mean_free_under_flow_volume():
    geom = build_round_sphere(3, 16)
    for seed in range(4):
        u = smooth_u(geom, 0.08, seed)
        for k in (1, 2):
            st = ConformalState(geom, u, k)
            s = flow_speed(st)
            total = geom.integrate(s, weight=st.conformal_weight())
            assert abs(total) <= 1e-12


def test_quotient_l0_matches_primary_bitwise():
    geom = build_round_sphere(3, 16)
    st = ConformalState(geom, smooth_u(geom, 0.06, 7), 2)
    assert np.array_equal(flow_speed(st), flow_speed(st, quotient_l=0))


# ---------------------------------------------------------------- CFL bound


def test_diffusion_bound_round_sphere_closed_form():
    # k=1, u=0: T_0 = I, on which the trace-moment bound is exact (1);
    # 2 e_1 = 3.
    geom = build_round_sphere(3, 16)
    st = ConformalState(geom, np.zeros(geom.grid.shape), 1)
    d = diffusion_bound(st)
    assert abs(d - 1.0 / 3.0) <= 1e-12 * d


def test_cfl_closed_form_round_sphere():
    # u = 0 is constant along every axis: the bound counts no axis and is
    # safety / k exactly. Zonal u counts axis 0 alone, with H_0 = 1 and
    # stencil coefficient 2 at second order, 8/3 at fourth.
    for fd_order, coef in ((2, 2.0), (4, 8.0 / 3.0)):
        geom = build_round_sphere(3, 16, fd_order=fd_order)
        st = ConformalState(geom, np.zeros(geom.grid.shape), 1)
        assert cfl_dt(st, 0.4) == 0.4
        st = ConformalState(geom, zonal(geom, lambda t: 0.1 * np.cos(t)), 1)
        d = diffusion_bound(st)
        h = geom.grid.spacing
        pred = 0.4 / (1.0 + d * coef / h[0] ** 2)
        got = cfl_dt(st, 0.4)
        assert abs(got - pred) <= 1e-10 * pred


def test_cfl_closed_form_hopf():
    # circle axis: H_0 = r exactly.
    r = 0.5
    geom = build_hopf_product(3, circle_radius=r, points_per_axis=16)
    st = ConformalState(geom, np.zeros(geom.grid.shape), 1)
    assert cfl_dt(st, 0.4) == 0.4
    st = ConformalState(geom, zonal(geom, lambda x: 0.05 * np.cos(x)), 1)
    d = diffusion_bound(st)
    h = geom.grid.spacing
    pred = 0.4 / (1.0 + d * 2.0 / (h[0] * r) ** 2)
    assert abs(cfl_dt(st, 0.4) - pred) <= 1e-10 * pred


def test_cfl_scales_like_h_squared():
    vals = []
    for n_pts in (16, 32):
        geom = build_round_sphere(3, n_pts)
        st = ConformalState(geom, zonal(geom, lambda t: 0.05 * np.cos(2 * t)), 2)
        vals.append(cfl_dt(st, 0.4))
    # slightly above 4: the node-max diffusion bound sharpens with h
    assert 3.7 <= vals[0] / vals[1] <= 4.2


def test_cfl_is_shift_invariant():
    geom = build_round_sphere(3, 16)
    u = smooth_u(geom, 0.05, 3)
    a = cfl_dt(ConformalState(geom, u, 2), 0.4)
    b = cfl_dt(ConformalState(geom, u + 0.27, 2), 0.4)
    assert abs(a - b) <= 1e-9 * a


def no_newton_tensor(*args, **kwargs):
    raise AssertionError("the flow formed T_{k-1}")


@pytest.mark.parametrize("scheme", ("euler", "midpoint"))
def test_flow_forms_no_newton_tensor(monkeypatch, scheme):
    # Without dt_initial the CFL bound is refreshed before every step, and
    # it is read from the sigma table alone. The second harmonic decays to
    # a constant over 182 steps (a first harmonic, a Mobius direction,
    # reaches the tolerance in 80).
    monkeypatch.setattr(fieldalg, "newton_components", no_newton_tensor)
    geom = build_round_sphere(3, 16)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(2 * t))
    flow, _ = run(geom, u0, FlowConfig(k=2, t_end=20.0, monitor_every=50,
                                        convergence_tol=1e-3, scheme=scheme))
    assert flow.converged and flow.cfl_limited == flow.step_count > 100


def test_cfl_longer_table_on_s4(monkeypatch):
    # 3 <= k < n: the bound reads e_4, from a table built for it. It equals
    # the Wolkowicz-Styan bound of T_2 formed by the eigenvalue route.
    monkeypatch.setattr(fieldalg, "newton_components", no_newton_tensor)
    geom = build_round_sphere(4, 16)
    st = ConformalState(geom, zonal(geom, lambda t: 0.05 * np.cos(t)), 3)
    t = symfun.newton_transform(matrix(st.w_components(), 4, geom.grid.shape),
                                2)
    m = np.trace(t, axis1=-2, axis2=-1) / 4.0
    dev = t - m[..., None, None] * np.eye(4)
    upper = m + np.sqrt(np.sum(dev * dev, axis=(-2, -1)) * 0.75)
    want = np.max(upper / (2.0 * st.sigma_w_table()[..., 3]))
    d = diffusion_bound(st)
    assert abs(d - want) <= 1e-10 * want
    h = geom.grid.spacing[0]
    assert cfl_dt(st, 0.4) == 0.4 / (3 + d * (2.0 / (h * h)))


def full_grid_cfl(st, safety):
    """cfl_dt's bound with its max over every node: the diffusion ratio
    from the whole sigma table, times the symbol broadcast over the grid
    (sym / (h_a H_a)^2 summed over the axes a < varying_axes(u))."""
    geom, k = st.geometry, st.k
    n = geom.grid.ndim
    etable = st.sigma_w_table()
    orders = min(n, 2 * k - 2)
    table = (etable if orders <= k else
             fieldalg.sigma_table(st.w_components(), n, orders))
    ratio = fieldalg.newton_lambda_max(table, n, k) / etable[..., k]
    sym = {2: 2.0, 4: 8.0 / 3.0}[geom.fd_order]
    symbol = np.zeros(geom.grid.shape)
    for h, lame in zip(geom.grid.spacing[:varying_axes(st.u)], geom.lame):
        symbol = symbol + sym / (h * h) * (1.0 / lame ** 2)
    return safety / (k + 0.5 * float(np.max(ratio * symbol)))


@pytest.mark.parametrize("case, axes", [
    ("S3", 0), ("S3", 1), ("S3", 2), ("S3", 3), ("S4", 1), ("S4", 4),
    ("S1xS2", 3)])
def test_cfl_on_the_varying_nodes_is_the_full_grid_bound(case, axes):
    # cfl_dt takes its max on the first node along the axes u is constant
    # along. u, W, the sigma table and D are bitwise constant there, and
    # H_a varies only along the axes before a, so the bound is bitwise the
    # max over the grid. S^4 at k = 3 builds the longer table from W.
    if case == "S3":
        geom, k = build_round_sphere(3, 16), 2
        t1, t2, phi = axis_fields(geom)
        u = [0.0 * t1, 0.1 * np.cos(t1),
             0.1 * np.cos(t1) + 0.05 * np.sin(t1) * np.cos(t2),
             0.1 * np.cos(t1) + 0.05 * np.sin(t1) * np.sin(t2) * np.cos(phi)
             ][axes]
    elif case == "S4":
        geom, k = build_round_sphere(4, 16), 3
        x = axis_fields(geom)
        u = 0.05 * np.cos(x[0])
        if axes == 4:
            u = u + (0.03 * np.sin(x[0]) * np.sin(x[1]) * np.sin(x[2])
                     * np.cos(x[3]))
    else:
        geom, k = build_hopf_product(3, 1.0, 16), 1
        _, th, phi = axis_fields(geom)
        u = 0.05 * np.cos(th) + 0.05 * np.sin(th) * np.cos(phi)
    st = ConformalState(geom, np.broadcast_to(u, geom.grid.shape).copy(), k)
    assert varying_axes(st.u) == axes
    assert cfl_dt(st, 0.4) == full_grid_cfl(st, 0.4)
    if axes == geom.grid.ndim and k <= 2:
        # On every node the bound is formed in the chart's work buffers, so
        # it allocates no grid array. numpy's iteration buffers, 8192
        # elements by default, would be as large as this grid: shrunk here.
        bufsize = np.setbufsize(512)
        tracemalloc.start()
        try:
            cfl_dt(st, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        assert peak < geom.grid.total_points * 8


@pytest.mark.parametrize("n", (3, 4, 5))
def test_varying_axes_counts_up_to_the_last_varying_axis(n):
    rng = np.random.default_rng(n)
    shape = (4, 3, 5, 2, 3)[:n]
    for axes in range(n + 1):
        u = rng.standard_normal(shape[:axes] + (1,) * (n - axes))
        assert varying_axes(np.broadcast_to(u, shape).copy()) == axes
    u = np.zeros(shape)
    u[(-1,) * n] = 1.0
    assert varying_axes(u) == n


def jacobian_radius(geom, u, k, axes, iterations=50, eps=1e-7):
    """Spectral radius of the speed's Jacobian at u by a power iteration on
    difference quotients of flow_speed. The probe varies along the first
    axes axes only, as u does, and starts near the grid's highest mode
    there, where the top eigenvector lives."""
    shape = geom.grid.shape
    rng = np.random.default_rng(5)
    sign = 1.0 - 2.0 * (sum(np.indices(shape)[:axes]) % 2)
    v = sign + 0.1 * rng.standard_normal(shape[:axes]
                                         + (1,) * (len(shape) - axes))
    f0 = flow_speed(ConformalState(geom, u, k))
    for _ in range(iterations):
        v = v / np.max(np.abs(v))
        w = (flow_speed(ConformalState(geom, u + eps * v, k)) - f0) / eps
        radius = math.sqrt(np.mean(w * w) / np.mean(v * v))
        v = w
    return radius


def axis_fields(geom):
    g = geom.grid
    return [g.axis_vector(ax, g.coordinates(ax)) for ax in range(g.ndim)]


@pytest.mark.parametrize("chart, axes", [
    ("S3", 1), ("S3", 2), ("S3", 3), ("S1xS2", 1), ("S1xS2", 3)])
def test_cfl_bounds_the_jacobian_spectrum(chart, axes):
    # The bound rho = 2 / cfl_dt(state, 1) against the power iteration's
    # radius rho_p, at 16^3/fd2, on data varying along the first axes axes
    # (zonal for 1). Measured rho / rho_p: S^3 0.978, 1.018, 1.052;
    # S^1 x S^2 1.158, 1.031. A bound that sums rms stiffnesses over every
    # axis read 14x below rho_p on the non-zonal S^1 x S^2 data and 660x
    # below it on S^3.
    if chart == "S3":
        geom, k = build_round_sphere(3, 16), 2
        t1, t2, phi = axis_fields(geom)
        u = [0.1 * np.cos(t1), 0.1 * np.cos(t1) + 0.05 * np.sin(t1) * np.cos(t2),
             0.1 * np.cos(t1) + 0.05 * np.sin(t1) * np.sin(t2) * np.cos(phi)
             ][axes - 1]
    else:
        geom, k = build_hopf_product(3, 1.0, 16), 1
        x, th, phi = axis_fields(geom)
        u = (0.05 * np.cos(x) if axes == 1 else
             0.05 * np.cos(th) + 0.05 * np.sin(th) * np.cos(phi))
    u = np.broadcast_to(u, geom.grid.shape).copy()
    assert varying_axes(u) == axes
    bound = 2.0 / cfl_dt(ConformalState(geom, u, k), 1.0)
    radius = jacobian_radius(geom, u, k, axes)
    # Zonal S^3: the rows next to the poles lift rho_p 2.2% above the
    # bound; cfl_safety covers that. Elsewhere the bound holds.
    if (chart, axes) != ("S3", 1):
        assert bound >= radius
    # Zonal S^1 x S^2 misses the 10% target: the +k term counts the
    # zeroth-order part of the speed with the sign of growth, so the bound
    # can sit 3k above rho_p, 16% against axis 0's small stiffness at 16
    # points (5% at 32). That case alone is gated at 20% until the
    # zeroth-order term is tightened.
    gate = 0.2 if (chart, axes) == ("S1xS2", 1) else 0.1
    assert abs(bound - radius) <= gate * radius


def test_non_zonal_euler_run_is_stable_and_first_order():
    # Data varying along the azimuth of S^1 x S^2 at 16^3/fd2: the bound
    # counts every axis, and no step is rejected (2,127 steps at the
    # default safety 0.4; a bound that summed rms stiffnesses took 755
    # steps with 1,474 rejections). The runs at safety 0.8, 0.4 and 0.2
    # differ by 3.03e-6 and 1.52e-6: halving the step halves the error.
    geom = build_hopf_product(3, 1.0, 16)
    _, th, phi = axis_fields(geom)
    u0 = np.broadcast_to(0.05 * np.cos(th) + 0.05 * np.sin(th) * np.cos(phi),
                         geom.grid.shape).copy()
    finals = []
    for safety in (0.8, 0.4, 0.2):
        flow, _ = run(geom, u0, FlowConfig(
            k=1, t_end=0.5, cfl_safety=safety, monitor_every=100_000,
            convergence_tol=0.0))
        assert flow.rejected == 0 and flow.cfl_axes == 3
        assert flow.cfl_limited == flow.step_count - 1
        finals.append(flow.u)
    coarse, fine = (float(np.max(np.abs(a - b)))
                    for a, b in zip(finals, finals[1:]))
    assert 1.8 <= coarse / fine <= 2.2


def test_run_takes_the_bound_before_every_step():
    # dt_initial binds with a 9x margin: the bound is still taken before
    # every step, and sets none of them.
    geom = build_round_sphere(3, 16)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    cfg = FlowConfig(k=2, t_end=0.06, dt_initial=1e-3,
                     monitor_every=100_000, convergence_tol=0.0)
    with mock.patch("sigmaflow.flow.cfl_dt", wraps=cfl_dt) as spy:
        flow, _ = run(geom, u0, cfg)
    assert spy.call_count == flow.step_count >= 59
    assert flow.cfl_limited == 0 and flow.rejected == 0


def test_run_steps_at_a_bound_that_falls_below_dt_initial():
    # The bound drops to a quarter of dt_initial from step 3 on; step 3
    # already takes it. Powers of two keep the times exact, so the last
    # step, which t_end clips, is that bound too.
    geom = build_round_sphere(3, 16)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    dt0, low = 2.0 ** -10, 2.0 ** -12
    bounds = []

    def falling(state, safety):
        bounds.append(cfl_dt(state, safety) if len(bounds) < 3 else low)
        return bounds[-1]

    cfg = FlowConfig(k=2, t_end=3 * dt0 + 8 * low, dt_initial=dt0,
                     monitor_every=1, convergence_tol=0.0)
    with mock.patch("sigmaflow.flow.cfl_dt", falling):
        flow, recs = run(geom, u0, cfg)
    assert min(bounds[:3]) > 2.0 * dt0
    assert np.diff([r.time for r in recs]).tolist() == [dt0] * 3 + [low] * 8
    assert flow.step_count == 11 and flow.cfl_limited == 8


# ----------------------------------------------------------------- stepping


def test_single_step_decreases_residual():
    geom = build_round_sphere(3, 16)
    st = ConformalState(geom, zonal(geom, lambda t: 0.1 * np.cos(t)), 2)
    before = l2_residual(st)
    new, dt_used, rejected = step(st, 1e-3)
    assert rejected == 0 and dt_used == 1e-3
    assert l2_residual(new) < before


def test_step_preserves_zonal_data_bitwise():
    # zonal input must stay exactly zonal or the unstable pole-row modes
    # get seeded; holds at both stencil orders by construction. So must
    # data constant along the azimuth alone: the CFL bound counts only the
    # axes along which u varies, and takes its max on those nodes alone.
    for fd_order in (2, 4):
        geom = build_round_sphere(3, 16, fd_order=fd_order)
        t1, t2, _ = axis_fields(geom)
        for axes, u in ((1, 0.1 * np.cos(t1)),
                        (2, 0.1 * np.cos(t1) + 0.05 * np.sin(t1) * np.cos(t2))):
            st = ConformalState(
                geom, np.broadcast_to(u, geom.grid.shape).copy(), 2)
            for _ in range(3):
                st, _, _ = step(st, cfl_dt(st, 0.4))
            assert varying_axes(st.u) == axes


def test_flow_is_shift_equivariant():
    geom = build_round_sphere(3, 16)
    u = zonal(geom, lambda t: 0.1 * np.cos(t))
    c = 0.27
    a = ConformalState(geom, u, 2)
    b = ConformalState(geom, u + c, 2)
    for _ in range(30):
        a, _, _ = step(a, 1e-3)
        b, _, _ = step(b, 1e-3)
    assert np.max(np.abs(b.u - (a.u + c))) <= 1e-10


def test_step_rejects_oversized_dt_by_halving():
    geom = build_round_sphere(3, 16)
    st = ConformalState(geom, zonal(geom, lambda t: 0.3 * np.cos(t)), 1)
    new, dt_used, rejected = step(st, 1e4)
    assert rejected >= 1
    assert dt_used == 1e4 * 0.5 ** rejected
    new.require_admissible()


def test_step_gives_up_after_max_halvings(monkeypatch):
    geom = build_round_sphere(3, 16)
    st = ConformalState(geom, zonal(geom, lambda t: 0.3 * np.cos(t)), 1)
    monkeypatch.setattr("sigmaflow.flow.MAX_HALVINGS", 3)
    with pytest.raises(FlowFailureError) as info:
        step(st, 1e4)
    diag = info.value.diagnostics
    assert diag["rejections"] == 4
    assert diag["last_valid_state"] is st


def test_step_input_validation():
    geom = build_round_sphere(3, 16)
    st = ConformalState(geom, np.zeros(geom.grid.shape), 1)
    with pytest.raises(ConfigurationError):
        step(st, 0.0)
    with pytest.raises(ConfigurationError):
        step(st, -1e-3)
    with pytest.raises(ConfigurationError):
        step(st, 1e-3, scheme="rk7")


# ------------------------------------------------- handoff of derived arrays


def fresh_step(geom, u, k, dt, scheme):
    """step's arithmetic on fresh states only, none built from handed-over
    arrays: the oracle for step. Returns (u, dt_used, rejected)."""
    s0 = flow_speed(ConformalState(geom, u.copy(), k))
    rejected = 0
    while True:
        if scheme == "euler":
            trial = admissible_state(geom, u + dt * s0, k)
        else:
            half = admissible_state(geom, u + 0.5 * dt * s0, k)
            trial = None if half is None else admissible_state(
                geom, u + dt * flow_speed(half), k)
        if trial is not None:
            return trial.u, dt, rejected
        rejected += 1
        dt *= 0.5


def same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


@pytest.mark.parametrize("scheme", ("euler", "midpoint"))
@pytest.mark.parametrize("chart", ("S3", "S1xS2"))
def test_run_matches_fresh_states_bitwise(chart, scheme):
    # The states of a run write into the arrays of the states before them;
    # its final u and every monitor row must carry the bits of fresh,
    # independent states stepped by the same arithmetic.
    if chart == "S3":
        # zonal: non-zonal data drives the CFL bound down on S^3
        geom, k, dt = build_round_sphere(3, 16, fd_order=4), 2, 2.0 ** -12
        u0 = zonal(geom, lambda t: 0.1 * np.cos(t) + 0.03 * np.cos(2 * t))
    else:
        # non-zonal: the CFL bound, 2.03e-4 here, would clip 2^-12
        geom, k, dt = build_hopf_product(3, 1.3, 16, fd_order=4), 1, 2.0 ** -13
        u0 = smooth_u(geom, 0.05, 11)
    cfg = FlowConfig(k=k, t_end=12 * dt, dt_initial=dt, monitor_every=1,
                     convergence_tol=0.0, scheme=scheme)
    flow, recs = run(geom, u0, cfg)
    u, t, rows = u0.copy(), 0.0, []
    while True:
        fresh = ConformalState(geom, u.copy(), k)
        rows.append(_record(fresh, t, None, _residual(fresh, None)))
        if t >= cfg.t_end * (1.0 - 1e-12):
            break
        u, used, _ = fresh_step(geom, u, k, min(dt, cfg.t_end - t), scheme)
        t += used
    assert flow.step_count == 12 and flow.time == t
    assert same_bits(flow.u, u)
    assert [repr(astuple(r)) for r in recs] == [repr(astuple(r)) for r in rows]


@pytest.mark.parametrize("scheme", ("euler", "midpoint"))
def test_step_hands_over_arrays_and_recomputes_bitwise(scheme):
    # A step that goes through rejections matches the fresh-state oracle.
    # The new state is written into the arrays of the state stepped from,
    # and that state, read again, recomputes its values bit for bit.
    geom = build_round_sphere(3, 16, fd_order=4)
    st = ConformalState(geom, zonal(geom, lambda t: 0.3 * np.cos(t)), 1)
    sigma = st.sigma_field()
    w = st.w_components()
    before = [sigma.copy()] + [c.copy() for c in w]
    volume = st.volume()
    new, dt_used, rejected = step(st, 1e4, scheme)
    want_u, want_dt, want_rejected = fresh_step(geom, st.u, 1, 1e4, scheme)
    assert rejected >= 1 and rejected == want_rejected
    assert dt_used == want_dt and same_bits(new.u, want_u)
    assert new.sigma_field() is sigma
    assert all(x is y for x, y in zip(new.w_components(), w))
    again = [st.sigma_field()] + st.w_components()
    assert all(same_bits(x, y) for x, y in zip(again, before))
    assert same_bits(st.volume(), volume)


# ------------------------------------------------------------- conservation


def test_cfl_step_volume_drift_scales_with_dt_squared():
    # the mean-free speed kills the O(dt) term, so one step at the CFL dt
    # drifts the volume by O(dt^2); quartering dt with the finer grid must
    # shrink the drift by ~16 (measured 15.5; gate leaves a 2x margin)
    drifts = []
    for n_pts in (16, 32):
        geom = build_round_sphere(3, n_pts)
        st = ConformalState(geom, zonal(geom, lambda t: 0.05 * np.cos(2 * t)), 2)
        v0 = st.volume()
        new, _, _ = step(st, cfl_dt(st, 0.4))
        drifts.append(abs(new.volume() - v0) / v0)
    assert drifts[0] > 1e-12 and drifts[1] > 1e-12
    assert drifts[0] / drifts[1] >= 8.0


def test_fixed_dt_halving_halves_volume_drift():
    geom = build_round_sphere(3, 16)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    drifts = []
    for dt in (1.5e-3, 7.5e-4):
        cfg = FlowConfig(k=2, t_end=0.15, dt_initial=dt, cfl_safety=1.0,
                         monitor_every=500, convergence_tol=0.0)
        _, recs = run(geom, u0, cfg)
        drifts.append(abs(recs[-1].volume - recs[0].volume) / recs[0].volume)
    assert 1.8 <= drifts[0] / drifts[1] <= 2.2


def test_midpoint_drift_far_below_euler():
    geom = build_round_sphere(3, 16)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    drift = {}
    for scheme in ("euler", "midpoint"):
        cfg = FlowConfig(k=2, t_end=0.15, dt_initial=1.5e-3, cfl_safety=1.0,
                         monitor_every=200, convergence_tol=0.0,
                         scheme=scheme)
        _, recs = run(geom, u0, cfg)
        drift[scheme] = abs(recs[-1].volume - recs[0].volume)
    assert drift["midpoint"] <= 0.2 * drift["euler"]


# ------------------------------------------------- monotonicity/dissipation


def test_f2_nondecreasing_per_step_on_sphere():
    # 2k > n: F_2 may lose at most 1e-8 relative per step to discretization
    geom = build_round_sphere(3, 16, fd_order=4)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    cfg = FlowConfig(k=2, t_end=1.2, dt_initial=1e-3, cfl_safety=1.0,
                     monitor_every=1, convergence_tol=0.0)
    _, recs = run(geom, u0, cfg)
    f = np.array([r.F_k for r in recs])
    assert np.all(np.diff(f) >= -1e-8 * np.abs(f[1:]))


def test_f1_nonincreasing_per_step_on_hopf():
    # 2k < n flips the monotonicity direction
    geom = build_hopf_product(3, 1.0, 16, fd_order=4)
    x0 = geom.grid.axis_vector(0, geom.grid.coordinates(0))
    u0 = np.broadcast_to(0.05 * np.cos(x0), geom.grid.shape).copy()
    cfg = FlowConfig(k=1, t_end=1.5, dt_initial=1e-3, cfl_safety=1.0,
                     monitor_every=1, convergence_tol=0.0)
    _, recs = run(geom, u0, cfg)
    f = np.array([r.F_k for r in recs])
    assert np.all(np.diff(f) <= 1e-8 * np.abs(f[1:]))


def test_dissipation_integrand_is_pointwise_nonnegative():
    geom = build_round_sphere(3, 16)
    st = ConformalState(geom, zonal(geom, lambda t: 0.1 * np.cos(t)), 2)
    r = st.r_k()
    integrand = (st.sigma_field() - r) * (st.log_target() - math.log(r))
    assert integrand.min() >= -1e-30


def test_dissipation_identity_short_horizon():
    # trapezoid dF/dt against the recorded right-hand side; the gap is the
    # discrete remainder of the Newton-tensor divergence identity, which
    # at fourth order on 24^3 stays under 8% on this window (gate 12%, a
    # formula error shows up at 100%)
    geom = build_round_sphere(3, 24, fd_order=4)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    cfg = FlowConfig(k=2, t_end=0.04, dt_initial=5e-4, cfl_safety=1.0,
                     monitor_every=1, convergence_tol=0.0)
    _, recs = run(geom, u0, cfg)
    t = np.array([r.time for r in recs])
    f = np.array([r.F_k for r in recs])
    rhs = np.array([r.dissipation_rhs for r in recs])
    lhs = np.diff(f) / np.diff(t)
    mid = 0.5 * (rhs[1:] + rhs[:-1])
    rel = np.abs(lhs - mid) / np.maximum(np.abs(lhs), np.abs(mid))
    assert rhs.min() > 0.0
    assert rel.max() <= 0.12


# ----------------------------------------------------------------- run loop


def test_run_converges_and_reports_beta():
    geom = build_round_sphere(3, 16, fd_order=4)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    cfg = FlowConfig(k=2, t_end=20.0, cfl_safety=0.4, monitor_every=10,
                     convergence_tol=1e-4)
    flow, recs = run(geom, u0, cfg)
    assert flow.converged and flow.time < 3.0
    # zonal data: the bound counts axis 0 alone (753 steps when it summed
    # the rms stiffness of every axis)
    assert flow.cfl_axes == 1 and flow.rejected == 0
    assert flow.step_count <= 251
    # volume-matched constant state: e^{-3c} 2 pi^2 = vol(u0), beta = e^{4c} 3/4
    integral = quad(lambda t: math.exp(-0.3 * math.cos(t)) * math.sin(t) ** 2,
                    0.0, math.pi)[0]
    beta_oracle = 0.75 * (2.0 * integral / math.pi) ** (-4.0 / 3.0)
    assert abs(flow.beta - beta_oracle) <= 1e-3 * beta_oracle
    assert min(r.min_sigma for r in recs) > 0.5


def test_detector_off_cadence_reads_the_residual_only(monkeypatch):
    # Off-cadence steps evaluate the residual alone; the run must stop on
    # the step, with the beta, of a run that keeps every row, its kept rows
    # must equal that run's bit for bit, and it must build one full row
    # (one F_k) per kept row.
    geom = build_round_sphere(3, 16, fd_order=4)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    calls = []
    f_k = ConformalState.F_k

    def counting_f_k(self):
        calls.append(self)
        return f_k(self)

    monkeypatch.setattr(ConformalState, "F_k", counting_f_k)
    runs = {}
    for every in (10, 1):
        calls.clear()
        cfg = FlowConfig(k=2, t_end=20.0, cfl_safety=0.4,
                         monitor_every=every, convergence_tol=1e-4)
        flow, recs = run(geom, u0, cfg)
        runs[every] = flow, recs, len(calls)
    (flow, recs, built), (flow1, recs1, _) = runs[10], runs[1]
    assert flow.converged and flow1.converged
    # the detecting row falls off the cadence, so the test exercises it
    assert flow.step_count == flow1.step_count and flow.step_count % 10
    assert flow.beta == flow1.beta
    assert built == len(recs)
    assert len(recs) == flow.step_count // 10 + 2
    every_row = {rec.time: rec for rec in recs1}
    for rec in recs:
        assert repr(astuple(rec)) == repr(astuple(every_row[rec.time]))


def test_run_working_set_stays_small():
    # 20 steady steps of a run, with one CFL refresh (step 25) and two kept
    # rows, peak at 42.5 fields of traced memory on a 16^3 S^3 at fd4. A
    # run that builds every state's fields anew, beside the fields of the
    # state it steps from, peaks at 54.3.
    geom = build_round_sphere(3, 16, fd_order=4)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    dt = 2.0 ** -11
    cfg = FlowConfig(k=2, t_end=30 * dt, dt_initial=dt, monitor_every=10,
                     convergence_tol=0.0)

    def steady_from_step_10(flow, state, rec):
        if flow.step_count == 10:
            tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        flow, _ = run(geom, u0, cfg, on_record=steady_from_step_10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flow.step_count == 30
    assert peak <= 48 * geom.grid.total_points * 8


def grid_arrays_per_trial(state, dt, scheme, quotient_l):
    """The grid-sized numpy arrays alive each time a steady step from state
    has built a trial, when all the step allocated is alive and numpy's
    iteration buffers are freed (counted in numpy's tracemalloc domain)."""
    for _ in range(3):
        state, _, _ = step(state, dt, scheme, quotient_l)
    nbytes = state.geometry.grid.total_points * 8
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    counts = []

    def counting(*args):
        trial = admissible_state(*args)
        traces = tracemalloc.take_snapshot().filter_traces(numpy_only).traces
        counts.append(sum(trace.size >= nbytes for trace in traces))
        return trial

    tracemalloc.start()
    try:
        with mock.patch("sigmaflow.flow.admissible_state", counting):
            step(state, dt, scheme, quotient_l)
    finally:
        tracemalloc.stop()
    return counts


@pytest.mark.parametrize("scheme, quotient_l", (
    ("euler", None), ("midpoint", None), ("euler", 1), ("midpoint", 1)),
    ids=("euler", "midpoint", "euler-quotient1", "midpoint-quotient1"))
def test_steady_step_allocates_one_grid_array(scheme, quotient_l):
    # A steady step writes its speed, trials and new state into the arrays
    # the state it steps from hands on, so the one array it allocates is
    # u_new, on the state's slab: for generic data that is the grid, one
    # grid array per trial. A speed in a new array would make it two, and
    # so would a quotient log target of the midpoint's half step. (Zonal
    # data allocates none: test_zonal_step_makes_no_grid_array.)
    geom = build_round_sphere(3, 16, fd_order=4)
    state = ConformalState(geom, smooth_u(geom, 0.05, 11), 2)
    assert state.axes == 3
    counts = grid_arrays_per_trial(state, cfl_dt(state, 0.4), scheme,
                                   quotient_l)
    assert counts == [1] * {"euler": 1, "midpoint": 2}[scheme]


@pytest.mark.parametrize("scheme", ("euler", "midpoint"))
def test_zonal_step_makes_no_grid_array(scheme):
    # A zonal state lives on one line of nodes: every array _empty makes
    # for a step from a fresh state, the speeds and u_new included, is that
    # line's; a steady step makes u_new alone, and no grid-sized array is
    # alive at its trials, on the primary and the quotient flow. The
    # midpoint's half step speed is written into a line of a work buffer.
    # Counted as in test_fresh_w_assembly_allocation_count.
    geom = build_round_sphere(3, 16, fd_order=4)
    grid, dt = geom.grid.shape, 2.0 ** -11
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    state = ConformalState(geom, u0, 2)
    speeds = []

    def recording(st, quotient_l=None, out=None):
        speeds.append(flow_speed(st, quotient_l, out=out))
        return speeds[-1]

    shapes = []
    for _ in range(3):
        with mock.patch.object(geom, "_empty", side_effect=geom._empty) as empty, \
                mock.patch("sigmaflow.flow.flow_speed", recording):
            speeds.clear()
            state, _, rejected = step(state, dt, scheme)
        assert rejected == 0 and state.shape == (16, 1, 1)
        shapes.append([call.args[0] if call.args else grid
                       for call in empty.call_args_list])
        assert [s.shape for s in speeds] == [state.shape] * len(speeds)
        assert len(speeds) == {"euler": 1, "midpoint": 2}[scheme]
    fresh, *steady = shapes
    assert len(fresh) > 1
    assert all(s == state.shape or s == (state.k + 1,) + state.shape
               for s in fresh)
    assert steady == [[state.shape]] * 2
    if scheme == "midpoint":
        assert np.shares_memory(speeds[1], geom._kernel[0])
    for quotient_l in (None, 1):
        counts = grid_arrays_per_trial(ConformalState(geom, u0, 2), dt,
                                       scheme, quotient_l)
        assert counts == [0] * {"euler": 1, "midpoint": 2}[scheme]


@pytest.mark.parametrize("quotient_l", (None, 1))
def test_kept_row_allocates_less_than_one_grid_array(quotient_l):
    # Once the state's fields are cached, the residual and the monitor row
    # form their integrands, the quotient target and the |W| and |u| of
    # their maxima in the chart's work buffers, all on the state's line of
    # nodes. Forming the dissipation integrand in new arrays peaked at 3
    # grid arrays.
    geom = build_round_sphere(3, 16, fd_order=4)
    state = ConformalState(geom, zonal(geom, lambda t: 0.1 * np.cos(t)), 2)
    state, _, _ = step(state, 2.0 ** -11, "euler", quotient_l)
    row = lambda: _record(state, 0.0, quotient_l, _residual(state, quotient_l))
    expected = row()
    tracemalloc.start()
    try:
        got = row()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert repr(astuple(got)) == repr(astuple(expected))
    assert peak < geom.grid.total_points * 8


def test_zonal_run_memory_is_a_line_of_nodes():
    # A zonal run keeps u, its fields, the work buffers and the integrals
    # on one line of nodes. On S^3 at 256 points per axis one grid array
    # is 134 MB; a run of over 100 CFL-set steps from a (256, 1, 1) line,
    # chart included, peaks at 2.2 MB of traced memory. The bound is an
    # eighth of a grid array.
    tracemalloc.start()
    try:
        geom = build_round_sphere(3, 256, fd_order=4)
        theta = geom.grid.axis_vector(0, geom.grid.coordinates(0))
        flow, recs = run(geom, 0.1 * np.cos(theta), FlowConfig(k=2, t_end=3e-3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flow.step_count >= 100 and flow.rejected == 0
    assert peak < geom.grid.total_points * 8 / 8
    # u reads back as the line broadcast over the grid, read-only
    assert flow.u.shape == geom.grid.shape and flow.u.strides[1:] == (0, 0)
    assert not flow.u.flags.writeable
    assert recs[-1].max_abs_u == float(np.max(np.abs(flow.u[:, -1, -1])))


@pytest.mark.parametrize("ending", ("t_end", "converged"))
def test_flow_u_is_the_observed_state_u(ending):
    # run sets FlowState.u where it is observed: inside on_record, at every
    # kept row, flow.u is the state's u, grid-shaped and read-only, and
    # after the run it is the last state's u, for a run that reaches t_end
    # and for one that converges.
    geom = build_round_sphere(3, 16, fd_order=4)
    theta = geom.grid.axis_vector(0, geom.grid.coordinates(0))
    cfg = FlowConfig(k=2, t_end=0.05 if ending == "t_end" else 20.0,
                     monitor_every=3, convergence_tol=1e-4)
    seen = []

    def observe(flow, state, rec):
        assert flow.u.shape == geom.grid.shape
        assert not flow.u.flags.writeable
        assert same_bits(flow.u, state.u)
        seen.append(state)

    flow, recs = run(geom, 0.1 * np.cos(theta), cfg, on_record=observe)
    assert flow.converged == (ending == "converged")
    assert len(seen) == len(recs) > 3 and flow.step_count > 5
    assert same_bits(flow.u, seen[-1].u) and flow.u.shape == geom.grid.shape


def test_run_detects_fixed_point_immediately():
    geom = build_round_sphere(3, 16)
    cfg = FlowConfig(k=2, t_end=5.0, convergence_tol=1e-5)
    flow, recs = run(geom, np.zeros(geom.grid.shape), cfg)
    assert flow.converged and flow.time == 0.0 and flow.step_count == 0
    assert len(recs) == 1
    # sigma_2(g) = e_2 of the Schouten at u=0: 3 * (1/2)^2 / ... = 3/4
    assert abs(flow.beta - 0.75) <= 1e-13


def test_run_rejects_hopf_outside_cone():
    geom = build_hopf_product(3, 1.0, 8)
    cfg = FlowConfig(k=2, t_end=1.0)
    with pytest.raises(ConeViolationError):
        run(geom, np.zeros(geom.grid.shape), cfg)


def test_monitor_csv_header_and_roundtrip(tmp_path):
    geom = build_round_sphere(3, 16)
    u0 = zonal(geom, lambda t: 0.1 * np.cos(t))
    cfg = FlowConfig(k=2, t_end=0.01, dt_initial=1e-3, cfl_safety=1.0,
                     monitor_every=2, convergence_tol=0.0)
    _, recs = run(geom, u0, cfg)
    path = tmp_path / "monitor.csv"
    write_monitor_csv(path, recs)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(MONITOR_FIELDS)
    assert lines[0] == ("time,volume,F_k,r_k,l2_sigma_minus_r,min_sigma,"
                        "max_abs_W,harnack,max_abs_u")
    assert len(lines) == len(recs) + 1
    for line, rec in zip(lines[1:], recs):
        values = [float(tok) for tok in line.split(",")]
        for name, val in zip(MONITOR_FIELDS, values):
            assert val == getattr(rec, name)
    # same records, same bytes
    path2 = tmp_path / "again.csv"
    write_monitor_csv(path2, recs)
    assert path.read_bytes() == path2.read_bytes()


def test_flow_config_validation():
    good = dict(k=2, t_end=1.0)
    FlowConfig(**good)
    bad = [dict(k=0, t_end=1.0),
           dict(k=2, t_end=0.0),
           dict(k=2, t_end=1.0, cfl_safety=0.0),
           dict(k=2, t_end=1.0, cfl_safety=1.5),
           dict(k=2, t_end=1.0, monitor_every=0),
           dict(k=2, t_end=1.0, convergence_tol=-1e-6),
           dict(k=2, t_end=1.0, quotient_l=2),
           dict(k=2, t_end=1.0, quotient_l=-1),
           dict(k=2, t_end=1.0, scheme="leapfrog"),
           dict(k=2, t_end=1.0, dt_initial=0.0)]
    for kwargs in bad:
        with pytest.raises(ConfigurationError):
            FlowConfig(**kwargs)
