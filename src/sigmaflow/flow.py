"""Explicit time stepping for the normalized sigma_k curvature flow.

The conformal factor of g = e^{-2u} g0 is driven by

    du/dt = (log sigma_k(g) - log r_k(g)) / 2,

where r_k is the geometric mean of sigma_k(g) under dvol(g). Subtracting
the mean makes the speed integrate to zero against dvol(g), which is what
preserves the volume; inside the Gamma_k+ cone the right-hand side is
parabolic with diffusion coefficient T_{k-1}(W) / (2 sigma_k(W)). The CFL
bound tracks that coefficient through a bound on the largest eigenvalue
of T_{k-1} from its first two trace moments, which are symmetric functions
of W's spectrum read from the sigma table: the flow never forms T_{k-1}.
It takes the coefficient node by node, against the stiffness of the axes
along which u varies there: a zonal u, which the flow keeps zonal, sees
only that of axis 0. A run takes the bound fresh before every step.
A quotient variant drives log(sigma_k/sigma_l) instead; sigma_0 = 1 makes
l = 0 coincide with the primary flow.

Every field of a step lives on its state's slab (conformal.slab). The
speed, the new u = u + h speed, the bound, the monitor's maxima, minima
and integrals all stay there, so a zonal step does one line of work and
allocates no grid array. Grid arrays appear only where u leaves the flow,
as FlowState.u, a broadcast view that its readers copy or write out.

A run builds a full monitor row only where it keeps one; between those
rows the convergence detector evaluates the residual alone. The state
caches the mean of the log target, so the speed and the row share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fieldalg
from .conformal import ConformalState, admissible_state
from .errors import ConfigurationError, FlowFailureError
from .fieldio import _atomic_write

# CSV schema of the monitor series; the column order is part of the
# external format and must not change.
MONITOR_FIELDS = ("time", "volume", "F_k", "r_k", "l2_sigma_minus_r",
                  "min_sigma", "max_abs_W", "harnack", "max_abs_u")

_SCHEMES = ("euler", "midpoint")
MAX_HALVINGS = 30  # dt halvings a step tries before it gives up


@dataclass(frozen=True)
class FlowConfig:
    """Numerical controls for one flow run.

    dt_initial, when set, caps every step (useful for fixed-dt studies);
    the CFL bound (cfl_dt), taken before every step, still applies.
    cfl_safety scales that bound, which has no cushion of its own: its
    diffusion coefficient is exact where T_{k-1} is isotropic, as at the
    round fixed point, and near there it can read low by O(sqrt(eps))
    relative (up to about 1e-8), the cancellation in its trace-moment
    spread; and the rows next to a pole lift the zonal spectral radius on
    S^3 a few percent above the bound.
    convergence_tol acts on the relative residual
    |sigma - r|_L2(g) / |sigma|_L2(g); zero disables the detector.
    """

    k: int
    t_end: float
    dt_initial: float | None = None
    cfl_safety: float = 0.4
    monitor_every: int = 1
    convergence_tol: float = 1e-5
    quotient_l: int | None = None
    scheme: str = "euler"

    def __post_init__(self):
        if self.k < 1:
            raise ConfigurationError(f"curvature order k={self.k} must be >= 1")
        if not self.t_end > 0:
            raise ConfigurationError(f"t_end={self.t_end} must be positive")
        if self.dt_initial is not None and not self.dt_initial > 0:
            raise ConfigurationError(f"dt_initial={self.dt_initial} must be positive")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ConfigurationError(
                f"cfl_safety={self.cfl_safety} outside (0, 1]")
        if self.monitor_every < 1:
            raise ConfigurationError("monitor_every must be a positive step count")
        if self.convergence_tol < 0:
            raise ConfigurationError("convergence_tol must be >= 0")
        if self.quotient_l is not None and not 0 <= self.quotient_l < self.k:
            raise ConfigurationError(
                f"quotient order l={self.quotient_l} outside 0..{self.k - 1}")
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class MonitorRecord:
    """One row of the monitor series.

    The MONITOR_FIELDS prefix is the CSV schema. The trailing fields stay
    in memory only: dissipation_rhs is the right-hand side of the F_k
    dissipation identity (None on quotient runs with l >= 1, where it does
    not apply), rel_residual the convergence detector's residual.
    For quotient runs r_k and the residual columns refer to the driven
    quantity sigma_k/sigma_l.
    """

    time: float
    volume: float
    F_k: float
    r_k: float
    l2_sigma_minus_r: float
    min_sigma: float
    max_abs_W: float
    harnack: float
    max_abs_u: float
    dissipation_rhs: float | None
    rel_residual: float


@dataclass
class FlowState:
    """Mutable bookkeeping for a run; u is the conformal factor, a
    read-only grid view of the state's slab, set before each on_record
    call and at return.

    cfl_limited counts the accepted steps whose dt the CFL bound set
    (rather than dt_initial or t_end). cfl_axes is the axes count the bound
    counts at the start, varying_axes(u0); a step keeps u constant along
    the later axes, so it bounds the count at every step.
    """

    time: float
    u: np.ndarray | None = None
    step_count: int = 0
    accepted: int = 0
    rejected: int = 0
    cfl_limited: int = 0
    cfl_axes: int | None = None
    converged: bool = False
    beta: float | None = None


# ----------------------------------------------------------------- speed

def flow_speed(state, quotient_l=None, out=None):
    """Pointwise du/dt on the state's slab; mean-zero against dvol(g) by
    construction. out, when given, is the slab array it is written into."""
    speed = np.subtract(state.log_target(quotient_l),
                        state.log_target_mean(quotient_l), out=out)
    speed *= 0.5
    return speed


# ------------------------------------------------------------- step size

def _diffusion_ratio(state):
    """2 D = lambda_max(T_{k-1}(W)) / sigma_k(W) on the state's slab, in
    work buffers (diffusion_bound)."""
    state.require_admissible()
    n, k = state.geometry.grid.ndim, state.k
    etable = state.sigma_w_table()
    orders = min(n, 2 * k - 2)
    table = (etable if orders <= k else fieldalg.sigma_table(
        state.w_components(), n, orders))
    bound = fieldalg.newton_lambda_max(table, n, k, out=state._work[0],
                                       tmp=state._work[1])
    return np.divide(bound, etable[..., k], out=bound)


def diffusion_bound(state):
    """max over nodes of D = lambda_max(T_{k-1}(W)) / (2 sigma_k(W)).

    D is the coefficient of the principal part of the linearized speed in
    the background orthonormal frame: the e^{2u} factors of the g-form
    Newton tensor and of the g-Laplacian cancel, leaving a shift-invariant
    bound, consistent with the flow's own shift equivariance. lambda_max is
    fieldalg.newton_lambda_max, the trace-moment upper bound read from the
    sigma table: exact where T_{k-1} is isotropic, never below the true
    value by more than O(sqrt(eps)) relative. For k <= 2 and k = n the
    state's own table holds every order it reads; for 3 <= k < n a table to
    order min(n, 2k - 2) is built from W. The max is the slab's, which is
    the grid's. cfl_dt takes D before the max.
    """
    return 0.5 * float(_diffusion_ratio(state).max())


def cfl_dt(state, cfl_safety):
    """Parabolic stability bound for the explicit step.

    Explicit Euler is stable while dt <= 2 / rho, rho the spectral radius
    of the speed's Jacobian, and

        rho / 2 <= k + max_x D(x) sum_{a < axes} sym / (h_a H_a(x))^2,

    with D(x) the coefficient diffusion_bound maximizes, axes =
    state.axes = varying_axes(state.u) (u constant along the later axes
    excites no mode along them) and the sum geometry.laplacian_symbol(axes),
    kept with the slab's stencil tables (the symbol of its _fit);
    the +k term accounts for the zeroth-order 2ku part of log sigma_k(g).
    The rows next to a pole lift the zonal rho of the round S^3 a few
    percent above the bound; cfl_safety covers that.

    The max is read on the state's slab, the nodes at index 0 along the
    axes from axes on, along which u, W and D are bitwise constant (H_a
    varies along the axes before a): the grid's max bitwise.
    """
    ratio = _diffusion_ratio(state)
    ratio *= state.geometry._fit(state.shape).symbol
    return cfl_safety / (state.k + 0.5 * float(ratio.max()))


# ---------------------------------------------------------------- stepping

def step(state, dt, scheme="euler", quotient_l=None):
    """One accepted explicit step from an admissible state.

    Returns (new_state, dt_used, n_rejected). A candidate leaving the cone
    or producing non-finite values is rejected and dt halved; at the
    (MAX_HALVINGS + 1)-th rejection in a row the step gives up and reports
    the last valid state in the error diagnostics.

    The step writes its speed, trials, midpoint half step and new state
    into the arrays the state it steps from hands on (take_arrays), and the
    half step's speed and the scaled speed into work buffers that advance
    reads before the trial reuses them: all on the slab, so a steady step
    allocates one slab array, u_new = u_slab + h speed, and a trial's
    varying_axes scans only that slab. Arrays read from that state before
    are overwritten; it recomputes them bitwise the same.
    """
    if scheme not in _SCHEMES:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    if not dt > 0:
        raise ConfigurationError(f"step size dt={dt} must be positive")
    geom, u, k = state.geometry, state.u_slab, state.k
    s0 = flow_speed(state, quotient_l, out=state._out("speed"))
    arrays = state.take_arrays()
    u_new = geom._empty(u.shape)  # states keep u; a half step's is overwritten
    advance = lambda h, speed: np.add(u, np.multiply(
        speed, h, out=geom._fit(speed.shape).work[1]), out=u_new)
    rejected = 0
    trial_dt = float(dt)
    while True:
        trial = None
        if scheme == "euler":
            trial = admissible_state(geom, advance(trial_dt, s0), k, arrays)
        else:
            half = admissible_state(geom, advance(0.5 * trial_dt, s0), k,
                                    arrays)
            if half is not None:
                s_mid = flow_speed(half, quotient_l, out=half._work[0])
                trial = admissible_state(geom, advance(trial_dt, s_mid), k,
                                         arrays)
        if trial is not None:
            return trial, trial_dt, rejected
        rejected += 1
        if rejected > MAX_HALVINGS:
            raise FlowFailureError(
                f"step rejected {rejected} times (dt {dt:.3g} -> {trial_dt:.3g}); "
                "state persistently leaves the cone or overflows",
                diagnostics={"dt_requested": float(dt), "dt_last": trial_dt,
                             "rejections": rejected, "last_valid_state": state})
        trial_dt *= 0.5


# ------------------------------------------------------------------ monitor

def _residual(state, quotient_l):
    """(r, |target - r|, |target - r| / |target|) at the current state, with
    L2(g) norms, target the driven quantity and r its geometric mean: all
    the convergence detector reads, and the part of the monitor row it
    shares. Only scalars are returned, so no field outlives the call."""
    geom, work = state.geometry, state._work
    weight = state.conformal_weight()
    r_flow = math.exp(state.log_target_mean(quotient_l))
    # integrate forms its integrand in the first work buffer
    target = (state.sigma_field() if not quotient_l
              else np.exp(state.log_target(quotient_l), out=work[2]))
    diff = np.subtract(target, r_flow, out=work[1])
    l2_diff = math.sqrt(geom.integrate(np.square(diff, out=diff), weight))
    l2_target = math.sqrt(geom.integrate(np.square(target, out=diff), weight))
    return r_flow, l2_diff, l2_diff / l2_target


def _record(state, time, quotient_l, residual):
    """Full monitor row at the current state (one pass of reductions).

    Every field comes from the state's cache, so a row after a step costs
    reductions only; residual is _residual's result at the same state.
    """
    geom = state.geometry
    n = geom.grid.ndim
    vol = state.volume()
    r_flow, l2_diff, rel = residual
    rhs = None
    if not quotient_l:
        work = state._work  # integrate forms its integrand in work[0]
        integrand = np.subtract(state.sigma_field(), r_flow, out=work[1])
        integrand *= np.subtract(state.log_target(quotient_l),
                                 state.log_target_mean(quotient_l), out=work[2])
        rhs = (-(n - 2.0 * state.k) / 2.0 * vol ** ((2.0 * state.k - n) / n)
               * geom.integrate(integrand, weight=state.conformal_weight()))
    return MonitorRecord(
        time=float(time),
        volume=vol,
        F_k=state.F_k(),
        r_k=r_flow,
        l2_sigma_minus_r=l2_diff,
        min_sigma=state.min_sigma(),
        max_abs_W=state.max_abs_w(),
        harnack=state.harnack_quantity(),
        max_abs_u=float(np.abs(state.u_slab, out=state._work[1]).max()),
        dissipation_rhs=rhs,
        rel_residual=rel,
    )


def write_monitor_csv(path, records):
    """Monitor series as CSV with 17 significant digits (round-trip exact)."""
    lines = [",".join(MONITOR_FIELDS)]
    for rec in records:
        lines.append(",".join("%.17g" % getattr(rec, name)
                              for name in MONITOR_FIELDS))
    _atomic_write(path, lines)


# --------------------------------------------------------------------- run

def run(geom, u0, config, on_record=None):
    """Integrate the flow to t_end or to convergence.

    Returns (FlowState, records). Convergence is declared on the relative
    L2(g) residual of the driven quantity; beta is the final r_k, reported
    only for converged runs with 2k != n (at 2k = n the scale invariance
    makes the constant a gauge choice, so only monitors are reported).
    The detector reads the residual after every step, and cfl_dt is taken
    fresh before every step. on_record, when given, is called with
    (flow, state, record) for every kept monitor row, flow.u set to
    state.u; callers hang snapshot writers off it. u0 is any array that
    broadcasts to the grid, such as an (N, 1, 1) line for zonal data on a
    round sphere.
    """
    state = ConformalState(geom, u0, config.k)
    state.require_admissible()
    flow = FlowState(time=0.0, cfl_axes=state.axes)
    records = []
    t_end = float(config.t_end)
    detecting = config.convergence_tol > 0
    while True:
        # A row is kept at time 0, every monitor_every steps, at t_end and
        # where convergence is detected. Off those rows a detecting run
        # evaluates only the residual, and a run without the detector
        # nothing at all.
        done = flow.time >= t_end * (1.0 - 1e-12)
        keep = done or flow.step_count % config.monitor_every == 0
        if keep or detecting:
            residual = _residual(state, config.quotient_l)
            converged = detecting and residual[-1] < config.convergence_tol
            if keep or converged:
                rec = _record(state, flow.time, config.quotient_l, residual)
                records.append(rec)
                if on_record is not None:
                    flow.u = state.u
                    on_record(flow, state, rec)
            if converged:
                flow.converged = True
                if 2 * config.k != geom.grid.ndim:
                    flow.beta = rec.r_k
                break
        if done:
            break
        dt = cfl = cfl_dt(state, config.cfl_safety)
        if config.dt_initial is not None:
            dt = min(dt, config.dt_initial)
        dt = min(dt, t_end - flow.time)
        state, dt_used, n_rej = step(state, dt, config.scheme,
                                     config.quotient_l)
        flow.time += dt_used
        flow.step_count += 1
        flow.accepted += 1
        flow.rejected += n_rej
        if dt == cfl:
            flow.cfl_limited += 1
    flow.u = state.u
    return flow, records

