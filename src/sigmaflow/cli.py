"""Command-line front end: config parsing, dispatch, reports.

One flat key=value vocabulary serves every subcommand; a config file
(one pair per line, # comments) can be overridden by key=value tokens on
the command line. Each subcommand reads the subset of keys it needs, so a
single file can drive a flow run, the matching eigen solve, and the chart
validation. Unknown keys are errors: there is no silent typo tolerance.
A key left out takes the library's default, except eigen's tolerance:
lambda_star_search has none. check tests fieldalg, the solvers' algebra,
against symfun's eigenvalues, then the charts and the flow. flow always
steps with explicit Euler; midpoint is only reachable through FlowConfig.

Exit codes: 0 success, 2 usage, 3 cone violation,
4 nonconvergence, 5 internal numeric error.
"""

from __future__ import annotations

import os
import sys

# SIGMAFLOW_THREADS caps the BLAS/OpenMP worker pools. The knobs below are
# read once, when the libraries load, so they must be set before numpy is
# imported anywhere in the process; keep this block above the imports.
_THREADS_RAW = os.environ.get("SIGMAFLOW_THREADS", "").strip()
if _THREADS_RAW.isdigit() and int(_THREADS_RAW) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        os.environ[_var] = _THREADS_RAW

import argparse
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fieldalg, fieldio, symfun
from .conformal import ConformalState
from .eigen import AuxiliaryProblem, lambda_star_search
from .errors import NumericError, SigmaFlowError, UsageError
from .errors import ConeLabel, ConeViolationError
from .flow import FlowConfig, flow_speed, run, step, write_monitor_csv
from .geometry import (
    PERIODIC,
    background_schouten,
    build_hopf_product,
    build_round_sphere,
    build_synthetic,
    curvature_oracle,
)

CHARTS = ("round_sphere", "hopf_product", "synthetic")

# every key the config vocabulary knows, with its parser
_KEY_TYPES = {
    "chart": str,
    "n": int,
    "k": int,
    "quotient_l": int,
    "resolution": int,
    "t_end": float,
    "dt": float,
    "cfl_safety": float,
    "tolerance": float,
    "output_dir": str,
    "snapshot_interval": float,
    "seed": int,
    "amplitude": float,
    "radius": float,
    "fd_order": int,
    "s0_diag": str,
}

_REQUIRED = {
    "flow": ("chart", "n", "k", "resolution", "t_end"),
    "eigen": ("chart", "n", "k", "resolution"),
    "geometry-validate": ("chart", "n", "resolution"),
    "check": (),
}

# keys that must be strictly positive / nonnegative when present;
# tolerance is special: 0 disables the flow detector but eigen needs > 0
_POSITIVE = ("n", "k", "resolution", "t_end", "dt", "cfl_safety",
             "snapshot_interval", "radius")
_NONNEGATIVE = ("seed", "amplitude", "quotient_l", "tolerance")
# keys that one chart alone reads
_CHART_KEYS = {"radius": "hopf_product", "s0_diag": "synthetic"}


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for one subcommand invocation."""

    subcommand: str
    chart: str | None = None
    n: int | None = None
    k: int | None = None
    quotient_l: int | None = None
    resolution: int | None = None
    t_end: float | None = None
    dt: float | None = None
    cfl_safety: float | None = None
    tolerance: float | None = None
    output_dir: str = "."
    snapshot_interval: float | None = None
    seed: int = 0
    amplitude: float = 0.1
    radius: float | None = None
    fd_order: int | None = None
    s0_diag: tuple | None = None


@dataclass(frozen=True)
class RunReport:
    """Outcome of a dispatched run: one summary line and the files written."""

    summary: str
    paths: tuple = ()


# ------------------------------------------------------------- parsing

def _read_config_file(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        key, eq, value = body.partition("=")
        if not eq or not key.strip():
            raise UsageError(
                f"{path}:{lineno}: expected key=value, got {body!r}")
        pairs[key.strip()] = value.strip()
    return pairs


def _parse_overrides(tokens):
    pairs = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or not key:
            raise UsageError(f"override {token!r} is not of the form key=value")
        pairs[key] = value
    return pairs


def _typed(key, raw):
    kind = _KEY_TYPES[key]
    try:
        return kind(raw)
    except (TypeError, ValueError) as err:
        raise UsageError(
            f"key '{key}': expected {kind.__name__}, got {raw!r}") from err


def parse_config(subcommand, pairs):
    """Validate a merged key=value mapping into a RunConfig.

    Unknown keys, type mismatches, missing required keys, sign errors and
    a chart's own key (radius, s0_diag) given for another chart are usage
    errors naming the offending key. A chart whose background
    Schouten spectrum falls outside Gamma_k+ is rejected here, before any
    field is allocated, with the failing sigma_j spelled out.
    """
    if subcommand not in _REQUIRED:
        raise UsageError(f"unknown subcommand '{subcommand}'")
    values = {}
    for key, raw in pairs.items():
        if key not in _KEY_TYPES:
            raise UsageError(f"unknown key '{key}'")
        values[key] = _typed(key, raw)
    for key in _REQUIRED[subcommand]:
        if key not in values:
            raise UsageError(
                f"missing required key '{key}' for subcommand {subcommand}")
    for key in _POSITIVE:
        if key in values and not values[key] > 0:
            raise UsageError(f"key '{key}' must be positive, got {values[key]}")
    for key in _NONNEGATIVE:
        if key in values and values[key] < 0:
            raise UsageError(
                f"key '{key}' must be nonnegative, got {values[key]}")
    if "chart" in values and values["chart"] not in CHARTS:
        raise UsageError(
            f"key 'chart' must be one of {', '.join(CHARTS)}; "
            f"got '{values['chart']}'")
    for key, chart in _CHART_KEYS.items():
        if key in values and values.get("chart") != chart:
            raise UsageError(f"key '{key}' applies to chart {chart} only "
                             f"(chart: {values.get('chart', 'none given')})")
    if "fd_order" in values and values["fd_order"] not in (2, 4):
        raise UsageError(
            f"key 'fd_order' must be 2 or 4, got {values['fd_order']}")
    if "s0_diag" in values:
        try:
            values["s0_diag"] = tuple(
                float(part) for part in values["s0_diag"].split(","))
        except ValueError as err:
            raise UsageError(
                "key 's0_diag': expected comma-separated floats, "
                f"got {values['s0_diag']!r}") from err
    if values.get("chart") == "synthetic":
        if subcommand != "check" and "s0_diag" not in values:
            raise UsageError(
                "missing required key 's0_diag' for the synthetic chart")
        diag = values.get("s0_diag")
        if diag is not None and "n" in values and len(diag) != values["n"]:
            raise UsageError(
                f"key 's0_diag' has {len(diag)} entries, chart needs n={values['n']}")
    if "k" in values and "n" in values and values["k"] > values["n"]:
        raise UsageError(
            f"key 'k' must satisfy k <= n, got k={values['k']} n={values['n']}")
    # lambda_star_search has no default bracket width
    if subcommand == "eigen" and not values.setdefault("tolerance", 1e-4) > 0:
        raise UsageError(
            f"key 'tolerance' must be positive for the eigen subcommand, "
            f"got {values['tolerance']}")

    cfg = RunConfig(subcommand=subcommand, **values)
    if subcommand == "eigen":  # the seeded guess's, before the timed solve
        import numpy.random  # noqa: F401
    if subcommand in ("flow", "eigen"):
        # the cone test of ConformalState.cone_report, on one node
        s0 = background_schouten(cfg.chart, cfg.n, cfg.s0_diag)
        table = fieldalg.sigma_table(
            [s0[a, b:b + 1] for a, b in fieldalg.pairs(cfg.n)], cfg.n, cfg.k)
        worst = fieldalg.worst_violation(table, cfg.k)
        if worst is not None:
            j, _, value = worst
            listed = ", ".join("%g" % s for s in np.diag(s0))
            raise ConeViolationError(
                f"chart {cfg.chart} background spectrum ({listed}) is outside "
                f"the Gamma_{cfg.k}+ cone: sigma_{j} = {value:g}; "
                f"the k={cfg.k} problem is not admissible on this chart",
                label=ConeLabel(k=cfg.k, inside=False, first_failing_j=j))
    return cfg


# ------------------------------------------------------------ dispatch

def _given(**settings):
    """The settings the user gave; the library holds the other defaults."""
    return {key: value for key, value in settings.items() if value is not None}


def _build_geometry(cfg):
    order = _given(fd_order=cfg.fd_order)
    if cfg.chart == "round_sphere":
        return build_round_sphere(cfg.n, cfg.resolution, **order)
    if cfg.chart == "hopf_product":
        return build_hopf_product(cfg.n, points_per_axis=cfg.resolution,
                                  **order, **_given(circle_radius=cfg.radius))
    return build_synthetic(cfg.n, cfg.s0_diag, cfg.resolution, **order)


def _seeded_initial(geom, amplitude, seed):
    """amplitude (cos q x1 + eta cos 2q x1) with eta drawn from the seed,
    as its (N, 1, ..., 1) line along the first axis (a zero (1, ..., 1)
    array for amplitude 0), which broadcasts over the grid.

    q maps the first axis onto one full period, so the field is smooth on
    every chart: polar axes get the l=1 and l=2 zonal modes, periodic axes
    the first two Fourier modes.
    """
    grid = geom.grid
    if amplitude == 0.0:
        return np.zeros((1,) * grid.ndim)
    eta = float(np.random.default_rng(seed).uniform(-0.5, 0.5))
    x = grid.coordinates(0)
    period = grid.shape[0] * grid.spacing[0]
    q = 2.0 * math.pi / period if grid.axis_kind[0] == PERIODIC else 1.0
    u = amplitude * (np.cos(q * x) + eta * np.cos(2.0 * q * x))
    return grid.axis_vector(0, u)


def _ensure_outdir(cfg):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return cfg.output_dir


def _check_emitted(paths):
    for path in paths:
        if not os.path.exists(path):
            raise NumericError(f"emitted path {path} does not exist")
    return tuple(paths)


def run_flow(cfg):
    geom = _build_geometry(cfg)
    u0 = _seeded_initial(geom, cfg.amplitude, cfg.seed)
    flow_config = FlowConfig(k=cfg.k, t_end=cfg.t_end, **_given(
        dt_initial=cfg.dt, cfl_safety=cfg.cfl_safety,
        convergence_tol=cfg.tolerance, quotient_l=cfg.quotient_l))

    snapshots = []
    if cfg.snapshot_interval is not None:
        due = [0.0]

        def collect(flow, state, rec):
            if rec.time >= due[0] - 1e-12:
                snapshots.append((rec.time, state.u_slab.copy()))
                due[0] += cfg.snapshot_interval
    else:
        collect = None

    state, records = run(geom, u0, flow_config, on_record=collect)

    out = _ensure_outdir(cfg)
    paths = []
    monitor = os.path.join(out, "monitor.csv")
    write_monitor_csv(monitor, records)
    paths.append(monitor)
    for time, u in snapshots:
        path = os.path.join(out, f"snapshot_t{time:.6f}.field")
        fieldio.write_scalar_field(path, geom, u)
        paths.append(path)
    final = os.path.join(out, "final_state.field")
    fieldio.write_scalar_field(final, geom, state.u)
    paths.append(final)

    if state.converged and state.beta is not None:
        summary = f"β={state.beta:.10g}, converged at t={state.time:g}"
    elif state.converged:
        summary = (f"converged at t={state.time:g}, "
                   f"r_k={records[-1].r_k:.10g}")
    else:
        summary = (f"reached t_end={state.time:g}, "
                   f"residual={records[-1].rel_residual:.3e}")
    summary += (f"; {state.accepted} steps accepted, {state.rejected} "
                f"rejected, {state.cfl_limited} CFL-limited")
    return RunReport(summary, _check_emitted(paths))


def run_eigen(cfg):
    geom = _build_geometry(cfg)
    problem = AuxiliaryProblem(geom, cfg.k)
    guess = None
    if cfg.amplitude > 0.0:
        guess = _seeded_initial(geom, cfg.amplitude, cfg.seed)
    stats = {}
    phi, lam = lambda_star_search(problem, cfg.tolerance, guess=guess,
                                  stats=stats)

    out = _ensure_outdir(cfg)
    report_path = os.path.join(out, "eigen_report.csv")
    lo, hi = stats["bracket"]
    header = ("lambda_star,bracket_lo,bracket_hi,ceiling,bisections,"
              "newton_iterations,krylov_iterations")
    row = ",".join(["%.17g" % lam, "%.17g" % lo, "%.17g" % hi,
                    "%.17g" % stats["ceiling"], str(stats["bisections"]),
                    str(stats["newton_iterations"]),
                    str(stats["krylov_iterations"])])
    fieldio._atomic_write(report_path, [header, row])
    phi_path = os.path.join(out, "phi.field")
    fieldio.write_scalar_field(phi_path, geom, phi)

    summary = f"λ*≈{lam:.6g} (bracket width {hi - lo:.3g})"
    if stats["linear_misses"]:
        summary += (f"; {stats['linear_misses']} of {stats['linear_solves']} "
                    "linear solves ended above the Krylov tolerance (worst "
                    f"relative residual {stats['worst_linear_residual']:.2g})")
    return RunReport(summary, _check_emitted((report_path, phi_path)))


# ---------------------------------------------------------- check suite

def _check_fieldalg():
    rng = np.random.default_rng(2024)
    defect = shortfall = 0.0
    for n in range(3, 7):
        rows, cols = np.array(fieldalg.pairs(n)).T
        a = symfun.symmetrize(rng.standard_normal((20, n, n)))
        comps = list(a[:, rows, cols].T)
        e = fieldalg.sigma_table(comps, n, n)
        lam = symfun.eigenvalues(a)
        # defects are relative to C(n, j) rho^j, which bounds |sigma_j|
        rho = np.abs(lam).max(axis=1, keepdims=True)
        size = symfun.sigma_all(np.broadcast_to(rho, lam.shape), n)
        defect = max(defect, np.max(abs(e - symfun.sigma_all(lam, n)) / size))
        for k in range(1, n + 1):
            t = symfun.newton_transform(a, k - 1)
            got = np.array(fieldalg.newton_components(comps, n, e, k - 1))
            scale = size[:, k - 1]
            defect = max(defect, np.max(abs(got - t[:, rows, cols].T) / scale))
            lam_max = symfun.eigenvalues(t)[:, -1]
            excess = lam_max - fieldalg.newton_lambda_max(e, n, k)
            shortfall = max(shortfall, np.max(excess / scale))
    ok = defect <= 1e-12 and shortfall <= 1e-12
    return ok, (f"max defect vs symfun {defect:.2e}, "
                f"lambda_max bound shortfall {shortfall:.2e}")


def _curvature_order(cfg, geom):
    """(order >= 1.9, summary): the observed order of the curvature oracle
    between geom, cfg's chart, and the same chart at twice the resolution."""
    finer = replace(cfg, resolution=2 * cfg.resolution)
    coarse, fine = (float(np.max(np.abs(curvature_oracle(g) - g.schouten0)))
                    for g in (geom, _build_geometry(finer)))
    order = math.log2(coarse / fine)
    return order >= 1.9, (f"curvature order {order:.3f} over resolutions "
                          f"{cfg.resolution}/{finer.resolution} "
                          f"(errors {coarse:.3e}, {fine:.3e})")


def _check_curvature_order():
    cfgs = [RunConfig("check", chart=chart, n=3, resolution=16)
            for chart in ("round_sphere", "hopf_product")]
    results = [_curvature_order(cfg, _build_geometry(cfg)) for cfg in cfgs]
    return all(ok for ok, _ in results), "; ".join(
        f"{cfg.chart} {summary}" for cfg, (_, summary) in zip(cfgs, results))


def _check_conformal_shift():
    geom = build_round_sphere(3, 16)
    grid = geom.grid
    th = grid.axis_vector(0, grid.coordinates(0))
    u = np.broadcast_to(0.1 * np.cos(th), grid.shape).copy()
    c = 0.31
    worst = 0.0
    for k in (1, 2):
        base = ConformalState(geom, u, k)
        shifted = ConformalState(geom, u + c, k)
        sig = float(np.max(np.abs(
            shifted.sigma_field() - math.exp(2 * k * c) * base.sigma_field())))
        sig /= float(np.max(base.sigma_field()))
        vol = abs(shifted.volume() - math.exp(-3 * c) * base.volume())
        vol /= base.volume()
        worst = max(worst, sig, vol)
    return worst <= 1e-10, f"max covariance defect {worst:.2e}"


def _check_flow_fixed_points():
    geom = build_round_sphere(3, 16)
    worst_speed = 0.0
    worst_drift = 0.0
    for k in (1, 2, 3):
        state = ConformalState(geom, np.zeros(geom.grid.shape), k)
        worst_speed = max(worst_speed,
                          float(np.max(np.abs(flow_speed(state)))))
        walked = state
        for _ in range(10):
            walked, _, _ = step(walked, 1e-3)
        worst_drift = max(worst_drift, float(np.max(np.abs(walked.u))))
    ok = worst_speed <= 1e-10 and worst_drift <= 1e-12
    return ok, f"max speed {worst_speed:.2e}, drift {worst_drift:.2e}"


_PROPERTIES = (
    ("fieldalg sigma table and Newton tensor vs symfun", _check_fieldalg),
    ("curvature oracle convergence order", _check_curvature_order),
    ("conformal shift covariance", _check_conformal_shift),
    ("flow fixed points", _check_flow_fixed_points),
)


def run_check(cfg):
    failures = 0
    for name, prop in _PROPERTIES:
        ok, detail = prop()
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        raise NumericError(
            f"{failures} of {len(_PROPERTIES)} properties failed")
    return RunReport(f"all {len(_PROPERTIES)} properties pass")


def run_geometry_validate(cfg):
    geom = _build_geometry(cfg)
    if geom.variational:
        ok, summary = _curvature_order(cfg, geom)
        if not ok:
            raise NumericError("curvature oracle fails to converge: " + summary)
        return RunReport(summary)
    # synthetic charts have no meaningful curvature; verify the stencil
    # summation-by-parts identity on the periodic box instead
    rng = np.random.default_rng(cfg.seed)
    u = rng.standard_normal(geom.grid.shape)
    v = rng.standard_normal(geom.grid.shape)
    worst = 0.0
    for axis in range(geom.grid.ndim):
        defect = abs(geom.integrate(geom.d1(u, axis) * v)
                     + geom.integrate(u * geom.d1(v, axis)))
        worst = max(worst, defect / geom.integrate(np.abs(u * v)))
    summary = f"stencil adjointness defect {worst:.3e}"
    if worst > 1e-10:
        raise NumericError("summation by parts fails: " + summary)
    return RunReport(summary)


_DISPATCH = {
    "flow": run_flow,
    "eigen": run_eigen,
    "check": run_check,
    "geometry-validate": run_geometry_validate,
}


# ---------------------------------------------------------------- entry

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sigmaflow",
        description="sigma_k conformal flow and eigenvalue runs")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (
            ("flow", "integrate the conformal flow and write monitors"),
            ("eigen", "bisect for lambda* and write the eigenfunction"),
            ("check", "run the cross-module property suite"),
            ("geometry-validate", "verify a chart against its oracle")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None,
                       help="flat key=value file, # comments allowed")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="settings overriding the config file")
    return parser


def main(argv=None):
    if _THREADS_RAW and not _THREADS_RAW.isdigit():
        print(f"error: SIGMAFLOW_THREADS must be a nonnegative integer, "
              f"got {_THREADS_RAW!r}", file=sys.stderr)
        return 2
    args = _build_parser().parse_args(argv)
    try:
        pairs = {}
        if args.config is not None:
            pairs.update(_read_config_file(args.config))
        pairs.update(_parse_overrides(args.overrides))
        cfg = parse_config(args.subcommand, pairs)
        report = _DISPATCH[cfg.subcommand](cfg)
        print(report.summary)
        for path in report.paths:
            print(f"wrote {path}")
        return 0
    except SigmaFlowError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
