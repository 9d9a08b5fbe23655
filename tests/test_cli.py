"""CLI checks: config parsing, dispatch, exit codes, emitted artifacts.

Oracle strategy: parse-time validation is pinned by exact error classes and
messages naming the offending key; the cone pre-validation values come from
sigma_j of the closed-form background spectra. Artifact determinism is
byte-level on rewritten files. Exit-code mapping is driven through main()
both in-process and through the module entry point.
"""

import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from sigmaflow import cli, fieldalg, fieldio, geometry
from sigmaflow.cli import RunConfig, main, parse_config
from sigmaflow.conformal import ConformalState
from sigmaflow.flow import FlowConfig
from sigmaflow.errors import (
    ConeViolationError,
    NonconvergenceError,
    NumericError,
    UsageError,
)
from sigmaflow.geometry import build_hopf_product, build_round_sphere


def flow_pairs(**extra):
    pairs = {"chart": "round_sphere", "n": "3", "k": "2",
             "resolution": "16", "t_end": "1"}
    pairs.update(extra)
    return pairs


# -------------------------------------------------------------- parsing


def test_parse_minimal_flow_config():
    cfg = parse_config("flow", flow_pairs())
    assert cfg.subcommand == "flow"
    assert cfg.chart == "round_sphere"
    assert (cfg.n, cfg.k, cfg.resolution) == (3, 2, 16)
    assert cfg.t_end == 1.0
    assert cfg.seed == 0
    # keys left out take FlowConfig's own defaults
    with mock.patch.object(cli, "run", side_effect=RuntimeError("stop")) as run:
        with pytest.raises(RuntimeError, match="stop"):
            cli.run_flow(cfg)
    assert run.call_args.args[2] == FlowConfig(k=2, t_end=1.0)


def test_parse_unknown_key_is_named():
    with pytest.raises(UsageError, match="kk"):
        parse_config("flow", flow_pairs(kk="2"))


def test_parse_missing_required_key_is_named():
    pairs = flow_pairs()
    del pairs["t_end"]
    with pytest.raises(UsageError, match="t_end"):
        parse_config("flow", pairs)


def test_parse_type_mismatch_is_named():
    with pytest.raises(UsageError, match="'n'"):
        parse_config("flow", flow_pairs(n="three"))


def test_parse_value_validation():
    with pytest.raises(UsageError, match="chart"):
        parse_config("flow", flow_pairs(chart="klein_bottle"))
    with pytest.raises(UsageError, match="fd_order"):
        parse_config("flow", flow_pairs(fd_order="3"))
    with pytest.raises(UsageError, match="t_end"):
        parse_config("flow", flow_pairs(t_end="-1"))
    with pytest.raises(UsageError, match="seed"):
        parse_config("flow", flow_pairs(seed="-4"))
    with pytest.raises(UsageError, match="k <= n"):
        parse_config("flow", flow_pairs(k="5"))
    with pytest.raises(UsageError, match="subcommand"):
        parse_config("simulate", flow_pairs())


def test_parse_tolerance_rules():
    assert parse_config("flow", flow_pairs(tolerance="0")).tolerance == 0.0
    eigen_pairs = {"chart": "round_sphere", "n": "3", "k": "1",
                   "resolution": "16"}
    assert parse_config("eigen", eigen_pairs).tolerance == 1e-4
    with pytest.raises(UsageError, match="tolerance"):
        parse_config("eigen", dict(eigen_pairs, tolerance="0"))


def test_parse_hopf_k2_rejected_on_cone_grounds():
    pairs = {"chart": "hopf_product", "n": "4", "k": "2",
             "resolution": "8", "t_end": "1"}
    with pytest.raises(ConeViolationError, match="sigma_2 = 0") as err:
        parse_config("flow", pairs)
    assert err.value.exit_code == 3
    assert err.value.label.first_failing_j == 2


@pytest.mark.parametrize("n", (3, 4, 5))
@pytest.mark.parametrize("chart", cli.CHARTS)
def test_cone_check_reads_the_built_charts_schouten(chart, n):
    # parse_config's cone check and the builders read one description of
    # the background Schouten tensor; 8 points keep S^5 small (the
    # builders' floor is about accuracy, which chart data do not need)
    pairs = {"chart": chart, "n": str(n), "k": "1", "resolution": "8",
             "t_end": "1"}
    if chart == "synthetic":
        pairs["s0_diag"] = ",".join(["0.5", "-0.2", "0.7", "0.1", "0.3"][:n])
    with mock.patch.object(cli.fieldalg, "sigma_table",
                           wraps=cli.fieldalg.sigma_table) as sigma_table:
        cfg = parse_config("flow", pairs)
    s0 = np.empty((n, n))
    for (a, b), comp in zip(cli.fieldalg.pairs(n),
                            sigma_table.call_args.args[0]):
        s0[a, b] = s0[b, a] = comp.item()
    with mock.patch.object(geometry, "_check_resolution", lambda *a: None):
        geom = cli._build_geometry(cfg)
    assert np.array_equal(s0, geom.schouten0)


def test_parse_synthetic_needs_s0_and_rejects_zero():
    pairs = {"chart": "synthetic", "n": "3", "k": "1", "resolution": "8",
             "t_end": "1"}
    with pytest.raises(UsageError, match="s0_diag"):
        parse_config("flow", pairs)
    with pytest.raises(ConeViolationError, match="sigma_1 = 0"):
        parse_config("flow", dict(pairs, s0_diag="0,0,0"))
    with pytest.raises(UsageError, match="s0_diag"):
        parse_config("flow", dict(pairs, s0_diag="0.5,0.5"))
    cfg = parse_config("flow", dict(pairs, s0_diag="0.5,0.5,0.5"))
    assert cfg.s0_diag == (0.5, 0.5, 0.5)


@pytest.mark.parametrize("key, value, owner", (
    ("radius", "3", "hopf_product"), ("s0_diag", "0.5,0.5,0.5", "synthetic")))
def test_chart_keys_on_another_chart_are_usage_errors(key, value, owner):
    pairs = {"n": "3", "k": "1", "resolution": "16", "t_end": "1", key: value}
    for chart in cli.CHARTS:
        if chart != owner:
            with pytest.raises(UsageError, match=f"'{key}'.*{owner}.*{chart}"):
                parse_config("flow", dict(pairs, chart=chart))
    assert getattr(parse_config("flow", dict(pairs, chart=owner)), key)


def test_main_flow_with_radius_on_the_sphere_exits_two(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["flow", "chart=round_sphere", "n=3", "k=2", "resolution=16",
                 "t_end=0.5", "radius=3"]) == 2
    assert "radius" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


SEVEN = ",".join(["0.5"] * 7)


@pytest.mark.parametrize("args, message", (
    (["flow", "chart=round_sphere", "n=7", "k=7", "resolution=16",
      "t_end=1"], "round_sphere supports n in 3..5, got 7"),
    (["eigen", "chart=round_sphere", "n=7", "k=7", "resolution=16"],
     "round_sphere supports n in 3..5, got 7"),
    (["flow", "chart=synthetic", "n=7", "k=7", f"s0_diag={SEVEN}",
      "resolution=8", "t_end=1"], "synthetic supports n in 3..6, got 7"),
    # k = 5 passes the cone pre-check's order-5 table; the step-size
    # bound would ask for order min(n, 2k - 2) = 7 after building the grid
    (["flow", "chart=synthetic", "n=7", "k=5", f"s0_diag={SEVEN}",
      "resolution=8", "t_end=1"], "synthetic supports n in 3..6, got 7")))
def test_main_dimension_out_of_range_exits_two(args, message, tmp_path,
                                               monkeypatch, capsys):
    # the sigma tables stop at order 6: n past a chart's range is a usage
    # error at parse time, before any grid is built or file written
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(geometry, "BackgroundGeometry", no_grid)
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_config_file_with_comments_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a flow run\nchart=round_sphere\nn=3\nk=2\n"
                    "resolution=16\nt_end=9  # overridden below\n")
    pairs = cli._read_config_file(str(path))
    pairs.update(cli._parse_overrides(["t_end=1"]))
    cfg = parse_config("flow", pairs)
    assert cfg.t_end == 1.0


def test_config_file_bad_line_reports_position(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("chart=round_sphere\nresolution 16\n")
    with pytest.raises(UsageError, match="bad.cfg:2"):
        cli._read_config_file(str(path))
    with pytest.raises(UsageError, match="key=value"):
        cli._parse_overrides(["t_end"])
    with pytest.raises(UsageError, match="cannot read"):
        cli._read_config_file(str(tmp_path / "absent.cfg"))


# --------------------------------------------------------- initial data


def test_seeded_initial_data_is_deterministic_and_admissible():
    sphere = build_round_sphere(3, 16)
    a = cli._seeded_initial(sphere, 0.1, seed=5)
    b = cli._seeded_initial(sphere, 0.1, seed=5)
    c = cli._seeded_initial(sphere, 0.1, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # the zonal line itself, which the flow and the solver broadcast
    assert a.shape == (16, 1, 1) and a.flags.c_contiguous
    assert cli._seeded_initial(sphere, 0.0, seed=5).shape == (1, 1, 1)
    assert np.max(np.abs(cli._seeded_initial(sphere, 0.0, seed=5))) == 0.0
    ConformalState(sphere, a, 2).require_admissible()
    hopf = build_hopf_product(3, 1.0, 8)
    u = cli._seeded_initial(hopf, 0.05, seed=3)
    ConformalState(hopf, u, 1).require_admissible()


# ------------------------------------------------------------- dispatch


def test_main_fixed_point_flow_reports_beta(tmp_path, capsys):
    out = str(tmp_path / "run")
    code = main(["flow", "chart=round_sphere", "n=3", "k=2",
                 "resolution=16", "t_end=1", "amplitude=0",
                 f"output_dir={out}"])
    captured = capsys.readouterr()
    assert code == 0
    assert ("β=0.75, converged at t=0; 0 steps accepted, 0 rejected, "
            "0 CFL-limited") in captured.out
    assert os.path.exists(os.path.join(out, "monitor.csv"))
    assert os.path.exists(os.path.join(out, "final_state.field"))


def test_main_exit_code_three_on_cone_rejection(capsys):
    code = main(["flow", "chart=hopf_product", "n=4", "k=2",
                 "resolution=8", "t_end=1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "sigma_2 = 0" in captured.err
    assert captured.err.startswith("error:")


def test_main_exit_code_two_on_usage_error(capsys):
    assert main(["flow", "kk=2"]) == 2
    assert "kk" in capsys.readouterr().err


def test_main_maps_error_classes_to_exit_codes(monkeypatch, capsys):
    def boom_nonconvergence(cfg):
        raise NonconvergenceError("stalled")

    def boom_numeric(cfg):
        raise NumericError("nan")

    monkeypatch.setitem(cli._DISPATCH, "check", boom_nonconvergence)
    assert main(["check"]) == 4
    monkeypatch.setitem(cli._DISPATCH, "check", boom_numeric)
    assert main(["check"]) == 5
    capsys.readouterr()


def test_main_flow_monitor_is_byte_deterministic(tmp_path, capsys):
    args = ["flow", "chart=round_sphere", "n=3", "k=2", "resolution=16",
            "t_end=0.05", "amplitude=0.1", "seed=5", "tolerance=0",
            "snapshot_interval=0.02"]
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(args + [f"output_dir={out}"]) == 0
        outs.append(out)
    summaries = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("reached t_end=0.05")]
    with open(os.path.join(outs[0], "monitor.csv")) as fh:
        steps = len(fh.read().splitlines()) - 2   # header and the t=0 row
    # the CFL bound sets every step but the last, which t_end clips
    assert len(summaries) == 2
    for line in summaries:
        assert line.endswith(f"; {steps} steps accepted, 0 rejected, "
                             f"{steps - 1} CFL-limited")
    for name in sorted(os.listdir(outs[0])):
        with open(os.path.join(outs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            second = fh.read()
        assert first == second, name
    names = os.listdir(outs[0])
    snapshots = [n for n in names if n.startswith("snapshot_t")]
    assert len(snapshots) >= 3
    for name in names:
        if name.endswith(".field"):
            field, meta = fieldio.read_field(os.path.join(outs[0], name))
            assert np.all(np.isfinite(field))
            assert meta["chart"] == "round_sphere"


def test_main_check_suite_passes(capsys):
    assert main(["check"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("PASS") == len(cli._PROPERTIES)
    assert "FAIL" not in captured.out
    assert "properties pass" in captured.out


def test_check_suite_catches_a_skewed_sigma_table(capsys):
    # a 1e-3 relative error in sigma_2 leaves shift covariance, fixed
    # points and the curvature order intact; only the symfun oracle sees it
    table = fieldalg.sigma_table

    def skewed(w, n, kmax, out=None):
        e = table(w, n, kmax, out)
        if kmax >= 2:
            e[..., 2] *= 1.0 + 1e-3
        return e

    with mock.patch.object(fieldalg, "sigma_table", skewed):
        assert main(["check"]) == 5
    captured = capsys.readouterr()
    failed = [line for line in captured.out.splitlines()
              if line.startswith("FAIL")]
    assert len(failed) == 1 and "fieldalg" in failed[0]
    assert captured.out.count("PASS") == len(cli._PROPERTIES) - 1


def test_main_geometry_validate(capsys):
    assert main(["geometry-validate", "chart=synthetic", "n=3",
                 "resolution=16", "s0_diag=0.5,0.5,0.5"]) == 0
    assert "adjointness" in capsys.readouterr().out
    assert main(["geometry-validate", "chart=round_sphere", "n=3",
                 "resolution=16"]) == 0
    assert "curvature order" in capsys.readouterr().out


def test_main_eigen_writes_report_and_phi(tmp_path, capsys):
    out = str(tmp_path / "eig")
    code = main(["eigen", "chart=round_sphere", "n=3", "k=1",
                 "resolution=16", "tolerance=0.3", "amplitude=0",
                 f"output_dir={out}"])
    captured = capsys.readouterr()
    assert code == 0
    assert "λ*≈" in captured.out
    with open(os.path.join(out, "eigen_report.csv")) as fh:
        header, row = fh.read().splitlines()
    assert header.startswith("lambda_star,bracket_lo,bracket_hi")
    lam = float(row.split(",")[0])
    assert abs(lam - 1.5) <= 0.3
    phi, meta = fieldio.read_field(os.path.join(out, "phi.field"))
    assert float(np.max(phi)) == 0.0
    assert float(np.ptp(phi)) <= 1e-12


# ------------------------------------------------------- process entry


def test_module_entry_point_and_thread_env(tmp_path):
    env = dict(os.environ, SIGMAFLOW_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-m", "sigmaflow", "check"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "properties pass" in result.stdout

    env["SIGMAFLOW_THREADS"] = "abc"
    result = subprocess.run(
        [sys.executable, "-m", "sigmaflow", "check"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 2
    assert "SIGMAFLOW_THREADS" in result.stderr


def test_eigen_run_does_not_load_scipy_linalg(tmp_path):
    # The dense solves of eigen and krylov run on numpy.linalg, and every
    # Newton system of a CLI search lies on a line of nodes or one node,
    # whose matrices are dense (geometry.DenseDerivativeMatrices): a
    # seeded run and an amplitude-0 run load no scipy.linalg and no
    # scipy.sparse module. Checked in a fresh interpreter after whole
    # eigen runs, which catches lazy imports on the solve path; this test
    # process itself has loaded both through the test oracles.
    script = (
        "import sys\n"
        "from sigmaflow import cli\n"
        "codes = [cli.main(['eigen', 'chart=round_sphere', 'n=3', 'k=1',\n"
        "                   'resolution=16', 'tolerance=0.2', guess,\n"
        f"                   'output_dir={tmp_path}/' + guess])\n"
        "         for guess in ('seed=1', 'amplitude=0')]\n"
        "loaded = ('scipy.linalg', 'scipy.sparse')\n"
        "print(codes, sorted(m for m in sys.modules if m.startswith(loaded)))\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0] []"


def test_flow_run_does_not_load_scipy_sparse(tmp_path):
    # Only a Newton system on a slab with two or more varying axes uses
    # sparse matrices (geometry.DerivativeMatrices), so a flow run, the
    # chart validation and the eigen command's config parsing leave
    # scipy.sparse unloaded (its import costs about 60 ms and 13 MB of
    # resident memory), and a search with an h that varies along every
    # axis, which solves on the grid, loads it. Checked in a fresh
    # interpreter after whole runs, which catches lazy imports on the way.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from sigmaflow import cli, eigen, fieldio, geometry, krylov, symfun\n"
        "sparse = lambda: sorted(m for m in sys.modules\n"
        "                        if m.startswith('scipy.sparse'))\n"
        "codes = [cli.main(['flow', 'chart=round_sphere', 'n=3', 'k=2',\n"
        "                   'resolution=16', 't_end=0.01', 'amplitude=0.1',\n"
        f"                   'output_dir={tmp_path / 'flow'}']),\n"
        "         cli.main(['geometry-validate', 'chart=round_sphere',\n"
        "                   'n=3', 'resolution=16'])]\n"
        "print(codes, sparse())\n"
        "cli.parse_config('eigen', {'chart': 'round_sphere', 'n': '3',\n"
        "                           'k': '1', 'resolution': '16'})\n"
        "print(sparse())\n"
        "geom = geometry.build_round_sphere(3, 16)\n"
        "t = [geom.grid.axis_vector(a, geom.grid.coordinates(a))\n"
        "     for a in range(3)]\n"
        "h = 1.0 + 0.2 * np.sin(t[0]) * np.sin(t[1]) * np.cos(t[2])\n"
        "eigen.lambda_star_search(eigen.AuxiliaryProblem(geom, 1, h=h), 0.2)\n"
        "print('scipy.sparse' in sparse())\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-3:] == ["[0, 0] []", "[]", "True"]


def test_unknown_subcommand_exits_two():
    result = subprocess.run(
        [sys.executable, "-m", "sigmaflow", "simulate"],
        capture_output=True, text=True)
    assert result.returncode == 2
