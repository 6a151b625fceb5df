"""End-to-end tests of the command-line interface.

Each test drives ``main`` directly with small scenario files: exit
codes, artifact layout, the config-hash comment line, determinism of
the CSV bytes, and the PASS/FAIL wiring of every verify experiment.
"""

import csv
import io
import re
import warnings

import numpy as np
import pytest

from histris.cli import _fmt, _write_csv, _write_trajectory, main
from histris.config import build_scenario, load_config_file
from histris.spatial import build_mesh
from histris.trajectory import Trajectory
from histris.viscous import solve_viscous

SMALL_CONFIG = """
mesh: {n_nodes: 5}
model: {n_steps: 200}
solver: {eps: 0.05}
experiment:
  n_loads: 2
  n_pairs: 2
  eps_values: [0.1, 0.05]
  refinements: [125, 250, 500]
sweep:
  eps_values: [0.05, 0.0125, 0.003125]
control: {basis_size: 1, max_evals: 15}
"""

EXPERIMENT_CONFIG = """
mesh: {n_nodes: 9}
model: {n_steps: 100}
experiment: {n_loads: 2, n_pairs: 2, eps_values: [0.1, 0.05]}
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_CONFIG)
    return str(path)


@pytest.fixture
def experiment_cfg(tmp_path):
    path = tmp_path / "experiment.yaml"
    path.write_text(EXPERIMENT_CONFIG)
    return str(path)


def _read_artifact(path):
    """Return (hash_line, header, data_rows) of one CSV artifact."""
    text = path.read_text()
    lines = text.splitlines()
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_trajectory_and_report(tmp_path, small_cfg, capsys):
    out = tmp_path / "run"
    assert main(["solve", "--config", small_cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "solve:" in captured.out and "balance residual" in captured.out

    hash_line, header, rows = _read_artifact(out / "trajectory.csv")
    assert re.fullmatch(r"# config_hash=[0-9a-f]{16}", hash_line)
    assert header == ["time", "q0", "q1", "q2", "q3", "q4"]
    assert len(rows) == 201
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0
    assert all(float(rows[0][j]) == 0.0 for j in range(1, 6))

    hash2, header2, rows2 = _read_artifact(out / "report.csv")
    assert hash2 == hash_line
    assert header2 == ["time", "state_h1_norm", "rate_h1_norm",
                       "dissipation_rate", "energy", "balance_residual"]
    assert len(rows2) == 201
    assert max(float(r[5]) for r in rows2) <= 1e-8


def test_solve_is_byte_deterministic(tmp_path, small_cfg):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", small_cfg, "--out", str(out_a)]) == 0
    assert main(["solve", "--config", small_cfg, "--out", str(out_b)]) == 0
    for name in ("trajectory.csv", "report.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_eps_override_changes_the_effective_config(tmp_path, small_cfg):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", small_cfg, "--out", str(out_a)]) == 0
    assert main(["solve", "--config", small_cfg, "--out", str(out_b),
                 "--eps", "0.2"]) == 0
    hash_a = (out_a / "trajectory.csv").read_text().splitlines()[0]
    hash_b = (out_b / "trajectory.csv").read_text().splitlines()[0]
    assert hash_a != hash_b


def test_seed_flag_is_accepted(tmp_path, small_cfg):
    out = tmp_path / "seeded"
    assert main(["solve", "--config", small_cfg, "--out", str(out),
                 "--seed", "9"]) == 0


def test_incompatible_initial_load_warns_but_solves(tmp_path, capsys):
    cfg = tmp_path / "jump.yaml"
    cfg.write_text("mesh: {n_nodes: 5}\nmodel: {n_steps: 50}\n"
                   "load: {time: '2 + t'}\n")
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg.as_posix(), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "WARNING:" in captured.out
    assert "viscous transient" in captured.out
    assert (out / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# config errors -> exit 2


def test_config_errors_exit_two(tmp_path, small_cfg, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: {alpha: -1.0}\n")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "model.alpha" in capsys.readouterr().err

    missing = str(tmp_path / "nope.yaml")
    assert main(["solve", "--config", missing, "--out", str(tmp_path / "y")]) == 2
    assert "cannot read" in capsys.readouterr().err

    # Each flag goes through its key's check, under the flag's name.
    for command, flag, value in [
        (["solve"], "--eps", "-0.5"),
        (["solve"], "--eps", "0"),
        (["solve"], "--seed", "-7"),
        (["verify", "bounds"], "--seed", "-1"),
    ]:
        assert main(command + ["--config", small_cfg, "--out",
                               str(tmp_path / "z"), flag, value]) == 2
        assert f"{flag} must be" in capsys.readouterr().err

    # A sweep needs two levels to compare, an order fit two step counts.
    for command, text, key in [
        (["sweep"], "sweep: {eps_values: [0.1]}", "sweep.eps_values"),
        (["verify", "dual"], "experiment: {refinements: [50]}",
         "experiment.refinements"),
        (["verify", "dual"], "experiment: {refinements: [50, 50]}",
         "experiment.refinements"),
    ]:
        bad.write_text(text + "\n")
        out = tmp_path / "v"
        assert main(command + ["--config", str(bad), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    # Expressions nested past the limit; the parser's recursion is bounded.
    for text in ["(" * 400 + "t" + ")" * 400, "-" * 101 + "t"]:
        bad.write_text(f"load: {{time: '{text}'}}\n")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "w")]) == 2
        assert "config error: load.time: " in capsys.readouterr().err

    # Malformed YAML, and values of the wrong type or choice.
    for text, message in [
        ("model: [1, 2", "config error: cannot parse config file"),
        ("dissipation: {family: foo}", "dissipation.family must be one of"),
        ("solver: {warm_start: 1}", "solver.warm_start must be a boolean, got 1"),
        ("history: {kind: 3}", "history.kind must be a string, got 3"),
    ]:
        bad.write_text(text + "\n")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "k")]) == 2
        assert message in capsys.readouterr().err

    # A grid of 10^15 steps or nodes (8 PB of floats) cannot be allocated.
    for text in ["model: {n_steps: 1000000000000000}",
                 "mesh: {n_nodes: 1000000000000000}"]:
        bad.write_text(text + "\n")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "m")]) == 2
        assert ("config error: not enough memory for this run: "
                in capsys.readouterr().err)

    # An --out that is a file, or lies below one.
    afile = tmp_path / "afile"
    afile.write_text("")
    for command in (["verify", "compat"], ["solve", "--config", small_cfg]):
        for out in (afile, afile / "sub"):
            assert main(command + ["--out", str(out)]) == 2
            assert "config error: --out: " in capsys.readouterr().err


def test_unbalanced_solve_exits_one(tmp_path, capsys):
    # A load of 1e10 breaks the balance gate at the first step (ROADMAP
    # direction 1): the solve fails by name instead of returning.
    cfg = tmp_path / "large.yaml"
    cfg.write_text('model: {n_steps: 200}\nload: {time: "1e10*sin(pi*t)"}\n')
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert ("numerical failure: force balance violated at step 1/200"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, text, key", [
    (["solve"], "model: {n_steps: .inf}", "model.n_steps"),
    (["solve"], "mesh: {n_nodes: .nan}", "mesh.n_nodes"),
    (["verify", "dual"], "experiment: {refinements: [.inf, 250]}",
     "experiment.refinements[0]"),
    (["sweep"], "sweep: {eps_values: [.nan]}", "sweep.eps_values[0]"),
    (["solve"], "model: {horizon: 1%s}" % ("0" * 400), "model.horizon"),
    (["verify", "dual"], "experiment: {refinements: [1%s]}" % ("0" * 400),
     "experiment.refinements[0]"),
])
def test_non_finite_config_numbers_exit_two(tmp_path, capsys, command, text, key):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text + "\n")
    assert main(command + ["--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err


def test_argparse_rejects_bad_invocations(small_cfg):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything", "--config", small_cfg])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bounds", "--config", small_cfg, "--jobs", "2"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_writes_summary_and_per_level_trajectories(tmp_path, small_cfg,
                                                         capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", small_cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "limit certificate" in captured.out and "PASS" in captured.out

    _, header, rows = _read_artifact(out / "sweep_summary.csv")
    assert header == ["eps", "c_gap_from_prev", "h1_gap_from_prev",
                      "max_balance_residual", "max_rate_h1_norm"]
    assert len(rows) == 3
    for i in range(3):
        assert (out / f"trajectory_eps{i:02d}.csv").exists()


def test_sweep_trajectories_are_the_per_level_solves(tmp_path, small_cfg):
    # The sweep advances its levels in lockstep; each trajectory file
    # must hold the bytes that level's own solve writes, run after run.
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["sweep", "--config", small_cfg, "--out", str(out)]) == 0
    cfg = load_config_file(small_cfg)
    scenario = build_scenario(cfg)
    for i, eps in enumerate(cfg["sweep"]["eps_values"]):
        name = f"trajectory_eps{i:02d}.csv"
        traj, _ = solve_viscous(scenario, eps)
        _write_trajectory(str(tmp_path / name), cfg, scenario.mesh, traj)
        for out in runs:
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    summary = [(out / "sweep_summary.csv").read_bytes() for out in runs]
    assert summary[0] == summary[1]


def test_sweep_ignores_the_solver_method_and_warm_start(tmp_path, small_cfg):
    # solver.method and solver.warm_start are read by `solve` alone: the
    # sweep's solves are implicit and warm-started whatever they say, so
    # only the config hash line differs.
    other = tmp_path / "other.yaml"
    other.write_text(SMALL_CONFIG.replace(
        "solver: {eps: 0.05}",
        "solver: {eps: 0.05, warm_start: false, method: explicit}"))
    runs = [tmp_path / "default", tmp_path / "other"]
    codes = [main(["sweep", "--config", cfg, "--out", str(out)])
             for cfg, out in zip((small_cfg, str(other)), runs)]
    assert codes[0] == codes[1]
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir())
    assert "sweep_summary.csv" in names
    for name in names:
        a, b = ((out / name).read_bytes().split(b"\n", 1) for out in runs)
        assert a[0] != b[0] and a[1] == b[1]


def test_sweep_failing_certificate_exits_one(tmp_path, capsys):
    cfg = tmp_path / "tight.yaml"
    cfg.write_text(SMALL_CONFIG + "\n")
    text = cfg.read_text().replace(
        "sweep:\n  eps_values: [0.05, 0.0125, 0.003125]",
        "sweep:\n  eps_values: [0.05, 0.0125, 0.003125]\n  certificate_tol: 1.0e-9",
    )
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# verify


def test_verify_experiments_pass_on_small_configs(tmp_path, small_cfg,
                                                  experiment_cfg, capsys):
    cases = [
        ("compat", small_cfg, "verify_compat.csv"),
        ("unique", small_cfg, "verify_unique.csv"),
        ("dual", small_cfg, "verify_dual.csv"),
        ("history", small_cfg, "verify_history.csv"),
        ("bounds", experiment_cfg, "verify_bounds.csv"),
        ("lipschitz", experiment_cfg, "verify_lipschitz.csv"),
    ]
    for name, cfg, artifact in cases:
        out = tmp_path / name
        code = main(["verify", name, "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0, f"verify {name} exited {code}: {captured.out}"
        assert "PASS" in captured.out
        assert (out / artifact).exists()


def test_verify_history_runs_on_one_step(tmp_path, capsys):
    # One step has one increment of the history: one row, not a
    # header-only CSV (which used to PASS) nor a refusal.
    cfg = tmp_path / "one.yaml"
    cfg.write_text("mesh: {n_nodes: 5}\nmodel: {n_steps: 1}\n")
    out = tmp_path / "vh"
    assert main(["verify", "history", "--config", str(cfg), "--out", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    _, header, rows = _read_artifact(out / "verify_history.csv")
    assert header == ["rate_index", "time", "increment", "bound", "ratio"]
    assert [row[:2] for row in rows] == [["0", "1"]]


# The weighted l1 problem of ROADMAP direction 12, where the derivative
# form of the check failed: L = 0.2 is the weight's true constant.
_L1_HISTORY = ("mesh: {n_nodes: 9}\nmodel: {n_steps: 40}\n"
               "dissipation: {family: weighted_l1, weight: '0.5 + 0.2*sin(z)', "
               "lipschitz: %s}\n"
               "history: {kind: convolution, kernel: 'exp(-2*t)'}\n")


@pytest.mark.parametrize("lipschitz, code", [("0.2", 0), ("0.05", 1)])
def test_verify_history_on_the_l1_problem(tmp_path, capsys, lipschitz, code):
    cfg = tmp_path / "l1.yaml"
    cfg.write_text(_L1_HISTORY % lipschitz)
    out = tmp_path / "vh"
    assert main(["verify", "history", "--config", str(cfg), "--out", str(out)]) == code
    assert ("PASS", "FAIL")[code] in capsys.readouterr().out
    _, header, rows = _read_artifact(out / "verify_history.csv")
    assert header == ["rate_index", "time", "increment", "bound", "ratio"]
    ratio = max(float(row[4]) for row in rows)
    assert ratio == pytest.approx({"0.2": 0.5774, "0.05": 2.3094}[lipschitz], abs=1e-4)


def test_verify_compat_failure_exits_one(tmp_path, capsys):
    cfg = tmp_path / "jump.yaml"
    cfg.write_text("mesh: {n_nodes: 5}\nload: {time: '2 + t'}\n")
    out = tmp_path / "vc"
    assert main(["verify", "compat", "--config", str(cfg),
                 "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert (out / "verify_compat.csv").exists()


# 1/t at t = 0 divides by zero: infinite, with numpy's warning.
_SINGULAR_AT_ZERO = ("model: {n_steps: 20}\nload: {time: '1/t'}\n"
                     "solver: {method: %s, eps: 0.5}\n")


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("method", ["implicit", "explicit"])
def test_a_load_singular_at_zero_fails_the_solve_by_name(tmp_path, capsys, method):
    # No step reads the implicit method's load at t = 0, but the report's
    # first energy does: the loop checks that row before the first step.
    cfg = tmp_path / "singular.yaml"
    cfg.write_text(_SINGULAR_AT_ZERO % method)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert ("numerical failure: non-finite load at t = 0 (eps=0.5)"
            in capsys.readouterr().err)
    assert not (out / "report.csv").exists()


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_a_load_singular_at_zero_fails_verify_compat(tmp_path, capsys):
    cfg = tmp_path / "singular.yaml"
    cfg.write_text(_SINGULAR_AT_ZERO % "implicit")
    out = tmp_path / "vc"
    assert main(["verify", "compat", "--config", str(cfg), "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    _, header, rows = _read_artifact(out / "verify_compat.csv")
    assert header == ["compatible", "worst_violation", "worst_node"]
    assert rows[0][:2] == ["0", "inf"]


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("command", [["solve"], ["verify", "compat"]])
def test_a_load_singular_at_zero_is_named_by_the_compat_message(tmp_path, capsys,
                                                                command):
    # The solve fails at once: no viscous transient follows.
    cfg = tmp_path / "singular.yaml"
    cfg.write_text(_SINGULAR_AT_ZERO % "implicit")
    assert main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    said = capsys.readouterr().out
    assert "initial load is not finite at 33 node(s), so the solve will fail" in said
    assert "viscous transient" not in said


@pytest.mark.parametrize("time", ["1/t", "1/(t-0.5)"])
def test_a_runtime_warning_as_error_is_a_numerical_failure(tmp_path, capsys, time):
    # Under python -W error numpy's divide-by-zero warning is raised; the
    # CLI reports it and exits 1, without a traceback.
    cfg = tmp_path / "singular.yaml"
    cfg.write_text(f"model: {{n_steps: 20}}\nload: {{time: '{time}'}}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "numerical failure: divide by zero encountered in divide\n"


# ---------------------------------------------------------------------------
# optimize


def test_optimize_writes_evaluation_trace(tmp_path, small_cfg, capsys):
    out = tmp_path / "opt"
    assert main(["optimize", "--config", small_cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "optimize: best objective" in captured.out

    _, header, rows = _read_artifact(out / "optimize_trace.csv")
    assert header[:7] == ["eval", "total", "tracking", "regularization",
                          "load_norm", "response_norm", "bound_ratio"]
    assert header[7:] == ["theta0"]
    assert len(rows) == 15  # the configured evaluation budget
    totals = [float(r[1]) for r in rows]
    assert min(totals) == totals[-1] or min(totals) <= totals[0]


def test_csv_rows_match_the_per_value_writer(tmp_path):
    # All-float rows take a one-call format; its bytes must be those of
    # csv.writer over _fmt, including nan, infinities and signed zeros.
    header = ["a", "b", "c", "d"]
    special = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 0.1]
    rows = [
        [np.float64(v), v, 1.0 / 3.0, -v] for v in special
    ] + [
        [1.5, "x,y", 2, True],   # mixed row: csv.writer quotes "x,y"
        [2.5, 3.5],              # short row
        [np.float64(1e-300), 2.0, 3.0, 4.0],
    ]
    path = tmp_path / "rows.csv"
    _write_csv(str(path), {}, header, rows)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.readline().startswith("# config_hash=")
        assert fh.read() == expected.getvalue()

    # Trajectory rows come from one array conversion; same bytes as the
    # per-value rows [time, q0, q1, ...].
    traj = Trajectory(np.array([0.0, 0.1, 1e16]),
                      np.array([special[:3], special[3:6], special[6:]]))
    _write_trajectory(str(path), {}, build_mesh(3), traj)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["time", "q0", "q1", "q2"])
    for t, q in zip(traj.times, traj.values):
        writer.writerow([_fmt(t)] + [_fmt(v) for v in q])
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.readline().startswith("# config_hash=")
        assert fh.read() == expected.getvalue()


def _per_value_bytes(header, table):
    """The bytes of csv.writer over _fmt for the rows of ``table``."""
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    for row in table.tolist():
        writer.writerow([_fmt(v) for v in row])
    return expected.getvalue()


def _written(path, header, table):
    _write_csv(str(path), {}, header, table)
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.readline().startswith("# config_hash=")
        return fh.read()


def test_held_rows_of_a_table_keep_the_per_value_bytes(tmp_path):
    # A table row whose columns after the first repeat the row before
    # reuses its text; the time column is formatted every row.
    a, b = [1.0 / 3.0, -2.5, 1e-300], [0.1, 5e-324, -1e16]
    table = np.column_stack(([0.0, -0.0, 0.25, 0.5, 1.0], [a, a, b, b, a]))
    header = ["time", "q0", "q1", "q2"]
    assert _written(tmp_path / "t.csv", header, table) == _per_value_bytes(header, table)


def test_held_rows_are_decided_by_bits_not_values(tmp_path):
    # 0.0 == -0.0 and NaN payloads: a row that equals the one before by
    # value but not by bits is formatted again.  A writer that compared
    # values would write "0" where "-0" is due.
    nan = np.float64(np.nan)
    payload = np.array(0x7FF8000000000001, dtype=np.uint64).view(np.float64)
    cols = [[0.0, 1.0], [-0.0, 1.0], [-0.0, 1.0], [0.0, 1.0],
            [nan, -0.0], [-nan, -0.0], [payload, 0.0], [payload, 0.0]]
    table = np.column_stack((np.arange(len(cols)) / 8.0, cols))
    header = ["time", "q0", "q1"]
    text = _written(tmp_path / "t.csv", header, table)
    assert text == _per_value_bytes(header, table)
    assert [line.split(",", 1)[1] for line in text.splitlines()[1:]] == [
        "0,1", "-0,1", "-0,1", "0,1", "nan,-0", "nan,-0", "nan,0", "nan,0"]


def test_one_column_and_empty_tables(tmp_path):
    table = np.array([[0.0], [-0.0], [0.5], [0.5]])
    assert _written(tmp_path / "t.csv", ["time"], table) == "time\n0\n-0\n0.5\n0.5\n"
    header = ["time", "q0", "q1"]
    assert _written(tmp_path / "e.csv", header, np.empty((0, 3))) == "time,q0,q1\n"
