"""End-to-end tests of the command-line interface.

Each test drives ``main`` directly with small scenario files: exit
codes, artifact layout, the config-hash comment line, determinism of
the CSV bytes, and the PASS/FAIL wiring of every verify experiment.
"""

import csv
import io
import re

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
  jobs: 2
  refinements: [125, 250, 500]
sweep:
  eps_values: [0.05, 0.0125, 0.003125]
control: {basis_size: 1, max_evals: 15}
"""

EXPERIMENT_CONFIG = """
mesh: {n_nodes: 9}
model: {n_steps: 100}
experiment: {n_loads: 2, n_pairs: 2, eps_values: [0.1, 0.05], jobs: 2}
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

    assert main(["solve", "--config", small_cfg, "--out", str(tmp_path / "z"),
                 "--eps", "-0.5"]) == 2
    assert "--eps" in capsys.readouterr().err

    assert main(["verify", "bounds", "--config", small_cfg,
                 "--out", str(tmp_path / "w"), "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err

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


def test_verify_compat_failure_exits_one(tmp_path, capsys):
    cfg = tmp_path / "jump.yaml"
    cfg.write_text("mesh: {n_nodes: 5}\nload: {time: '2 + t'}\n")
    out = tmp_path / "vc"
    assert main(["verify", "compat", "--config", str(cfg),
                 "--out", str(out)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert (out / "verify_compat.csv").exists()


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
