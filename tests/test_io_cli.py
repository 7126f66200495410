"""End-to-end checks of the command-line surface.

Most tests drive ``main(argv)`` in process; one goes through the installed
console script to make sure packaging wiring works too.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from mlscert.cli import main


@pytest.fixture
def const_csv(tmp_path):
    p = tmp_path / "const.csv"
    p.write_text("x1,f\n0.0,7.0\n1.0,7.0\n2.0,7.0\n3.0,7.0\n")
    return str(p)


@pytest.fixture
def linear_csv(tmp_path):
    p = tmp_path / "linear.csv"
    p.write_text("x1,f\n0.0,0.0\n1.0,1.0\n2.0,2.0\n")
    return str(p)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_constant_everywhere(const_csv, capsys):
    code, out, _ = run_cli(["fit", "--input", const_csv, "--grid", "0.3:2.7:9"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["x1", "Lhat", "sum_a", "amplification"]
    for row in doc["rows"]:
        assert row[1] == pytest.approx(7.0, abs=1e-10)
        assert row[2] == pytest.approx(1.0, abs=1e-12)


def test_fit_reproduces_linear_csv_format(linear_csv, capsys):
    code, out, _ = run_cli(
        ["fit", "--input", linear_csv, "--grid", "0.25:1.75:4", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x1,Lhat,sum_a,amplification"
    for line in lines[1:]:
        x, lhat = (float(v) for v in line.split(",")[:2])
        assert lhat == pytest.approx(x, abs=1e-10)


def test_fit_defaults_to_nodes(const_csv, capsys):
    code, out, _ = run_cli(["fit", "--input", const_csv], capsys)
    assert code == 0
    assert len(json.loads(out)["rows"]) == 4


def test_fit_at_a_node_prints_the_node_value(tmp_path, capsys):
    """An interpolating fit at a node returns the sample itself, so a -0.0
    sample prints as -0 (a dot product with the unit coefficient vector
    would give +0)."""
    p = tmp_path / "signed_zero.csv"
    p.write_text("x1,f\n0.0,1.0\n1.0,-0.0\n2.0,3.0\n")
    cfg = tmp_path / "shepard.json"
    cfg.write_text('{"weight": {"family": "shepard", "alpha": 1.0}}')
    code, out, _ = run_cli(
        ["fit", "--input", str(p), "--config", str(cfg), "--format", "csv"], capsys
    )
    assert code == 0
    assert [line.split(",")[1] for line in out.split("\n")[1:-1]] == ["1", "-0", "3"]


def test_fit_missing_values_column(tmp_path, capsys):
    p = tmp_path / "novals.csv"
    p.write_text("x1\n0.0\n1.0\n")
    code, _, err = run_cli(["fit", "--input", str(p)], capsys)
    assert code == 2
    assert "values" in err


def test_fit_requires_input(capsys):
    assert run_cli(["fit"], capsys)[0] == 2


def test_malformed_csv(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("x1,f\n0.0,oops\n")
    assert run_cli(["fit", "--input", str(p)], capsys)[0] == 2


def test_basis_larger_than_node_count(linear_csv, tmp_path, capsys):
    cfg = tmp_path / "l9.json"
    cfg.write_text('{"l": 9}')
    code, _, err = run_cli(
        ["fit", "--input", linear_csv, "--config", str(cfg)], capsys
    )
    assert code == 3
    assert "hypothesis" in err.lower()


def test_conditioning_exit_code(tmp_path, capsys):
    # tightly clustered nodes push the quadratic design past the condition cap
    p = tmp_path / "tight.csv"
    p.write_text("x1,f\n0.0,0.0\n1e-4,0.0\n2e-4,0.0\n")
    cfg = tmp_path / "c.json"
    cfg.write_text('{"l": 3}')
    code, _, err = run_cli(
        ["fit", "--input", str(p), "--config", str(cfg), "--grid", "0.4:0.6:2"],
        capsys,
    )
    assert code == 4
    assert "condition" in err.lower()


def test_bad_grid_specs(const_csv, capsys):
    assert run_cli(["fit", "--input", const_csv, "--grid", "abc"], capsys)[0] == 2
    assert run_cli(["fit", "--input", const_csv, "--grid", "1:2"], capsys)[0] == 2
    assert run_cli(["fit", "--input", const_csv, "--grid", "0"], capsys)[0] == 2


def test_fit_nan_grid_names_the_point(const_csv, capsys):
    code, out, err = run_cli(["fit", "--input", const_csv, "--grid", "nan:1:5"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: evaluation point nan is not finite\n"


def test_bad_tol_specs(const_csv, capsys):
    assert run_cli(["diagnose", "--input", const_csv, "--tol", "symmetry"], capsys)[0] == 2
    assert run_cli(["diagnose", "--input", const_csv, "--tol", "sym=x"], capsys)[0] == 2
    assert run_cli(["diagnose", "--input", const_csv, "--tol", "nope=1"], capsys)[0] == 2


def test_diagnose_instance_file(const_csv, capsys):
    code, out, _ = run_cli(
        ["diagnose", "--input", const_csv, "--grid", "0.4:2.6:3"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["n_points"] == 3
    rep = doc["reports"][0]
    assert rep["eigen"]["counts_ok"] is True
    assert rep["x"] == [0.4]


def test_diagnose_input_matches_per_point_reports(const_csv, tmp_path, capsys):
    """300 grid points, more than one stacked block: the report is what a
    loop of ``build_system`` and ``diagnose`` per point gives."""
    from mlscert.bases import monomial_basis
    from mlscert.core import build_system
    from mlscert.points import PointSet
    from mlscert.reporting import canonical_json
    from mlscert.spectral import diagnose
    from mlscert.weights import WeightSpec

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"l": 3, "weight": {"family": "exp", "alpha": 0.7}}')
    code, out, _ = run_cli(
        ["diagnose", "--input", const_csv, "--config", str(cfg), "--grid=-0.5:3.5:300"],
        capsys,
    )
    pts = PointSet(np.arange(4.0), values=np.full(4, 7.0))
    reports = []
    for x in np.linspace(-0.5, 3.5, 300):
        sysm = build_system(float(x), pts, monomial_basis(3), WeightSpec("exp", 0.7))
        reports.append({**diagnose(sysm).to_dict(), "x": [float(x)]})
    ok = all(r["pass"] for r in reports)
    want = canonical_json({"n_points": 300, "reports": reports, "pass": ok})
    assert code == (0 if ok else 5)
    assert out.rstrip("\n") == want.rstrip("\n")


@pytest.mark.parametrize(
    "grid,message",
    [
        # 0 is a node: its diagnosis fails before 50 fails to build
        ("0:100:3", "operators require x off the nodes for interpolating weights"),
        ("0.5:100:3", "weight vanished at positive distance"),
    ],
)
def test_diagnose_input_first_failing_point_decides(const_csv, tmp_path, capsys, grid, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"l": 2, "weight": {"family": "mclain", "alpha": 1.0}}')
    code, out, err = run_cli(
        ["diagnose", "--input", const_csv, "--config", str(cfg), "--grid", grid], capsys
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_diagnose_suite_mode(capsys):
    code, out, err = run_cli(["diagnose", "--seed", "7"], capsys)
    assert code == 0
    assert err.count("[PASS]") == 3
    doc = json.loads(out)
    assert set(doc["suites"]) == {"spectral", "sv_product", "eig_product"}


def test_diagnose_forced_failure_exit_code(capsys):
    code, _, err = run_cli(
        ["diagnose", "--seed", "7", "--tol", "symmetry=0", "--tol", "eig_dev=0"],
        capsys,
    )
    assert code == 5
    assert "[FAIL] spectral" in err


def test_bound_certificate_passes(tmp_path, capsys):
    xs = np.linspace(0.0, 4.0, 5)
    p = tmp_path / "sin5.csv"
    p.write_text("x1,f\n" + "".join(f"{x},{np.sin(x)}\n" for x in xs))
    code, out, _ = run_cli(["bound", "--input", str(p)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["min_slack"] >= -1e-9
    assert doc["metadata"]["n_grid"] == 200


def test_bound_csv_and_paper_convention(tmp_path, capsys):
    xs = np.linspace(0.0, 4.0, 5)
    p = tmp_path / "sin5.csv"
    p.write_text("x1,f\n" + "".join(f"{x},{np.sin(x)}\n" for x in xs))
    code, out, _ = run_cli(
        ["bound", "--input", str(p), "--format", "csv", "--convention", "paper",
         "--grid", "0.1:3.9:40"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,lhs,rhs,slack"
    assert len(lines) == 41
    for line in lines[1:]:
        assert float(line.split(",")[3]) >= -1e-9


def test_bound_rejects_non_exponential_weight(tmp_path, capsys):
    p = tmp_path / "lin.csv"
    p.write_text("x1,f\n0.0,0.0\n1.0,1.0\n2.0,2.0\n")
    cfg = tmp_path / "w.json"
    cfg.write_text('{"weight": {"family": "shepard", "alpha": 1.0}}')
    code, _, err = run_cli(["bound", "--input", str(p), "--config", str(cfg)], capsys)
    assert code == 3
    assert "exp_weight_family" in err


def test_bound_rejects_2d_input(tmp_path, capsys):
    p = tmp_path / "planar.csv"
    p.write_text("x1,x2,f\n0,0,0\n1,0,1\n0,1,2\n1,1,3\n")
    code, out, err = run_cli(["bound", "--input", str(p)], capsys)
    assert (code, out) == (3, "")
    assert err == "hypothesis failure: dimension_one, basis_derivative_available\n"


def test_bound_nan_grid_names_the_point(linear_csv, capsys):
    code, out, err = run_cli(["bound", "--input", linear_csv, "--grid", "nan:1:5"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: evaluation point nan is not finite\n"


@pytest.mark.parametrize("command", ["fit", "diagnose", "bound"])
def test_overflowing_design_names_the_node(command, tmp_path, capfd):
    """x^2 overflows at 1e155: malformed input naming the node, with no
    numpy warning and no LAPACK message on the process's stderr."""
    p = tmp_path / "huge.csv"
    p.write_text("x1,f\n0,0\n1e155,1\n2e155,2\n")
    cfg = tmp_path / "l3.json"
    cfg.write_text('{"l": 3}')
    code = main([command, "--input", str(p), "--config", str(cfg), "--grid", "3"])
    out, err = capfd.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: basis values at node 1e+155 are not finite\n"


def test_converge_csv_columns(capsys):
    code, out, _ = run_cli(["converge", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "level,h,sup_error,amplification,observed_order_cum"
    assert len(lines) == 4
    last = lines[-1].split(",")
    assert float(last[4]) >= 1.8


def test_converge_config(tmp_path, capsys):
    cfg = tmp_path / "conv.json"
    cfg.write_text('{"function": "exp", "l": 1, "levels": 4, "h0": 0.1}')
    code, out, _ = run_cli(["converge", "--config", str(cfg)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["hs"]) == 4
    assert doc["hs"][0] == pytest.approx(0.1)


def test_converge_unknown_function(tmp_path, capsys):
    cfg = tmp_path / "conv.json"
    cfg.write_text('{"function": "cos"}')
    assert run_cli(["converge", "--config", str(cfg)], capsys)[0] == 2


def test_selftest_deterministic_bytes(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(["selftest", "--seed", "42", "--out", str(out1)], capsys)[0] == 0
    assert run_cli(["selftest", "--seed", "42", "--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    # one trailing newline after the canonical JSON text
    assert out1.read_bytes().endswith(b"}\n")
    report = json.loads(out1.read_text())
    assert report["pass"] is True
    assert report["seed"] == 42


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    out_env = tmp_path / "env.json"
    out_flag = tmp_path / "flag.json"
    monkeypatch.setenv("MLS_SEED", "5")
    run_cli(["diagnose", "--out", str(out_env)], capsys)
    assert json.loads(out_env.read_text())["seed"] == 5
    run_cli(["diagnose", "--seed", "9", "--out", str(out_flag)], capsys)
    assert json.loads(out_flag.read_text())["seed"] == 9
    monkeypatch.setenv("MLS_SEED", "not-a-number")
    assert run_cli(["diagnose"], capsys)[0] == 2


def test_console_script_installed(const_csv):
    proc = subprocess.run(
        [sys.executable, "-m", "mlscert", "fit", "--input", const_csv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"]


def test_parser_built_once_without_shared_state(linear_csv, tmp_path, capsys):
    """main reuses one parser per process; a --tol list from one call never
    leaks into the next."""
    from mlscert.config import Tolerances

    out = tmp_path / "cert.json"
    base = ["bound", "--input", linear_csv, "--grid", "5", "--out", str(out)]
    assert run_cli(base + ["--tol", "not-a-pair"], capsys)[0] == 2
    assert run_cli(base + ["--tol", "bound=2e-6"], capsys)[0] == 0
    assert json.loads(out.read_text())["tolerances"]["bound"] == 2e-6
    assert run_cli(base, capsys)[0] == 0
    assert json.loads(out.read_text())["tolerances"] == Tolerances().to_dict()
