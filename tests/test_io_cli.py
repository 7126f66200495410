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


@pytest.mark.parametrize("spec", ["0:inf:3", "-inf:1:3", "nan:1:5", "0:nan:2"])
def test_non_finite_grid_end_is_refused(const_csv, capsys, spec):
    """Refused before numpy sees the spec: no RuntimeWarning, exit 2."""
    code, out, err = run_cli(["fit", "--input", const_csv, f"--grid={spec}"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: bad grid spec {spec!r}; the ends a and b must be finite\n"


def test_fit_nan_grid_names_the_point(const_csv, capsys):
    code, out, err = run_cli(["fit", "--input", const_csv, "--grid", "nan:1:5"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: bad grid spec 'nan:1:5'; the ends a and b must be finite\n"


def test_bad_tol_specs(const_csv, capsys):
    assert run_cli(["diagnose", "--input", const_csv, "--tol", "symmetry"], capsys)[0] == 2
    assert run_cli(["diagnose", "--input", const_csv, "--tol", "sym=x"], capsys)[0] == 2
    assert run_cli(["diagnose", "--input", const_csv, "--tol", "nope=1"], capsys)[0] == 2
    # a tolerance is finite and nonnegative; the message names the key
    for spec in ("bound=nan", "bound=-1", "lin=inf", "norm_chain=nan", "psd=-inf"):
        key = spec.partition("=")[0]
        for command in (["diagnose", "--input", const_csv], ["bound", "--input", const_csv],
                        ["selftest"]):
            code, out, err = run_cli(command + ["--tol", spec], capsys)
            assert (code, out) == (2, ""), (command, spec)
            assert f"tolerance {key} must be finite and >= 0" in err
    # zero is allowed, though roundoff may then show as a reported failure
    assert run_cli(["diagnose", "--input", const_csv, "--tol", "lin=0"], capsys)[0] in (0, 5)


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
        reports.append({**diagnose(sysm), "x": [float(x)]})
    ok = all(r["pass"] for r in reports)
    want = canonical_json({"n_points": 300, "reports": reports, "pass": ok})
    assert code == (0 if ok else 5)
    assert out.rstrip("\n") == want.rstrip("\n")


@pytest.mark.parametrize(
    "grid,message",
    [
        # 0 is a node: its diagnosis fails before 50 fails to build
        ("0:100:3", "operators require x off the nodes for interpolating weights"),
        # a vanished weight also names the distance and the point
        ("0.5:100:3", "weight vanished at positive distance 5.025e+01 at x = 50.25 "
                      "(grid point 1 of 3)"),
    ],
    ids=["0:100:3-operators require x off the nodes for interpolating weights",
         "0.5:100:3-weight vanished at positive distance"],
)
def test_diagnose_input_first_failing_point_decides(const_csv, tmp_path, capsys, grid, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"l": 2, "weight": {"family": "mclain", "alpha": 1.0}}')
    code, out, err = run_cli(
        ["diagnose", "--input", const_csv, "--config", str(cfg), "--grid", grid], capsys
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command,weight,message",
    [
        # a weight diagonal of 2e-322 to 1.6e-320: fit solves it, but the
        # operators scaled by its inverse overflow
        ("diagnose", '{"family": "levin", "alpha": 1e-160}',
         "weight-scaled operators are not finite: smallest weight diagonal entry 1.976e-322"),
        # w = r^900 underflows to 0 below r = 0.44
        ("fit", '{"family": "shepard", "alpha": 30}',
         "weight vanished at positive distance 1.000e-01 at x = 0.1 (grid point 0 of 5)"),
        ("fit", '{"family": "mclain", "alpha": 100}',
         "weight vanished at positive distance 4.000e-01 at x = 0.1 (grid point 0 of 5)"),
    ],
    ids=["levin_diagnose", "shepard_fit", "mclain_fit"],
)
def test_underflowing_weights_exit_2_on_one_line(command, weight, message, tmp_path, capfd):
    """One stderr line naming the cause, with no numpy warning and no
    LAPACK message on the process's stdout."""
    data = tmp_path / "five.csv"
    data.write_text("x1,f\n0,0\n0.25,0.1\n0.5,0.3\n0.75,0.2\n1,0.5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"l": 2, "weight": {weight}}}')
    code = main([command, "--input", str(data), "--config", str(cfg), "--grid", "0.1:0.9:5"])
    out, err = capfd.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")


class _OneSystem:
    """A solved block of one row, for ``_per_point_rows``."""

    def __init__(self, sysm):
        self.sysm = sysm
        self.coeffs = sysm.coeffs[None]

    def systems(self):
        return [self.sysm]


def _per_point_rows(xs, points, basis, weight, **_):
    """Reference for ``build_rows``: one ``build_system`` per point, each
    yielded as its own block, so the first failing point raises."""
    from mlscert.core import build_system

    for i, x in enumerate(xs):
        yield i, _OneSystem(build_system(x, points, basis, weight))


@pytest.mark.parametrize(
    "csv_text,config,grid,budget",
    [
        # passes; three blocks
        ("const", '{"l": 3, "weight": {"family": "exp", "alpha": 0.7}}', "-0.5:3.5:300", None),
        # conditioning failure in a later block
        ("const", '{"l": 3, "weight": {"family": "exp", "alpha": 0.7}}', "0.5:60:300", None),
        ("const", '{"l": 4, "weight": {"family": "shepard", "alpha": 3}}', "0.5:60:300", None),
        # rank failure
        ("const", '{"l": 3, "weight": {"family": "exp", "alpha": 30}}', "0.1:2.9:257", None),
        # a node of an interpolating weight, then a vanished weight
        ("const", '{"l": 2, "weight": {"family": "mclain", "alpha": 1.0}}', "0:100:3", None),
        ("const", '{"l": 2, "weight": {"family": "mclain", "alpha": 1.0}}', "0.5:100:3", None),
        # 2-d nodes: at the nodes, then an a:b:N grid, which they refuse
        ("plane", '{"l": 3, "weight": {"family": "exp", "alpha": 1.0}}', None, None),
        ("plane", '{"l": 3, "weight": {"family": "mclain", "alpha": 1.0}}', "0:1:2", None),
        ("plane", '{"l": 3, "weight": {"family": "exp", "alpha": 1.0}}', "0:1:3", None),
        # one row per solved block and per diagnosed stack: a diagnose
        # error at a node, then a vanished weight; a conditioning failure
        ("const", '{"l": 2, "weight": {"family": "mclain", "alpha": 1.0}}', "0:100:3", 1),
        ("const", '{"l": 3, "weight": {"family": "exp", "alpha": 0.7}}', "0.5:60:300", 1),
    ],
)
def test_diagnose_input_matches_per_point_builds(
    tmp_path, capsys, monkeypatch, csv_text, config, grid, budget
):
    """Block-solved systems give the output, exit code and error of one
    ``build_system`` per point.  A ``budget`` of doubles per block, when
    given, replaces ``core._BLOCK_DOUBLES`` in both runs."""
    from mlscert import cli, core

    if budget is not None:
        monkeypatch.setattr(core, "_BLOCK_DOUBLES", budget)
    data = tmp_path / "in.csv"
    data.write_text({
        "const": "x1,f\n0.0,7.0\n1.0,7.0\n2.0,7.0\n3.0,7.0\n",
        "plane": "x1,x2,f\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n0.5,0.3,5\n0.2,0.8,6\n",
    }[csv_text])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    argv = ["diagnose", "--input", str(data), "--config", str(cfg)]
    if grid is not None:
        argv.append(f"--grid={grid}")
    got = run_cli(argv, capsys)
    monkeypatch.setattr(cli, "build_rows", _per_point_rows)
    assert got == run_cli(argv, capsys)


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
    """The certificate has one set of constants: ``--convention paper``,
    ``--convention standard`` and no flag write the same bytes, CSV and
    JSON.  The flag is accepted and ignored, ``--help`` does not list it,
    and a value outside the two choices is still a usage error."""
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
    for fmt in ("csv", "json"):
        outs = {
            run_cli(["bound", "--input", str(p), "--format", fmt] + flag, capsys)
            for flag in ([], ["--convention", "standard"], ["--convention", "paper"])
        }
        assert len(outs) == 1 and next(iter(outs))[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--input", str(p), "--convention", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--help"])
    assert exc.value.code == 0
    assert "convention" not in capsys.readouterr().out


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


@pytest.mark.parametrize("spec", ["0:1:2", "0:1:50", "5"])
def test_fit_refuses_a_1d_grid_on_2d_nodes(tmp_path, capsys, spec):
    """A grid spec gives 1-d points, so 2-d nodes refuse it (exit 2), also
    when N equals the dimension and the N values would make one point."""
    nodes = np.random.default_rng(0).uniform(0.0, 1.0, (12, 2)).tolist()
    p = tmp_path / "plane.csv"
    p.write_text("x1,x2,f\n" + "".join(f"{a!r},{b!r},{a + b!r}\n" for a, b in nodes))
    code, out, err = run_cli(["fit", "--input", str(p), "--grid", spec], capsys)
    assert (code, out) == (2, "")
    what = ("numeric grid spec requires 1-d nodes" if spec == "5"
            else "a:b:N grid point has dim 1, nodes have dim 2")
    assert err == f"error: {what}; omit --grid to evaluate at the nodes\n"


def test_bound_nan_grid_names_the_point(linear_csv, capsys):
    code, out, err = run_cli(["bound", "--input", linear_csv, "--grid", "nan:1:5"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: bad grid spec 'nan:1:5'; the ends a and b must be finite\n"


def test_bound_refuses_a_grid_outside_the_nodes(tmp_path, capsys):
    """A grid end outside [x_1, x_m], even by 9e-13 on a span of 4e-14,
    is a usage error: the certificate's constants hold on the span only."""
    p = tmp_path / "tiny.csv"
    p.write_text("x1,f\n" + "".join(f"{x!r},0\n" for x in (np.arange(5) * 1e-14).tolist()))
    cfg = tmp_path / "l1.json"
    cfg.write_text('{"l": 1, "weight": {"family": "exp", "alpha": 1.0}}')
    for spec in ("-9e-13:4e-14:5", "0:9.4e-13:5"):
        code, out, err = run_cli(["bound", "--input", str(p), "--config", str(cfg),
                                  f"--grid={spec}"], capsys)
        assert (code, out) == (2, ""), spec
        assert err == "error: grid must lie within [x_1, x_m]\n"


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


@pytest.mark.parametrize("command", ["fit", "diagnose"])
def test_overflowing_basis_at_a_point_names_the_point(command, linear_csv, tmp_path, capfd):
    """x^2 overflows at the evaluation point 1e160, though the design at
    the nodes 0, 1, 2 is fine: malformed input naming the point, with no
    numpy warning and no wrong hypothesis label."""
    cfg = tmp_path / "l3.json"
    cfg.write_text('{"l": 3}')
    code = main([command, "--input", linear_csv, "--config", str(cfg),
                 "--grid", "1e160:1e160:1"])
    out, err = capfd.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: basis values at evaluation point 1e+160 are not finite\n"


def test_overflowing_distance_gives_no_warning(linear_csv, capfd):
    """With l = 2 the basis values at 1e160 stay finite, but the squared
    node distances overflow: the distance is inf, the zero-influence limit,
    and no numpy warning is printed (the RuntimeWarning filter in
    pyproject.toml turns one into an error)."""
    code = main(["fit", "--input", linear_csv, "--grid", "1e160:1e160:1"])
    out, err = capfd.readouterr()
    assert (code, out) == (3, "")
    assert err == ("hypothesis failure: design_full_rank at x = 1e+160 (grid point 0 of 1): "
                   "sigma_min 0.000e+00 <= rank tolerance 2.225e-308\n")


#: five nodes on [0, 1], for the failures far outside them
_FIVE_NODES = "x1,f\n0,1\n0.25,2\n0.5,0\n0.75,1\n1,3\n"


@pytest.mark.parametrize("command", ["fit", "diagnose"])
@pytest.mark.parametrize("l,grid,code,message", [
    # every weight overflows to inf: no row of the scaled design is left
    (2, "30:30:1", 3, "hypothesis failure: design_full_rank at x = 30.0 (grid point 0 of 1): "
                      "sigma_min 0.000e+00 <= rank tolerance 2.225e-308"),
    (3, "0:200:50", 4, "conditioning failure: gram condition estimate 1.813e+13 exceeds "
                       "limit 1.000e+12 at x = 24.48979591836735 (grid point 6 of 50)"),
])
def test_exits_3_and_4_name_the_first_failing_point(command, l, grid, code, message,
                                                     tmp_path, capsys):
    """A rank or conditioning failure names the first failing point and
    its index in the grid, after the message's usual prefix, and then
    the numbers its check compared."""
    (tmp_path / "n5.csv").write_text(_FIVE_NODES)
    (tmp_path / "cfg.json").write_text(f'{{"l": {l}, "weight": {{"family": "exp"}}}}')
    argv = [command, "--input", str(tmp_path / "n5.csv"), "--config", str(tmp_path / "cfg.json"),
            "--grid", grid]
    assert run_cli(argv, capsys) == (code, "", message + "\n")


def test_bound_names_the_failing_grid_point_or_node(tmp_path, capsys, monkeypatch):
    """``bound`` names a failing grid point by its index in the grid, and
    a failing node anchor, which is solved first, by its node index."""
    from mlscert import core

    xs = np.concatenate([np.linspace(0.0, 1.0, 5), np.linspace(8.0, 9.0, 5)])
    (tmp_path / "c.csv").write_text("x1,f\n" + "".join(f"{x!r},0.5\n" for x in xs.tolist()))
    (tmp_path / "cfg.json").write_text('{"l": 3, "weight": {"family": "exp", "alpha": 3}}')
    argv = ["bound", "--input", str(tmp_path / "c.csv"), "--config", str(tmp_path / "cfg.json")]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (4, "")
    assert err.startswith("conditioning failure: gram condition estimate ")
    assert err.endswith(" at x = 4.974874371859297 (grid point 110 of 200)\n")
    monkeypatch.setattr(core, "COND_LIMIT", 1.0)  # every node fails, the first one first
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (4, "")
    assert err.endswith(" at x = 0.0 (node 0 of 10)\n")


@pytest.mark.parametrize("target", ["outdir", "missing/out.json"])
def test_unwritable_out_is_a_clean_error(target, linear_csv, tmp_path, capsys):
    """--out naming a directory or a path under a missing directory: exit 2
    with the path and the OS reason, and no temp file left behind."""
    (tmp_path / "outdir").mkdir()
    out_path = tmp_path / target
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run_cli(
        ["fit", "--input", linear_csv, "--grid", "0:2:3", "--out", str(out_path)], capsys
    )
    reason = "Is a directory" if target == "outdir" else "No such file or directory"
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {out_path}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert list((tmp_path / "outdir").iterdir()) == []


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
    # a value of the wrong type or out of range is exit 2 naming its key,
    # never a traceback or a numpy message
    for text, key in [
        ('{"function": ["sin"]}', "function"),
        ('{"domain": [0]}', "domain"),
        ('{"domain": 5}', "domain"),
        ('{"domain": [0, NaN]}', "domain"),
        ('{"h0": null}', "h0"),
        ('{"h0": 0}', "h0"),
        ('{"h0": -0.2}', "h0"),
        ('{"levels": 1e400}', "levels"),
        ('{"l": null}', "l"),
        ('{"l": 2.5}', "l"),
        ('{"l": true}', "l"),
        ('{"levels": 3.5}', "levels"),
        ('{"levels": false}', "levels"),
        ('{"alpha0": NaN}', "alpha0"),
        # a bool is not a number, as for the basis size and a weight's alpha
        ('{"h0": true}', "h0"),
        ('{"alpha0": true}', "alpha0"),
        ('{"domain": [false, true]}', "domain"),
    ]:
        cfg.write_text(text)
        code, out, err = run_cli(["converge", "--config", str(cfg)], capsys)
        assert (code, out) == (2, ""), text
        assert err.startswith(f"error: converge config {key!r} must be "), (text, err)


@pytest.mark.parametrize("text,message", [
    ('{"domain": [0, 1e308]}', "domain [0.0, 1e+308] at h = 0.2 needs inf nodes, "),
    ('{"domain": [-1e308, 1e308]}', "domain [-1e+308, 1e+308] at h = 0.2 needs inf nodes, "),
    ('{"h0": 1e-300}', "domain [0.0, 3.0] at h = 1e-300 needs 3e+300 nodes, "),
    # however many levels, the first one that no array holds is named
    *[(f'{{"levels": {n}}}', "domain [0.0, 3.0] at h = 1.3877787807814458e-18 needs "
       "2.16173e+18 nodes, ") for n in (60, 2000, 10**12)],
])
def test_converge_level_no_array_holds_is_exit_2(text, message, tmp_path, capsys):
    """A level whose node count is not finite, or too large for an array,
    exits 2 naming the domain and h, not with an OverflowError traceback
    or numpy's "Maximum allowed size exceeded"; so does a level count past
    what any array holds, however large."""
    cfg = tmp_path / "conv.json"
    cfg.write_text(text)
    code, out, err = run_cli(["converge", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}"), err
    assert err.endswith(" more than an array holds (1152921504606846975)\n"), err


@pytest.mark.parametrize("l", [0, -2])
@pytest.mark.parametrize("command", ["fit", "diagnose", "bound", "converge"])
def test_basis_size_below_one_names_its_key(command, l, linear_csv, tmp_path, capsys):
    """l < 1 exits 2 with a message that names the key, not the basis's
    "dim and size must be positive"."""
    cfg = tmp_path / "b.json"
    cfg.write_text(f'{{"l": {l}}}')
    argv = [command, "--config", str(cfg)]
    if command != "converge":
        argv += ["--input", linear_csv, "--grid", "3"]
    code, out, err = run_cli(argv, capsys)
    label = "converge config" if command == "converge" else "bad basis config:"
    assert (code, out, err) == (2, "", f"error: {label} 'l' must be a positive integer, got {l}\n")


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


@pytest.mark.parametrize("argv,env,message", [
    (["selftest", "--seed", "-1"], None, "--seed must be a non-negative integer, got -1"),
    (["diagnose", "--seed", "-3"], None, "--seed must be a non-negative integer, got -3"),
    (["selftest"], "-5", "MLS_SEED must be a non-negative integer, got -5"),
    (["diagnose"], "-5", "MLS_SEED must be a non-negative integer, got -5"),
])
def test_negative_seed_names_its_source(argv, env, message, tmp_path, capsys, monkeypatch):
    """A negative seed exits 2 naming --seed or MLS_SEED, not with numpy's
    "expected non-negative integer"; no report is written."""
    if env is None:
        monkeypatch.delenv("MLS_SEED", raising=False)
    else:
        monkeypatch.setenv("MLS_SEED", env)
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(argv + ["--out", str(out)], capsys)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not out.exists()


def test_converge_level_memory_cannot_hold_is_exit_2(tmp_path, capsys, monkeypatch):
    """A level whose node count fits an array but not memory exits 2
    naming the domain, h and the count, not with numpy's _ArrayMemoryError
    traceback.  The allocation is made to fail; none is attempted."""
    linspace = np.linspace

    def no_memory(start, stop, num=50, **kw):
        if num > 10**6:
            raise MemoryError(f"Unable to allocate an array with shape ({num},)")
        return linspace(start, stop, num, **kw)

    monkeypatch.setattr(np, "linspace", no_memory)
    cfg = tmp_path / "conv.json"
    cfg.write_text('{"h0": 1e-12}')
    code, out, err = run_cli(["converge", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: domain [0.0, 3.0] at h = 1e-12 needs 3000000000001 nodes, "
                   "more than memory holds\n")


@pytest.mark.parametrize("command", ["fit", "bound", "diagnose"])
@pytest.mark.parametrize("spec", ["100000000000", "0:2:100000000000"])
def test_grid_memory_cannot_hold_is_exit_2(command, spec, linear_csv, capsys, monkeypatch):
    """A --grid whose N points memory cannot hold exits 2 naming the spec
    and N, not with numpy's MemoryError traceback.  The allocation is
    made to fail; none is attempted."""
    linspace = np.linspace

    def no_memory(start, stop, num=50, **kw):
        if num > 10**6:
            raise MemoryError(f"Unable to allocate an array with shape ({num},)")
        return linspace(start, stop, num, **kw)

    monkeypatch.setattr(np, "linspace", no_memory)
    code, out, err = run_cli([command, "--input", linear_csv, "--grid", spec], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: --grid {spec} asks for 100000000000 points, more than memory holds\n"


@pytest.mark.parametrize("command, solver", [("fit", "mlscert.cli.build_systems"),
                                             ("bound", "mlscert.bound1d.certify_bound"),
                                             ("diagnose", "mlscert.cli.build_rows")])
def test_grid_solve_memory_cannot_hold_is_exit_2(command, solver, linear_csv, capsys,
                                                 monkeypatch):
    """A MemoryError while the grid is solved names --grid and N too."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(solver, no_memory)
    code, out, err = run_cli([command, "--input", linear_csv, "--grid", "5"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: --grid 5 asks for 5 points, more than memory holds\n"


@pytest.mark.parametrize("command", ["fit", "bound"])
def test_input_with_a_byte_order_mark_reads_as_without(command, linear_csv, tmp_path, capsys):
    """A node CSV saved with a UTF-8 byte-order mark (as spreadsheet
    programs write it) gives the output of the same file without one."""
    bom = tmp_path / "bom.csv"
    with open(linear_csv, "rb") as fh:
        bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
    want = run_cli([command, "--input", linear_csv, "--grid", "7"], capsys)
    got = run_cli([command, "--input", str(bom), "--grid", "7"], capsys)
    assert got == want and got[0] == 0


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


#: the flags each subcommand reads
ACCEPTED = {
    "fit": {"input", "config", "grid", "format", "out"},
    "diagnose": {"input", "config", "grid", "seed", "tol", "out"},
    "bound": {"input", "config", "grid", "format", "convention", "tol", "out"},
    "converge": {"config", "format", "out"},
    "selftest": {"seed", "tol", "out"},
}
#: a well-formed value per flag, so only the flag itself can be refused
FLAG_VALUES = {
    "input": "nodes.csv", "config": "cfg.json", "grid": "5", "seed": "3",
    "format": "json", "convention": "standard", "tol": "lin=1e-9", "out": "out.json",
}
IGNORED = [
    (command, flag)
    for command, flags in ACCEPTED.items()
    for flag in FLAG_VALUES
    if flag not in flags
]


@pytest.mark.parametrize("command,flag", IGNORED)
def test_a_flag_the_command_does_not_read_is_a_usage_error(command, flag, capsys):
    """Each subcommand accepts only the flags it reads: any other is an
    argparse usage error (exit 2), before the command runs."""
    with pytest.raises(SystemExit) as exc:
        main([command, f"--{flag}", FLAG_VALUES[flag]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --{flag} {FLAG_VALUES[flag]}" in captured.err


@pytest.mark.parametrize("alpha", ["1e400", "-1e400", "NaN"])
@pytest.mark.parametrize("command", ["fit", "bound", "diagnose"])
def test_non_finite_alpha_is_a_bad_weight_config(command, alpha, linear_csv, tmp_path, capfd):
    """alpha = inf (JSON 1e400) is refused as a config value, exit 2,
    instead of reaching LAPACK or the hypothesis checks."""
    cfg = tmp_path / "w.json"
    cfg.write_text(f'{{"weight": {{"family": "exp", "alpha": {alpha}}}}}')
    code = main([command, "--input", linear_csv, "--config", str(cfg), "--grid", "3"])
    out, err = capfd.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: bad weight config: alpha must be positive and finite, got ")


@pytest.mark.parametrize("text,key", [
    ('{"l": 2.5}', "l"),
    ('{"l": true}', "l"),
    ('{"l": 1e400}', "l"),
    ('{"basis": {"l": 2.5}}', "l"),
    ('{"basis": {"l": false}}', "l"),
    ('{"basis": {"l": 2, "d": 1.5}}', "d"),
    ('{"basis": {"l": 2, "d": true}}', "d"),
])
@pytest.mark.parametrize("command", ["fit", "bound", "diagnose"])
def test_non_integral_basis_size_is_a_bad_basis_config(command, text, key, linear_csv,
                                                       tmp_path, capfd):
    """A bool or a non-integral basis size exits 2 naming its key, rather
    than running with int() of it.  No subcommand reads a ``basis`` object,
    so one exits 2 naming ``basis``, whatever size it holds."""
    cfg = tmp_path / "b.json"
    cfg.write_text(text)
    code = main([command, "--input", linear_csv, "--config", str(cfg), "--grid", "3"])
    out, err = capfd.readouterr()
    assert (code, out) == (2, "")
    if text.startswith('{"basis"'):
        assert err == "error: unknown config key 'basis'; expected one of ['l', 'weight']\n"
    else:
        assert err.startswith(f"error: bad basis config: {key!r} must be an integer, got "), err


@pytest.mark.parametrize("command", ["fit", "bound"])
def test_integral_basis_sizes_run_as_before(command, linear_csv, tmp_path, capsys):
    outputs = set()
    for text in ('{"l": 2}', '{"l": 2.0}', '{"l": "2"}'):
        cfg = tmp_path / "b.json"
        cfg.write_text(text)
        code, out, _ = run_cli([command, "--input", linear_csv, "--config", str(cfg),
                                "--grid", "5"], capsys)
        assert code == 0, text
        outputs.add(out)
    assert len(outputs) == 1


#: the config keys each subcommand reads
CONFIG_KEYS = {
    "fit": {"l", "weight"},
    "diagnose": {"l", "weight"},
    "bound": {"l", "weight"},
    "converge": {"function", "l", "domain", "h0", "levels", "alpha0", "policy", "family"},
}
#: a well-formed value per key, each its default where a subcommand reads
#: it, so only the key itself can be refused; ``basis`` and ``grid`` were
#: read once, the last two are misspellings
CONFIG_VALUES = {
    "l": 2, "weight": {"family": "exp", "alpha": 1.0}, "function": "sin",
    "domain": [0.0, 3.0], "h0": 0.2, "levels": 3, "alpha0": 1.0, "policy": "scaled",
    "family": "exp", "basis": {"kind": "monomial", "l": 2, "d": 1}, "grid": "0:2:3",
    "L": 2, "weigth": {"family": "exp"},
}
#: (command, key path) of keys the command does not read, inside ``weight`` too
UNREAD = [
    (command, key) for command, keys in CONFIG_KEYS.items()
    for key in CONFIG_VALUES if key not in keys
] + [
    (command, f"weight.{key}") for command in ("fit", "diagnose", "bound")
    for key in ("alfa", "l", "kind", "grid")
]


def _config_argv(command, cfg, csv):
    if command == "converge":
        return [command, "--config", str(cfg)]
    return [command, "--input", csv, "--config", str(cfg), "--grid", "3"]


@pytest.mark.parametrize("command,key", UNREAD)
def test_a_config_key_the_command_does_not_read_is_exit_2(command, key, linear_csv,
                                                          tmp_path, capsys):
    """Each subcommand reads only the config keys of its table: any other,
    at the top level or inside ``weight``, is exit 2 naming it."""
    cfg = tmp_path / "cfg.json"
    if key.startswith("weight."):
        text, expected = {"weight": {"family": "exp", key[7:]: 1.0}}, ["alpha", "family"]
    else:
        text, expected = {key: CONFIG_VALUES[key]}, sorted(CONFIG_KEYS[command])
    cfg.write_text(json.dumps(text))
    code, out, err = run_cli(_config_argv(command, cfg, linear_csv), capsys)
    assert (code, out) == (2, "")
    assert err == f"error: unknown config key {key!r}; expected one of {expected}\n"


@pytest.mark.parametrize("command", ["fit", "converge"])
def test_every_read_key_at_its_default_changes_nothing(command, linear_csv, tmp_path, capsys):
    """A config that sets every key of the table to its default writes the
    bytes of an empty one."""
    cfg = tmp_path / "cfg.json"
    outputs = []
    for text in (json.dumps({key: CONFIG_VALUES[key] for key in CONFIG_KEYS[command]}), "{}"):
        cfg.write_text(text)
        outputs.append(run_cli(_config_argv(command, cfg, linear_csv), capsys))
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


@pytest.mark.parametrize("text,message", [
    ('{"weight": {"family": "exp", "alpha": true}}', "'alpha' must be a number, got True"),
    ('{"weight": {"family": "exp", "alpha": "x"}}', "'alpha' must be a number, got 'x'"),
    ('{"weight": "exp"}', "'weight' must be an object, got 'exp'"),
    ('{"weight": null}', "'weight' must be an object, got None"),
    ('{"weight": {"family": null}}', "'family' must be a family name, got None"),
    ('{"weight": {"family": "gauss"}}', "unknown weight family 'gauss'"),
])
@pytest.mark.parametrize("command", ["fit", "bound", "diagnose"])
def test_bad_weight_value_is_exit_2(command, text, message, linear_csv, tmp_path, capsys):
    cfg = tmp_path / "w.json"
    cfg.write_text(text)
    code, out, err = run_cli(_config_argv(command, cfg, linear_csv), capsys)
    assert (code, out, err) == (2, "", f"error: bad weight config: {message}\n")


@pytest.mark.parametrize("command", ["fit", "bound", "diagnose"])
def test_weight_config_requires_a_family(command, linear_csv, tmp_path, capsys):
    cfg = tmp_path / "w.json"
    cfg.write_text('{"weight": {"alpha": 1.0}}')
    code, out, err = run_cli(_config_argv(command, cfg, linear_csv), capsys)
    assert (code, out) == (2, "")
    assert err == "error: bad weight config: weight config requires a 'family' key\n"


@pytest.mark.parametrize("argv,message", [
    (["--input", "nodes.csv", "--seed", "7"], "--seed is not read with --input"),
    (["--config", "cfg.json"], "--config requires --input"),
    (["--grid", "5"], "--grid requires --input"),
    (["--config", "cfg.json", "--grid", "5"], "--config requires --input"),
])
def test_diagnose_refuses_the_flags_of_its_other_mode(argv, message, capsys):
    """diagnose reads --seed only without --input, and --config and --grid
    only with it; a flag of the other mode is exit 2 naming it, before any
    file is read."""
    code, out, err = run_cli(["diagnose", *argv], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
