"""Command-line front end.

Subcommands
-----------
fit        fit input data and tabulate the approximant over a grid
diagnose   run operator diagnostics on an instance file or the random suite
bound      emit a growth-envelope certificate for 1-d data
converge   grid-refinement convergence study
selftest   run the full certification battery

Exit codes: 0 success, 2 malformed input or configuration, 3 hypothesis
failure, 4 conditioning failure, 5 certified inequality violated.  Output
is deterministic for a fixed seed: no timestamps, sorted JSON keys, floats
at 17 significant digits.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bound1d, error_analysis, selftest as selftest_mod
from .bases import BasisSpec, monomial_basis
from .config import Tolerances, config_int
from .core import (
    ConditioningError,
    HypothesisFailure,
    build_system_list,
    build_systems,
    fitted_values,
)
from .points import PointSet
from .reporting import canonical_json, csv_text, atomic_write
from .spectral import diagnose_each
from .weights import WeightSpec

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_HYPOTHESIS = 3
EXIT_CONDITIONING = 4
EXIT_VIOLATION = 5

DEFAULT_SEED = 42
DEFAULT_GRID_N = 200


class CliError(Exception):
    """Bad input or configuration; maps to exit code 2."""


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("MLS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"MLS_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliError("config root must be a JSON object")
    return cfg


def _weight_from(cfg: dict) -> WeightSpec:
    try:
        if "weight" in cfg:
            return WeightSpec.from_dict(cfg["weight"])
        return WeightSpec("exp", 1.0)
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad weight config: {exc}") from None


def _basis_from(cfg: dict, dim: int) -> BasisSpec:
    try:
        if "basis" in cfg:
            return BasisSpec.from_dict(cfg["basis"])
        return monomial_basis(config_int(cfg.get("l", 2), "l"), dim)
    except (ValueError, TypeError) as exc:
        raise CliError(f"bad basis config: {exc}") from None


def _tolerances(pairs) -> Tolerances:
    overrides = {}
    for item in pairs or ():
        if "=" not in item:
            raise CliError(f"--tol expects KEY=VAL, got {item!r}")
        key, _, val = item.partition("=")
        try:
            overrides[key.strip()] = float(val)
        except ValueError:
            raise CliError(f"--tol value must be numeric: {item!r}") from None
    try:
        return Tolerances().with_overrides(overrides)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _load_points(path, need_values: bool) -> PointSet:
    if path is None:
        raise CliError("this command requires --input")
    try:
        points = PointSet.from_csv(path)
    except OSError as exc:
        raise CliError(f"cannot read input: {exc}") from None
    except ValueError as exc:
        raise CliError(f"malformed input CSV: {exc}") from None
    if need_values and points.values is None:
        raise CliError("input CSV has no values column")
    return points


def _parse_grid(spec, points: PointSet, weight: WeightSpec) -> np.ndarray:
    """Grid spec: integer N (span of the 1-d nodes) or a:b:N."""
    if spec is None:
        return None
    parts = str(spec).split(":")
    try:
        if len(parts) == 1:
            n = int(parts[0])
            if n < 1:
                raise CliError("grid size must be >= 1")
            if points.dim != 1:
                raise CliError("numeric grid spec requires 1-d nodes; use a:b:N")
            return bound1d.uniform_grid(points, n, weight)
        if len(parts) == 3:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n < 1:
                raise CliError("grid size must be >= 1")
            return np.linspace(a, b, n)
    except ValueError:
        raise CliError(f"bad grid spec {spec!r}; expected N or a:b:N") from None
    raise CliError(f"bad grid spec {spec!r}; expected N or a:b:N")


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            atomic_write(out_path, text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc.strerror}") from None


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    points = _load_points(args.input, need_values=True)
    weight = _weight_from(cfg)
    basis = _basis_from(cfg, points.dim)
    grid = _parse_grid(args.grid or cfg.get("grid"), points, weight)
    if grid is None:
        grid = points.nodes
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.ndim == 1:
        grid = grid[:, None] if points.dim == 1 else grid.reshape(1, -1)

    coeffs, at_node = build_systems(grid, points, basis, weight)
    rows = [
        xrow + [f, s, amp]
        for xrow, f, s, amp in zip(
            grid.tolist(),
            fitted_values(coeffs, at_node, points.values).tolist(),
            coeffs.sum(axis=1).tolist(),
            error_analysis.amplification(coeffs).tolist(),
        )
    ]
    header = [f"x{i+1}" for i in range(points.dim)] + ["Lhat", "sum_a", "amplification"]
    if args.format == "csv":
        _emit(csv_text(header, rows), args.out)
    else:
        _emit(canonical_json({"columns": header, "rows": rows}), args.out)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    cfg = _load_config(args.config)
    tol = _tolerances(args.tol)
    if args.input is None:
        # no instance given: certify the operator claims on the random suite
        seed = _resolve_seed(args.seed)
        names = ("spectral", "sv_product", "eig_product")
        report = selftest_mod.run_selftest(seed, tol, suites=names)
        for name in names:
            r = report["suites"][name]
            print(f"[{'PASS' if r['pass'] else 'FAIL'}] {name}", file=sys.stderr)
        _emit(canonical_json(report), args.out)
        return EXIT_OK if report["pass"] else EXIT_VIOLATION

    points = _load_points(args.input, need_values=False)
    weight = _weight_from(cfg)
    basis = _basis_from(cfg, points.dim)
    grid = _parse_grid(args.grid or cfg.get("grid"), points, weight)
    if grid is None:
        grid = bound1d.uniform_grid(points, 1, weight) if points.dim == 1 else points.nodes
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.ndim == 1 and points.dim != 1:
        grid = grid.reshape(1, -1)

    systems, error = build_system_list(
        grid[:, None] if grid.ndim == 1 else grid, points, basis, weight
    )
    # the points before a failing one are diagnosed first, so an error
    # there still comes first, as in a loop over the points
    reports = [rep.to_dict() for rep in diagnose_each(systems, tol)]
    if error is not None:
        raise error
    all_pass = True
    for d, xrow in zip(reports, grid):
        d["x"] = [float(v) for v in np.atleast_1d(xrow)]
        all_pass = all_pass and d["pass"]
    out = {"n_points": len(reports), "reports": reports, "pass": bool(all_pass)}
    _emit(canonical_json(out), args.out)
    return EXIT_OK if all_pass else EXIT_VIOLATION


def cmd_bound(args) -> int:
    cfg = _load_config(args.config)
    tol = _tolerances(args.tol)
    points = _load_points(args.input, need_values=True)
    weight = _weight_from(cfg)
    basis = _basis_from(cfg, points.dim)
    grid = _parse_grid(args.grid or cfg.get("grid"), points, weight)
    cert = bound1d.certify_bound(
        points,
        basis,
        weight,
        grid=grid,
        n_grid=DEFAULT_GRID_N,
        tol=tol,
    )
    if args.format == "csv":
        _emit(csv_text(["x", "lhs", "rhs", "slack"], cert.rows_csv()), args.out)
    else:
        _emit(canonical_json(cert.to_dict()), args.out)
    return EXIT_OK if cert.passed else EXIT_VIOLATION


def _study_options(cfg: dict) -> dict:
    """The ``convergence_study`` arguments of a converge config.  A value of
    the wrong type or out of range is a ``CliError`` naming its key; the
    study checks the rest (levels >= 3, a < b, the policy and the family)."""

    def read(key, default, cast, what, ok=lambda v: True):
        value = cfg.get(key, default)
        try:
            result = cast(value)
        except (TypeError, ValueError, OverflowError, KeyError):
            result = None
        if result is None or not ok(result):
            raise CliError(f"converge config {key!r} must be {what}, got {value!r}")
        return result

    def positive(key, default):
        return read(key, default, float, "positive and finite",
                    lambda v: math.isfinite(v) and v > 0.0)

    functions = error_analysis.TEST_FUNCTIONS
    return {
        "f_true": read("function", "sin", functions.__getitem__, f"one of {sorted(functions)}"),
        "l": read("l", 2, lambda v: config_int(v, "l"), "an integer"),
        "domain": read("domain", [0.0, 3.0],
                       lambda v: tuple(map(float, v)) if isinstance(v, list) else None,
                       "two finite numbers [a, b]",
                       lambda v: len(v) == 2 and all(map(math.isfinite, v))),
        "h0": positive("h0", 0.2),
        "n_levels": read("levels", 3, lambda v: config_int(v, "levels"), "an integer"),
        "alpha0": positive("alpha0", 1.0),
        "policy": str(cfg.get("policy", "scaled")),
        "family": str(cfg.get("family", "exp")),
    }


def cmd_converge(args) -> int:
    options = _study_options(_load_config(args.config))
    try:
        study = error_analysis.convergence_study(**options)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if args.format == "csv":
        header = ["level", "h", "sup_error", "amplification", "observed_order_cum"]
        _emit(csv_text(header, study.rows_csv()), args.out)
    else:
        _emit(canonical_json(study.to_dict()), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    tol = _tolerances(args.tol)
    seed = _resolve_seed(args.seed)
    report = selftest_mod.run_selftest(seed, tol)
    for name in selftest_mod.SUITE_NAMES:
        r = report["suites"][name]
        print(f"[{'PASS' if r['pass'] else 'FAIL'}] {name}", file=sys.stderr)
    _emit(canonical_json(report), args.out)
    return EXIT_OK if report["pass"] else EXIT_VIOLATION


#: every flag, by name: its ``add_argument`` keywords
_FLAGS = {
    "input": dict(help="input CSV of nodes (and values)"),
    "config": dict(help="JSON config file"),
    "grid": dict(help="evaluation grid: N or a:b:N"),
    "seed": dict(type=int, help="RNG seed (fallback: MLS_SEED, then 42)"),
    "format": dict(choices=("json", "csv"), default="json"),
    # accepted and ignored: the certificate has one set of constants; kept
    # only so that existing ``bound --convention`` command lines still run
    "convention": dict(choices=("standard", "paper"), help=argparse.SUPPRESS),
    "tol": dict(action="append", metavar="KEY=VAL", help="tolerance override (repeatable)"),
    "out": dict(help="output file (default: stdout)"),
}

#: each subcommand: handler, help text and the flags it reads; any other
#: flag is a usage error
_COMMANDS = {
    "fit": (cmd_fit, "fit input data over a grid",
            ("input", "config", "grid", "format", "out")),
    "diagnose": (cmd_diagnose, "operator diagnostics (file or random suite)",
                 ("input", "config", "grid", "seed", "tol", "out")),
    "bound": (cmd_bound, "growth-envelope certificate for 1-d data",
              ("input", "config", "grid", "format", "convention", "tol", "out")),
    "converge": (cmd_converge, "grid-refinement convergence study",
                 ("config", "format", "out")),
    "selftest": (cmd_selftest, "full certification battery", ("seed", "tol", "out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlscert",
        description="moving least-squares fitting with certified matrix analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(handler=fn)
    return parser


# built once per process and reused by every ``main`` call: parse_args keeps
# no state between calls (each call fills a fresh namespace, and the append
# action starts from its None default)
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except HypothesisFailure as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConditioningError as exc:
        print(f"conditioning failure: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
