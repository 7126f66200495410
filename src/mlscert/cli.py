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
from .bases import monomial_basis
from .config import Tolerances
from .core import (
    ConditioningError,
    HypothesisFailure,
    _located,
    _refuse_l_above_m,
    _replayed,
    build_rows,
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
    """The seed from ``--seed``, else from ``MLS_SEED``, else the default;
    a negative one is refused with a message naming its source."""
    if value is not None:
        seed, source = int(value), "--seed"
    else:
        env = os.environ.get("MLS_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), "MLS_SEED"
        except ValueError:
            raise CliError(f"MLS_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise CliError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _load_config(args) -> dict:
    """The config values ``args.command`` reads, by key: each key of its
    table in ``_COMMANDS``, from the ``--config`` file or its default."""
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CliError(f"config is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise CliError("config root must be a JSON object")
    return _read_keys(cfg, _COMMANDS[args.command][3])


def _read_keys(cfg: dict, table: dict, where: str = "") -> dict:
    """Every key of ``table`` read from the config object ``cfg`` by
    ``_read``.  A key of ``cfg`` that ``table`` lacks is a ``CliError``
    naming it, with ``where`` the path of ``cfg`` in the file."""
    for key in cfg:
        if key not in table:
            raise CliError(f"unknown config key {where + key!r}; expected one of {sorted(table)}")
    return {key: _read(cfg, key, *spec) for key, spec in table.items()}


def _read(cfg: dict, key: str, label: str, default, cast, what: str, ok=lambda v: True,
          ok_what: str | None = None):
    """``cast`` of the config value of ``key``, ``default`` when absent.  A
    value that ``cast`` refuses (or maps to None) is a ``CliError`` naming
    the key and ``what`` it must be; one that ``ok`` rejects, the same
    with ``ok_what`` when given."""
    value = cfg.get(key, default)
    try:
        result = cast(value)
    except (TypeError, ValueError, OverflowError, KeyError):
        result = None
    if result is None:
        raise CliError(f"{label} {key!r} must be {what}, got {value!r}")
    if not ok(result):
        raise CliError(f"{label} {key!r} must be {ok_what or what}, got {value!r}")
    return result


def _integer(value) -> int:
    """``int(value)``, but a bool or a float that is not integral is refused."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _number(value) -> float:
    """``float(value)``, but a bool is refused."""
    if isinstance(value, bool):
        raise ValueError(value)
    return float(value)


def _positive(v: float) -> bool:
    return math.isfinite(v) and v > 0.0


def _at_least_one(v: int) -> bool:
    return v >= 1


def _weight(value) -> WeightSpec:
    """The weight of a config ``weight`` object, None when ``value`` is not
    an object.  The family and alpha go through ``WeightSpec``'s checks."""
    if not isinstance(value, dict):
        return None
    if "family" not in value:
        raise CliError("bad weight config: weight config requires a 'family' key")
    keys = _read_keys(value, _WEIGHT_KEYS, "weight.")
    try:
        return WeightSpec(keys["family"], keys["alpha"])
    except ValueError as exc:
        raise CliError(f"bad weight config: {exc}") from None


# Config key tables: key -> (label, default, cast, what[, ok[, ok_what]]),
# the arguments of ``_read`` after the key.
_WEIGHT_KEYS = {
    "family": ("bad weight config:", None, lambda v: v, "a family name"),
    "alpha": ("bad weight config:", 1.0, _number, "a number"),
}
#: the keys of ``fit``, ``diagnose`` and ``bound``: the basis size and weight
_INSTANCE_KEYS = {
    "l": ("bad basis config:", 2, _integer, "an integer", _at_least_one, "a positive integer"),
    "weight": ("bad weight config:", {"family": "exp"}, _weight, "an object"),
}
_STUDY = "converge config"
#: the keys of ``converge``, the ``convergence_study`` arguments but
#: ``function`` (``f_true``) and ``levels`` (``n_levels``).  The study checks
#: the rest (levels >= 3, a < b, the policy and the family).
_STUDY_KEYS = {
    "function": (_STUDY, "sin", error_analysis.TEST_FUNCTIONS.__getitem__,
                 f"one of {sorted(error_analysis.TEST_FUNCTIONS)}"),
    "l": (_STUDY, 2, _integer, "an integer", _at_least_one, "a positive integer"),
    "domain": (_STUDY, [0.0, 3.0], lambda v: tuple(map(_number, v)) if isinstance(v, list) else None,
               "two finite numbers [a, b]", lambda v: len(v) == 2 and all(map(math.isfinite, v))),
    "h0": (_STUDY, 0.2, _number, "positive and finite", _positive),
    "levels": (_STUDY, 3, _integer, "an integer"),
    "alpha0": (_STUDY, 1.0, _number, "positive and finite", _positive),
    "policy": (_STUDY, "scaled", str, "a string"),
    "family": (_STUDY, "exp", str, "a string"),
}


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
                raise CliError("numeric grid spec requires 1-d nodes; omit --grid to "
                               "evaluate at the nodes")
            return bound1d.uniform_grid(points, n, weight)
        if len(parts) == 3:
            a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
            if not (math.isfinite(a) and math.isfinite(b)):
                raise CliError(f"bad grid spec {spec!r}; the ends a and b must be finite")
            if n < 1:
                raise CliError("grid size must be >= 1")
            return np.linspace(a, b, n)
    except ValueError:
        raise CliError(f"bad grid spec {spec!r}; expected N or a:b:N") from None
    raise CliError(f"bad grid spec {spec!r}; expected N or a:b:N")


def _as_points(grid, points: PointSet) -> np.ndarray:
    """The evaluation points (n, d) of a grid: a 1-d grid is a column of
    1-d points, which only 1-d nodes take."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.ndim == 1:
        if points.dim != 1:
            raise CliError(f"a:b:N grid point has dim 1, nodes have dim {points.dim}; "
                           "omit --grid to evaluate at the nodes")
        grid = grid[:, None]
    return grid


class _GridMemory:
    """Context that turns a ``MemoryError`` raised inside, while the grid of
    the ``--grid`` spec is built, solved or written out, into a
    ``CliError`` naming the spec and its point count N.  Without a spec it
    propagates.  A class, not a ``contextlib.contextmanager`` function:
    that would carry ``__wrapped__``, which perfbench's tracer tests refuse
    on a library module's names."""

    def __init__(self, spec):
        self.spec = spec

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, MemoryError) and self.spec is not None:
            n = str(self.spec).split(":")[-1]
            raise CliError(f"--grid {self.spec} asks for {n} points, more than memory holds") from None
        return False


def _basis(l: int, points: PointSet):
    """The monomial basis of size l on the nodes of ``points``.  An l
    above their count m is refused before the basis is built (exit 3), so
    a huge l is refused at once."""
    _refuse_l_above_m(l, points.m)
    return monomial_basis(l, points.dim)


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
    cfg = _load_config(args)
    points = _load_points(args.input, need_values=True)
    weight = cfg["weight"]
    with _GridMemory(args.grid):
        grid = _parse_grid(args.grid, points, weight)
        grid = _as_points(points.nodes if grid is None else grid, points)
        coeffs, at_node = build_systems(grid, points, _basis(cfg["l"], points), weight)
        rows = np.column_stack([
            grid,
            fitted_values(coeffs, at_node, points.values),
            coeffs.sum(axis=1),
            error_analysis.amplification(coeffs),
        ])
        header = [f"x{i+1}" for i in range(points.dim)] + ["Lhat", "sum_a", "amplification"]
        if args.format == "csv":
            text = csv_text(header, rows)
        else:
            text = canonical_json({"columns": header, "rows": rows})
    _emit(text, args.out)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    # each mode reads its own flags; one of the other mode is exit 2
    if args.input is None:
        # no instance given: certify the operator claims on the random suite
        for flag in ("config", "grid"):
            if getattr(args, flag) is not None:
                raise CliError(f"--{flag} requires --input")
        return _run_suites(args, ("spectral", "sv_product", "eig_product"))

    if args.seed is not None:
        raise CliError("--seed is not read with --input")
    cfg = _load_config(args)
    tol = _tolerances(args.tol)
    points = _load_points(args.input, need_values=False)
    weight = cfg["weight"]
    with _GridMemory(args.grid):
        grid = _parse_grid(args.grid, points, weight)
        if grid is None:
            grid = bound1d.uniform_grid(points, 1, weight) if points.dim == 1 else points.nodes
        grid = _as_points(grid, points)
        # each solved block is diagnosed as it comes, inside the walk that
        # ``_located`` wraps.  A block that fails to solve, or whose
        # diagnosis fails, is replayed one row per yield, so the points
        # before a failing point are diagnosed first and the error names its
        # point, as in a loop over the points.  A refusal of the whole call
        # (l > m) raises before the walk, so it names no point
        blocks = build_rows(grid, points, _basis(cfg["l"], points), weight)

        def diagnosed():
            for start, rows in blocks:
                systems = rows.systems()
                stacks = _replayed(lambda lo, hi: diagnose_each(systems[lo:hi], tol),
                                   len(systems), len(systems))
                yield from ((start + i, reps) for i, reps in stacks)

        reports = []
        for _, reps in _located(diagnosed(), lambda row: (grid[row], row, len(grid))):
            reports += reps
        all_pass = True
        for d, xrow in zip(reports, grid):
            d["x"] = xrow.tolist()
            all_pass = all_pass and d["pass"]
        out = {"n_points": len(reports), "reports": reports, "pass": bool(all_pass)}
        text = canonical_json(out)
    _emit(text, args.out)
    return EXIT_OK if all_pass else EXIT_VIOLATION


def cmd_bound(args) -> int:
    cfg = _load_config(args)
    tol = _tolerances(args.tol)
    points = _load_points(args.input, need_values=True)
    weight = cfg["weight"]
    with _GridMemory(args.grid):
        grid = _parse_grid(args.grid, points, weight)
        cert = bound1d.certify_bound(
            points,
            _basis(cfg["l"], points),
            weight,
            grid=grid,
            n_grid=DEFAULT_GRID_N,
            tol=tol,
        )
        if args.format == "csv":
            text = csv_text(["x", "lhs", "rhs", "slack"], cert.rows_csv())
        else:
            text = canonical_json(cert.to_dict())
    _emit(text, args.out)
    return EXIT_OK if cert.passed else EXIT_VIOLATION


def cmd_converge(args) -> int:
    # a ValueError of the study (levels < 3, a >= b, ...) is exit 2 in main
    options = _load_config(args)
    study = error_analysis.convergence_study(
        options.pop("function"), n_levels=options.pop("levels"), **options
    )
    if args.format == "csv":
        header = ["level", "h", "sup_error", "amplification", "observed_order_cum"]
        _emit(csv_text(header, study.rows_csv()), args.out)
    else:
        _emit(canonical_json(study.to_dict()), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    return _run_suites(args, selftest_mod.SUITE_NAMES)


def _run_suites(args, names) -> int:
    """Run the selftest suites ``names``: a verdict line per suite on
    stderr, then the report."""
    tol = _tolerances(args.tol)
    report = selftest_mod.run_selftest(_resolve_seed(args.seed), tol, suites=names)
    for name in names:
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

#: each subcommand: handler, help text, the flags it reads and the table of
#: the config keys it reads; any other flag is a usage error, and any other
#: config key exit 2
_COMMANDS = {
    "fit": (cmd_fit, "fit input data over a grid",
            ("input", "config", "grid", "format", "out"), _INSTANCE_KEYS),
    "diagnose": (cmd_diagnose, "operator diagnostics (file or random suite)",
                 ("input", "config", "grid", "seed", "tol", "out"), _INSTANCE_KEYS),
    "bound": (cmd_bound, "growth-envelope certificate for 1-d data",
              ("input", "config", "grid", "format", "convention", "tol", "out"),
              _INSTANCE_KEYS),
    "converge": (cmd_converge, "grid-refinement convergence study",
                 ("config", "format", "out"), _STUDY_KEYS),
    "selftest": (cmd_selftest, "full certification battery", ("seed", "tol", "out"), {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlscert",
        description="moving least-squares fitting with certified matrix analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags, _) in _COMMANDS.items():
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
        print(f"{exc}{exc.where}{exc.measured}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ConditioningError as exc:
        print(f"conditioning failure: {exc}{exc.where}", file=sys.stderr)
        return EXIT_CONDITIONING
    except ValueError as exc:  # a vanished weight names its point (``where``)
        print(f"error: {exc}{getattr(exc, 'where', '')}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
