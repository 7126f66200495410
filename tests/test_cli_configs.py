"""``cli.main`` on configs drawn from the key tables of ``cli._COMMANDS``.

Every run, in process and under ``warnings.simplefilter("error")``, exits
0, 2, 3 or 4 and writes at most one line to stderr, which starts with one
of the CLI's three prefixes.  A config whose one key is an integer basis
size l above the node count m exits 3 at once, whatever l, naming l and m.

The ``converge`` draws keep every study's finest level at about 10^4 nodes
or fewer, or refuse it before it is built: a finite domain end lies in
[-5, 5], a positive finite h0 in [0.05, 10] or at 1e12 and above, and an
integer level count in [-3, 6] or at least 1e12 in magnitude.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from mlscert import cli, error_analysis
from mlscert.weights import FAMILIES

NODES = "x,f\n0,1\n0.25,2\n0.5,3\n0.75,4\n1,5\n"
PREFIXES = ("error: ", "hypothesis failure: ", "conditioning failure: ")
SPECIALS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
HUGE = st.one_of(st.integers(10**12, 10**30), st.integers(-10**30, -10**12))
#: strings that no ``int`` or ``float`` reads as a number
TEXT = st.text("xyz ,.-", max_size=4)


def _values(ints, floats):
    """bool, +-0, +-inf, NaN, the given ints and floats, strings, objects
    and arrays."""
    return st.one_of(
        st.booleans(), SPECIALS, ints, floats, TEXT,
        st.dictionaries(TEXT, st.integers(-1, 3), max_size=2),
        st.lists(st.one_of(st.integers(-1, 3), TEXT), max_size=3),
    )


#: any key's values: every integral one lies in [-10, 10] or at 1e12 and
#: above in magnitude, so a basis size that passes is at most 10
ANY = _values(st.one_of(st.integers(-3, 8), HUGE),
              st.one_of(st.floats(-10.0, 10.0), st.floats(1e12, 1e308),
                        st.floats(-1e308, -1e12)))


def _config(table, values):
    """A config object over the keys of ``table``, each absent or drawn
    from ``values[key]`` (``ANY`` by default)."""
    return st.fixed_dictionaries(
        {}, optional={key: values.get(key, ANY) for key in table}
    )


WEIGHT = st.one_of(
    ANY,
    _config(cli._WEIGHT_KEYS, {"family": st.one_of(st.sampled_from(FAMILIES), ANY)}),
)
INSTANCE = _config(cli._INSTANCE_KEYS, {"weight": WEIGHT})
STUDY = _config(cli._STUDY_KEYS, {
    "function": st.one_of(st.sampled_from(sorted(error_analysis.TEST_FUNCTIONS)), ANY),
    "domain": st.one_of(
        ANY,
        st.lists(_values(st.integers(-5, 5), st.floats(-5.0, 5.0)), min_size=1, max_size=3),
    ),
    "h0": _values(st.integers(-3, 0) | st.integers(10**12, 10**30),
                  st.floats(0.05, 10.0) | st.floats(1e12, 1e308) | st.floats(-1e308, 0.0)),
    "levels": _values(st.integers(-3, 6) | HUGE, st.sampled_from([3.0, 4.0, 4.5, -1.0])),
    "policy": st.one_of(st.sampled_from(["scaled", "fixed"]), ANY),
    "family": st.one_of(st.sampled_from(FAMILIES), ANY),
})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    (path / "nodes.csv").write_text(NODES)
    return path


def _run(workdir, argv, cfg):
    """Exit code and stderr of ``cli.main`` on ``argv`` with ``cfg`` as its
    config, with every warning an error."""
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--config", str(workdir / "cfg.json")])
    return code, err.getvalue()


def _check(code, err, cfg, m):
    lines = err.splitlines()
    assert code in (0, 2, 3, 4), (code, err)
    assert len(lines) <= 1, err
    assert not lines or lines[0].startswith(PREFIXES), err
    l = cfg.get("l")
    if set(cfg) == {"l"} and type(l) is int and l > m:
        assert (code, err) == (3, f"hypothesis failure: basis_size_le_nodes: l {l} > m {m}\n")


@settings(max_examples=150, deadline=5000)
@given(command=st.sampled_from(["fit", "diagnose", "bound"]), cfg=INSTANCE)
@example(command="fit", cfg={"l": 10**30})
def test_instance_commands_on_drawn_configs(workdir, command, cfg):
    argv = [command, "--input", str(workdir / "nodes.csv"), "--grid", "0.1:0.9:3"]
    _check(*_run(workdir, argv, cfg), cfg, m=5)


@settings(max_examples=100, deadline=5000)
@given(cfg=STUDY)
@example(cfg={"domain": [0, 1e-300], "h0": 1e-310})  # h^2 underflows to 0
@example(cfg={"alpha0": 1e308})  # alpha0 / h^2 overflows
@example(cfg={"l": 10**30})
def test_converge_on_drawn_configs(workdir, cfg):
    # the default study's coarsest level, [0, 3] at h = 0.2, has 16 nodes
    _check(*_run(workdir, ["converge"], cfg), cfg, m=16)
