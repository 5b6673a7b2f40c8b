"""Fuzzing of the command line: every argv ends in a documented exit code
(0-4, counting argparse's usage error as 2) and never prints a traceback."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from osimplex.cli import main

# Sizes and dimensions stay at most 3, so no command does exponential work.
small = st.integers(-1, 3)
COMMANDS = ["check", "compose", "factor", "eval", "enumerate", "atoms", "verify-basis"]


def _map_text(values):
    return "(" + ",".join(str(v) for v in values) + ")"


def _maps(m, n):
    return st.lists(st.integers(0, n), min_size=m + 1, max_size=m + 1).map(sorted)


json_scalar = st.one_of(small, st.booleans(), st.none(), st.just(1.5), st.text(max_size=2))
json_values = st.one_of(st.lists(small, max_size=4).map(sorted), json_scalar)
any_json_morphism = st.fixed_dictionaries(
    {
        "m": st.one_of(small, json_scalar),
        "n": st.one_of(small, json_scalar),
        "terms": st.lists(
            st.fixed_dictionaries(
                {"map": json_values, "coef": st.one_of(st.integers(-2, 2), json_scalar)}
            ),
            max_size=3,
        ),
    }
).map(json.dumps)
json_expression = st.recursive(
    st.fixed_dictionaries({"op": st.just("map"), "values": json_values}),
    lambda inner: st.one_of(
        st.fixed_dictionaries(
            {
                "op": st.sampled_from(["filler", "pasting", "bogus"]),
                "index": st.one_of(small, json_scalar),
                "left": inner,
                "right": inner,
            }
        ),
        st.fixed_dictionaries(
            {"op": st.just("compose"), "inner": inner, "values": st.lists(small)}
        ),
    ),
    max_leaves=4,
).flatmap(
    lambda expr: st.just(expr)
    | st.fixed_dictionaries({"n": st.one_of(small, json_scalar), "expr": st.just(expr)})
).map(json.dumps)
junk = st.text(max_size=8).filter(lambda t: not t.startswith("@"))
# "@name" stands for one of the files of the `files` fixture.
source = st.one_of(
    st.just("-"),
    st.sampled_from(["text", "json", "tree", "binary", "missing"]).map(lambda name: "@" + name),
    junk,
)


def _terms(m, n):
    """Terms of a combination from m to n; a single map is a member."""
    coefficient = st.sampled_from([1, 1, -1, 2])
    return st.lists(st.tuples(coefficient, _maps(m, n)), min_size=1, max_size=3)


@st.composite
def combination(draw, n, m=None):
    """Text of a combination with codomain n."""
    m = draw(st.integers(0, 2)) if m is None else m
    return " + ".join(f"{c}*{_map_text(v)}" for c, v in draw(_terms(m, n)))


@st.composite
def well_formed_json_morphism(draw):
    m, n = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    terms = [{"map": v, "coef": c} for c, v in draw(_terms(m, n))]
    return json.dumps({"m": m, "n": n, "terms": terms})


json_morphism = well_formed_json_morphism() | any_json_morphism


@st.composite
def expression(draw, n):
    """Text of a filler/pasting expression over leaves with codomain n."""
    m = draw(st.integers(0, 2))
    node = "{}_{}({},{})".format
    return draw(st.recursive(
        _maps(m, n).map(_map_text),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from("FP"), small, inner, inner).map(lambda t: node(*t)),
            st.tuples(inner, _maps(m, n)).map(lambda t: f"C({t[0]},{_map_text(t[1])})"),
        ),
        max_leaves=4,
    ))


@st.composite
def command_line(draw):
    """An argv shaped like each command's usage, with random inputs."""
    cmd = draw(st.sampled_from(COMMANDS))
    n = draw(st.integers(0, 3))
    if cmd in ("enumerate", "atoms", "verify-basis"):
        argv = [cmd, draw(st.one_of(small.map(str), junk))]
        if draw(st.booleans()):
            bound = "--max-cells" if cmd == "enumerate" else "--max-basis"
            argv += [bound, str(draw(st.integers(-1, 100)))]
    else:
        m = draw(st.integers(0, 2))
        if cmd == "eval":
            inputs = [expression(n) | json_expression]
        elif cmd == "compose":
            inputs = [combination(n, m) | json_morphism, combination(m) | json_morphism]
        else:
            inputs = [combination(n) | json_morphism]
        # Mostly inputs given as text, now and then a file, stdin or junk.
        argv = [cmd] + [draw(source if draw(st.integers(0, 2)) == 0 else text) for text in inputs]
        if draw(st.integers(0, 3)):
            argv += ["--n", str(draw(st.just(n) | small))]
        if cmd == "factor" and draw(st.booleans()):
            argv.append("--verify")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


# Words in any order, which argparse mostly rejects.
word = st.one_of(
    st.sampled_from(COMMANDS + ["--json", "--verify", "--n", "--max-cells", "--max-basis"]),
    small.map(str), source, json_morphism, combination(2),
)
argv = command_line() | st.lists(word, max_size=5)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    contents = {
        "text": b"(0,1) - (1,1) + (1,2)",
        "json": json.dumps({"m": 1, "n": 2, "terms": [{"map": [0, 1], "coef": 1}]}).encode(),
        "tree": json.dumps({"n": 2, "expr": {"op": "map", "values": [0, 2]}}).encode(),
        "binary": b"\xff\xfe(0,\x801)",
    }
    for name, data in contents.items():
        (root / name).write_bytes(data)
    return root


def _run(argv, stdin_text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, err.getvalue()


_DEEP = "P_0(" * 3000 + "(0)" + ",(0))" * 3000


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(argv=["check", "@binary", "--n", "2"], stdin_text="")
@example(argv=["eval", "-", "--n", "1"], stdin_text=_DEEP)
@example(argv=["factor", "@missing", "--n", "2", "--verify"], stdin_text="")
@given(argv=argv, stdin_text=combination(2) | expression(2) | json_morphism | junk)
def test_every_argv_ends_in_a_documented_exit(files, argv, stdin_text):
    argv = ["@" + str(files / a[1:]) if a.startswith("@") else a for a in argv]
    code, err = _run(argv, stdin_text)
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
