"""cli.main in process over generated expressions, series JSON and lifted
JSON: every call exits 0, 1 or 2, raises nothing else, is never refused by
argparse (a number flag is written --name=value or --name value), and
prints no inf or nan when it exits 0. Input files that no reader accepts
(any bytes, nesting past the recursion limit, lifted indices that are not
integers) exit 2 with one line."""

import contextlib
import io
import json
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import W
from fraclift.cli import main

NON_FINITE = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)

# exponents and orders on the edges the kernel meets: Gamma's overflow at
# 171.6, offsets within 2^-32 of an integer, and doubles far past any
# lattice, up to those whose sum with a truncation order leaves the doubles
orders = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -1.0, 1.5, 170.5, 171.0,
                     -170.5, 1e300, -1e300, 1e308, -1e308, 1.7e308, -1.7e308,
                     W, 1 - W, 0.5 + W, -W]),
    st.floats(-400.0, 400.0, allow_nan=False))
coefficients = st.one_of(
    st.sampled_from([1.0, -1.0, 1e308, -1e308, 1e-300, 2.5]),
    st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False))
# lattice phases and lifted offsets: near an integer, rational, or any double
offsets = st.one_of(
    st.builds(lambda m, d: m + d, st.integers(-3, 3),
              st.sampled_from([W, -W, W / 2, -W / 2, 0.0])),
    st.sampled_from([0.5, 1 / 3, 0.25, 0.85, -0.5]),
    st.floats(-2.0, 2.0, allow_nan=False))
points = st.one_of(st.sampled_from([1.0, 0.25, 2.0, 1e-300, 1e300, -1.0,
                                    0.0, 1e-150]),
                   st.floats(-10.0, 1e3, allow_nan=False))
basepoints = st.sampled_from([0.0, 0.0, 1.0, -2.5])
# a file's truncation order: none, exact, inexact, or near the double range
truncation_orders = st.sampled_from([None, 7.5, 1 / 3, 1e308, -1e308, 1.7e308,
                                     -1.7e308])


def _number(v):
    return "(%r)" % v


atoms = st.one_of(
    st.just("x"),
    st.builds(_number, coefficients),
    st.builds("x^(%r)".__mod__, st.floats(-400.0, 400.0, allow_nan=False)),
    st.builds("x^(%r)".__mod__, st.sampled_from([0.5, -0.5, 1.5, 1 / 3, -W])),
    st.builds("x^%d".__mod__, st.integers(-400, 400)))
expressions = st.recursive(atoms, lambda inner: st.one_of(
    st.builds("%s + %s".__mod__, st.tuples(inner, inner)),
    st.builds("%s - %s".__mod__, st.tuples(inner, inner)),
    st.builds("(%s)*(%s)".__mod__, st.tuples(inner, inner)),
    st.builds("(%s)/%s".__mod__, st.tuples(inner, st.builds(_number, coefficients))),
    st.builds("-(%s)".__mod__, inner),
    st.builds("(%s)^%d".__mod__, st.tuples(inner, st.integers(0, 3))),
    st.builds("%s(%s)".__mod__, st.tuples(st.sampled_from(["exp", "sin", "cos"]),
                                          inner))), max_leaves=4)


def _with_order(draw, doc):
    # doc as JSON text, with a truncation order drawn for it, if any
    order = draw(truncation_orders)
    if order is not None:
        doc["truncation_order"] = order
    return json.dumps(doc)


@st.composite
def series_json(draw):
    phase = draw(offsets)
    keys = draw(st.lists(st.integers(-400, 400), max_size=6, unique=True))
    return _with_order(draw, {"basepoint": draw(basepoints), "terms": [
        {"exp": phase + n, "coef": draw(coefficients)} for n in keys]})


@st.composite
def lifted_json(draw):
    keys = draw(st.lists(st.integers(-400, 400), max_size=6, unique=True))
    return _with_order(draw, {
        "basepoint": draw(basepoints), "offset": draw(offsets),
        "values": [{"index": j, "value": draw(coefficients)} for j in keys]})


@st.composite
def series_input(draw):
    """(argv, stdin) naming a series: an expression or series JSON."""
    if draw(st.booleans()):
        argv = ["--expr=" + draw(expressions),
                *_flag(draw, "basepoint",
                       [draw(st.sampled_from([0.0, 0.0, 0.0, 1.0]))]),
                "--order=%d" % draw(st.integers(0, 24))]
        return argv, ""
    return ["--series-file=-"], draw(series_json())


def _flag(draw, name, values):
    # each value as one word, --name=value, or as two, --name value: a
    # negative value in the second spelling must still reach its option
    argv = []
    for v in values:
        argv += (["--%s=%r" % (name, v)] if draw(st.booleans())
                 else ["--" + name, repr(v)])
    return argv


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["deriv", "lift", "project", "kernel-check",
                                    "oracle-compare"]))
    k = _flag(draw, "k", [draw(orders)])
    if command == "project":
        fmt = draw(st.sampled_from(["pretty", "json"]))
        return (["project", "--lifted-file=-", "--format=" + fmt] + k,
                draw(lifted_json()))
    argv, stdin = draw(series_input())
    argv = [command] + argv + k
    if command == "deriv":
        argv += ["--via=" + draw(st.sampled_from(["rl", "lifted"])),
                 "--format=" + draw(st.sampled_from(["pretty", "json", "csv"]))]
        argv += _flag(draw, "at", draw(st.lists(points, max_size=2)))
        if draw(st.booleans()):
            argv.append("--compare-paths")
    elif command == "oracle-compare":
        argv += ["--format=" + draw(st.sampled_from(["csv", "json"]))]
        argv += _flag(draw, "at",
                      draw(st.lists(points, min_size=1, max_size=2)))
    return argv, stdin


def run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing a flag
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(invocations())
@example((["deriv", "--expr=x^(-1/2)", "--k", "-2E1", "--at", "-1e-3"], ""))
@example((["oracle-compare", "--expr=x", "--basepoint", "-2E-1", "--k",
           "-2.3283064365386963e-10", "--at", "1e-3"], ""))
# truncation orders N - k past the double range: each a bare OverflowError
@example((["project", "--lifted-file=-", "--k=1.7e308"],
          '{"basepoint": 0, "offset": 0.5, "values": [{"index": 3, '
          '"value": 1.0}], "truncation_order": -1e308}'))
@example((["oracle-compare", "--series-file=-", "--k=1e308", "--at", "1.5"],
          '{"basepoint": 0, "terms": [], "truncation_order": -1e308}'))
@example((["deriv", "--series-file=-", "--k=-1e308"],
          '{"basepoint": 0, "terms": [], "truncation_order": 1e308}'))
def test_every_call_ends_in_an_answer_or_a_usage_error(call):
    argv, stdin = call
    code, out, err = run(argv, stdin)
    assert code in (0, 1, 2), (argv, stdin, code, err)
    assert not err.startswith("usage:"), (argv, err)
    if code == 0:
        assert not NON_FINITE.search(out), (argv, stdin, out)


@st.composite
def off_lattice_lifted_json(draw):
    """A lifted file with one index that is not an integer."""
    doc = json.loads(draw(lifted_json()))
    index = draw(st.one_of(
        st.floats().filter(lambda j: not j.is_integer()),
        st.sampled_from(["1", None, [1], {"index": 1}])))
    doc["values"].insert(draw(st.integers(0, len(doc["values"]))),
                         {"index": index, "value": draw(coefficients)})
    return json.dumps(doc).encode()


def _nested(depth, brackets, field):
    # a document nested far past the recursion limit, alone or as a field
    opening, inner, closing = brackets
    body = opening * depth + inner + closing * depth
    if field is not None:
        body = '{"basepoint": 0, "%s": %s}' % (field, body)
    return body.encode()


nested = st.builds(_nested, st.sampled_from([20000, 200000]),
                   st.sampled_from([("[", "", "]"), ('{"a": ', "0", "}")]),
                   st.sampled_from([None, "terms", "values", "offset"]))
unreadable = st.one_of(st.binary(max_size=200), nested,
                       off_lattice_lifted_json())
file_commands = st.sampled_from([
    ["deriv", "--k=0.5", "--series-file"],
    ["lift", "--series-file"],
    ["project", "--lifted-file"]])


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(file_commands, unreadable)
def test_unreadable_files_are_usage_errors(input_file, command, data):
    input_file.write_bytes(data)
    code, out, err = run(command + [str(input_file)], "")
    assert (code, out) == (2, ""), (command, data[:80], err)
    assert err.startswith("error: ") and err.count("\n") == 1, err
