"""Malformed and hostile JSON on every subcommand that reads ``--input``.

Whatever the document, the CLI ends with exit 0, 1 or 2, prints at most
one JSON document on stdout and never a traceback (in process: no
exception escapes ``main``).  The costly entry points run for real only on
tiny inputs (m <= 3, n <= 2); on anything larger they raise
:class:`InvariantViolation` (exit 2), so no example ever does the work of a
big legal input: those are the size caps' business.
"""

import contextlib
import io
import json
import sys
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from cliffdegen import cli
from cliffdegen.rings import InvariantViolation

COSTLY = (
    "build_even_lie",
    "theta_tensor",
    "certify_specialization",
    "lipschitz_report",
    "generates_full_algebra",
    "is_cyclic_vector",
    "s_equivalent",
    "trace_fingerprint",
    "centralizer_dim",
)


def _tiny_only(fn):
    def run(*args, **kwargs):
        for a in args:
            if getattr(a, "m", 0) > 3 or getattr(a, "n", 0) > 2:
                raise InvariantViolation(f"{fn.__name__} not run on a large input")
        return fn(*args, **kwargs)

    return run


# --- documents ----------------------------------------------------------


def mostly(legal, hostile):
    """``legal`` four draws in five: a document must get past its first
    bad entry for the checks behind it to run."""
    return st.sampled_from([legal] * 4 + [hostile]).flatmap(lambda strategy: strategy)


HUGE = "9" * 5000  # past Python's 4300-digit limit for int <-> str

good_rationals = st.one_of(
    st.integers(-5, 5),
    st.integers(-5, 5).map(str),
    st.sampled_from(["1/2", "-3/4", "0.25", "7" * 1000 + "/3"]),
)
bad_rationals = st.sampled_from(
    ["1/0", "1e5", "1E-3", "x", "", " 1", "nan", HUGE, f"1/{HUGE}", None, True, 1.5, [[1]], {}]
)
rationals = mostly(good_rationals, bad_rationals)
good_coefficients = st.one_of(
    good_rationals,
    st.lists(good_rationals, max_size=3),  # a polynomial
    st.sampled_from([{"num": ["1", "1"], "den": ["2", "1"]}, {"num": ["0", "1"], "den": ["0", "1"]}]),
)
coefficients = mostly(
    good_coefficients,
    bad_rationals
    | st.sampled_from(
        [
            {"num": ["1"], "den": ["0", "1"]},  # a pole at t = 0
            {"num": ["1"], "den": ["-1", "1"]},  # a pole at t = 1
            {"num": ["1"], "den": ["0"]},
            {"num": ["1"]},
            {"num": "1", "den": "1"},
            {"x": 1},
        ]
    ),
)


@st.composite
def gram_matrices(draw):
    """Symmetric with legal entries, symmetric, not symmetric, ragged, or a
    zero form past a size cap."""
    kind = draw(st.sampled_from(["legal"] * 3 + ["symmetric", "square", "ragged", "big"]))
    if kind == "big":
        m = draw(st.sampled_from([4, 5, 7, 9, 25, 40]))
        return [["0"] * m for _ in range(m)]
    m = draw(st.integers(0, 3))
    if kind == "ragged":
        return [draw(st.lists(coefficients, max_size=4)) for _ in range(m)]
    entries = good_coefficients if kind == "legal" else coefficients
    Q = [[draw(entries) for _ in range(m)] for _ in range(m)]
    if kind != "square":
        for i in range(m):
            for j in range(i):
                Q[i][j] = Q[j][i]
    return Q


declared = mostly(st.none(), st.one_of(st.integers(-1, 40), st.sampled_from(["3", 2.0, True, [3]])))


def _with_declared(obj, key, value):
    if value is not None:
        obj[key] = value
    return obj


spaces = st.builds(
    _with_declared,
    st.builds(lambda Q: {"Q": Q}, mostly(gram_matrices(), coefficients)),
    st.just("m"),
    declared,
)
blade_keys = st.sampled_from(
    ["[]", "[1]", "[2]", "[1,2]", "[2,1]", "[1,1]", "[0]", "[7]", "[1,2,3]", "[ 1]", "1", "[[1]]", "[true]", "x", "[1.0]"]
)
multivectors = mostly(
    st.dictionaries(st.sampled_from(["[]", "[1]", "[2]", "[1,2]", "[1,3]"]), good_rationals, max_size=4),
    st.one_of(st.dictionaries(blade_keys, coefficients, max_size=4), st.sampled_from([[], "x", 1, None])),
)
lipschitz_docs = mostly(
    st.builds(lambda V, x: {"V": V, "x": x}, spaces, multivectors),
    st.builds(lambda V: {"V": V}, spaces),
)


@st.composite
def matrix_lists(draw):
    kind = draw(st.sampled_from(["legal"] * 3 + ["square", "ragged", "big"]))
    if kind == "big":
        n = draw(st.sampled_from([3, 9, 12]))
        return [[["0"] * n for _ in range(n)]]
    g = draw(st.integers(0, 3))
    n = draw(st.integers(0, 3))
    if kind == "ragged":
        return [draw(st.lists(st.lists(rationals, max_size=3), max_size=3)) for _ in range(g)]
    entries = good_rationals if kind == "legal" else rationals
    return [[[draw(entries) for _ in range(n)] for _ in range(n)] for _ in range(g)]


tuples = mostly(
    st.builds(
        lambda X, g, n: _with_declared(_with_declared({"X": X}, "g", g), "n", n),
        mostly(matrix_lists(), coefficients),
        declared,
        declared,
    ),
    st.sampled_from([[], "X", {"X": "X"}, {"g": 1}]),
)
simple_docs = mostly(
    tuples,
    st.builds(
        lambda T, v: {"tuple": T, "vector": v},
        tuples,
        st.one_of(st.lists(rationals, min_size=1, max_size=3), rationals, st.none()),
    ),
)
sequiv_docs = mostly(
    st.builds(lambda a, b: {"first": a, "second": b}, tuples, tuples),
    st.builds(lambda a: {"first": a}, tuples),
)
centralizer_docs = st.builds(
    lambda T, h: {"tuple": T, "h": h}, tuples, mostly(matrix_lists(), coefficients)
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["Q", "m", "V", "x", "X", "g", "n", "first", "tuple", "h"]), inner, max_size=4),
    ),
    max_leaves=12,
)
raw_texts = st.one_of(
    st.text(max_size=20),
    st.sampled_from(
        [
            "",
            "{",
            '{"Q": [[1, 2], [3',
            "[" * 100000 + "]" * 100000,  # nested too deeply to parse
            "[" * 100000,
            '{"Q": ' + "[" * 900 + "]" * 900 + "}",  # parses, yet nested
            '{"Q": [[' + HUGE + "]]}",  # a JSON integer past the digit limit
            '{"m": 1e400, "Q": [[NaN]]}',
            '{"Q": [[Infinity]]}',
            "\x00\xff",
        ]
    ),
)

COMMANDS = {
    ("form", "reconstruct"): spaces,
    ("form", "tensor"): spaces,
    ("degenerate", "analyze"): spaces,
    ("lipschitz", "test"): lipschitz_docs,
    ("localmodel", "simple"): simple_docs,
    ("localmodel", "sequiv"): sequiv_docs,
    ("localmodel", "centralizer"): centralizer_docs,
}
OPTIONS = {
    ("form", "tensor"): st.sampled_from([[], ["--at", "0"], ["--at", "1"], ["--at", "1/0"], ["--at", "1e99"], ["--at", "[1]"]]),
    ("localmodel", "sequiv"): st.sampled_from([[], ["--L", "0"], ["--L", "-1"], ["--L", "3"], ["--fingerprints"], ["--L", "99999", "--fingerprints"]]),
}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = draw(OPTIONS.get(command, st.just([])))
    source = draw(st.sampled_from(["own", "own", "own", "other", "any", "raw"]))
    if source == "raw":
        text = draw(raw_texts)
    else:
        strategy = {
            "own": COMMANDS[command],
            "other": st.sampled_from(sorted(COMMANDS)).flatmap(COMMANDS.get),
            "any": json_values,
        }[source]
        text = json.dumps(draw(strategy))
    return [*command, "--input", "-", *options], text


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_hostile_input_ends_cleanly(invocation):
    argv, text = invocation
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for name in COSTLY:
            stack.enter_context(mock.patch.object(cli, name, _tiny_only(getattr(cli, name))))
        stack.enter_context(mock.patch.object(sys, "stdin", io.StringIO(text)))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    stdout = out.getvalue()
    if stdout:
        assert stdout.count("\n") == 1 and stdout.endswith("\n")
        json.loads(stdout)
    assert bool(stdout) == (code != 1)  # a refusal prints nothing
