"""Fuzz of the command line over small configs, Weil expressions and the
arguments of ``ec-scan`` and ``rmt-table``.

Whatever the input, ``cli.main`` returns one of its exit codes and prints no
traceback; an input it rejects gets one ``error:`` line.  The
sizes stay tiny (P <= 50, boxes of at most 10 members) so each example runs
in milliseconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lfsym.cli import EXIT_CONFIG, main

EXIT_CODES = {0, 2, 3, 4}
IDS = ("a", "b", "c")

junk = st.sampled_from(["", "abc", "1/2", "nan", "inf", "-inf", "1e400", " 7 "])


@st.composite
def mostly(draw, valid, invalid):
    """A draw from ``valid``, and one time in ten from ``invalid``."""
    return draw(invalid if draw(st.integers(0, 9)) == 0 else valid)


@st.composite
def number(draw, values):
    """A value as a JSON number or a string, and one time in ten junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(junk)
    value = draw(values)
    return str(value) if draw(st.booleans()) else value


@st.composite
def boxes(draw, lo, hi, width):
    start = draw(st.integers(lo, hi))
    return start, start + draw(st.integers(-2, width))


@st.composite
def twists(draw):
    kind = draw(st.sampled_from(["kronecker", "character", "delta", "bogus", ""]))
    args = draw(st.lists(st.integers(-8, 60), max_size=3))
    return " ".join([kind, *map(str, args)])


polynomials = st.one_of(
    st.lists(st.integers(-5, 5), max_size=3).map(lambda c: " ".join(map(str, c))),
    junk,
)


KINDS = ("dirichlet", "quadratic", "elliptic", "delta", "sym_lift", "convolve", "twist")


@st.composite
def families(draw, ident, ids):
    kind = draw(mostly(st.sampled_from(KINDS), st.just("bogus")))
    references = mostly(st.sampled_from(ids), st.just("missing"))
    options = {"id": ident, "kind": kind}
    if kind == "dirichlet":
        options["modulus"] = draw(number(st.integers(-3, 40)))
    elif kind == "quadratic":
        lo, hi = draw(boxes(-20, 60, 10))
        options.update(d_min=draw(number(st.just(lo))), d_max=hi)
        if draw(st.booleans()):
            options["stride"] = draw(number(st.integers(-1, 4)))
    elif kind == "elliptic":
        lo, hi = draw(boxes(-5, 10, 10))
        options.update(
            a_poly=draw(polynomials),
            b_poly=draw(polynomials),
            t_min=draw(number(st.just(lo))),
            t_max=hi,
        )
    elif kind == "sym_lift":
        options.update(base=draw(references), power=draw(number(st.integers(-1, 4))))
    elif kind == "convolve":
        options.update(left=draw(references), right=draw(references))
    elif kind == "twist":
        options.update(base=draw(references), twist=draw(twists()))
    # drop one option now and then: missing keys must be reported too
    if draw(st.integers(0, 9)) == 0 and len(options) > 2:
        del options[draw(st.sampled_from(sorted(options)))]
    return options


@st.composite
def configs(draw):
    run = {}
    # mostly valid values, so that most examples get past validation
    for key, values in (
        ("primes", mostly(st.integers(2, 50), st.integers(-2, 1))),
        ("sigma", mostly(st.sampled_from([0.3, 1.0, 2.5, 1e6, 1e300]), st.just(0.0))),
        ("nu_max", mostly(st.integers(1, 12), st.integers(-1, 0))),
        ("tolerance", mostly(st.just(0.2), st.sampled_from([0.0, -1.0]))),
        ("threads", mostly(st.integers(1, 2), st.just(0))),
        ("log_r", mostly(st.sampled_from([4.0, 0.5, 1e300]), st.just(-1.0))),
    ):
        if draw(st.booleans()):
            run[key] = draw(number(values))
    ids = IDS[: draw(st.integers(0, len(IDS)))]
    return {"run": run, "families": [draw(families(i, ids)) for i in ids]}


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(code, err):
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if code == EXIT_CONFIG:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    elif code != 0:
        # exit 3 (NaN) and 4 (--check) end on one line saying why
        assert err.splitlines()[-1].startswith("error: ")


@settings(max_examples=150, deadline=None)
@given(
    config=configs(),
    command=st.sampled_from(["constants", "density", "convolve"]),
    flags=st.lists(st.sampled_from(["--check", "--json"]), unique=True),
)
def test_config_fuzz_exits_cleanly(config, command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)]
        if command == "convolve":
            argv += ["--left", "a", "--right", "b"]
            flags = [f for f in flags if f != "--json"]
        check(*run_main(argv + flags))


weil_atoms = st.builds(
    "[{}{}]".format,
    st.sampled_from(["1", "2", "3", "12", "+", "-", "0", "3/2", "x"]),
    st.sampled_from(["", ",0", ",1/2", ",-3", ",1/0", ","]),
)


def weil_compound(inner):
    return st.one_of(
        st.builds("sym^{}({})".format, st.integers(0, 3), inner),
        st.builds("wedge2({})".format, inner),
        st.builds("({})".format, inner),
        st.builds("{}(*){}".format, inner, inner),
    )


@st.composite
def weil_expressions(draw):
    """Expressions of the grammar; one time in four a character is replaced
    by a stray token or dropped."""
    text = draw(st.recursive(weil_atoms, weil_compound, max_leaves=4))
    query = draw(st.sampled_from(["", "eps", "gamma", "logcond"]))
    if query:
        text = f"{query}({text})"
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(text)))
        stray = draw(st.sampled_from(["", "(", ")", "]", ",", "(*)", "sym^2", "-"]))
        text = text[:i] + stray + text[i + 1 :]
    return text


@settings(max_examples=100, deadline=None)
@given(
    a_poly=polynomials,
    b_poly=polynomials,
    primes=mostly(st.integers(2, 60), st.integers(-2, 1)),
)
def test_ec_scan_fuzz_exits_cleanly(a_poly, b_poly, primes):
    # --option=value, so that a value starting with "-" stays a value
    argv = ["ec-scan", f"--a-poly={a_poly}", f"--b-poly={b_poly}"]
    check(*run_main(argv + [f"--primes={primes}"]))


number_lists = st.lists(
    st.one_of(st.sampled_from(["0", "0.5", "0.99", "1", "1.5", "-0.5", "3"]), junk),
    min_size=1,
    max_size=3,
).map(",".join)


@settings(max_examples=100, deadline=None)
@given(sigma=number_lists, ranks=number_lists)
def test_rmt_table_fuzz_exits_cleanly(sigma, ranks):
    check(*run_main(["rmt-table", f"--sigma={sigma}", f"--ranks={ranks}"]))


@settings(max_examples=150, deadline=None)
@given(text=weil_expressions(), json_flag=st.booleans())
def test_weil_fuzz_exits_cleanly(text, json_flag):
    argv = ["weil"] + (["--json"] if json_flag else []) + ["--", text]
    check(*run_main(argv))
