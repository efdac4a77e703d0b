"""Generated model texts against the CLI exit-code contract.

Every subcommand, run in process on any model text, returns 0 (pass), 1
(failed identity), 2 (input error) or 3 (unmet precondition), and no
exception escapes ``main``; ``loads`` itself raises nothing but
``ValueError`` (``ModelError`` is one).  The texts mix well-formed charts,
tables and fields with wrong widths, out-of-range indices, unknown names,
malformed expressions and stray lines; each malformed value and line also
runs once as an explicit example.  Examples are seeded by ``FMAN_SEED``.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import SEED  # noqa: E402
from fmanlin.cli import main  # noqa: E402
from fmanlin.modelfile import loads  # noqa: E402

COMMANDS = [
    ["check", "-"],
    ["euler-check", "-", "--candidate", "E1"],
    ["dualize", "-"],
    ["prolong", "tangent", "-"],
    ["prolong", "cotangent", "-"],
    ["prolong", "generalized", "-"],
    ["bfield", "-"],
    ["courant-classify", "-"],
    ["five-field", "-"],
]

MODEL_DIR = Path(__file__).resolve().parent.parent / "models"
MODELS = sorted(MODEL_DIR.glob("*.fman"))
CHARTS = [
    ("x1", ""),
    ("x1", "xi1"),
    ("x1 x2", ""),
    ("x1 x2", "xi1"),
    ("x1 x2", "xi1 xi2"),
    ("x1", "xi1 mu1"),
    ("x1 x2", "xi1 xi2 mu1 mu2"),
    ("_t", "xi1"),
]
FAULTS = [
    "[bogus]",
    "0 0 = 1",
    "0 0 0 0 0 = 1",
    "9 0 0 = 1",
    "-1 0 0 = 1",
    "0 x 0 = 1",
    "beta 7 = 1",
    "lambda 0 = 1",
    "0 0 0 = 1 = 2",
    "base = x1",
    "[chart]",
    "[euler.]",
    "[unit",
    "= 1",
    "name = again",
]
BAD_VALUES = [
    "(x1",
    "x1 +",
    "1/0",
    "x1/(x1 - x1)",
    "0^-1",
    "x1^x1",
    "x1^1000",
    "y",
    "xi1",
    "mu1",
    "",
    "1 2",
]


def expressions(names):
    atoms = st.one_of(
        st.integers(-3, 3).map(str),
        st.sampled_from(["1/2", "-2/3"]),
        st.sampled_from(names),
    )

    def combine(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(inner, st.integers(-1, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        )

    return st.recursive(atoms, combine, max_leaves=3)


@st.composite
def model_texts(draw):
    """A model on a small chart.

    About one entry in twenty has a malformed value, and one model in three
    carries one malformed line.
    """
    base, fiber = draw(st.sampled_from(CHARTS))
    n, k = len(base.split()), len(fiber.split())
    values = expressions(base.split())
    keys_of = {
        "star": list(product(range(n), repeat=3)),
        "l": list(product(range(k), range(k), range(n))),
        "D": list(product(range(k), range(k), range(n), range(n))),
        "connection": list(product(range(n), repeat=3)),
        "gamma": list(combinations(range(n), 2)),
        "H": list(combinations(range(n), 3)),
        "beta": list(product(range(n))),
        "lambda": list(product(range(k), repeat=2)),
    }
    lines = ["[chart]", f"base = {base}"] + ([f"fiber = {fiber}"] if fiber else [])
    tables = ["star", "l", "D", "connection", "gamma", "H", "euler.E1"]
    sections = draw(st.lists(st.sampled_from(tables), unique=True, max_size=4))
    if draw(st.integers(0, 4)) < 4:
        sections.append("unit")
    for section in sections:
        lines.append(f"[{section}]")
        seen = set()
        for _ in range(draw(st.integers(0, 4))):
            kind = section
            if kind not in keys_of:
                kind = draw(st.sampled_from(["beta", "lambda"]))
            if not keys_of[kind]:
                continue
            key = draw(st.sampled_from(keys_of[kind]))
            if (kind, key) in seen:
                continue
            seen.add((kind, key))
            label = " ".join(map(str, key))
            label = label if kind == section else f"{kind} {label}"
            bad = draw(st.integers(0, 19)) == 19
            value = draw(st.sampled_from(BAD_VALUES) if bad else values)
            lines.append(f"{label} = {value}")
    if draw(st.integers(0, 2)) == 2:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FAULTS)))
    return "\n".join(lines) + "\n"


@st.composite
def edited_models(draw):
    """A model of ``models/`` with at most one line dropped or one fault added."""
    lines = draw(st.sampled_from(MODELS)).read_text().splitlines()
    edit = draw(st.integers(0, 2))
    at = draw(st.integers(0, len(lines) - 1))
    if edit == 1:
        del lines[at]
    elif edit == 2:
        lines.insert(at, draw(st.sampled_from(FAULTS)))
    return "\n".join(lines) + "\n"


def square_zero_model(n: int, deformation: str) -> str:
    """The square-zero base on ``n`` coordinates (unit e0, ei * ej = 0 for
    i, j >= 1) with one more star line: a sparse model whose five-field scan
    once visited all n^5 frame tuples."""
    lines = ["[chart]", "base = " + " ".join(f"x{i + 1}" for i in range(n)), "[star]", "0 0 0 = 1"]
    for i in range(1, n):
        lines += [f"{i} 0 {i} = 1", f"{i} {i} 0 = 1"]
    return "\n".join(lines + [deformation, "[unit]", "beta 0 = 1"]) + "\n"


def every_fault(test):
    """Add each malformed value and each malformed line as an explicit example."""
    plane = (MODEL_DIR / "plane-base.fman").read_text()
    for value in BAD_VALUES:
        test = example(text=f"{plane}\n[gamma]\n0 1 = {value}\n")(test)
    for line in FAULTS:
        test = example(text=plane.replace("[star]\n", f"[star]\n{line}\n"))(test)
    return test


@seed(SEED)
@settings(
    max_examples=80,
    deadline=5000,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=st.one_of(model_texts(), edited_models()))
@example(text=square_zero_model(32, "31 1 1 = 1/(x32 + 1)"))
@every_fault
def test_generated_models_keep_the_exit_code_contract(text):
    try:
        loads(text)
    except ValueError:
        pass
    stdin = sys.stdin
    try:
        for argv in COMMANDS:
            sys.stdin = io.StringIO(text)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, code)
    finally:
        sys.stdin = stdin
