"""Seeded inputs and op runners for the three benchmark workloads.

Every workload is a stream of *cycles*.  A cycle is a fixed mix of ops whose
inputs are drawn from small, fully enumerated pools by a ``random.Random``
seeded with ``(seed, workload, cycle index)``, so one seed always gives the
same ops and every op that any seed can produce has a recorded digest in
``digests.json`` (see ``record_digests.py``).  Inputs are rebuilt for every
cycle, so no two ops share an input object.

An op is ``(key, run)``: ``key`` names the op's inputs canonically and
``run()`` performs the op and returns the bytes that are digested.
In-process ops return ``render()`` plus ``to_json()`` of each report; CLI ops
return each stage's exit code and stdout.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODELS = ROOT / "models"

# the order in which one process runs them all: the CLI first, so that its
# largest child is one of its own, then the in-process workloads in order of
# growing memory, so that each high-water mark is still its own
WORKLOADS = ("cli-pipelines", "flat-duality", "prolong-battery")

CLI_ENTRY = (
    "import sys; from fmanlin.cli import main; sys.exit(main())"
)
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _render(*reports) -> bytes:
    return "".join(r.render() + "\n" + r.to_json() + "\n" for r in reports).encode()


# -- prolong-battery -------------------------------------------------------------

# deformations p of the square-zero product: e1*e1 = p e_{n-1}, with p a
# rational function of x2..xn only; every entry of the pool passes the battery
P_COEFFS = ((1, 1), (2, 3), (-1, 2))


def p_pool(n: int) -> list[str]:
    return [f"{a}/(x{i} + {b})" for i in range(2, n + 1) for a, b in P_COEFFS]


def square_zero_star(n: int) -> dict:
    """e0 is the unit and e_i*e_j = 0 for i, j >= 1."""
    star = {(0, 0, 0): 1}
    for i in range(1, n):
        star[(i, 0, i)] = 1
        star[(i, i, 0)] = 1
    return star


def generalized_op(n: int):
    from fmanlin import fman, prolong
    from fmanlin.duality import Connection
    from fmanlin.tensor import Chart

    chart = Chart.standard(n, 0)
    base = fman.BaseFManifold(chart, square_zero_star(n), (1,) + (0,) * (n - 1))
    nabla = Connection.zero(chart)

    def run() -> bytes:
        prol = prolong.generalized_prolongation(base, nabla)
        return _render(fman.check_battery(prol.components, prol.unit))

    return f"generalized n={n}", run


def tangent_op(n: int, p_text: str):
    from fmanlin import fman, prolong
    from fmanlin.symcore import parse_expr
    from fmanlin.tensor import Chart

    chart = Chart.standard(n, 0)
    star = square_zero_star(n)
    star[(n - 1, 1, 1)] = parse_expr(p_text, chart.names)
    base = fman.BaseFManifold(chart, star, (1,) + (0,) * (n - 1))

    def run() -> bytes:
        prol = prolong.tangent_prolongation(base)
        return _render(fman.check_battery(prol.components, prol.unit))

    return f"tangent n={n} p={p_text}", run


def prolong_cycle(rng: random.Random) -> list:
    """The two families alternate: generalized n=2,3,4 and tangent n=3,4.

    Generalized n=3 runs twice: the median op of the cycle is that one, so
    op_p50_s rests on twice the samples."""
    tangents = [tangent_op(n, rng.choice(p_pool(n))) for n in (3, 4)]
    rng.shuffle(tangents)
    generalized = [generalized_op(n) for n in (2, 3, 3, 4)]
    rng.shuffle(generalized)
    return [generalized[0], tangents[0], generalized[1], tangents[1], *generalized[2:]]


def prolong_pool() -> list:
    ops = [generalized_op(n) for n in (2, 3, 4)]
    ops += [tangent_op(n, p) for n in (3, 4) for p in p_pool(n)]
    return ops


# -- flat-duality ----------------------------------------------------------------

PLANE_STAR = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}
EULER_A = (1, 2, 5)
EULER_BC = ((0, 1), (-2, 2), (1, 5), (3, 7), (-1, 3), (2, 2))
D_ENTRIES = ("x2", "x2^2 - 4", "2*x2 + 1", "x2^2 + x2 - 1", "3*x2^2 - 2*x2", "x2 - 3")
EULER_EVERY = 4  # every fourth op also passes the Euler candidate


def flat_op(a: int, b: int, c: int, h: str, with_euler: bool):
    from fmanlin import duality
    from fmanlin.fman import BaseFManifold, LinearVectorField, MultComponents
    from fmanlin.symcore import parse_expr
    from fmanlin.tensor import Chart

    base_chart, chart = Chart.standard(2, 0), Chart.standard(2, 1)
    e1, e2 = f"x1 + {a}", f"x2^2 + {b}*x2 + {c}"
    base = BaseFManifold(base_chart, PLANE_STAR, (1, 0))
    euler = tuple(parse_expr(t, base_chart.names) for t in (e1, e2))
    comps = MultComponents(
        chart=chart,
        d={(0, 0, 1, 1): parse_expr(h, chart.names)},
        l={(0, 0, 0): 1},
        star=PLANE_STAR,
    )
    unit = LinearVectorField(chart, (1, 0), ((0,),))
    candidate = None
    if with_euler:
        beta = tuple(parse_expr(t, chart.names) for t in (e1, e2))
        candidate = LinearVectorField(chart, beta, ((0,),))

    def run() -> bytes:
        nabla, flat = duality.regular_flat_check(base, euler)
        dual = duality.check_duality_conditions(comps, unit, nabla, euler=candidate)
        return _render(flat, dual)

    key = f"a={a} b={b} c={c} D={h} euler={int(with_euler)}"
    return key, run


def flat_cycle(rng: random.Random) -> list:
    ops = []
    for k in range(EULER_EVERY):
        b, c = rng.choice(EULER_BC)
        ops.append(
            flat_op(rng.choice(EULER_A), b, c, rng.choice(D_ENTRIES), k == EULER_EVERY - 1)
        )
    return ops


def flat_pool() -> list:
    return [
        flat_op(a, b, c, h, euler)
        for a in EULER_A
        for b, c in EULER_BC
        for h in D_ENTRIES
        for euler in (False, True)
    ]


# -- cli-pipelines ---------------------------------------------------------------

# one entry per README command or pipeline; the last stage of each is a
# report stage that takes --json
CLI_COMMANDS = (
    *((f"check models/{m}.fman",) for m in (
        "line", "line-base", "plane", "plane-base", "plane-gamma-const",
        "plane-gamma-linear", "regular2d", "line-bad-euler",
    )),
    *((f"euler-check models/{m}.fman --candidate {c}",) for m, c in (
        ("line", "E1"), ("plane", "E1"), ("regular2d", "E"), ("line-bad-euler", "E2"),
    )),
    *((f"five-field models/{m}.fman",) for m in (
        "line-base", "plane-base", "regular2d", "plane-gamma-const",
    )),
    *((f"prolong tangent models/{m}.fman", "check -") for m in (
        "line-base", "plane-base", "regular2d", "plane-gamma-linear",
    )),
    *((f"dualize models/{m}.fman", "check -") for m in ("line", "plane")),
    *((f"prolong generalized models/{m}.fman", "bfield -", "courant-classify -")
      for m in ("plane-gamma-const", "plane-gamma-linear")),
)


def cli_stages(command: tuple, as_json: bool) -> list[list[str]]:
    """argv lists of the stages, model paths made absolute."""
    stages = []
    for text in command:
        argv = [
            str(ROOT / word) if word.startswith("models/") else word
            for word in text.split()
        ]
        stages.append(argv)
    if as_json:
        stages[-1].append("--json")
    return stages


def cli_key(command: tuple, as_json: bool) -> str:
    return " | ".join(command) + (" --json" if as_json else "")


def run_stages_subprocess(stages: list[list[str]]) -> bytes:
    """Run the stages one after another, each stdout feeding the next stdin."""
    env = child_env()
    data = b""
    out = []
    for argv in stages:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *argv],
            input=data,
            capture_output=True,
            env=env,
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
        data = proc.stdout
        out.append(b"exit %d\n" % proc.returncode + data)
    return b"".join(out)


def run_stages_inprocess(stages: list[list[str]]) -> bytes:
    """The same stages through ``fmanlin.cli.main`` with redirected stdio."""
    import io

    from fmanlin import cli

    data = ""
    out = []
    saved = sys.stdin, sys.stdout, sys.stderr
    for argv in stages:
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(data), io.StringIO(), io.StringIO()
        try:
            code = cli.main(argv)
            data = sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        out.append(b"exit %d\n" % code + data.encode())
    return b"".join(out)


def cli_op(command: tuple, as_json: bool, in_process: bool = False):
    stages = cli_stages(command, as_json)
    runner = run_stages_inprocess if in_process else run_stages_subprocess

    def run() -> bytes:
        return runner(stages)

    return cli_key(command, as_json), run


def cli_cycle(rng: random.Random, in_process: bool = False) -> list:
    """Every command once, in seeded order, each with or without --json."""
    ops = [cli_op(cmd, rng.random() < 0.5, in_process) for cmd in CLI_COMMANDS]
    rng.shuffle(ops)
    return ops


def cli_pool() -> list:
    return [cli_op(cmd, as_json) for cmd in CLI_COMMANDS for as_json in (False, True)]


# -- dispatch --------------------------------------------------------------------


def cycle(workload: str, seed: int, index: int, in_process: bool = False) -> list:
    """The ops of cycle ``index`` of a workload under ``seed``."""
    rng = random.Random(f"{seed}:{workload}:{index}")
    if workload == "prolong-battery":
        return prolong_cycle(rng)
    if workload == "flat-duality":
        return flat_cycle(rng)
    return cli_cycle(rng, in_process)


def pool(workload: str) -> list:
    """Every op any seed can produce, for recording digests."""
    return {"prolong-battery": prolong_pool, "flat-duality": flat_pool,
            "cli-pipelines": cli_pool}[workload]()
