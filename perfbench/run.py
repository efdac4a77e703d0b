#!/usr/bin/env python3
"""The fmanlin benchmark: end-to-end metrics per workload, or a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flat-duality --seed 20250801 --seconds 36 --trace 0

``--workload all`` (the default) runs every workload in turn.  With
``--trace 0`` the timed phase runs whole cycles of ops for about ``--seconds``
and reports setup_s, op_p50_s, op_tail_s, ops_per_s and peak_rss_mb (times
scaled to a nominal machine speed, see REF_NOMINAL_S);
with ``--trace 1`` it runs a fixed number of cycles untraced and then traced,
and reports the per-layer metrics.  Every op's output is checked against
``digests.json``.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import GROUPS, KINDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
OUT = HERE / "out"
DEFAULT_SEED = 20250801
HOLDOUT_SEED = 7321
SETUP_REPEATS = 7
INTERPRETER_REPEATS = 5
# The host is shared: its speed drifts by up to 2x over tens of seconds,
# and a 36 s run often sits in one slow or fast spell.  A fixed pure-Python
# reference computation, timed before and after every op and, in ops that
# run in process, every REF_SPACING_S inside it, tracks that drift.  (A
# sample taken while a child process runs would share the CPU with it.)  Each timed metric is the wall
# time scaled by REF_NOMINAL_S over the mean of those reference times:
# seconds at the speed at which the reference takes REF_NOMINAL_S (its median
# on a 2-vCPU x86 VM, Python 3.11.7).  The unscaled wall times are printed
# and recorded as the *_wall_* metrics.
REF_NOMINAL_S = 0.016
REF_SPACING_S = 0.5

# per-layer metrics on the JSON line of a traced run.  The traced run prints
# more: the self time of every span group, but a group that a workload never
# enters reads exactly 0 s there, so only the groups entered by every
# workload give their time here; every group gives its call count.
PER_LAYER_TIMES = (
    "symcore.ratfunc_arith_s",
    "symcore.poly_arith_s",
    "tensor.contract_s",
    "tensor.lie_derivative_s",
    "tensor.assemble_s",
    "fman.hm_tensor_s",
    "fman.check_battery_s",
    "duality.check_flat_f_s",
    "duality.dualize_s",
    "report.render_s",
    "cli.interpreter_start_s",
)
PER_LAYER_OTHER = (
    *(f"{group}_calls" for group in GROUPS),
    *(f"symcore.ratfunc_arith_{kind}_calls" for kind in KINDS),
    "symcore.ratfunc_trivial_share",
    "fman.battery_repeat_share",
    "modelfile.bytes_parsed",
    "cli.stages_per_op",
    "trace.overhead_share",
)
PER_LAYER = PER_LAYER_TIMES + PER_LAYER_OTHER
# whole cycles in one traced run; a fixed count keeps the call counts exact
TRACED_CYCLES = {"flat-duality": 4, "prolong-battery": 1, "cli-pipelines": 1}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fmanlin").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def fresh_interpreter_s(args: list[str]) -> float:
    """Wall time of one fresh interpreter running ``args`` to a clean exit."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        env=workloads.child_env(),
        cwd=ROOT,
        capture_output=True,
        timeout=workloads.CHILD_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return elapsed


def reference_s() -> float:
    """Wall time of the reference: dict-based sparse products over Fractions,
    the kind of work the package does, in code the package cannot change."""
    start = time.perf_counter()
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    for _ in range(3):
        out = {}
        for ea, ca in a.items():
            for eb, cb in a.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                out[e] = out.get(e, 0) + ca * cb
    return time.perf_counter() - start


class Scaler:
    """Scales wall times by the speed of the reference, timed before and
    after each measured call and every REF_SPACING_S inside it."""

    def __init__(self):
        self.refs = [reference_s()]
        self.inside: list[float] = []
        self.paused = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.inside.append(reference_s())
        self.paused += time.perf_counter() - start

    @contextlib.contextmanager
    def sampling(self):
        """Time the reference every REF_SPACING_S while the body runs; for
        work done in this process only."""
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_SPACING_S, REF_SPACING_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def scaled(self, wall: float) -> tuple[float, float]:
        """(scaled, unscaled) time of the last sampled call, given its wall
        time; both leave out the samples taken inside it."""
        wall -= self.paused
        self.refs.append(reference_s())
        samples = [self.refs[-2], *self.inside, self.refs[-1]]
        self.inside, self.paused = [], 0.0
        return wall * REF_NOMINAL_S * len(samples) / sum(samples), wall


def setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Median (scaled, wall) time for a fresh interpreter to import the
    package and build cycle 0's inputs."""
    argv = [str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    scaler = Scaler()
    times = [scaler.scaled(fresh_interpreter_s(argv)) for _ in range(SETUP_REPEATS)]
    return statistics.median(t for t, _ in times), statistics.median(w for _, w in times)


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the tail: p90 by nearest rank.

    A fixed percentile, not the highest one with ten samples above it: ops
    are a fixed mix, and a percentile that moved with N would jump between
    op kinds as the cycle count changed.  From N = 100 on, at least ten
    samples lie above p90; the record states how many."""
    rank = math.ceil(0.9 * len(times))
    return 100.0 * rank / len(times), sorted(times)[rank - 1]


class Checker:
    """Compares op outputs with the recorded digests and counts failures."""

    def __init__(self, workload: str):
        table = json.loads((HERE / "digests.json").read_text())
        self.expected = table[workload]
        self.attempted = 0
        self.failed = 0

    def run(self, key: str, op, sampling=contextlib.nullcontext) -> float:
        """Run one op inside ``sampling()``; returns its wall time."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with sampling():
                out = op()
        except Exception:
            elapsed = time.perf_counter() - start
            self._fail(f"{key}: raised\n{traceback.format_exc()}")
            return elapsed
        elapsed = time.perf_counter() - start
        want = self.expected.get(key)
        if want is None:
            self._fail(f"{key}: no recorded digest")
        elif sha256(out) != want:
            self._fail(f"{key}: output digest differs from the recorded one")
        return elapsed

    def _fail(self, text: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"op failed: {text}", file=sys.stderr)


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, Checker, dict]:
    setup, setup_wall = setup_s(workload, seed)
    check = Checker(workload)
    walls: list[float] = []
    times: list[float] = []
    keys: list[str] = []
    index = 0
    start = time.perf_counter()
    scaler = Scaler()
    sampling = contextlib.nullcontext if workload == "cli-pipelines" else scaler.sampling
    while True:
        for key, op in workloads.cycle(workload, seed, index):
            scaled, wall = scaler.scaled(check.run(key, op, sampling))
            times.append(scaled)
            walls.append(wall)
            keys.append(key)
        index += 1
        phase = time.perf_counter() - start
        # whole cycles only: stop unless one more average cycle still fits
        if phase * (index + 1) / index > seconds:
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli-pipelines" else resource.RUSAGE_SELF
    percentile, tail_value = tail(times)
    completed = check.attempted - check.failed
    metrics = {
        "setup_s": (setup, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (completed / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "ops_failed": (check.failed / check.attempted, "share"),
        "setup_wall_s": (setup_wall, "s"),
        "op_p50_wall_s": (statistics.median(walls), "s"),
        "op_tail_wall_s": (tail(walls)[1], "s"),
        "ops_per_wall_s": (completed / phase, "1/s"),
    }
    info = {
        "N": len(times),
        "cycles": index,
        "timed_phase_s": phase,
        "tail_percentile": percentile,
        "samples_above_tail": len(times) - round(percentile * len(times) / 100),
        "reference_s_median": statistics.median(scaler.refs),
        "op_wall_seconds": list(zip(keys, walls)),
    }
    return metrics, check, info


def traced_ops(workload: str, seed: int) -> list:
    # the CLI's stages run through fmanlin.cli.main in process
    return [
        op
        for index in range(TRACED_CYCLES[workload])
        for op in workloads.cycle(workload, seed, index, in_process=True)
    ]


def traced_run(workload: str, seed: int) -> tuple[dict, Checker, dict]:
    check = Checker(workload)
    ops = traced_ops(workload, seed)
    start = time.perf_counter()
    for key, op in ops:
        check.run(key, op)
    untraced = time.perf_counter() - start

    ops = traced_ops(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        for key, op in ops:
            tracer.begin_op()
            check.run(key, op)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()

    interpreter = statistics.median(
        fresh_interpreter_s(["-c", "import fmanlin.cli"]) for _ in range(INTERPRETER_REPEATS)
    )
    metrics = tracer.layer_metrics()
    stages = sum(key.count(" | ") + 1 for key, _ in ops) if workload == "cli-pipelines" else 0
    metrics["cli.interpreter_start_s"] = (interpreter, "s")
    metrics["cli.stages_per_op"] = (stages / len(ops), "count")
    metrics["trace.overhead_share"] = (1 - untraced / traced, "share")
    spans_file = OUT / f"spans-{workload}-{seed}.tsv.gz"
    info = {
        "N": len(ops),
        "untraced_ops_per_s": len(ops) / untraced,
        "traced_ops_per_s": len(ops) / traced,
        "spans_logged": tracer.write(spans_file),
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, check, info


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Checker]:
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
    }
    if trace:
        metrics, check, info = traced_run(workload, seed)
    else:
        metrics, check, info = timed_run(workload, seed, seconds)
    record.update(info)
    record["loadavg_end"] = loadavg()
    record["attempted"] = check.attempted
    record["failed"] = check.failed
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    (OUT / f"record-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    brief = {k: v for k, v in record.items() if k not in ("metrics", "op_wall_seconds")}
    print(f"record: {json.dumps(brief)}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:16} {name:36} {value:>14.6g} {unit}")
    return metrics, check


def setup_only(workload: str, seed: int) -> None:
    """What setup_s times: import the package and build cycle 0's inputs."""
    if workload == "cli-pipelines":
        for key, _ in workloads.cycle(workload, seed, 0):
            for word in key.split():
                if word.startswith("models/") and not (ROOT / word).is_file():
                    raise FileNotFoundError(word)
    else:
        workloads.cycle(workload, seed, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; hold-out {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="the timed phase runs whole cycles for at most about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [
        p for p in (ROOT / "src" / "fmanlin" / "__init__.py", ROOT / "models", HERE / "digests.json")
        if not p.exists()
    ]
    if missing:
        print(f"error: not a fmanlin checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))

    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    OUT.mkdir(exist_ok=True)
    # the CPUs of a shared host run at different speeds; keep this process and
    # its children on one, so that the reference times the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = PER_LAYER if args.trace else ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s",
                                           "peak_rss_mb")
    attempted = failed = 0
    out = {}
    for name in names:
        metrics, check = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += check.attempted
        failed += check.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric in wanted:
            value, unit = metrics[metric]
            out[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
