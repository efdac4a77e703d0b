"""Every benchmark op still produces its recorded output, byte for byte.

The benchmark under ``perfbench/`` hashes the output of each op and compares
it with ``perfbench/digests.json``.  This runs every op that any seed can
produce -- the CLI commands through ``fmanlin.cli.main`` in process -- so a
change to one byte of a verdict, witness or residual fails the test suite,
not only the benchmark.  It only reads ``perfbench/``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())


def _ops(workload: str) -> list:
    if workload != "cli-pipelines":
        return workloads.pool(workload)
    return [
        workloads.cli_op(cmd, as_json, in_process=True)
        for cmd in workloads.CLI_COMMANDS
        for as_json in (False, True)
    ]


@pytest.mark.parametrize("workload", ["prolong-battery", "flat-duality", "cli-pipelines"])
def test_every_op_matches_its_recorded_digest(workload):
    want = DIGESTS[workload]
    ops = _ops(workload)
    assert sorted(key for key, _ in ops) == sorted(want)
    wrong = [key for key, run in ops if hashlib.sha256(run()).hexdigest() != want[key]]
    assert wrong == []
