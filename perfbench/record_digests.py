#!/usr/bin/env python3
"""Record the expected output digest of every op any seed can produce.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    python3 perfbench/record_digests.py [workload ...]

It runs each op of each workload's input pool once and writes
``perfbench/digests.json``: per workload, op key -> sha256 of the op's
output.  CLI ops are recorded from subprocesses and must give the same
bytes through ``fmanlin.cli.main`` in process, which the traced run uses.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(workloads.SRC))
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for workload in argv or workloads.WORKLOADS:
        digests = {}
        for key, op in workloads.pool(workload):
            digests[key] = hashlib.sha256(op()).hexdigest()
            print(f"{workload}: {key}", flush=True)
        if workload == "cli-pipelines":
            for cmd in workloads.CLI_COMMANDS:
                for as_json in (False, True):
                    key, op = workloads.cli_op(cmd, as_json, in_process=True)
                    if hashlib.sha256(op()).hexdigest() != digests[key]:
                        print(f"in-process output differs: {key}", file=sys.stderr)
                        return 1
        table[workload] = dict(sorted(digests.items()))
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
