"""Log every record the test suite writes, and compare two such logs.

Load the plugin by name with the test directory on the path:

    PYTHONPATH=src:tests python -m pytest -q -p record_log --record-log OUT

Each ``Report.add`` call writes one JSON line ``[test, report title, name,
law, passed, witness, residual]`` to ``OUT``.  Running the suite this way on
two source trees and then

    python tests/record_log.py OLD NEW

checks that ``NEW`` only drops records of ``OLD``: per test found in both
logs, the records of ``NEW`` must appear in ``OLD`` in the same order and
with the same content.  It prints every added or changed record, counts the
dropped ones by report title and names the tests found in one log only; the
exit status is 1 when any record was added or changed.  To compare two source
trees, run the same test files on both.
The file is not collected as a test module.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict


def pytest_addoption(parser):
    parser.addoption(
        "--record-log",
        metavar="PATH",
        help="write every Report.add of the run to PATH, one JSON line each",
    )


def pytest_configure(config):
    path = config.getoption("record_log")
    if not path:
        return
    from fmanlin.report import Report

    out = open(path, "w", encoding="utf-8")
    state = {"test": None}
    original = Report.add

    def add(self, name, law, passed, witness=None, residual=None):
        original(self, name, law, passed, witness, residual)
        rec = self.records[-1]
        row = [
            state["test"],
            self.title,
            rec.name,
            rec.law,
            rec.passed,
            rec.witness,
            rec.residual,
        ]
        out.write(json.dumps(row, default=str) + "\n")

    class Tracker:
        def pytest_runtest_setup(self, item):
            # not item.nodeid: it is relative to the rootdir, which pytest
            # may widen when the log path already exists
            state["test"] = f"{item.path.name}::{item.name}"

        def pytest_unconfigure(self, config):
            Report.add = original
            out.close()

    Report.add = add
    config.pluginmanager.register(Tracker(), "record-log-tracker")


def _by_test(path):
    tests = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            tests[row[0]].append(row)
    return tests


def compare(old_path, new_path) -> int:
    old, new = _by_test(old_path), _by_test(new_path)
    bad = 0
    dropped = Counter()
    for test in sorted(set(old) & set(new)):
        rows, pos = new[test], 0
        for row in old[test]:
            if pos < len(rows) and rows[pos] == row:
                pos += 1
            else:
                dropped[row[1]] += 1
        for row in rows[pos:]:
            bad += 1
            print(f"added or changed: {json.dumps(row)}")
    for label, only in (("OLD", set(old) - set(new)), ("NEW", set(new) - set(old))):
        if only:
            print(f"{len(only)} tests only in {label}, not compared: {sorted(only)}")
    shared = set(old) & set(new)
    total_old = sum(len(old[t]) for t in shared)
    total_new = sum(len(new[t]) for t in shared)
    print(f"{total_old} records before, {total_new} after, {bad} added or changed")
    for title, count in sorted(dropped.items()):
        print(f"  dropped from {title!r}: {count}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/record_log.py OLD NEW")
    sys.exit(compare(sys.argv[1], sys.argv[2]))
