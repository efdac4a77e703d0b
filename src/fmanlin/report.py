"""Structured verification reports.

Every check in this package returns a :class:`Report`: an ordered list of
named identity records, each carrying a pass/fail verdict and, on failure,
the first witness index tuple together with the residual expression at that
witness.  Records are written by :meth:`Report.scan`, which stops at the
first nonzero residual of a stream of ``(witness, residual)`` pairs, and
by :meth:`Report.summarize`, which folds a sub-report into one record.
Rendering is deterministic -- the verdict body contains no
timestamps, so two runs over the same input produce identical bytes.
"""

from __future__ import annotations

from operator import attrgetter

from .symcore import _Value

__all__ = ["CheckRecord", "Report"]


class CheckRecord(_Value):
    """Verdict for a single named identity.

    ``law`` is the display form of the identity being tested.  On failure,
    ``witness`` holds the first violating index tuple (in the fixed iteration
    order of the check) and ``residual`` the nonzero residual expression at
    that witness, so the failure can be reproduced by re-evaluating that one
    identity instance.
    """

    _key = attrgetter("name", "law", "passed", "witness", "residual")

    def __init__(
        self,
        name: str,
        law: str,
        passed: bool,
        witness: tuple | None = None,
        residual: str | None = None,
    ):
        self._set(
            name=name, law=law, passed=passed, witness=witness, residual=residual
        )


class Report:
    """Ordered collection of check records with an overall verdict."""

    def __init__(self, title: str):
        self.title = title
        self.records = []
        self.notes = []

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def first_failure(self) -> CheckRecord | None:
        """The first failed record, or ``None`` when every record passed."""
        return next((r for r in self.records if not r.passed), None)

    def record(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def add(
        self, name: str, law: str, passed: bool, witness: tuple | None = None, residual=None
    ) -> None:
        if passed:
            witness, residual = None, None
        elif residual is not None:
            residual = str(residual)
        self.records.append(CheckRecord(name, law, passed, witness, residual))

    def scan(self, name: str, law: str, pairs) -> bool:
        """Record ``name`` from an iterable of ``(witness, residual)`` pairs.

        The record fails at the first pair whose residual is nonzero, and the
        iterable is not advanced past it; if there is none, the record passes.
        """
        for witness, residual in pairs:
            if not residual.is_zero():
                self.add(name, law, False, tuple(witness), residual)
                return False
        self.add(name, law, True)
        return True

    def summarize(self, name: str, law: str, sub: "Report") -> bool:
        """Record ``name`` with the verdict of ``sub``.

        On failure the witness is the name of the first failed sub-record
        followed by its witness, and the residual is that record's residual.
        """
        bad = sub.first_failure()
        if bad is None:
            self.add(name, law, True)
            return True
        self.add(name, law, False, (bad.name, *(bad.witness or ())), bad.residual)
        return False

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_json(self) -> str:
        """The report as ``indent=2`` JSON: its title, verdict, records and notes.

        A record holds its name, law and verdict, and when it failed its
        witness (a list, or null) and residual.  Strings go through the
        escaper ``json`` uses; a witness element that is not a str, int, bool
        or None raises ``TypeError``.
        """
        from json.encoder import encode_basestring_ascii  # only ``--json`` stages load it

        def scalar(value) -> str:
            if isinstance(value, str):
                return encode_basestring_ascii(value)
            if value is None or value is True or value is False:
                return {None: "null", True: "true", False: "false"}[value]
            return int.__repr__(value)  # raises TypeError on anything but an int

        def array(values, pad: str, write=scalar) -> str:
            sep = f",\n{pad}  "
            return f"[\n{pad}  {sep.join(map(write, values))}\n{pad}]" if values else "[]"

        records = []
        for r in self.records:
            text = (
                f'"name": {scalar(r.name)},\n      "law": {scalar(r.law)},'
                f'\n      "passed": {scalar(r.passed)}'
            )
            if not r.passed:
                witness = "null" if r.witness is None else array(r.witness, "      ")
                text += f',\n      "witness": {witness},\n      "residual": {scalar(r.residual)}'
            records.append(f"{{\n      {text}\n    }}")
        records, notes = array(records, "  ", str), array(self.notes, "  ")
        return (
            f'{{\n  "title": {scalar(self.title)},\n  "passed": {scalar(self.passed)},'
            f'\n  "records": {records},\n  "notes": {notes}\n}}'
        )

    def render(self) -> str:
        lines = [self.title]
        width = max((len(r.name) for r in self.records), default=0)
        for r in self.records:
            verdict = "pass" if r.passed else "FAIL"
            line = f"  {r.name.ljust(width)}  {verdict}  {r.law}"
            lines.append(line)
            if not r.passed:
                if r.witness is not None:
                    lines.append(f"    witness: {tuple(r.witness)}")
                if r.residual is not None:
                    lines.append(f"    residual: {r.residual}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)
