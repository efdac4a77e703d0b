"""Command-line interface over model files.

Check commands (``check``, ``euler-check``, ``courant-classify``,
``five-field``) print a verification report and exit 0 on an overall pass or
1 on a failed identity.  Constructive commands (``dualize``, ``prolong``,
``bfield``) write a new model file, so constructions chain through shell
pipes::

    fman prolong tangent models/plane-base.fman | fman check -

``-`` stands for stdin (models) or stdout (``--out``); model text there is
UTF-8 whatever the stdio encoding, as in files.  Exit codes: 0 pass,
1 check failure, 2 input error, 3 unmet precondition (the precondition's own
report is printed when available).

Each handler imports the modules only its command runs, so one stage of a
pipeline loads no more than it needs.  From the standard library a stage adds
``argparse``, ``fractions``, ``re``, ``pathlib`` and what they import, and
``json`` only for ``--json``; the package's classes are plain classes, so no
stage loads ``inspect``, ``ast``, ``dis`` or ``tokenize``.  With bytecode
writing off (``PYTHONDONTWRITEBYTECODE=1``) every stage compiles each package
module it imports, so that import is most of a short stage:
``check models/plane.fman`` spends about 83 ms starting the interpreter, 73 ms
importing (105 ms while the classes were generated at import and ``json``
loaded up front), 5 ms building the parser and 4 ms on the work (Python
3.11.7, 2 vCPUs).
"""

from __future__ import annotations

import argparse
import codecs
import io
import sys

from .fman import (
    BaseFManifold,
    PreconditionError,
    check_battery,
    check_euler,
)
from .modelfile import MAX_CHARS, ModelError, ModelFile, dumps, load, loads
from .tensor import Connection

__all__ = ["main"]


def _utf8(stream):
    """``stream``, set to read and write UTF-8 as ``load`` and ``save`` do.

    Only a text file in another encoding is switched; an ``io.StringIO`` (an
    in-process run) holds ``str`` and is used as it is.
    """
    if (
        isinstance(stream, io.TextIOWrapper)
        and codecs.lookup(stream.encoding).name != "utf-8"
    ):
        stream.reconfigure(encoding="utf-8")
    return stream


def _read_model(path: str) -> ModelFile:
    if path == "-":
        return loads(_utf8(sys.stdin).read(MAX_CHARS + 1))
    return load(path)


def _emit_model(model: ModelFile, out: str) -> None:
    if out == "-":
        _utf8(sys.stdout).write(dumps(model))
    else:
        from .modelfile import save

        save(model, out)


def _report_exit(rep, as_json: bool) -> int:
    print(rep.to_json() if as_json else rep.render())
    return 0 if rep.passed else 1


def _unit_of(model: ModelFile):
    if model.unit is None:
        raise ValueError("the model has no [unit] section")
    return model.unit


def _base_of(model: ModelFile) -> BaseFManifold:
    if model.chart.k != 0:
        raise ValueError("expected a base model (a chart without a fiber line)")
    return BaseFManifold(
        chart=model.chart,
        star=model.components.star,
        unit=_unit_of(model).beta,
    )


def _connection_of(model: ModelFile, override: str | None) -> Connection:
    """The model's connection, an override file's, or zero."""
    if override is not None:
        other = _read_model(override)
        if other.connection is None:
            raise ValueError(f"{override} has no [connection] section")
        if other.chart.base_names != model.chart.base_names:
            raise ValueError(
                "connection override uses different base coordinates"
            )
        return other.connection
    if model.connection is not None:
        return model.connection
    return Connection.zero(model.chart.base())


def _suffixed(name: str, suffix: str) -> str:
    return f"{name}-{suffix}" if name else ""


def cmd_check(args) -> int:
    model = _read_model(args.model)
    if model.chart.k == 0:
        rep = _base_of(model).verify()
    else:
        rep = check_battery(model.components, _unit_of(model))
    return _report_exit(rep, args.json)


def cmd_euler_check(args) -> int:
    model = _read_model(args.model)
    euler = model.eulers.get(args.candidate)
    if euler is None:
        have = ", ".join(sorted(model.eulers)) or "none"
        raise ValueError(
            f"no euler candidate named {args.candidate!r} (have: {have})"
        )
    rep = check_euler(model.components, _unit_of(model), euler)
    return _report_exit(rep, args.json)


def cmd_dualize(args) -> int:
    from .duality import dualize

    model = _read_model(args.model)
    nabla = _connection_of(model, args.connection)
    dual_c, dual_e = dualize(model.components, _unit_of(model), nabla)
    _emit_model(
        ModelFile(
            components=dual_c,
            unit=dual_e,
            connection=model.connection,
            gamma=model.gamma,
            twist=model.twist,
            name=_suffixed(model.name, "dual"),
            description=model.description,
        ),
        args.out,
    )
    return 0


def cmd_prolong(args) -> int:
    from .prolong import (
        cotangent_prolongation,
        generalized_prolongation,
        tangent_prolongation,
    )

    model = _read_model(args.model)
    base = _base_of(model)
    if args.kind == "tangent":
        prol = tangent_prolongation(base)
        connection = model.connection
    else:
        nabla = _connection_of(model, args.connection)
        builder = (
            cotangent_prolongation
            if args.kind == "cotangent"
            else generalized_prolongation
        )
        prol = builder(base, nabla)
        connection = nabla
    _emit_model(
        ModelFile(
            components=prol.components,
            unit=prol.unit,
            connection=connection,
            gamma=model.gamma,
            twist=model.twist,
            name=_suffixed(model.name, args.kind),
            description=model.description,
        ),
        args.out,
    )
    return 0


def cmd_bfield(args) -> int:
    from .gengeo import bfield_transform

    model = _read_model(args.model)
    if model.gamma is None:
        raise ValueError("the model has no [gamma] section to transform by")
    tc, te = bfield_transform(model.components, _unit_of(model), model.gamma)
    _emit_model(
        ModelFile(
            components=tc,
            unit=te,
            connection=model.connection,
            twist=model.twist,
            name=_suffixed(model.name, "bfield"),
            description=model.description,
        ),
        args.out,
    )
    return 0


def cmd_courant_classify(args) -> int:
    from .gengeo import classify_exact_courant

    model = _read_model(args.model)
    nabla = _connection_of(model, args.connection)
    rep = classify_exact_courant(
        model.components, _unit_of(model), nabla, model.twist
    )
    return _report_exit(rep, args.json)


def cmd_five_field(args) -> int:
    from .prolong import check_five_field_identity

    model = _read_model(args.model)
    rep = check_five_field_identity(_base_of(model))
    return _report_exit(rep, args.json)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fman",
        description="Exact identity checks and constructions on model files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="model file, or - for stdin")
        p.set_defaults(func=func)
        return p

    p = add("check", cmd_check, "run the multiplication battery")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    p = add("euler-check", cmd_euler_check, "check a named euler candidate")
    p.add_argument("--candidate", required=True, help="euler section name")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("prolong", help="prolong a base model")
    p.add_argument(
        "kind", choices=("tangent", "cotangent", "generalized"),
        help="which prolongation to build",
    )
    p.add_argument("model", help="base model file, or - for stdin")
    p.add_argument("--connection", help="model file supplying [connection]")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_prolong)

    p = add("dualize", cmd_dualize, "dualize the fiber block")
    p.add_argument("--connection", help="model file supplying [connection]")
    p.add_argument("--out", default="-", help="output path (default stdout)")

    p = add("bfield", cmd_bfield, "shear by the model's two-form")
    p.add_argument("--out", default="-", help="output path (default stdout)")

    p = add(
        "courant-classify",
        cmd_courant_classify,
        "classify a double-fiber model against the twisted bracket",
    )
    p.add_argument("--connection", help="model file supplying [connection]")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    p = add(
        "five-field",
        cmd_five_field,
        "check the five-argument product identity on a base model",
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        if exc.report is not None:
            print(exc.report.render())
        print(f"precondition: {exc}", file=sys.stderr)
        return 3
    except (ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
