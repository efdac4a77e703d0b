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

from .fman import BaseFManifold, PreconditionError, check_battery, check_euler
from .modelfile import MAX_CHARS, ModelError, ModelFile, dumps, load, loads, save
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


def _derived(model, suffix, components, unit, connection, gamma) -> ModelFile:
    """What a construction writes: its tables, and ``model``'s description,
    twist and name, suffixed unless empty; ``[euler.*]`` sections are dropped."""
    return ModelFile(
        components,
        unit,
        connection=connection,
        gamma=gamma,
        twist=model.twist,
        name=f"{model.name}-{suffix}" if model.name else "",
        description=model.description,
    )


# Each handler takes the parsed model and the arguments, and returns the
# report of a check command or the model a constructive command writes.


def cmd_check(model, args):
    if model.chart.k == 0:
        return _base_of(model).verify()
    return check_battery(model.components, _unit_of(model))


def cmd_euler_check(model, args):
    euler = model.eulers.get(args.candidate)
    if euler is None:
        have = ", ".join(sorted(model.eulers)) or "none"
        raise ValueError(
            f"no euler candidate named {args.candidate!r} (have: {have})"
        )
    return check_euler(model.components, _unit_of(model), euler)


def cmd_dualize(model, args):
    from .duality import dualize

    nabla = _connection_of(model, args.connection)
    dual = dualize(model.components, _unit_of(model), nabla)
    # the model's own connection, even when --connection dualized by another
    return _derived(model, "dual", *dual, model.connection, model.gamma)


def cmd_prolong(model, args):
    from .prolong import (
        cotangent_prolongation,
        generalized_prolongation,
        tangent_prolongation,
    )

    base = _base_of(model)
    if args.kind == "tangent":
        prol, connection = tangent_prolongation(base), model.connection
    else:
        connection = _connection_of(model, args.connection)
        builder = (
            cotangent_prolongation
            if args.kind == "cotangent"
            else generalized_prolongation
        )
        prol = builder(base, connection)
    return _derived(
        model, args.kind, prol.components, prol.unit, connection, model.gamma
    )


def cmd_bfield(model, args):
    from .gengeo import bfield_transform

    if model.gamma is None:
        raise ValueError("the model has no [gamma] section to transform by")
    sheared = bfield_transform(model.components, _unit_of(model), model.gamma)
    return _derived(model, "bfield", *sheared, model.connection, None)


def cmd_courant_classify(model, args):
    from .gengeo import classify_exact_courant

    nabla = _connection_of(model, args.connection)
    return classify_exact_courant(
        model.components, _unit_of(model), nabla, model.twist
    )


def cmd_five_field(model, args):
    from .prolong import check_five_field_identity

    return check_five_field_identity(_base_of(model))


_ARGUMENTS = {
    "kind": {
        "choices": ("tangent", "cotangent", "generalized"),
        "help": "which prolongation to build",
    },
    "model": {"help": "model file, or - for stdin"},
    # the model argument, with the help text that prolong shows
    "base-model": {"help": "base model file, or - for stdin"},
    "--candidate": {"required": True, "help": "euler section name"},
    "--connection": {"help": "model file supplying [connection]"},
    "--out": {"default": "-", "help": "output path (default stdout)"},
    "--json": {"action": "store_true", "help": "machine-readable report"},
}

# the subcommands in help order: handler, help, arguments in order
_COMMANDS = {
    "check": (cmd_check, "run the multiplication battery", "model --json"),
    "euler-check": (
        cmd_euler_check,
        "check a named euler candidate",
        "model --candidate --json",
    ),
    "prolong": (
        cmd_prolong,
        "prolong a base model",
        "kind base-model --connection --out",
    ),
    "dualize": (cmd_dualize, "dualize the fiber block", "model --connection --out"),
    "bfield": (cmd_bfield, "shear by the model's two-form", "model --out"),
    "courant-classify": (
        cmd_courant_classify,
        "classify a double-fiber model against the twisted bracket",
        "model --connection --json",
    ),
    "five-field": (
        cmd_five_field,
        "check the five-argument product identity on a base model",
        "model --json",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fman",
        description="Exact identity checks and constructions on model files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for arg in arguments.split():
            p.add_argument(arg.removeprefix("base-"), **_ARGUMENTS[arg])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = args.func(_read_model(args.model), args)
        if not isinstance(result, ModelFile):
            print(result.to_json() if args.json else result.render())
            return 0 if result.passed else 1
        if args.out == "-":
            _utf8(sys.stdout).write(dumps(result))
        else:
            save(result, args.out)
        return 0
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
