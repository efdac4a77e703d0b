"""The public API is each module's ``__all__``, and every name in it has a user.

A name belongs in ``__all__`` only when the package itself, its CLI or the
benchmark in ``perfbench/`` uses it.  A name that only tests reach is either
moved into ``tests/`` as a reference or deleted, unless it is listed in
``KEPT`` with the reason the tests need it as package behaviour.  The same
holds for private top-level definitions, which have no ``KEPT`` list.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fmanlin"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

KEPT = {
    "check_commutative": "its l2 argument is the only input that can fail side-tables-equal",
    "check_associative": "the record log pins its tests' records under its own report title",
    "check_unit": "the record log pins its tests' records under its own report title",
    "check_hertling_manin": "the record log pins its tests' records under its own report title",
    "evaluate_residual": "replays a failed battery record from its witness alone",
}


def public_names():
    """``(module, name)`` for every ``__all__`` entry of the package."""
    for stem in MODULES:
        module = importlib.import_module(f"fmanlin.{stem}")
        for name in getattr(module, "__all__", ()):
            yield module, name


def used_names() -> set:
    """Every identifier that ``src/`` or ``perfbench/`` code mentions.

    A mention inside the top-level definition of the same name (a recursive
    call) does not count.  ``perfbench`` also names functions in strings such
    as ``"fman.hm_tensor"``, so there the last dotted part of a string counts.
    """
    used = set()
    files = [(p, False) for p in sorted(PACKAGE.glob("*.py"))]
    files += [(p, True) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    for path, strings in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value.rsplit(".", 1)[-1]
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def private_definitions():
    """``(module, name)`` for every private top-level function, class and
    constant of the package.

    A decorated function is left out: its decorator registers it
    (``fman._identity``), so the registry is its user.
    """
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [] if stmt.decorator_list else [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    yield path.stem, name


def test_every_public_name_resolves():
    for module, name in public_names():
        assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"


def test_every_public_name_has_a_user_outside_the_tests():
    used = used_names()
    test_only = {name for _, name in public_names() if name not in used}
    assert test_only == set(KEPT), (
        "public names that no src/ or perfbench/ code uses: move them into "
        "tests/ as references, delete them, or list them in KEPT with a reason; "
        "a KEPT name that gained a user leaves KEPT"
    )


def test_every_private_definition_has_a_user_outside_the_tests():
    used = used_names()
    dead = [f"{stem}.{name}" for stem, name in private_definitions() if name not in used]
    assert not dead, (
        f"private definitions that no src/ or perfbench/ code uses: {dead}; "
        "move them into tests/ as references or delete them"
    )


def test_the_generic_component_form_is_gone():
    # the (2,1) tables of `MultComponents` are the one component dictionary;
    # `Section`, `vertical_lift` and `LeibnizError` are test references
    gone = {"LinearComponents", "LeibnizError", "Section", "vertical_lift"}
    assert not gone & {name for _, name in public_names()}
    tensor = importlib.import_module("fmanlin.tensor")
    assert not [name for name in gone if hasattr(tensor, name)]


def test_one_raw_rational_function_constructor():
    # every unchecked construction goes through `symcore._raw`, which sets
    # all the slots, the kept partials among them
    tree = ast.parse((PACKAGE / "symcore.py").read_text(encoding="utf-8"))
    raw = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "RatFunc"
    ]
    assert len(raw) == 1
    owner = next(
        stmt for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and raw[0] in ast.walk(stmt)
    )
    assert owner.name == "_raw"


def test_one_frame_memo():
    # `fman._Ctx` is the one memo of frame products and frame Lie derivatives:
    # `_Memo` is defined once, in `fman`; only `_Ctx` takes a frame partial,
    # so no other code keeps a copy of `L_{d_r}(*)(d_k, d_p)`; and only
    # `fman` reads the compiled rows
    defined, partial_calls, row_reads = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}  # node -> name of the top-level statement holding it
        for stmt in tree.body:
            for node in ast.walk(stmt):
                owners[node] = getattr(stmt, "name", None)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "_Memo":
                defined.append(path.stem)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "_frame_partial":
                    partial_calls.append((path.stem, owners[node]))
            elif isinstance(node, ast.Attribute) and node.attr == "rows":
                row_reads.append(path.stem)
    assert defined == ["fman"]
    assert partial_calls and set(partial_calls) == {("fman", "_Ctx")}
    assert row_reads and set(row_reads) == {"fman"}
