"""Spans around the calls into each fmanlin layer, for the traced run.

The tracer wraps, from outside the package, the public functions that the
per-layer metrics name, in their home module and under every name another
fmanlin module imported them by, plus the ``RatFunc``/``Poly`` arithmetic
operators and ``Report.render``/``to_json``.  Each wrapped call is a span with
a name, start, end, parent span and op id.  A span's self time is its
duration minus the time covered by its child spans; the tracer's own
bookkeeping is charged to neither.

Arithmetic spans are far too many to log one by one: they are counted and
timed, and their children name the nearest logged span as parent.  Every
other span is kept in memory and written out by :meth:`Tracer.write`.
"""

from __future__ import annotations

import array
import gzip
import sys
import time
from fractions import Fraction
from importlib import import_module

# public functions wrapped; the span name is "<module>.<function>"
FUNCTIONS = (
    "symcore.poly_gcd",
    "symcore.solve_linear",
    "symcore.parse_expr",
    "tensor.contract",
    "tensor.lie_derivative",
    "tensor.assemble",
    "fman.hm_tensor",
    "fman.check_battery",
    "fman.check_euler",
    "duality.check_flat_f",
    "duality.dualize",
    "duality.regular_connection",
    "duality.check_duality_conditions",
    "prolong.tangent_prolongation",
    "prolong.cotangent_prolongation",
    "prolong.generalized_prolongation",
    "prolong.check_five_field_identity",
    "gengeo.classify_exact_courant",
    "gengeo.check_anchor_compat",
    "gengeo.check_scalar_compat",
    "gengeo.check_dorfman_compat",
    "gengeo.bfield_transform",
    "modelfile.loads",
    "modelfile.dumps",
    "cli.main",
)

# (module, class, methods, span name)
METHODS = (
    ("symcore", "RatFunc", ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"),
     "symcore.ratfunc_arith"),
    ("symcore", "Poly", ("__add__", "__sub__", "__mul__", "__rmul__"), "symcore.poly_arith"),
    ("report", "Report", ("render", "to_json"), "report.render"),
)
UNLOGGED = {"symcore.ratfunc_arith", "symcore.poly_arith"}

# operand kinds of a RatFunc +, -, x call, named by its simplest operand
KINDS = ("zero", "one", "const", "poly", "rational")

# span groups: each gives a per-layer call count "<group>_calls" and self
# time "<group>_s"
GROUPS = {
    "symcore.ratfunc_arith": ("symcore.ratfunc_arith",),
    "symcore.poly_arith": ("symcore.poly_arith",),
    "symcore.poly_gcd": ("symcore.poly_gcd",),
    "symcore.solve_linear": ("symcore.solve_linear",),
    "symcore.parse_expr": ("symcore.parse_expr",),
    "tensor.contract": ("tensor.contract",),
    "tensor.lie_derivative": ("tensor.lie_derivative",),
    "tensor.assemble": ("tensor.assemble",),
    "fman.hm_tensor": ("fman.hm_tensor",),
    "fman.check_battery": ("fman.check_battery",),
    "fman.check_euler": ("fman.check_euler",),
    "duality.check_flat_f": ("duality.check_flat_f",),
    "duality.dualize": ("duality.dualize",),
    "duality.regular_connection": ("duality.regular_connection",),
    "duality.check_duality_conditions": ("duality.check_duality_conditions",),
    "prolong.prolongation": (
        "prolong.tangent_prolongation",
        "prolong.cotangent_prolongation",
        "prolong.generalized_prolongation",
    ),
    "prolong.five_field": ("prolong.check_five_field_identity",),
    "gengeo.classify": ("gengeo.classify_exact_courant",),
    "gengeo.compat_checks": (
        "gengeo.check_anchor_compat",
        "gengeo.check_scalar_compat",
        "gengeo.check_dorfman_compat",
    ),
    "gengeo.bfield_transform": ("gengeo.bfield_transform",),
    "modelfile.loads": ("modelfile.loads",),
    "modelfile.dumps": ("modelfile.dumps",),
    "report.render": ("report.render",),
    "cli.main": ("cli.main",),
}


def _kind(x) -> int:
    """Index into KINDS of one arithmetic operand."""
    if isinstance(x, (int, Fraction)):
        return 0 if x == 0 else 1 if x == 1 else 2
    num = getattr(x, "num", None)
    if num is None:
        return 4
    if num.is_zero():
        return 0
    if not x.is_poly():
        return 4
    if num.is_const():
        return 1 if num.constant() == 1 else 2
    return 3


class Tracer:
    """Wraps the package on :meth:`install`, restores it on :meth:`uninstall`."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.kinds = [0] * len(KINDS)
        self.bytes_parsed = 0
        self.battery_repeats = 0
        self.op_id = -1
        self.names: list[str] = []
        # five int64 per logged span: name id, start, end, parent index, op id
        self.spans = array.array("q")
        self._stack: list[list[int]] = []
        self._batteries: list[tuple] = []
        self._undo: list[tuple] = []

    # -- hooks run before a span starts -------------------------------------------

    def _arith_hook(self, args, kwargs):
        self.kinds[min(_kind(args[0]), _kind(args[1]))] += 1

    def _battery_hook(self, args, kwargs):
        c = args[0] if args else kwargs["c"]
        e = args[1] if len(args) > 1 else kwargs.get("e")
        for pc, pe in self._batteries:
            if pc == c and (pe is None if e is None else pe is not None and pe == e):
                self.battery_repeats += 1
                break
        self._batteries.append((c, e))

    def _loads_hook(self, args, kwargs):
        self.bytes_parsed += len((args[0] if args else kwargs["text"]).encode("utf-8"))

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        clock = time.perf_counter_ns
        stack, spans, calls, self_ns = self._stack, self.spans, self.calls, self.self_ns
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        logged = name not in UNLOGGED
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        def wrapper(*args, **kwargs):
            enter = clock()
            if hook is not None:
                hook(args, kwargs)
            parent = stack[-1][1] if stack else -1
            if logged:
                index = len(spans) // 5
                spans.extend((name_id, 0, 0, parent, tracer.op_id))
                frame = [0, index]
            else:
                frame = [0, parent]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                calls[name] += 1
                self_ns[name] += end - start - frame[0]
                if logged:
                    spans[5 * index + 1] = start
                    spans[5 * index + 2] = end
                if stack:
                    stack[-1][0] += clock() - enter

        return wrapper

    def install(self) -> None:
        # import every layer first, so that each module's imported names exist
        for name in (*FUNCTIONS, *(m[0] for m in METHODS)):
            import_module(f"fmanlin.{name.split('.')[0]}")
        modules = [m for k, m in sys.modules.items() if k.startswith("fmanlin.")]
        hooks = {"fman.check_battery": self._battery_hook, "modelfile.loads": self._loads_hook}
        for name in FUNCTIONS:
            module, attr = name.split(".")
            orig = getattr(import_module(f"fmanlin.{module}"), attr)
            wrapper = self._wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
        for module, cls_name, methods, name in METHODS:
            cls = getattr(import_module(f"fmanlin.{module}"), cls_name)
            hook = self._arith_hook if name == "symcore.ratfunc_arith" else None
            for method in methods:
                orig = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, orig, hook))
                self._undo.append((cls, method, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def begin_op(self) -> None:
        """Start a new op: later spans carry its id, repeats are per op."""
        self.op_id += 1
        self._batteries = []

    # -- results ------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer count and self time gathered so far."""
        out = {}
        for group, spans in GROUPS.items():
            out[f"{group}_calls"] = (sum(self.calls[s] for s in spans), "count")
            out[f"{group}_s"] = (sum(self.self_ns[s] for s in spans) / 1e9, "s")
        total = self.calls["symcore.ratfunc_arith"]
        for kind, count in zip(KINDS, self.kinds):
            out[f"symcore.ratfunc_arith_{kind}_calls"] = (count, "count")
        trivial = self.kinds[0] + self.kinds[1]
        out["symcore.ratfunc_trivial_share"] = (trivial / total if total else 0.0, "share")
        batteries = self.calls["fman.check_battery"]
        share = self.battery_repeats / batteries if batteries else 0.0
        out["fman.battery_repeat_share"] = (share, "share")
        out["modelfile.bytes_parsed"] = (self.bytes_parsed, "bytes")
        return out

    def write(self, path) -> int:
        """Write the logged spans as gzipped TSV; returns the span count."""
        count = len(self.spans) // 5
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\top\tname\tstart_ns\tend_ns\tparent\n")
            s = self.spans
            for i in range(count):
                name_id, start, end, parent, op = s[5 * i: 5 * i + 5]
                fh.write(f"{i}\t{op}\t{self.names[name_id]}\t{start}\t{end}\t{parent}\n")
        return count
