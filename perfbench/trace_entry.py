"""Traced CLI entry point: ``python trace_entry.py SPANS_OUT ARGV...``,
with ``src`` on PYTHONPATH as for an untraced invocation.

Wraps the public functions and methods of every hadwalk layer from the
outside, runs ``hadwalk.cli.run(ARGV)`` exactly as the console script
would, then writes the recorded spans to SPANS_OUT as JSON and exits
with the CLI's return code.  The package itself is not modified.

A span is ``[name, parent, start_ns, end_ns, attr, escalated]``:
``parent`` is the index of the enclosing span (-1 at the root),
``attr`` is what the function's hook in ``_FUNCTIONS`` records, and
``escalated`` is 1 when a PrecisionEscalation first left the program
through this call.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import sys
import time

import hadwalk.cli  # imports every layer
from hadwalk import exactq, residue_engine, simulator, verification, walk_core
from hadwalk.errors import PrecisionEscalation

# Polynomials known to be an inside factor (d) or an outside factor (c).
_roles: dict = {}
# RootSet objects already returned by find_roots, by id (kept alive).
_returned: dict[int, object] = {}


def _remember_integrand(args, ig):
    _roles[ig.d] = "d"
    _roles[ig.c] = "c"


def _remember_d(args, p):
    _roles[p] = "d"


def _remember_c(args, p):
    _roles[p] = "c"


def _root_attr(args, rs):
    hit = id(rs) in _returned
    _returned[id(rs)] = rs
    return [rs.precision_bits, int(hit)]


def _find_roots_name(args):
    role = _roles.get(args[0], "other")
    return f"residue_engine.find_roots.{role}"


# Module-level functions to wrap: (module, attribute, span-attr hook).
_FUNCTIONS = [
    (hadwalk.cli, "run", None),
    (hadwalk.cli, "decimal_expansion", None),
    (residue_engine, "build_integrand", _remember_integrand),
    (residue_engine, "denominator_bound", lambda a, db: db.delta.bit_length()),
    (residue_engine, "find_roots", _root_attr),
    (residue_engine, "classify_roots", None),
    (residue_engine, "residue_sum", lambda a, r: a[3].precision_bits),
    (residue_engine, "integrate_exact", lambda a, p: p.denominator.bit_length()),
    (exactq, "poly_resultant", None),
    (exactq, "poly_discriminant", None),
    (exactq, "poly_divmod", None),
    (walk_core, "p_exact", None),
    (walk_core, "p_closed", None),
    (walk_core, "gf_via_recurrence", None),
    (walk_core, "absorption_denominator", _remember_d),
    (walk_core, "gf_denominator", _remember_c),
    (simulator, "step", None),
    (simulator, "interior_mass", None),
]
# Methods to wrap: (class, attribute, span name).  Aliases of the same
# function (Polynomial.__rmul__, RFamily.__getitem__) are patched too.
_METHODS = [
    (exactq.Polynomial, "__mul__", "exactq.Polynomial.mul"),
    (exactq.QuadExt, "__pow__", "exactq.QuadExt.pow"),
    (walk_core.RFamily, "r", "walk_core.RFamily.r"),
]

spans: list = []
_stack: list[int] = []


def _wrap(name, fn, attr_hook=None, namer=None):
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        idx = len(spans)
        span = [namer(args) if namer else name,
                _stack[-1] if _stack else -1, 0, 0, None, 0]
        spans.append(span)
        _stack.append(idx)
        span[2] = clock()
        try:
            result = fn(*args, **kwargs)
        except PrecisionEscalation as exc:
            if not getattr(exc, "_counted", False):
                exc._counted = True
                span[5] = 1
            raise
        finally:
            span[3] = clock()
            _stack.pop()
        if attr_hook is not None:
            span[4] = attr_hook(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _install() -> None:
    """Replace each wrapped object wherever a hadwalk module or class
    bound it, since ``from ... import`` copies the binding."""
    replace: dict[int, object] = {}
    for module, attr, hook in _FUNCTIONS:
        fn = getattr(module, attr)
        namer = _find_roots_name if attr == "find_roots" else None
        layer = module.__name__.rsplit(".", 1)[-1]
        replace[id(fn)] = _wrap(f"{layer}.{attr}", fn, hook, namer)
    for suite in verification.SUITES.values():
        for check in suite:
            if id(check) not in replace:
                label = check.__name__.removeprefix("check_").replace("_", "-")
                replace[id(check)] = _wrap(f"verification.{label}", check)
    for cls, attr, name in _METHODS:
        fn = cls.__dict__[attr]
        wrapped = _wrap(name, fn)
        for key, value in list(cls.__dict__.items()):
            if value is fn:
                setattr(cls, key, wrapped)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "hadwalk" or mod_name.startswith("hadwalk."):
            for key, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, key, replace[id(value)])
    for key, suite in verification.SUITES.items():
        verification.SUITES[key] = tuple(replace[id(c)] for c in suite)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    _install()
    code = hadwalk.cli.run(argv)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
