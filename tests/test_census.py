"""Every default has a caller: the settable-value census of ``src/reebcut``.

A settable value is a defaulted parameter of a function or method, or a
dataclass field with a default.  It is set when some call in ``src/``,
``tests/``, ``demos/``, ``benchmarks/`` or ``bench/`` passes it, by keyword
or by position, to a function of the same name (a class name stands for
its ``__init__`` and its dataclass fields).  Calls are matched by name
only, so the census can miss a dead value whose name another call sets,
never the other way round.  A value no call sets has one value: it belongs
in a module constant.

Two structural rules ride along: only ``QuinticField`` and its loader
name FITPACK's module and routines, and scipy's public spline class is
named nowhere in ``src/reebcut``; only the fork helper
``pseudorotations._run_jobs`` names ``os.fork``, ``os.pipe`` and ``pickle``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "demos", "benchmarks", "bench")

# (qualified name, value) -> why it stays settable though no call sets it
ALLOWED = {
    ("flows.linearized_return", "s1"):
        "bench/tracer.py binds it by name when it counts RK4 steps",
    ("hamiltonians.ContactAuditReport", "passed"):
        "state computed in __post_init__, not an option",
    ("pseudorotations.ApproximationStage", "diagnostics"):
        "state filled in by stage_sequence after the stage is built",
    ("reports.RunConfig", "seed"): "set by RunConfig.parse through cls(...)",
    ("reports.RunConfig", "out_dir"): "set by RunConfig.parse through cls(...)",
    ("reports.RunConfig", "plots"): "set by RunConfig.parse through cls(...)",
}


def _decorators(node):
    names = set()
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        names.add(d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
    return names


def settable_values():
    """(qualified name, call names, value, position or None) per value."""
    values = []

    def visit(body, module, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                if "dataclass" in _decorators(node):
                    fields = [st for st in node.body
                              if isinstance(st, ast.AnnAssign)
                              and isinstance(st.target, ast.Name)]
                    for i, st in enumerate(fields):
                        if st.value is not None:
                            values.append((f"{module}.{node.name}",
                                           {node.name}, st.target.id, i))
                visit(node.body, module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                # a method's self or cls is never passed by position
                skip = int(isinstance(owner, ast.ClassDef)
                           and "staticmethod" not in _decorators(node))
                names = {node.name}
                qualified = f"{module}.{node.name}"
                if isinstance(owner, ast.ClassDef):
                    qualified = f"{module}.{owner.name}.{node.name}"
                    if node.name == "__init__":
                        names.add(owner.name)
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    values.append((qualified, names, arg.arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        values.append((qualified, names, arg.arg, None))
                visit(node.body, module, node)

    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        visit(ast.parse(path.read_text()).body, path.stem, None)
    return values


def calls():
    """Call name -> [(positional count, passes *args or **kwargs, keywords)]."""
    found = {}
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = getattr(fn, "id", None) or getattr(fn, "attr", None)
                unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                            or any(k.arg is None for k in node.keywords))
                found.setdefault(name, []).append(
                    (len(node.args), unpacked,
                     {k.arg for k in node.keywords if k.arg}))
    return found


def test_every_default_has_a_caller():
    found = calls()

    def is_set(names, value, position):
        return any(unpacked or value in keywords
                   or (position is not None and n_positional > position)
                   for name in names
                   for n_positional, unpacked, keywords in found.get(name, []))

    unset = {(qualified, value)
             for qualified, names, value, position in settable_values()
             if not is_set(names, value, position)}
    missing = sorted(unset - set(ALLOWED))
    assert not missing, f"no call sets these; make each a constant: {missing}"
    # an allowlisted value that some call now sets needs no entry
    assert set(ALLOWED) <= unset


# the FITPACK module and the three routines the spline fields call
FITPACK_NAMES = {"_dfitpack", "regrid_smth", "pardtc", "bispeu"}
# scipy's public tensor-spline class and its derivative method
SCIPY_SPLINE_NAMES = {"RectBivariateSpline", "partial_derivative"}
NAME = re.compile(r"\w+")


def test_only_quintic_field_builds_splines():
    # one class fits every tensor spline and derives its partials through
    # FITPACK, so the evaluation path is chosen in one place; the names are
    # matched in the source text, comments and strings included
    inside, outside = set(), []
    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        source = path.read_text()
        owned = set()
        for node in ast.walk(ast.parse(source)):
            if (path.stem == "hamiltonians"
                    and isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    and node.name in ("QuinticField", "_fitpack")):
                owned.update(range(node.lineno, node.end_lineno + 1))
        for lineno, line in enumerate(source.splitlines(), 1):
            for name in set(NAME.findall(line)):
                if name in FITPACK_NAMES and lineno in owned:
                    inside.add(name)
                elif name in FITPACK_NAMES | SCIPY_SPLINE_NAMES:
                    outside.append((path.name, lineno, name))
    assert not outside, f"splines fitted outside QuinticField: {outside}"
    assert inside == FITPACK_NAMES


# the fork path's system calls and its result transport
FORK_NAMES = re.compile(r"\bos\.(?:fork|pipe)\b|\bpickle\b")


def test_only_the_fork_helper_forks():
    # one fork path: every process split and every pickled result goes
    # through _run_jobs; the names are matched in the source text, comments
    # and strings included
    inside, outside = set(), []
    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        source = path.read_text()
        owned = set()
        for node in ast.walk(ast.parse(source)):
            if (path.stem == "pseudorotations"
                    and isinstance(node, ast.FunctionDef)
                    and node.name == "_run_jobs"):
                owned.update(range(node.lineno, node.end_lineno + 1))
        for lineno, line in enumerate(source.splitlines(), 1):
            for name in FORK_NAMES.findall(line):
                if lineno in owned:
                    inside.add(name)
                else:
                    outside.append((path.name, lineno, name))
    assert not outside, f"forks or pickles outside _run_jobs: {outside}"
    assert inside == {"os.fork", "os.pipe", "pickle"}
