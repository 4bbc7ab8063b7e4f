"""Every default has a caller: the settable-value census of ``src/reebcut``.

A settable value is a defaulted parameter of a function or method, or a
dataclass field with a default.  It is set when some call in ``src/``,
``tests/``, ``demos/``, ``benchmarks/`` or ``bench/`` passes it, by keyword
or by position, to a function of the same name (a class name stands for
its ``__init__`` and its dataclass fields).  Calls are matched by name
only, so the census can miss a dead value whose name another call sets,
never the other way round.  A value no call sets has one value: it belongs
in a module constant.  So does a value that every call passes as its own
default expression, read from the syntax tree.

Four structural rules ride along: only ``QuinticField`` and its loader
name FITPACK's module and routines, and scipy's public spline class is
named nowhere in ``src/reebcut``; only the fork helper
``flows._run_jobs`` names ``os.fork``, ``os.pipe`` and ``pickle``;
only ``flows._flow_batch`` cuts point batches into shares, and it and
``pseudorotations.stage_sequence`` alone call ``_run_jobs``; and no
builtin ``max`` or ``min`` reduces numpy values, running (``x = max(x,
...)``) or over a numpy value and any other value, a constant included,
which drops a NaN.

A definition census rides along: every function, method and class of
``src/reebcut`` is named somewhere in ``src/`` or ``demos/`` besides its
own definition (an ``__init__`` export counts), or is allowlisted with its
reason; dunder methods are exempt.  Names are matched as variables,
attributes and imports, so like the value census it can miss dead code
whose name something else carries, never the other way round.

A parameter census rides along: every parameter of a function of
``src/reebcut`` is read in its body, but for the oracle protocol's ``s``,
the scenario runners' ``rng`` and the parameters of a body that only
raises.  Like the value census it matches names, so it can miss a dead
parameter whose name its body reads for something else, never the other
way round.

One oracle layout: only ``Hamiltonian`` defines ``grad``, ``hessian`` and
``velocity_jacobian``, built from the ``grad_components`` and
``hessian_components`` hooks of each family, and only it and the
allowlisted ``QuadraticHamiltonian`` define ``velocity``.

Each decision has one owner: only ``moser._probe_path`` calls a path's
``evaluate_on_grid``, and only ``binding._judge_lift`` reads the
rho-stencils ``_STENCILS``, so the probe cloud and the sampled lift are
each laid out in one place.

A field census rides along: every field of a ``@dataclass`` of
``src/reebcut`` is read as an attribute somewhere in ``src/``, ``tests/``,
``demos/``, ``benchmarks/`` or ``bench/``.  Like the other rules it matches
names, so it can miss a dead field whose name another object's attribute
carries, never the other way round: ``ReturnMapReport.points``, whose
name ``IsotopyPath.points`` shares, was found dead by reading the code,
not by this rule.

One property census rides along too: every ``Hamiltonian`` class of
``src/reebcut`` that declares ``linear_velocity`` gives one DX, bitwise,
at every point and every s, since ``flows.linearized_return`` then moves
one Jacobian for a whole batch.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import numpy as np

from reebcut import (QuadraticHamiltonian, RigidRotationHamiltonian,
                     cosine_defect_hamiltonian)
from reebcut.geometry import TWO_PI
from reebcut.hamiltonians import Hamiltonian

from conftest import random_disc_points

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "demos", "benchmarks", "bench")

# (qualified name, value) -> why it stays settable though no call sets it
ALLOWED = {
    ("flows.linearized_return", "s1"):
        "bench/tracer.py binds it by name when it counts RK4 steps",
    ("pseudorotations.ApproximationStage", "diagnostics"):
        "state filled in by stage_sequence after the stage is built",
}


def _decorators(node):
    names = set()
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        names.add(d.id if isinstance(d, ast.Name) else getattr(d, "attr", None))
    return names


def settable_values():
    """(qualified name, call names, value, position or None, default
    expression) per value."""
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
                                           {node.name}, st.target.id, i,
                                           st.value))
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
                for i, (arg, default) in enumerate(
                        zip(positional[first:], args.defaults), start=first):
                    values.append((qualified, names, arg.arg, i - skip, default))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        values.append((qualified, names, arg.arg, None,
                                       default))
                visit(node.body, module, node)

    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        visit(ast.parse(path.read_text()).body, path.stem, None)
    return values


def calls():
    """Call name -> [(positional arguments, passes *args or **kwargs,
    {keyword: argument})], each argument its syntax tree."""
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
                    (node.args, unpacked,
                     {k.arg: k.value for k in node.keywords if k.arg}))
    return found


def test_every_default_has_a_caller():
    found = calls()

    def is_set(names, value, position):
        return any(unpacked or value in keywords
                   or (position is not None and len(positional) > position)
                   for name in names
                   for positional, unpacked, keywords in found.get(name, []))

    unset = {(qualified, value)
             for qualified, names, value, position, _ in settable_values()
             if not is_set(names, value, position)}
    missing = sorted(unset - set(ALLOWED))
    assert not missing, f"no call sets these; make each a constant: {missing}"
    # an allowlisted value that some call now sets needs no entry
    assert set(ALLOWED) <= unset


# (qualified name, value) -> why it stays settable though every call that
# sets it passes its own default
DEFAULT_ONLY_ALLOWED = {
    ("flows.integrate_isotopy", "s0"):
        "bench/tracer.py binds it by name when it counts RK4 steps",
}


def default_only_values():
    """(qualified name, value) of each settable value that some call sets,
    and every call that sets it passes its own default expression, as the
    syntax tree reads it; a call that unpacks *args or **kwargs may set
    anything, so it counts as setting another value."""
    found = calls()
    out = set()
    for qualified, names, value, position, default in settable_values():
        passed = []
        for name in names:
            for positional, unpacked, keywords in found.get(name, []):
                if unpacked:
                    passed.append(None)
                elif value in keywords:
                    passed.append(keywords[value])
                elif position is not None and len(positional) > position:
                    passed.append(positional[position])
        if passed and all(arg is not None and ast.dump(arg) == ast.dump(default)
                          for arg in passed):
            out.add((qualified, value))
    return out


def test_no_option_is_passed_only_its_default():
    # a value that every caller sets to its default has one value, like one
    # that no call sets: it belongs in the body or in a module constant
    found = default_only_values()
    extra = sorted(found - set(DEFAULT_ONLY_ALLOWED))
    assert not extra, f"every call passes the default; drop the option: {extra}"
    # an allowlisted value that some call now varies needs no entry
    assert set(DEFAULT_ONLY_ALLOWED) <= found


# definition -> why it stays though nothing in src/ or demos/ names it
UNNAMED_ALLOWED = {
    "pseudorotations.DiscDiffeo.inverse_jacobian":
        "bench/tracer.py wraps it by name",
    "hamiltonians.check_s_periodicity": "a public audit that the README lists",
    "moser.g_function_values": "a public audit that the README lists",
}


def definitions():
    """(qualified name, name) of each function, method and class of
    ``src/reebcut`` at any depth, dunder methods left out."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    found.append((prefix + node.name, node.name))
                visit(node.body, f"{prefix}{node.name}.")

    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        visit(ast.parse(path.read_text()).body, f"{path.stem}.")
    return found


def named():
    """Every name that ``src/`` or ``demos/`` reads as a variable or an
    attribute, or imports."""
    names = set()
    for folder in ("src", "demos"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
    return names


def test_every_definition_has_a_caller():
    found = named()
    unnamed = {qualified for qualified, name in definitions()
               if name not in found}
    missing = sorted(unnamed - set(UNNAMED_ALLOWED))
    assert not missing, ("nothing in src/ or demos/ names these; delete them "
                         f"or move them to tests/: {missing}")
    # an allowlisted definition that something now names needs no entry
    assert set(UNNAMED_ALLOWED) <= unnamed


def dataclass_fields():
    """(qualified class name, field) of each field of a ``@dataclass`` of
    ``src/reebcut``, at any depth."""
    found = []
    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and "dataclass" in _decorators(node):
                found.extend((f"{path.stem}.{node.name}", st.target.id)
                             for st in node.body
                             if isinstance(st, ast.AnnAssign)
                             and isinstance(st.target, ast.Name))
    return found


def attributes_read():
    """Every name that ``CALLER_DIRS`` read as an attribute."""
    names = set()
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            names.update(node.attr
                         for node in ast.walk(ast.parse(path.read_text()))
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Load))
    return names


def test_every_dataclass_field_is_read():
    # a field that is written but never read is stored data without a
    # reader: the report or record carries it for nothing
    read = attributes_read()
    unread = sorted(f"{owner}.{name}" for owner, name in dataclass_fields()
                    if name not in read)
    assert not unread, f"dataclass fields never read; remove them: {unread}"


# the oracles a Hamiltonian reads at (s, xy), and the callables a
# CallableHamiltonian wraps: their s is part of the protocol even where
# the family does not depend on it
ORACLES = {"value", "grad_components", "hessian_components", "velocity",
           "point_velocity", "grad_fn", "hessian_fn"}


def unread_parameters():
    """(qualified name, parameter) of each parameter of a function of
    ``src/reebcut``, at any depth, that its body never reads; a method's
    self or cls, the oracles' ``s``, the ``reports._run_*`` runners' ``rng``
    and the parameters of a body that only raises are left out."""
    found = []

    def visit(body, prefix, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualified = prefix + node.name
                visit(node.body, qualified + ".", node)
                args = node.args
                params = [a.arg for a in (args.posonlyargs + args.args
                                          + args.kwonlyargs)]
                params += [a.arg for a in (args.vararg, args.kwarg) if a]
                if (isinstance(owner, ast.ClassDef)
                        and "staticmethod" not in _decorators(node)):
                    params = params[1:]
                code = node.body
                if (isinstance(code[0], ast.Expr)
                        and isinstance(code[0].value, ast.Constant)):
                    code = code[1:]
                if len(code) == 1 and isinstance(code[0], ast.Raise):
                    continue
                read = {n.id for st in node.body for n in ast.walk(st)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                exempt = {"s"} if node.name in ORACLES else set()
                if qualified.startswith("reports._run_"):
                    exempt.add("rng")
                found.extend((qualified, p) for p in params
                             if p not in read and p not in exempt)

    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        visit(ast.parse(path.read_text()).body, f"{path.stem}.", None)
    return found


def test_every_parameter_is_read():
    # a parameter the body never reads is an option with no effect: a
    # caller that sets it believes it changed something
    found = unread_parameters()
    assert not found, f"parameters never read; remove them: {found}"


# oracles that only the base class builds from the component hooks
BUILT_ORACLES = {"grad", "hessian", "velocity", "velocity_jacobian"}
# (class, oracle) -> why that family overrides the base class's build
OVERRIDE_ALLOWED = {
    ("hamiltonians.QuadraticHamiltonian", "velocity"):
        "folds the constants, (0.5 c) y without the gradient components, "
        "bitwise (test_folded_linear_velocity_*) and faster on return maps",
}


def oracle_overrides():
    """(class, oracle) of each class of ``src/reebcut`` other than
    ``Hamiltonian`` that defines one of ``BUILT_ORACLES``."""
    found = set()
    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and not (
                    path.stem == "hamiltonians" and node.name == "Hamiltonian"):
                found.update((f"{path.stem}.{node.name}", fn.name)
                             for fn in node.body
                             if isinstance(fn, ast.FunctionDef)
                             and fn.name in BUILT_ORACLES)
    return found


def test_one_oracle_layout():
    # the stacked gradient, the packed Hessian and the components-first
    # DX buffer are laid out in one place; each family supplies only the
    # gradient and Hessian components of its own H
    source = (ROOT / "src" / "reebcut" / "hamiltonians.py").read_text()
    (base,) = [node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == "Hamiltonian"]
    defined = {fn.name for fn in base.body if isinstance(fn, ast.FunctionDef)}
    assert defined >= BUILT_ORACLES | {"grad_components", "hessian_components"}
    found = oracle_overrides()
    extra = sorted(found - set(OVERRIDE_ALLOWED))
    assert not extra, f"oracles laid out outside Hamiltonian: {extra}"
    # an allowlisted override that is gone needs no entry
    assert set(OVERRIDE_ALLOWED) <= found


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
            if (path.stem == "flows"
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


# the share split of point batches, named only by flows._flow_batch and at
# their own definitions
SHARE_NAMES = re.compile(r"\b(?:_share_bounds|_HEAP_RAISE_BYTES)\b")
# (module, function) of every caller of the fork helper
JOB_CALLERS = {("flows", "_flow_batch"), ("pseudorotations", "stage_sequence")}


def _top_functions(tree):
    """(name, node) of each module-level function and method of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))


def test_one_batch_flow_splits_batches():
    # one share policy: every point batch is cut into shares by
    # _flow_batch, and every other job list is the stage sequence's; the
    # share names are matched in the source text, comments and strings
    # included
    inside, outside, callers = set(), [], set()
    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        owned = set()
        for name, fn in _top_functions(tree):
            if (path.stem, name) in {("flows", "_flow_batch"),
                                     ("flows", "_share_bounds")}:
                owned.update(range(fn.lineno, fn.end_lineno + 1))
            callers.update((path.stem, name) for node in ast.walk(fn)
                           if isinstance(node, ast.Call)
                           and "_run_jobs" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)))
        owned.update(node.lineno for node in tree.body
                     if path.stem == "flows" and isinstance(node, ast.Assign)
                     and ast.unparse(node.targets[0]) == "_HEAP_RAISE_BYTES")
        for lineno, line in enumerate(source.splitlines(), 1):
            for name in SHARE_NAMES.findall(line):
                if lineno in owned:
                    inside.add(name)
                else:
                    outside.append((path.name, lineno, name))
    assert not outside, f"share names outside _flow_batch: {outside}"
    assert inside == {"_share_bounds", "_HEAP_RAISE_BYTES"}
    assert callers == JOB_CALLERS, f"_run_jobs callers: {sorted(callers)}"


# name -> the one function of src/reebcut that may use it: the isotopy
# paths' batch protocol is called only by the probe helper, and the ladder
# stencils are read only by the lift judge
SOLE_USERS = {"evaluate_on_grid": ("moser", "_probe_path"),
              "_STENCILS": ("binding", "_judge_lift")}


def sole_user_sites():
    """(name, module, function or None) of each call of a ``SOLE_USERS``
    name and each read of one as a variable, found in the syntax tree, so
    docstrings and comments that name them do not count."""
    found = set()
    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner_of = {}
        for name, fn in _top_functions(tree):
            owner_of.update(dict.fromkeys(range(fn.lineno, fn.end_lineno + 1),
                                          name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = (getattr(node.func, "id", None)
                        or getattr(node.func, "attr", None))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            else:
                continue
            if name in SOLE_USERS:
                found.add((name, path.stem, owner_of.get(node.lineno)))
    return found


def test_one_path_probe_and_one_lift_judge():
    # the five-point probe cloud and its Jacobians, and the sampling of a
    # lift on the rho-ladder, are each built in one function, so a change
    # to either (a probe step, the ladder's rounding floor) has one place
    found = sole_user_sites()
    want = {(name, *owner) for name, owner in SOLE_USERS.items()}
    assert found == want, f"used outside their owners: {sorted(found - want)}"


# array reductions whose results a builtin max or min would compare
ARRAY_REDUCTIONS = {"max", "min"}


# builtins whose result is a Python int, never NaN: int() raises on one
INT_VALUED = {"int", "len"}


def _numpy_valued(expr):
    """Whether ``expr`` names numpy, indexes a value (an array element) or
    calls an array reduction method, outside an int-valued builtin."""
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in INT_VALUED):
        return False
    if ((isinstance(expr, ast.Name) and expr.id == "np")
            or isinstance(expr, ast.Subscript)
            or (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ARRAY_REDUCTIONS)):
        return True
    return any(map(_numpy_valued, ast.iter_child_nodes(expr)))


def nan_dropping_reductions():
    """(file, line) of each builtin ``max`` or ``min`` that is running,
    ``x = max(x, ...)``, or takes a numpy value against another value, as
    arguments or as the items of one comprehension or display."""
    found = set()
    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id in ("max", "min")
                    and ast.unparse(node.targets[0]) in map(ast.unparse,
                                                            node.value.args)):
                found.add((path.name, node.lineno))
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("max", "min")):
                continue
            items = node.args
            if len(items) == 1:
                (arg,) = items
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    items = [arg.elt, arg.elt]
                elif isinstance(arg, (ast.List, ast.Tuple, ast.Set)):
                    items = arg.elts
            if len(items) >= 2 and any(map(_numpy_valued, items)):
                found.add((path.name, node.lineno))
    return sorted(found)


def test_no_running_builtin_reduction():
    # builtin max and min compare with >, so a NaN argument is kept or
    # dropped depending on its position; reduce with np.max or np.min
    found = nan_dropping_reductions()
    assert not found, f"builtin max/min drops NaN: {found}"


def test_numpy_reduction_keeps_a_nan_against_a_constant():
    # min(0.1, nan) is 0.1: a stage with a NaN tail width would be judged
    # at the widest ladder instead of carrying the NaN into its verdict
    from reebcut.pseudorotations import _stage_extension_settings
    assert np.isnan(_stage_extension_settings(float("nan")).rho0)


# instances by class name for the linear_velocity census; the stage and the
# callable are not linear, and are here so that declaring the property on
# them fails at their DX, not only at a missing example
LINEAR_VELOCITY_EXAMPLES = {
    "QuadraticHamiltonian": [lambda request: QuadraticHamiltonian(1.4142, 0.5858),
                             lambda request: QuadraticHamiltonian(1.2, -0.7)],
    "RigidRotationHamiltonian": [
        lambda request: RigidRotationHamiltonian(2, 1, 3),
        lambda request: RigidRotationHamiltonian(1, 2, 5)],
    "ConjugatedRotationHamiltonian": [
        lambda request: request.getfixturevalue("stage_2_1_3").hamiltonian],
    "CallableHamiltonian": [
        lambda request: cosine_defect_hamiltonian(3, 0.4, 0.5)],
}


def hamiltonian_classes():
    """Every subclass of ``Hamiltonian`` defined in ``src/reebcut``."""
    for path in sorted((ROOT / "src" / "reebcut").glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"reebcut.{path.stem}")
    found, todo = [], [Hamiltonian]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return [c for c in found if c.__module__.startswith("reebcut.")]


def test_linear_velocity_gives_one_jacobian(request, rng):
    pts = random_disc_points(rng, 64, r_max=1.0, r_min=0.0)
    linear = [c for c in hamiltonian_classes() if c.linear_velocity]
    assert {c.__name__ for c in linear} >= {"QuadraticHamiltonian",
                                            "RigidRotationHamiltonian"}
    for cls in linear:
        examples = LINEAR_VELOCITY_EXAMPLES.get(cls.__name__)
        assert examples, f"{cls.__name__} declares linear_velocity: add an example"
        for make in examples:
            H = make(request)
            assert type(H) is cls
            one = H.velocity_jacobian(0.0, np.zeros(2)).view(np.int64)
            for s in (0.0, 1.0, TWO_PI):
                dx = H.velocity_jacobian(s, pts).view(np.int64)
                assert np.all(dx == one), (cls.__name__, s)
