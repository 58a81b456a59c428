"""Static checks of the package surface, read with `ast` only.

Every name a module exports in `__all__` must be defined in it, and no
module may import a name it never uses (the package `__init__` re-exports
its submodules, so it is exempt).  This keeps dead helpers and their
imports from accumulating.  Every mod-1 reduction goes through
`torus.wrap`, and invariants are checked by raising, never by `assert`
(which `python -O` strips).  Every function parameter and every name an
`except` clause binds is read, and every tolerance the CLI loader
range-checks is read by a command, so no knob is accepted and then
ignored.  Every field of a package dataclass is read by the program (the
package, the benchmark or an acceptance criterion), so no report carries
a value nobody looks at; the few that only tests read are listed with
their reasons, and each listed one must still exist, still lack a program
reader and still have a test that reads it.  Every package dataclass is
frozen, and no attribute is stored on anything but ``self``, so a value
cannot drift from what made it: copies come from ``dataclasses.replace``
and derived quantities are properties.  No function keeps state in a
module-level name, so one call cannot change what the next one computes.
Every public function is called from somewhere other than its own body:
the package, the benchmark or an acceptance criterion; the few kept
without a caller are listed with their reasons, so the surface does not
grow back, and each listed one must still exist and still lack a caller.
No module reads another module's private names: what another module
needs is public.  scipy serves two places only
(`test_scipy_serves_only_the_oracle_and_the_version_string`):
`persistence._label_periodic` labels components with `scipy.ndimage`
for the persistence oracle, and `cli` reads the version string for
`selkam oracle`, the one command that runs it; every interpolant is the
package's own cubic Hermite.

Two checks import the package: the benchmark's traced run
(`perfbench/tracing.py`, read here with `ast`) wraps named `selkam`
functions and module attributes, and each of them must still exist, and
be loaded, on every benchmark workload, by the set-up that
`perfbench/operation.py` runs before it installs the tracer.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "selkam"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node):
    """Names an import binds: the alias, or the first component of the path."""
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(_bound_names(node))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_resolve(path):
    tree = _tree(path)
    missing = set(_exports(tree)) - _top_level_names(tree)
    assert not missing, f"{path.name}: __all__ names not defined: {sorted(missing)}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exports(tree))
    unused = [name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for name in _bound_names(node) if name not in used]
    assert not unused, f"{path.name}: imported but never used: {unused}"


def _is_one(node):
    return isinstance(node, ast.Constant) and not isinstance(node.value, bool) \
        and node.value == 1


def _is_mod_one(node):
    """``np.mod(x, 1.0)`` or ``x % 1.0`` (integer-modulus calls are not mod 1)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("mod", "remainder", "fmod") and len(node.args) == 2 \
            and _is_one(node.args[1])
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and _is_one(node.right)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "torus.py"],
                         ids=lambda p: p.stem)
def test_mod_one_goes_through_wrap(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if _is_mod_one(node)]
    assert not lines, f"{path.name}: mod-1 reduction outside torus.wrap at lines {lines}"


SCIPY_IMPORTS = {
    ("persistence", "_label_periodic", "scipy.ndimage"),   # the oracle's labelling
    ("cli", "_summary", "scipy"),                          # oracle's version string
}


def _scipy_imports(path):
    """(module, enclosing top-level definition or None, imported path) of
    each scipy import in a module."""
    out = set()
    for top in _tree(path).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                out |= {(path.stem, owner, a.name) for a in node.names
                        if a.name.split(".")[0] == "scipy"}
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "scipy":
                out |= {(path.stem, owner, f"{node.module}.{a.name}") for a in node.names}
    return out


def test_scipy_serves_only_the_oracle_and_the_version_string():
    found = set().union(*(_scipy_imports(path) for path in MODULES))
    assert found == SCIPY_IMPORTS, f"scipy imports: {sorted(found, key=str)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements (stripped under -O) at lines {lines}"


def _unread_parameters(tree):
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        nodes = [n for stmt in fn.body for n in ast.walk(stmt)]
        # `x += y` reads x although its target is a store
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.target.id for n in nodes
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        out += [f"{fn.name}({x.arg})" for x in params
                if x.arg not in ("self", "cls") and x.arg not in read]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    unread = _unread_parameters(_tree(path))
    assert not unread, f"{path.name}: parameters never read: {unread}"


def _unread_exception_bindings(tree):
    out = []
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        read = {n.id for stmt in handler.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if handler.name not in read:
            out.append(f"line {handler.lineno}: {handler.name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exception_binding_is_read(path):
    unread = _unread_exception_bindings(_tree(path))
    assert not unread, f"{path.name}: exceptions bound but never read: {unread}"


def test_every_safe_tolerance_is_read():
    tree = _tree(PACKAGE / "cli.py")
    safe = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "SAFE_TOLERANCES"
                        for t in node.targets))
    keys = {k.value for k in safe.keys}
    read = {n.slice.value for n in ast.walk(tree)
            if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Load)
            and isinstance(n.value, ast.Attribute) and n.value.attr == "tolerances"
            and isinstance(n.slice, ast.Constant)}
    assert keys <= read, f"tolerances checked but never read: {sorted(keys - read)}"


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(tree):
    """Reads of another module's private name: ``module._name`` on a name an
    import binds, and relative ``from . import _name`` imports (dunders are
    public)."""
    modules = {name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for name in _bound_names(node)}
    modules |= {name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level and node.module is None
                for name in _bound_names(node)}
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                and n.value.id in modules and _is_private(n.attr):
            out.append(f"line {n.lineno}: {n.value.id}.{n.attr}")
        elif isinstance(n, ast.ImportFrom) and n.level:
            out += [f"line {n.lineno}: import {a.name}" for a in n.names if _is_private(a.name)]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_reads_another_modules_private_names(path):
    reads = _private_reads(_tree(path))
    assert not reads, f"{path.name}: private names of another module read at {reads}"


MUTATING_METHODS = {"pop", "popitem", "update", "append", "extend", "insert",
                    "setdefault", "clear", "add", "discard", "remove"}


def _module_state_writes(tree):
    """Lines where a function writes to a name its module binds by assignment."""
    module_names = {n.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    for n in ast.walk(t) if isinstance(n, ast.Name)}
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = [n for stmt in fn.body for n in ast.walk(stmt)]
        a = fn.args
        local = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        shared = module_names - local

        def is_shared(node):
            return isinstance(node, ast.Name) and node.id in shared

        for n in nodes:
            if isinstance(n, ast.Global):
                out += [(n.lineno, name) for name in n.names]
            elif isinstance(n, (ast.Subscript, ast.Attribute)) \
                    and isinstance(n.ctx, (ast.Store, ast.Del)) and is_shared(n.value):
                out.append((n.lineno, n.value.id))
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                    and n.func.attr in MUTATING_METHODS and is_shared(n.func.value):
                out.append((n.lineno, n.func.value.id))
    return sorted(set(out))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_state(path):
    writes = _module_state_writes(_tree(path))
    assert not writes, f"{path.name}: functions write module-level names at {writes}"


def _is_dataclass_decorator(d):
    return getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"


def _dataclass_fields(tree):
    """(class, field) for every annotated field of a ``@dataclass`` class."""
    return [(node.name, stmt.target.id) for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any(_is_dataclass_decorator(d) for d in node.decorator_list)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def _unfrozen_dataclasses(tree):
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for d in node.decorator_list if _is_dataclass_decorator(d)
            and not (isinstance(d, ast.Call) and any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in d.keywords))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_dataclass_is_frozen(path):
    # a value is built once: a copy with other fields comes from
    # dataclasses.replace, and what derives from the fields is a property
    unfrozen = _unfrozen_dataclasses(_tree(path))
    assert not unfrozen, f"{path.name}: dataclasses not frozen: {unfrozen}"


def _attribute_stores(tree):
    """Lines storing an attribute on anything but ``self``."""
    return [(n.lineno, ast.unparse(n)) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
            and not (isinstance(n.value, ast.Name) and n.value.id == "self")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_attribute_stores_outside_self(path):
    # an object is changed only by its own methods, never by a caller
    stores = _attribute_stores(_tree(path))
    assert not stores, f"{path.name}: attributes stored outside self at {stores}"


def _attribute_reads(paths):
    """Attribute names loaded, and string constants (``getattr`` names), in paths."""
    return {n.attr if isinstance(n, ast.Attribute) else n.value
            for path in paths for n in ast.walk(_tree(path))
            if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
            or (isinstance(n, ast.Constant) and isinstance(n.value, str))}


def _program_files():
    """The package, the benchmark and the acceptance criteria."""
    return MODULES + sorted((ROOT / "perfbench").glob("*.py")) \
        + [ROOT / "tests" / "test_acceptance.py"]


def _all_dataclass_fields():
    """``Class.field`` -> field name, over every package dataclass."""
    return {f"{cls}.{name}": name for path in MODULES
            for cls, name in _dataclass_fields(_tree(path))}


# Dataclass fields no program reader reads, kept for the reason given; a
# test reads each.
READ_BY_TESTS_ONLY = {
    "InvariantGraphReport.invariance_defect": "the measured flow defect behind `invariant`",
    "InvariantGraphReport.energy": "the level of an invariant graph, the theorem's conclusion",
    "InvariantGraphReport.is_graph": "the theorem's graph conclusion, one part of `ok`",
    "FiberData.transverse": "the fiber's tangency flag, one part of `cerf_regular`",
    "HamiltonianSpec.source": "the canonical text of the parsed H, which parses back to it",
    "PeriodicFunction.source": "the canonical text of the parsed function",
    "ApproxSequence.sup_dists": "each level's distance to the limit: the convergence it certifies",
    "ExactnessReport.max_interval_residual": "the worst interval of a failed exactness check",
    "PersistenceDiagram.pairs": "the finite classes, which the oracle comparison checks",
}


def test_every_dataclass_field_is_read():
    # a report field nothing reads is surface a reader must check is unused,
    # and often work done only to fill it
    read = _attribute_reads(_program_files())
    unread = sorted(key for key, name in _all_dataclass_fields().items()
                    if name not in read and key not in READ_BY_TESTS_ONLY)
    assert not unread, f"dataclass fields no program reads: {unread}"


def test_read_by_tests_only_is_current():
    # an exemption outlives neither its field, nor its lack of a program
    # reader, nor the test that reads it
    fields = _all_dataclass_fields()
    program = _attribute_reads(_program_files())
    tests = _attribute_reads(sorted((ROOT / "tests").glob("test_*.py")))
    stale = {}
    for key in READ_BY_TESTS_ONLY:
        if key not in fields:
            stale[key] = "no longer a dataclass field"
        elif fields[key] in program:
            stale[key] = "now read by the program"
        elif fields[key] not in tests:
            stale[key] = "read by no test"
    assert not stale, f"stale READ_BY_TESTS_ONLY entries: {stale}"


def _tracing_lists():
    """``TARGETS`` as (module, function) pairs and ``REQUIRED_ALIASES``."""
    lists = {}
    for node in _tree(ROOT / "perfbench" / "tracing.py").body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            lists[node.targets[0].id] = node.value
    targets = [(t.elts[0].value, t.elts[1].value) for t in lists["TARGETS"].elts]
    aliases = [a.value for a in lists["REQUIRED_ALIASES"].elts]
    return targets, aliases


def test_traced_names_exist():
    targets, aliases = _tracing_lists()
    assert targets and aliases
    traced = []
    for module, func in targets:
        mod = importlib.import_module(f"selkam.{module}")
        assert callable(getattr(mod, func, None)), f"selkam.{module}.{func} is gone"
        traced.append(getattr(mod, func))
    for alias in aliases:
        modname, attr = alias.rsplit(".", 1)
        value = getattr(importlib.import_module(modname), attr, None)
        assert any(value is fn for fn in traced), \
            f"{alias} no longer holds a traced function"


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_the_benchmark_set_up_imports_every_traced_module(tmp_path, workload):
    # `perfbench/operation.py` imports cli and weakkam and loads the config,
    # then installs the tracer, which finds each target in sys.modules: a
    # module a command imported lazily would end every traced operation
    targets, aliases = _tracing_lists()
    script = f"""
import json, sys
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import workloads
config = {str(tmp_path / "workload.cfg")!r}
with open(config, "w") as fh:
    fh.write(workloads.instance({workload!r}, 0).config_text())
from selkam import cli, weakkam
cli.load_config(config, out_dir={str(tmp_path / "out")!r})
homes = sorted({{"selkam." + module for module, _ in {targets!r}}})
unbound = [a for a in {aliases!r}
           if getattr(sys.modules.get(a.rsplit(".", 1)[0]), a.rsplit(".", 1)[1], None) is None]
print(json.dumps([[m for m in homes if m not in sys.modules], unbound]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent)]
                                        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


# Public functions no command, benchmark or acceptance criterion reaches,
# kept for the reason given.
UNCALLED_BY_DESIGN = {
    "from_parametric": "the parametric-curve constructor",
    "save_lagrangian": "it pairs with load_lagrangian",
    "spectral_value": "the paper's minimax by union-find persistence, the reference oracle",
}


def _references(tree):
    """(name, enclosing top-level def) for every name a module reads.

    A name is read as a variable, an attribute or a string constant (the
    benchmark's traced run names functions by string); ``__all__`` is not
    a reference.
    """
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            continue
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                out.append((n.id, owner))
            elif isinstance(n, ast.Attribute):
                out.append((n.attr, owner))
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                out.append((n.value, owner))
    return out


def _caller_reads():
    """Names read by the package, the benchmark and the acceptance criteria."""
    return {name for path in _program_files() for name, owner in _references(_tree(path))
            if name != owner}


def _public_functions():
    return {node.name for path in MODULES for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def test_every_public_function_has_a_caller():
    uncalled = sorted(_public_functions() - _caller_reads() - set(UNCALLED_BY_DESIGN))
    assert not uncalled, f"public functions nothing calls: {uncalled}"


def test_uncalled_by_design_is_current():
    # an exemption outlives neither its function nor its lack of a caller
    public, read = _public_functions(), _caller_reads()
    stale = {name: "no longer a public function" if name not in public else "now called"
             for name in UNCALLED_BY_DESIGN if name not in public or name in read}
    assert not stale, f"stale UNCALLED_BY_DESIGN entries: {stale}"
