"""Package structure: what one module may take from another, and the
library names the benchmark harness in `perfbench/` resolves."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import rnsckks

MODULES = sorted(Path(rnsckks.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The names perfbench binds the package and its modules to.
PERFBENCH_ALIASES = {
    "rk": "rnsckks", "ntt_module": "rnsckks.ntt",
    **{name: f"rnsckks.{name}" for name in (
        "ckks", "costmodel", "embedding", "hdft", "modmath", "rnspoly")}}


def test_no_module_imports_a_private_name():
    """A name with a leading underscore stays inside its module: no module
    of the package imports one from another."""
    assert len(MODULES) > 5
    private = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []


def _load_perfbench(name, monkeypatch):
    """A harness file imported from its path, registered only for the test
    (dataclasses look their module up while the file runs)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _dotted(node):
    """`a.b.c` as ["a", "b", "c"]; None for any other expression."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else None


def test_perfbench_names_exist(monkeypatch, params):
    """Every library name the benchmark reads exists: `layers` resolves the
    functions it traces (`rnspoly.crt_reconstruct`, `ckks.key_switch`,
    `DftPlan.stage_constants`, ...) when it is imported, and every dotted
    name in the harness rooted at a module alias (`rk.X`,
    `costmodel.PassShape.from_plan`, ...) or at a variable the harness
    binds to a library object (`plan.required_steps`, `log.loads`,
    `report.evk_loads`, `st.modular_mults`, ...) resolves on a small built
    object of that kind, so a deletion or rename that would break the
    benchmark fails here first."""
    layers = _load_perfbench("layers", monkeypatch)
    hdft = importlib.import_module("rnsckks.hdft")
    costmodel = importlib.import_module("rnsckks.costmodel")
    assert hdft.DftPlan.stage_constants in layers.LABELS
    assert _load_perfbench("workloads", monkeypatch).WORKLOADS
    roots = {alias: importlib.import_module(name)
             for alias, name in PERFBENCH_ALIASES.items()}
    plan = hdft.build_dft_plan(params, hdft.IDFT, size=16, k=2,
                               split=(1, 2))
    desk = costmodel.PROFILES["desk"]
    report = costmodel.hdft_pass_cost(plan, desk, "minks")
    roots.update(plan=plan, shape=costmodel.PassShape.from_plan(plan),
                 log=hdft.EvkUsageLog(), report=report,
                 st=report.stages[0], p=desk)
    scanned, missing = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = _dotted(node) if isinstance(node, ast.Attribute) else None
            if names is None or names[0] not in roots:
                continue
            scanned.add(".".join(names))
            obj = roots[names[0]]
            for name in names[1:]:
                if not hasattr(obj, name):
                    missing.append(f"{path.name}: {'.'.join(names)}")
                    break
                obj = getattr(obj, name)
    assert {"plan.required_steps", "plan.stage_constants", "plan.iterations",
            "plan.direction", "costmodel.PassShape.from_plan",
            "log.loads_by_stage", "log.loads", "report.stages",
            "report.evk_loads", "st.modular_mults", "st.level"} <= scanned
    assert len(scanned) > 40
    assert missing == []


def _referrers(name):
    """The functions and classes of the package (as `module.def...`, or
    the module for its top level) whose code refers to `name`, by name or
    as an attribute, and every import of it under another name."""
    users, renamed = set(), []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.ImportFrom):
                renamed.extend(f"{owner}: {a.asname}" for a in child.names
                               if a.name == name and a.asname)
            elif name in (getattr(child, "id", None),
                          getattr(child, "attr", None)):
                users.add(owner)
            visit(child, owner)

    for path in MODULES:
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return users, renamed


def test_convert_limbs_has_one_mod_up_and_one_mod_down():
    """Inside the package only `ckks.mod_up`, `ckks.mod_down` and the
    selftest's `cli._check_base_convert` refer to `convert_limbs`, and no
    module imports it under another name: key switching, the modulus
    raise and rescale extend a basis through that one pair, and a new
    caller (a subring trace, batched or hoisted switching) reuses them
    instead of growing a conversion of its own."""
    users, renamed = _referrers("convert_limbs")
    assert renamed == []
    assert users == {"ckks.mod_up", "ckks.mod_down",
                     "cli._check_base_convert"}


def test_a_stage_is_merged_in_one_place():
    """Inside the package only `hdft.DftPlan.diagonals` refers to
    `merge_factors`, and no module imports it under another name: a
    stage's butterflies, their order and their period are worked out from
    (plan, s) there, and nowhere else keeps a second description of a
    stage to drift from the one the plans run."""
    users, renamed = _referrers("merge_factors")
    assert renamed == []
    assert users == {"hdft.DftPlan.diagonals"}


def test_param_profiles_are_built_in_costmodel_only():
    """Inside the package a `ParamProfile` is constructed only in
    `costmodel`: in the table of published profiles and in
    `ParamProfile.from_params`, and no module imports the class under
    another name.  A module that needs the profile of some parameters asks
    `from_params`, so no profile is assembled from parameter fields by
    hand to drift away from the one the table holds."""
    builders, renamed = set(), []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.ImportFrom):
                renamed.extend(f"{owner}: {a.asname}" for a in child.names
                               if a.name == "ParamProfile" and a.asname)
            elif isinstance(child, ast.Call):
                name = _dotted(child.func) or []
                if name[-1:] == ["ParamProfile"] or (
                        name == ["cls"]
                        and owner.startswith("costmodel.ParamProfile.")):
                    builders.add(owner)
            visit(child, owner)

    for path in MODULES:
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert renamed == []
    assert builders == {"costmodel", "costmodel.ParamProfile.from_params"}


def _annotation_names(tree):
    """Names inside quoted annotations, which the tree holds as text."""
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                yield from (n.id for n in ast.walk(ast.parse(note.value))
                            if isinstance(n, ast.Name))


def test_every_import_is_used():
    """Each module but `__init__.py`, whose imports are its exports, uses
    every name it imports."""
    unused = []
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], a.name)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                imported.update((a.asname or a.name, a.name)
                                for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(_annotation_names(tree))
        unused += [f"{path.name}: {full}" for name, full in imported.items()
                   if name not in used]
    assert unused == []


def _is_dataclass(node):
    return any((d.func if isinstance(d, ast.Call) else d).id == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    """Each field a `@dataclass` of the package declares (class constants
    aside) is read as an attribute, `x.name`, somewhere in the package or
    the benchmark harness; tests do not count.  A field nothing reads is
    a setting with no effect."""
    declared, read = [], set()
    for path in [*MODULES, *sorted(PERFBENCH.glob("*.py"))]:
        tree = ast.parse(path.read_text(), str(path))
        read.update(n.attr for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Load))
        if path.parent == PERFBENCH:
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                declared += [
                    (cls.name, stmt.target.id) for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)]
    assert len(declared) > 80
    assert [f"{c}.{name}" for c, name in declared if name not in read] == []
