"""Guards on the package layout, read from the source with ``ast``.

* Every law in ``goupsim`` is closed form: no module imports the quadrature
  engine, which lives on in the tests as their independent oracle.
* Modules share only public names: no module imports, or reaches through a
  sibling module for, another module's ``_``-prefixed name.
* No module starts a process pool: every sampler runs in the calling
  process, on threads where it needs more than one core.
* The modules import each other without a cycle, counting imports made
  inside functions too: each module can be read, and loaded, after the
  modules it uses.
* Path evaluators and inverses are reached through ``goupillaud``: no other
  module than ``levy_paths`` and ``goupillaud`` imports or names them.
* Every JSON file is written by ``csvio.write_json``: no other module calls
  ``json.dump`` or imports it.
* Every public name has a caller: each name in a module's ``__all__`` is
  named in the package apart from its definition and its ``__all__`` entry,
  or in ``perfbench/``.  The only exceptions are the hitting-data laws that
  the acceptance tests check.
* ``levy_paths.DyadicGrid`` owns the level and window rules: no comparison
  elsewhere reads ``MAX_LEVEL`` or the ``2**53`` window bound.
* A run reads only its arguments: no module reads ``os.environ`` or calls
  ``os.getenv``.
* Every public member has a caller: each method and property defined on a
  class in a module's ``__all__`` (dunders apart) is named as an attribute
  in the package, or in ``perfbench/``.
"""

import ast
from pathlib import Path

import pytest

import goupsim

MODULES = sorted(Path(goupsim.__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imports(tree):
    """``(module, name)`` for every imported name; ``name`` is None for a
    plain ``import module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield "." * node.level + (node.module or ""), alias.name


def test_package_modules_found():
    assert {p.stem for p in MODULES} >= {"ig_analytics", "levy_paths", "montecarlo_validation"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_quadrature(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = [
        (module, name)
        for module, name in _imports(tree)
        if "quadrature" in module.split(".")
        or name is not None
        and (name == "quadrature" or name.startswith("integrate_"))
    ]
    assert not bad, f"{path.name} imports quadrature: {bad}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = [
        (module, name)
        for module, name in _imports(tree)
        if name is not None and name.startswith("_") and module != "__future__"
    ]
    # sibling modules bound by ``from . import m`` are reached as ``m._name``
    siblings = {name for module, name in _imports(tree) if module == "."}
    bad += [
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and node.attr.startswith("_")
    ]
    assert not bad, f"{path.name} imports private names: {bad}"



def _starts_processes(module: str, name: str | None) -> bool:
    full = f"{module}.{name}" if name else module
    return (
        full.split(".")[0] == "multiprocessing"
        or full.startswith("concurrent.futures.process")
        or name == "ProcessPoolExecutor"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_process_pool(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = [(module, name) for module, name in _imports(tree) if _starts_processes(module, name)]
    # ``import concurrent.futures`` reaches the pool as an attribute
    bad += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor"
    ]
    assert not bad, f"{path.name} imports a process pool: {bad}"


def _imported_siblings(tree) -> set[str]:
    """Modules of the package that a module imports, at its top level or
    inside a function: ``from .x import y``, ``from . import x`` and their
    absolute ``goupsim`` forms."""
    found = set()
    for module, name in _imports(tree):
        if module in (".", "goupsim"):
            found.add(name)
        elif module.startswith(".") or module.startswith("goupsim."):
            found.add(module.lstrip(".").removeprefix("goupsim.").split(".")[0])
    return found & {p.stem for p in MODULES}


def test_package_import_graph_is_acyclic():
    left = {
        p.stem: _imported_siblings(ast.parse(p.read_text(encoding="utf-8"))) - {p.stem}
        for p in MODULES
    }
    # peel off, round by round, the modules that import no module still left
    # and those that no module still left imports; what remains lies on cycles
    while peel := [
        m for m, uses in left.items()
        if not uses & left.keys() or not any(m in u for u in left.values())
    ]:
        for m in peel:
            del left[m]
    cycles = {m: sorted(uses & left.keys()) for m, uses in left.items()}
    assert not cycles, f"import cycle among {cycles}"


#: path evaluators and inverses, paired with their level by ``goupillaud``
PATH_QUERIES = {
    "polygon_eval", "step_eval", "polygon_inverse", "hitting_time", "aggregate_to_level"
}


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.stem not in ("levy_paths", "goupillaud")],
    ids=lambda p: p.name,
)
def test_path_queries_go_through_goupillaud(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = {name for _, name in _imports(tree)}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    bad = sorted(named & PATH_QUERIES)
    assert not bad, f"{path.name} names path queries outside goupillaud: {bad}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "csvio"], ids=lambda p: p.name)
def test_json_files_are_written_by_csvio(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bad = [
        f"{module}.{name}" if name else f"import {module}"
        for module, name in _imports(tree)
        if module == "json"
    ]
    bad += [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
        and node.attr == "dump"
    ]
    assert not bad, f"{path.name} writes JSON outside csvio.write_json: {bad}"


#: hitting-data laws that no command uses: acceptance criteria 4-5 check them
HITTING_LAWS = {
    "ig_analytics.triple_density",
    "ig_analytics.hit_under_density",
    "ig_analytics.bridge_density",
    "ig_analytics.running_max_density",
}


def _exports(tree) -> tuple[ast.Assign | None, list[str]]:
    """A module's ``__all__`` assignment and its names."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            return node, ast.literal_eval(node.value)
    return None, []


def _references(tree, own: str | None):
    """``(module, name)`` for every package name ``tree`` names: names
    imported from a package module, attributes of a package module (a
    module itself is ``("__init__", module)``), and the names that module
    ``own`` loads, apart from its ``__all__``.  Outside the package
    (``own=None``) every string counts as ``(None, name)``: perfbench wraps
    functions by name."""
    stems = {p.stem for p in MODULES}
    exports, _ = _exports(tree)
    skip = {id(node) for node in ast.walk(exports)} if exports else set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("goupsim").lstrip(".")
            if module in stems:
                yield "__init__", module
            for alias in node.names:
                yield module or "__init__", alias.name
        elif isinstance(node, ast.Attribute):
            base = node.value
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            if name in stems or name == "goupsim":
                yield name if name in stems else "__init__", node.attr
        elif own and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield own, node.id
        elif not own and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield None, node.value


def test_every_public_name_has_a_caller():
    assert PERFBENCH.is_dir(), f"no perfbench/ beside tests/ at {PERFBENCH}"
    named, exported = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported += [(path.stem, name) for name in _exports(tree)[1]]
        named |= set(_references(tree, path.stem))
    for path in sorted(PERFBENCH.glob("*.py")):
        named |= set(_references(ast.parse(path.read_text(encoding="utf-8")), None))
    unused = [
        f"{module}.{name}"
        for module, name in exported
        if (module, name) not in named
        and (None, name) not in named
        and f"{module}.{name}" not in HITTING_LAWS
    ]
    assert not unused, f"public names that nothing in goupsim or perfbench names: {unused}"
    # the exceptions have their caller in the acceptance tests
    tree = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8"))
    in_acceptance = {name for _, name in _imports(tree)}
    missing = sorted(law for law in HITTING_LAWS if law.split(".")[1] not in in_acceptance)
    assert not missing, f"hitting-data laws that test_acceptance.py does not import: {missing}"


def _is_grid_bound(node) -> bool:
    """``MAX_LEVEL``, bare or as an attribute, or ``2**53``, as a power or a
    number."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return getattr(node, "id", getattr(node, "attr", None)) == "MAX_LEVEL"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return getattr(node.left, "value", None) == 2 and getattr(node.right, "value", None) == 53
    return isinstance(node, ast.Constant) and node.value == 2**53


def _grid_bound_comparisons(node, cls=None):
    """``(class, line)`` of every comparison that reads a grid bound, with
    the class it sits in (None outside any)."""
    if isinstance(node, ast.Compare) and any(_is_grid_bound(n) for n in ast.walk(node)):
        yield cls, node.lineno
    inner = node.name if isinstance(node, ast.ClassDef) else cls
    for child in ast.iter_child_nodes(node):
        yield from _grid_bound_comparisons(child, inner)


def test_grid_bounds_are_compared_only_in_dyadic_grid():
    bad = [
        f"{path.stem}:{line}"
        for path in MODULES
        for cls, line in _grid_bound_comparisons(ast.parse(path.read_text(encoding="utf-8")))
        if (path.stem, cls) != ("levy_paths", "DyadicGrid")
    ]
    assert not bad, f"level or window bounds compared outside levy_paths.DyadicGrid: {bad}"


#: ``os`` names that read the environment
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    bad = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {name for module, name in _imports(tree) if module == "os"}
        named |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        }
        if named & ENVIRONMENT_READERS:
            bad.append(path.stem)
    assert not bad, f"modules that read the environment: {bad}"


def _members(tree, exported):
    """``(class, name)`` of every method and property defined on a class
    that the module exports, dunders apart."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in exported:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield node.name, item.name


def test_every_public_member_has_a_caller():
    named, members = set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        members += [(path.stem, *m) for m in _members(tree, _exports(tree)[1])]
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named |= {name for _, name in _references(tree, None)}
    unused = [f"{m}.{cls}.{name}" for m, cls, name in members if name not in named]
    assert not unused, f"members that nothing in goupsim or perfbench names: {unused}"
