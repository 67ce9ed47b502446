"""Every module under ``src/repro`` is on a path from a root.

The roots are what the project ships: the two CLIs, the in situ tool
registry and framework (what a deck can name), the ``/query`` op table,
and the paper-figure benches plus the pipeline benchmark.  From those the
walk follows imports through the AST, function-local ones included, and
a module nothing reaches fails the test by name.  Tests, examples and the
island benches are not roots: an algorithm only they exercise is not part
of the pipeline.

Importing a package does not reach its re-exports.  A name taken from a
package (``from repro.core import tessellate``, or ``observe.span`` after
``from repro import observe``) resolves through the package's
``__init__`` to the module that defines it, so an ``__init__`` re-export
alone keeps nothing alive.  Package ``__init__`` files themselves (and
with them ``repro._native``) are exempt.
"""

from __future__ import annotations

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BENCH = REPO / "benchmarks"

ROOT_MODULES = (
    "repro.cli",
    "repro.serve.cli",
    "repro.insitu.tools",
    "repro.insitu.framework",
    "repro.analysis.query",
)
ROOT_BENCH_GLOBS = (
    "bench_table*.py",
    "bench_fig*.py",
    "bench_datamodel_sizes.py",
    "bench_ablation_*.py",
    "pipeline/*.py",
)


def module_path(name: str) -> pathlib.Path | None:
    """Source file of module ``name`` (a package's ``__init__.py``)."""
    base = SRC.joinpath(*name.split("."))
    for path in (base / "__init__.py", base.with_suffix(".py")):
        if path.is_file():
            return path
    return None


def is_package(name: str) -> bool:
    return module_path(name) is not None and module_path(name).name == "__init__.py"


def absolute(module: str | None, level: int, package: str | None) -> str | None:
    """The absolute name ``from <level dots><module> import`` refers to."""
    if level == 0:
        return module
    if package is None:
        return None
    parts = package.split(".")
    base = ".".join(parts[: len(parts) - (level - 1)])
    return f"{base}.{module}" if module else base


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


class Walker:
    def __init__(self) -> None:
        self.reached: set[str] = set()
        self.unresolved: list[str] = []
        self._exports: dict[str, tuple[dict, dict]] = {}

    # -- what a package's ``__init__`` binds --------------------------------
    def exports(self, package: str):
        """``(imported, defined)`` of a package ``__init__``: names bound
        by ``from X import a`` -> ``(X, a)``; names defined in the
        ``__init__`` itself -> their AST node."""
        if package not in self._exports:
            imported, defined = {}, {}
            for node in parse(module_path(package)).body:
                if isinstance(node, ast.ImportFrom):
                    base = absolute(node.module, node.level, package)
                    for a in node.names:
                        imported[a.asname or a.name] = (base, a.name)
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined[node.name] = node
                elif isinstance(node, ast.Assign):
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            defined[t.id] = node
            self._exports[package] = (imported, defined)
        return self._exports[package]

    def resolve_name(self, package: str, name: str) -> set[str]:
        """Modules defining what ``from package import name`` binds."""
        sub = f"{package}.{name}"
        if module_path(sub) is not None:
            return {sub}
        if not is_package(package):
            return {package}
        imported, defined = self.exports(package)
        if name in imported:
            base, orig = imported[name]
            if base is None or base.split(".")[0] != "repro":
                return set()  # a third-party name re-exported
            return self.resolve_name(base, orig)
        if name in defined:
            # defined in the ``__init__``: whatever its body names
            out: set[str] = set()
            for node in ast.walk(defined[name]):
                if isinstance(node, ast.Name) and node.id in imported:
                    out |= self.resolve_name(package, node.id)
            return out
        self.unresolved.append(f"{package}.{name}")
        return set()

    def resolve_chain(self, package: str, attrs: list[str]) -> set[str]:
        """Modules reached by ``<package>.a.b...`` attribute access."""
        current = package
        for attr in attrs:
            if not is_package(current):
                break
            sub = f"{current}.{attr}"
            if module_path(sub) is None:
                return {current} | self.resolve_name(current, attr)
            current = sub
        return {current}

    # -- one file's outgoing references -------------------------------------
    def refs(self, path: pathlib.Path, module: str | None):
        """Repro modules and sibling scripts the code in ``path`` reaches."""
        tree = parse(path)
        if module is None:
            package = None
        elif path.name == "__init__.py":
            package = module
        else:
            package = module.rpartition(".")[0]
        mods: set[str] = set()
        scripts: set[pathlib.Path] = set()
        aliases: dict[str, str] = {}  # local name -> package it is bound to

        def bind(local: str, target: str) -> None:
            if is_package(target):
                aliases[local] = target

        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "repro":
                        mods.add(a.name)
                        bind(a.asname or "repro", a.name if a.asname else "repro")
                    elif module is None and (path.parent / f"{a.name}.py").is_file():
                        scripts.add(path.parent / f"{a.name}.py")
            elif isinstance(node, ast.ImportFrom):
                base = absolute(node.module, node.level, package)
                if base is None or base.split(".")[0] != "repro":
                    if module is None and node.level == 0 and node.module:
                        sibling = path.parent / f"{node.module}.py"
                        if sibling.is_file():
                            scripts.add(sibling)
                    continue
                mods.add(base)
                for a in node.names:
                    target = f"{base}.{a.name}"
                    if module_path(target) is not None:
                        mods.add(target)
                        bind(a.asname or a.name, target)
                    else:
                        mods |= self.resolve_name(base, a.name)

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain = []
                inner = node
                while isinstance(inner, ast.Attribute):
                    chain.append(inner.attr)
                    inner = inner.value
                if isinstance(inner, ast.Name) and inner.id in aliases:
                    mods |= self.resolve_chain(aliases[inner.id], chain[::-1])
        return {m for m in mods if module_path(m) is not None}, scripts

    # -- the walk ------------------------------------------------------------
    def walk(self, modules, scripts) -> set[str]:
        todo_mods, todo_scripts = list(modules), list(scripts)
        seen_scripts: set[pathlib.Path] = set()
        while todo_mods or todo_scripts:
            if todo_scripts:
                path = todo_scripts.pop()
                if path in seen_scripts:
                    continue
                seen_scripts.add(path)
                mods, more = self.refs(path, None)
            else:
                name = todo_mods.pop()
                if name in self.reached:
                    continue
                self.reached.add(name)
                if is_package(name):
                    # importing a package binds its re-exports, it does not
                    # reach the modules behind them
                    continue
                mods, more = self.refs(module_path(name), name)
            todo_mods.extend(mods - self.reached)
            todo_scripts.extend(more - seen_scripts)
        return self.reached


def all_modules() -> set[str]:
    out = set()
    for path in (SRC / "repro").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        rel = path.relative_to(SRC).with_suffix("")
        out.add(".".join(rel.parts))
    return out


def bench_roots() -> list[pathlib.Path]:
    return sorted({p for g in ROOT_BENCH_GLOBS for p in BENCH.glob(g)})


def test_every_module_is_reached_from_a_root():
    walker = Walker()
    reached = walker.walk(ROOT_MODULES, bench_roots())
    assert not walker.unresolved, f"names the walk cannot resolve: {walker.unresolved}"
    unreached = sorted(all_modules() - reached)
    assert not unreached, (
        "modules under src/repro that no deck, CLI, query op or paper bench "
        f"reaches: {unreached}"
    )


def test_reexports_resolve_to_the_defining_module():
    """``observe.span`` and friends land on the submodule, not the
    package: the CLI reaches ``observe.export`` only through them."""
    walker = Walker()
    assert walker.resolve_chain("repro.observe", ["write_chrome_trace"]) >= {
        "repro.observe.export"
    }
    assert walker.resolve_name("repro.core", "tessellate") == {"repro.core.tessellate"}
    assert walker.resolve_name("repro.observe", "reset_all") == {
        "repro.observe.trace",
        "repro.observe.metrics",
    }
    # importing a package alone reaches none of what it re-exports
    assert walker.walk(["repro.core"], []) == {"repro.core"}


# ----------------------------------------------------------------------
# the runtime keeps only what the pipeline calls
# ----------------------------------------------------------------------
COMM = SRC / "repro" / "diy" / "comm.py"
RETIRED_ENV_KNOBS = (
    "REPRO_COLL_GROUP",
    "REPRO_CHUNK_LIMIT",
    "REPRO_POOL",
    "REPRO_SHM_THRESHOLD",
)


def communicator_methods() -> set[str]:
    """Public methods (properties excluded) of ``Communicator``."""
    cls = next(
        node
        for node in parse(COMM).body
        if isinstance(node, ast.ClassDef) and node.name == "Communicator"
    )
    return {
        node.name
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and not any(
            isinstance(d, ast.Name) and d.id == "property"
            for d in node.decorator_list
        )
    }


def src_files() -> list[pathlib.Path]:
    return sorted((SRC / "repro").rglob("*.py"))


def test_every_communicator_method_has_a_caller():
    """A collective with no call site in ``src/`` outside ``comm.py`` is
    machinery nothing exercises: delete it rather than keep it as an
    oracle.  Matching is by method name on any ``x.<name>(...)`` call."""
    called: set[str] = set()
    for path in src_files():
        if path == COMM:
            continue
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    uncalled = sorted(communicator_methods() - called)
    assert not uncalled, (
        f"Communicator methods nothing under src/ calls: {uncalled}"
    )


def test_retired_env_knobs_are_not_read():
    readers = sorted(
        f"{path.relative_to(SRC)}: {node.value}"
        for path in src_files()
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Constant) and node.value in RETIRED_ENV_KNOBS
    )
    assert not readers, f"retired environment knobs still read: {readers}"


# ----------------------------------------------------------------------
# every definition reachable
# ----------------------------------------------------------------------
EXAMPLES = REPO / "examples"
PERF_GATE = BENCH / "perf_gate.py"
DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def def_root_scripts() -> list[pathlib.Path]:
    """The module walk's bench roots, the documented public API
    (``examples/*.py``) and ``perf_gate.py``, whose benches it follows."""
    return bench_roots() + sorted(EXAMPLES.glob("*.py")) + [PERF_GATE]


def assigned_names(node: ast.stmt) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
    ]


class DefWalker:
    """Top-level definitions reached from the roots by name.

    A reached definition's whole node (decorators, defaults, body, and a
    class's methods) is scanned for the names it loads; each resolves in
    its file to a top-level definition or, through any import in the file
    (function-local ones included), to the module that defines it.
    ``pkg.a.b`` attribute chains on a name bound to a module resolve the
    same way.  Reaching a definition reaches its module's import-time code
    (the top-level statements that are not definitions or imports).  A
    package ``__init__`` binding resolves to the definition behind it, so a
    re-export alone keeps nothing alive.
    """

    def __init__(self) -> None:
        self.reached: set[tuple[str, str]] = set()
        self.unresolved: set[str] = set()
        self._index: dict[str, tuple[dict, list, dict, dict]] = {}
        self._todo: list[tuple[str | None, ast.AST]] = []
        self._scripts: set[pathlib.Path] = set()

    # -- per-file tables ------------------------------------------------------
    @staticmethod
    def bindings(tree: ast.Module, package: str | None, top_only: bool) -> dict:
        """Local name -> ``("module", M)`` or ``("from", M, name)`` for the
        repro imports in ``tree`` (top-level ones only, or all)."""
        out = {}
        nodes = tree.body if top_only else ast.walk(tree)
        for node in nodes:
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "repro":
                        bound = a.name if a.asname else "repro"
                        out[a.asname or "repro"] = ("module", bound)
            elif isinstance(node, ast.ImportFrom):
                base = absolute(node.module, node.level, package)
                if base is not None and base.split(".")[0] == "repro":
                    for a in node.names:
                        out[a.asname or a.name] = ("from", base, a.name)
        return out

    def index(self, module: str):
        """``(defs, init, exports, names)`` of a module: top-level
        definitions and assignments by name, its import-time statements,
        its top-level import bindings, and every import binding in it."""
        if module not in self._index:
            path = module_path(module)
            tree = parse(path)
            package = module if is_package(module) else module.rpartition(".")[0]
            defs: dict[str, list[ast.AST]] = {}
            init: list[ast.AST] = []
            for node in tree.body:
                if isinstance(node, DEF_NODES):
                    defs.setdefault(node.name, []).append(node)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    for name in assigned_names(node):
                        defs.setdefault(name, []).append(node)
                elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                    init.append(node)
            self._index[module] = (
                defs,
                init,
                self.bindings(tree, package, top_only=True),
                self.bindings(tree, package, top_only=False),
            )
        return self._index[module]

    # -- resolution -----------------------------------------------------------
    def lookup(self, module: str, name: str):
        """What ``module.name`` is: ``("def", M, name)``, ``("module", M)``
        or None (outside repro, or unresolved)."""
        if module.split(".")[0] != "repro" or module_path(module) is None:
            return None
        defs, _, exports, _ = self.index(module)
        if name in defs:
            return ("def", module, name)
        if name in exports:
            return self.target(exports[name])
        if module_path(f"{module}.{name}") is not None:
            return ("module", f"{module}.{name}")
        if "__getattr__" in defs:  # a lazy facade: whatever it imports
            return ("def", module, "__getattr__")
        self.unresolved.add(f"{module}.{name}")
        return None

    def target(self, binding):
        """What an import binding names (see :meth:`lookup`)."""
        if binding[0] == "module":
            return binding if module_path(binding[1]) is not None else None
        return self.lookup(binding[1], binding[2])

    # -- the walk ---------------------------------------------------------------
    def reach(self, found) -> None:
        if found is None:
            return
        if found[0] == "module":
            key = (found[1], "")  # the module's import-time code
            nodes = self.index(found[1])[1]
        else:
            key = (found[1], found[2])
            nodes = self.index(found[1])[0][found[2]]
            self.reach(("module", found[1]))
        if key not in self.reached:
            self.reached.add(key)
            self._todo.extend((found[1], node) for node in nodes)

    def scan(self, module: str | None, node: ast.AST, names=None) -> None:
        """Reach every definition ``node`` names: code of ``module``, or of
        a script (``module`` None) with import bindings ``names``."""
        defs = {}
        if module is not None:
            defs, _, _, names = self.index(module)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in defs:
                    self.reach(("def", module, sub.id))
                elif sub.id in names:
                    self.reach(self.target(names[sub.id]))
            elif isinstance(sub, ast.Attribute):
                chain = []
                inner = sub
                while isinstance(inner, ast.Attribute):
                    chain.append(inner.attr)
                    inner = inner.value
                if not (isinstance(inner, ast.Name) and inner.id in names):
                    continue
                found = self.target(names[inner.id])
                for attr in reversed(chain):
                    if found is None or found[0] != "module":
                        break
                    found = self.lookup(found[1], attr)
                    self.reach(found)

    def script(self, path: pathlib.Path) -> None:
        if path in self._scripts:
            return
        self._scripts.add(path)
        tree = parse(path)
        self.scan(None, tree, self.bindings(tree, None, top_only=False))
        for node in ast.walk(tree):  # sibling scripts it imports
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            for name in names:
                sibling = path.parent / f"{name}.py"
                if sibling.is_file():
                    self.script(sibling)

    def walk(self, modules, scripts) -> set[tuple[str, str]]:
        """Roots: each of ``modules``' import-time code and public names,
        and the whole of each script."""
        for module in modules:
            self.reach(("module", module))
            for name in self.index(module)[0]:
                if not name.startswith("_"):
                    self.reach(("def", module, name))
        for path in scripts:
            self.script(path)
        while self._todo:
            self.scan(*self._todo.pop())
        return self.reached


def all_definitions() -> set[tuple[str, str]]:
    """Top-level functions and classes of every non-``__init__`` module."""
    out = set()
    for module in all_modules():
        for node in parse(module_path(module)).body:
            if isinstance(node, DEF_NODES):
                out.add((module, node.name))
    return out


def test_every_definition_is_reached_from_a_root():
    walker = DefWalker()
    reached = walker.walk(ROOT_MODULES, def_root_scripts())
    assert not walker.unresolved, (
        f"names the walk cannot resolve: {sorted(walker.unresolved)}"
    )
    unreached = sorted(f"{m}.{n}" for m, n in all_definitions() - reached)
    assert not unreached, (
        "functions and classes under src/repro that no deck, CLI, query op, "
        f"example or bench reaches: {unreached}"
    )
