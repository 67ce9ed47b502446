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
