"""The reach rule: every module in ``src/repro`` is run by an entry point.

A module stays only if something the project runs reaches it:

* the campaign presets, the paper figures and the CLI
  (``repro.experiments.campaign``, ``repro.experiments.figures``,
  ``repro.cli``, ``repro.__main__``);
* a bench that writes a committed ``BENCH_<name>.json``, and the
  paper-figure and headline benches;
* the repository benchmark (``perfbench/``);
* the examples the README lists as entry points (``examples/``).

The walk parses every ``import`` and ``from ... import`` with
:mod:`ast`, function-local ones included, and follows them
transitively.  A name imported from a package resolves to the
submodule the package's ``__init__`` imported it from; the
``__init__``'s other imports do not count, so a re-export alone keeps
nothing alive.
"""

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ROOT_MODULES = ("repro.experiments.campaign", "repro.experiments.figures",
                "repro.cli", "repro.__main__")

#: Modules kept although no entry point reaches them, each with its
#: reason.  Empty: every module is reached.
EXEMPT = set()


def _module_file(name):
    for base in (SRC, ROOT):
        path = base.joinpath(*name.split("."))
        if path.with_suffix(".py").is_file():
            return path.with_suffix(".py")
        if (path / "__init__.py").is_file():
            return path / "__init__.py"
    return None


def _module_name(path):
    base = SRC if SRC in path.parents else ROOT
    parts = path.relative_to(base).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@lru_cache(maxsize=None)
def _imports(name):
    """``(module, imported name or None, bound name)`` per import."""
    path = _module_file(name)
    package = name if path.name == "__init__.py" \
        else name.rpartition(".")[0]
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None, alias.asname or alias.name)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parent = ".".join(parts[:len(parts) - node.level + 1])
                base = f"{parent}.{base}" if base else parent
            found += [(base, alias.name, alias.asname or alias.name)
                      for alias in node.names]
    return tuple(found)


def _resolve(module, name):
    """The project module an import reaches, or ``None`` if external."""
    if name is not None and _module_file(f"{module}.{name}"):
        return f"{module}.{name}"
    path = _module_file(module)
    if path is None:
        return None
    if name is not None and path.name == "__init__.py":
        for source, imported, bound in _imports(module):
            if bound == name:
                return _resolve(source, imported)
    return module


def _roots():
    benches = {ROOT / "benchmarks" / f"bench_{path.stem[6:]}.py"
               for path in ROOT.glob("BENCH_*.json")}
    benches |= set((ROOT / "benchmarks").glob("bench_fig*.py"))
    benches.add(ROOT / "benchmarks" / "bench_headline_capacity.py")
    files = (benches | set((ROOT / "perfbench").glob("*.py"))
             | set((ROOT / "examples").glob("*.py")))
    missing = sorted(str(path) for path in files if not path.is_file())
    assert not missing, f"entry points not on disk: {missing}"
    return set(ROOT_MODULES) | {_module_name(path) for path in files}


def _reached():
    reached, stack = set(), list(_roots())
    while stack:
        module = stack.pop()
        if module in reached:
            continue
        reached.add(module)
        if _module_file(module).name == "__init__.py":
            continue  # its imports are re-exports, resolved per name
        for source, imported, __ in _imports(module):
            target = _resolve(source, imported)
            if target is not None:
                stack.append(target)
    # Importing a submodule runs every enclosing package's __init__.
    for module in list(reached):
        parts = module.split(".")
        reached.update(".".join(parts[:i]) for i in range(1, len(parts)))
    return reached


def test_every_repro_module_is_reached_from_an_entry_point():
    modules = {_module_name(path)
               for path in (SRC / "repro").rglob("*.py")}
    reached = _reached()
    assert EXEMPT <= modules and not EXEMPT & reached, \
        "stale exemption: the module is gone or reached"
    unreached = sorted(modules - reached - EXEMPT)
    assert not unreached, \
        f"modules no entry point reaches: {unreached}"
