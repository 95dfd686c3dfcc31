"""The reach rule: every module and def in ``src/repro`` is run by an
entry point.

A module stays only if something the project runs reaches it:

* the campaign presets, the paper figures and the CLI
  (``repro.experiments.campaign``, ``repro.experiments.figures``,
  ``repro.cli``, ``repro.__main__``);
* a bench that writes a committed ``BENCH_<name>.json``, and the
  paper-figure and headline benches;
* the repository benchmark (``perfbench/``);
* the examples the README lists as entry points (``examples/``).

Every ``benchmarks/bench_*.py`` must be one of these roots.

The walk parses every ``import`` and ``from ... import`` with
:mod:`ast`, function-local ones included, and follows them
transitively.  A name imported from a package resolves to the
submodule the package's ``__init__`` imported it from; the
``__init__``'s other imports do not count, so a re-export alone keeps
nothing alive.

Below the module, every function, method and class defined in
``src/repro`` must be named in a file that counts: a reached module or
a root file.  A name counts as an identifier, an attribute or an
identifier-like string; a package ``__init__``'s imports and
``__all__`` do not count, and dunder defs are skipped.  The rule
matches names only, so a def passes when its name matches any used
identifier (a ``delta`` method beside a used ``delta`` variable, a
``load`` beside ``json.load``); such defs are audited by hand.

Settings obey the same rule.  Every field of a ``src/repro`` dataclass
whose name ends in ``Config``, ``Spec``, ``Slo`` or ``Policy`` must be
passed by keyword, or stored as a string key of a dict, in a root file
or in a reached ``src/repro`` module other than the one defining it; a
field only its own module or the tests set is a constant.  This rule
matches names only, too: a ``credits=`` keyword anywhere that counts
passes ``FlowConfig.credits``, whatever it is passed to.
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

#: Defs kept although no file that counts names them: qualified name
#: (module, then enclosing classes) -> reason.
EXEMPT_DEFS = {
    "repro.vision.reference.reference_match_descriptors":
        "test twin: the vectorized matcher is checked against it",
    "repro.vision.reference.reference_lsh_query":
        "test twin: the vectorized LSH query is checked against it",
    "repro.experiments.cache.reset_code_fingerprint_cache":
        "tests edit source trees and must drop the memoized fingerprints",
    "repro.flow.config.neutral_flow_config":
        "the flow-neutral digest check in test_determinism builds its "
        "config",
    "repro.vision.camera.rotation_about":
        "builds the ground-truth poses decompose_homography is tested on",
    "repro.vision.camera.homography_from_pose":
        "builds the ground-truth homographies decompose_homography is "
        "tested on",
    "repro.dsp.statestore.StateStore.bytes_in_use":
        "test_invariants checks the container's state memory against it",
    "repro.net.topology.Network.nodes":
        "test_net_topology pins the paper testbed's node set with it",
    "repro.cluster.resources.MemoryAccount.in_use_bytes":
        "tests check containers' and state stores' memory charges with it",
    "repro.metrics.sketch.PercentileSketch.merge":
        "the sketch property suite checks update's merge laws with it",
    "repro.metrics.sketch.PercentileSketch.from_dict":
        "the sketch property suite checks that to_dict is lossless with "
        "it",
}

#: Settings kept although no file that counts sets them: qualified name
#: (module, class, field) -> reason.
EXEMPT_SETTINGS = dict.fromkeys((
    f"repro.flow.config.FlowConfig.{name}" for name in (
        "admission_rate_fps", "admission_burst", "gradient_lookahead_s",
        "advertise_interval_s", "credit_ttl_s", "upstream_window_s",
        "client_pacing", "client_rate_fps", "client_burst")),
    "flow_summary stores the whole config in every flow cell's "
    "summary, so dropping the field moves the pinned summary digests; "
    "it goes with the per-cell telemetry record (ROADMAP item 7)")
EXEMPT_SETTINGS.update(dict.fromkeys((
    "repro.experiments.runner.ExperimentSpec.cohort_load_kwargs",
    "repro.experiments.runner.ExperimentSpec.cohort_tick_s",
    "repro.cohort.population.CohortSpec.member_fps"),
    "goes with the cohort layer (ROADMAP item 5), which waits for a "
    "benchmark change that drops perfbench's cohort cell"))
EXEMPT_SETTINGS["repro.experiments.runner.MobilitySpec.trajectories"] = (
    "a scenario input: tests script exact moves with it, the way a "
    "FaultPlan scripts faults")

SETTING_SUFFIXES = ("Config", "Spec", "Slo", "Policy")


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


@lru_cache(maxsize=None)
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
    return frozenset(reached)


def _defs(path, module):
    """``(qualified name, name)`` of every function, method and class."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                found.append((f"{prefix}.{child.name}", child.name))
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), module)
    return found


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _names(path):
    """Identifiers, attributes and identifier-like strings in a file."""
    body = ast.parse(path.read_text(), str(path)).body
    if path.name == "__init__.py":
        body = [node for node in body
                if not isinstance(node, (ast.Import, ast.ImportFrom))
                and not _is_all(node)]
    names = set()
    for node in body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif (isinstance(sub, ast.Constant)
                  and isinstance(sub.value, str)
                  and sub.value.isidentifier()):
                names.add(sub.value)
    return names


def test_every_repro_module_is_reached_from_an_entry_point():
    modules = {_module_name(path)
               for path in (SRC / "repro").rglob("*.py")}
    reached = _reached()
    assert EXEMPT <= modules and not EXEMPT & reached, \
        "stale exemption: the module is gone or reached"
    unreached = sorted(modules - reached - EXEMPT)
    assert not unreached, \
        f"modules no entry point reaches: {unreached}"


def test_every_bench_is_a_reach_root():
    benches = {_module_name(path)
               for path in (ROOT / "benchmarks").glob("bench_*.py")}
    unrooted = sorted(benches - _roots())
    assert not unrooted, \
        f"benches that write no BENCH file and are no figure bench: " \
        f"{unrooted}"


def test_every_repro_def_is_named_where_it_counts():
    used = set()
    for module in _reached():
        path = _module_file(module)
        if path is not None:
            used |= _names(path)
    defs = {qualified: name
            for path in (SRC / "repro").rglob("*.py")
            for qualified, name in _defs(path, _module_name(path))
            if not (name.startswith("__") and name.endswith("__"))}
    assert all(EXEMPT_DEFS.values()), "every exemption needs its reason"
    stale = sorted(qualified for qualified in EXEMPT_DEFS
                   if qualified not in defs or defs[qualified] in used)
    unnamed = sorted(qualified for qualified, name in defs.items()
                     if name not in used and qualified not in EXEMPT_DEFS)
    assert not stale and not unnamed, (
        f"stale exemptions (the def is gone or named): {stale}; "
        f"defs no file that counts names: {unnamed}")


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _settings(path, module):
    """Qualified name -> field name of every settings dataclass field."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.ClassDef)
                and node.name.endswith(SETTING_SUFFIXES)
                and _is_dataclass(node)):
            continue
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.unparse(item.annotation)):
                found[f"{module}.{node.name}.{item.target.id}"] = \
                    item.target.id
    return found


def _set_names(path):
    """Keywords passed, and string keys a file stores into a dict."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(key.value for key in node.keys
                         if isinstance(key, ast.Constant)
                         and isinstance(key.value, str))
        elif (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            names.add(node.slice.value)
    return names


def test_every_setting_is_set_where_it_counts():
    set_in = {module: _set_names(_module_file(module))
              for module in _reached() if _module_file(module)}
    settings = {}
    for path in (SRC / "repro").rglob("*.py"):
        module = _module_name(path)
        for qualified, name in _settings(path, module).items():
            settings[qualified] = any(
                name in names for other, names in set_in.items()
                if other != module)
    assert all(EXEMPT_SETTINGS.values()), \
        "every exemption needs its reason"
    stale = sorted(qualified for qualified in EXEMPT_SETTINGS
                   if settings.get(qualified, True))
    unset = sorted(qualified for qualified, is_set in settings.items()
                   if not is_set and qualified not in EXEMPT_SETTINGS)
    assert not stale and not unset, (
        f"stale exemptions (the field is gone or set): {stale}; "
        f"settings no file that counts sets ({len(unset)}): {unset}")
