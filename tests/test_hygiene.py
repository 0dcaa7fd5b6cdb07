"""Source hygiene, checked with `ast` alone (no linter is required).

* Every imported name in ``src/`` and ``tests/`` is read somewhere in its
  module (a ``__all__`` entry counts as a read).
* No ``sloclab`` module imports a private (``_name``) from another one:
  what modules share is public.
* Only ``reports.py`` calls ``LemmaReport(``: every other module and test
  builds its verdicts through ``reports.gate`` and its relatives.
* Every function, method and class defined in ``src/`` is read somewhere in
  ``src/`` or ``perfbench/`` outside its own body: no helper exists only for
  tests.  A read is a name, an attribute or an identifier string (perfbench
  binds functions by name); dunder methods are called implicitly and are
  exempt, as is ``generate_state``, the one method of numpy's
  ``ISeedSequence`` interface, which numpy's ``PCG64`` calls.
  ``__init__.py`` re-exports what tests and users import, so its imports and
  ``__all__`` are not reads.
* Every annotated field of a ``src/`` class is read somewhere in ``src/`` or
  ``perfbench/``, as an attribute load or an identifier string: no field is
  written and never read.  A bare name of the same spelling is not a read.
* Nothing in ``src/`` compares against a ``.tag`` attribute: a factor's
  behaviour follows from its data (its ``pieces``), never from branching on
  its name.
* Nothing in ``src/`` imports ``scipy`` or any of its submodules, and a
  fresh ``import sloclab.cli`` loads no scipy module, nor
  ``numpy.polynomial``: numpy is the one dependency.  Every special
  function is in ``numerics.py``, every quadrature is ``numerics.quad``,
  and the EPI deficit of a product is one
  quadrature of its closed sum density, not an FFT convolution.  (The
  narrower scans for ``scipy.stats``, ``signal``, ``integrate`` and
  ``optimize`` predate the whole-package one and stay as its special cases.)
* Nothing in ``src/`` imports ``concurrent.futures``, and no library
  function takes a sampling or threading knob (``workers``, ``n_samples``,
  ``tilt_samples``, ``rng_for``, ``stream``): every tilt is exact and runs in
  one thread.
* Every defaulted parameter of a public ``src/`` function or method (a
  class's ``__init__`` counts as the class) is a real knob, both ways:
  some call in ``src/`` passes it, by position or by keyword, a value other
  than the default's own literal (a ``*args`` or ``**kwargs`` splat counts
  as such a value), so a value no caller changes is a constant in the code;
  and some call in ``src/`` or ``tests/`` omits it, so a value every caller
  spells out is a required parameter.  Calls match by name, so a method and
  a function of one name share their calls.  ``cli.main``'s ``argv`` is the
  one exception to the first rule: the console script calls ``main()`` and
  tests pass ``argv``.  The defaulted fields of a public ``@dataclass`` are
  its class's parameters, in field order, under the same two rules, except
  that a splat may also omit a field: ``Setting(kind, key, flag, **where)``
  builds records of many shapes, and ``EstimatorResult(*pair)`` passes only
  the leading fields.
* No loop body or comprehension in ``src/`` calls ``tilt_sample_batch``: it
  takes a batch of thetas, so one call serves every row, and per-row calls
  would repeat its mode search once per row.
* No ``src/`` module but ``numerics.py`` imports or reads ``log_ndtr`` or
  ``erfcx``: every Gaussian window goes through
  ``numerics.trunc_normal_moments``, and the chi-square CDF that needs
  ``erfcx`` sits beside it, so the tail arithmetic lives in one place.
* No ``src/`` module but ``numerics.py`` and ``measures.py`` imports or
  reads ``trunc_normal_moments``: the pieces' tilt and their one
  convolution, ``measures.sum_law``, are its only users, so the EPI deficit
  and the Fisher identity share one sum law.
* No ``src/`` module but ``streams.py`` reads ``SeedSequence``, ``PCG64`` or
  ``default_rng``, or calls ``Generator(``: every generator comes from a
  stream key, through the one batched seeding route.
* ``simulate_ensemble`` is called in ``src/`` only by ``RunContext.ensemble``
  (the run's one ensemble), ``check_driver_equivalence`` (its one sde
  ensemble) and ``check_projection_domination`` (once, for the marginal):
  every other check reads the run's paths.  The block driver,
  ``start_paths`` and ``tilt_blocks``, runs only in ``simulate_ensemble``,
  which keeps every block, and in ``_cmd_simulate``, which folds each block
  into its statistics as it comes: one tilt and Euler loop serves both.
  ``start_paths`` also runs once in ``check_driver_equivalence``, for its KS
  sample, which reads theta(t_max) and needs no tilt; its paired direct
  side takes W(t_max) from the sde ensemble's increments and draws none.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "sloclab").rglob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").rglob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of every imported name the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return sorted((line, name) for line, name in bound if name not in read)


def private_imports(tree: ast.Module) -> list:
    """(line, name) of every ``_name`` imported from a sloclab module."""
    return sorted((node.lineno, a.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").split(".")[0] == "sloclab")
                  for a in node.names
                  if a.name.startswith("_") and not a.name.startswith("__"))


def report_constructions(tree: ast.Module) -> list:
    """(line, name) of every call that constructs a ``LemmaReport`` directly."""
    return sorted((node.lineno, "LemmaReport") for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (getattr(node.func, "id", None) == "LemmaReport"
                       or getattr(node.func, "attr", None) == "LemmaReport"))


def names_read(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: names, attributes, identifier strings."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out[n.value] += 1
    return out


def source_reads(modules) -> Counter:
    """`names_read` summed over ``modules``, (file name, tree) pairs, but ``__init__.py``."""
    return sum((names_read(tree) for name, tree in modules if name != "__init__.py"),
               Counter())


# methods that numpy calls through an interface it declares
CALLED_BY_NUMPY = {"generate_state"}


def unread_functions(tree: ast.Module, reads: Counter) -> list:
    """(line, name) of every function or class in ``tree`` read nowhere outside its own body."""
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__"))
                  and node.name not in CALLED_BY_NUMPY
                  and reads[node.name] <= names_read(node)[node.name])


def attributes_read(modules) -> Counter:
    """How often each attribute is loaded, or named by an identifier string, in ``modules``."""
    out = Counter()
    for tree in modules:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
                out[n.attr] += 1
            elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                  and n.value.isidentifier()):
                out[n.value] += 1
    return out


def unread_fields(tree: ast.Module, reads: Counter) -> list:
    """(line, "Class.field") of every annotated class field in ``tree`` that ``reads`` lacks."""
    return sorted((stmt.lineno, f"{node.name}.{stmt.target.id}")
                  for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and not reads[stmt.target.id])


def tag_comparisons(tree: ast.Module) -> list:
    """(line, "tag") of every comparison with a ``.tag`` attribute on either side."""
    return sorted((node.lineno, "tag") for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  and any(isinstance(side, ast.Attribute) and side.attr == "tag"
                          for side in [node.left, *node.comparators]))


def scipy_imports(tree: ast.Module, sub: str = "") -> list:
    """(line, module) of every import of ``scipy.<sub>`` or one of its submodules.

    With no ``sub``, every import of ``scipy`` or any of its submodules.
    """
    top = f"scipy.{sub}" if sub else "scipy"

    def is_sub(name):
        return name == top or name.startswith(f"{top}.")
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names if is_sub(a.name)]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                    if is_sub(node.module) or is_sub(f"{node.module}.{a.name}")]
    return sorted(out)


def futures_imports(tree: ast.Module) -> list:
    """(line, module) of every import of ``concurrent.futures`` or from it."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name) for a in node.names
                    if a.name.startswith("concurrent")]
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and (node.module or "").startswith("concurrent")):
            out += [(node.lineno, node.module)]
    return sorted(out)


KNOBS = {"workers", "n_samples", "tilt_samples", "rng_for", "stream"}


def knob_parameters(tree: ast.Module) -> list:
    """(line, "function(knob)") of every function parameter named in KNOBS."""
    return sorted((node.lineno, f"{node.name}({a.arg})") for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for a in (node.args.posonlyargs + node.args.args + node.args.kwonlyargs)
                  if a.arg in KNOBS)


def call_sites(trees) -> dict:
    """Name -> every call in ``trees`` of a function or method of that name."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


SPLAT = "splat"


def passed_argument(call: ast.Call, pos, name: str):
    """What ``call`` passes for parameter ``name`` at position ``pos`` (None: keyword-only).

    The argument's node; `SPLAT` for a ``*args`` or ``**kwargs`` that may
    hold it; None when the call omits it.
    """
    for k in call.keywords:
        if k.arg == name:
            return k.value
    if any(k.arg is None for k in call.keywords):
        return SPLAT
    for i, a in enumerate(call.args if pos is not None else ()):
        if isinstance(a, ast.Starred):
            return SPLAT
        if i == pos:
            return a
    return None


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d, "id", None) == "dataclass" or getattr(d, "attr", None) == "dataclass"
               for d in (getattr(d, "func", d) for d in node.decorator_list))


def _field_keyword(value, name: str):
    """The ``name=`` argument of a ``field(...)`` call, else None."""
    if isinstance(value, ast.Call) and (getattr(value.func, "id", None) == "field"
                                        or getattr(value.func, "attr", None) == "field"):
        return next((k.value for k in value.keywords if k.arg == name), None)
    return None


def _dataclass_defaults(node: ast.ClassDef) -> list:
    """(line, class, position, field, default node) of each defaulted ``__init__`` field.

    A ``field(default=...)`` stands for its default; a ``field(init=False)``
    takes no position; ``ClassVar`` annotations are no fields.
    """
    out, pos = [], 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.dump(stmt.annotation):
            continue
        init = _field_keyword(stmt.value, "init")
        if isinstance(init, ast.Constant) and init.value is False:
            continue
        if stmt.value is not None:
            default = _field_keyword(stmt.value, "default") or stmt.value
            out.append((stmt.lineno, node.name, pos, stmt.target.id, default))
        pos += 1
    return out


def defaults(tree: ast.Module) -> list:
    """(line, callee, position or None if keyword-only, name, default node, field) of each default.

    Public module-level functions and the public methods and ``__init__`` of
    public classes count; ``__init__`` is called by its class's name, and a
    method's position counts after ``self``.  So do the defaulted fields of
    a public ``@dataclass``, its class's parameters in field order; ``field``
    is True for them.
    """
    signatures, out = [], []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            signatures.append((node, node.name, 0))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _is_dataclass(node):
                out += [(*d, True) for d in _dataclass_defaults(node)]
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                bound = 0 if any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list) else 1
                if item.name == "__init__":
                    signatures.append((item, node.name, bound))
                elif not item.name.startswith("_"):
                    signatures.append((item, item.name, bound))
    for node, callee, bound in signatures:
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out += [(node.lineno, callee, i - bound, a.arg, d, False)
                for i, (a, d) in enumerate(zip(positional[first:], args.defaults), first)]
        out += [(node.lineno, callee, None, a.arg, d, False)
                for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def unchanged_defaults(tree: ast.Module, calls: dict) -> list:
    """(line, "callee(name)") of each default that no call in ``calls`` passes another value.

    A value is another when it is a splat or not the default's own literal.
    """
    def changes(value, default):
        return value is SPLAT or (value is not None and ast.dump(value) != ast.dump(default))
    return sorted((line, f"{callee}({name})")
                  for line, callee, pos, name, d, _ in defaults(tree)
                  if not any(changes(passed_argument(c, pos, name), d)
                             for c in calls.get(callee, [])))


def never_omitted_defaults(tree: ast.Module, calls: dict) -> list:
    """(line, "callee(name)") of each default that every call in ``calls`` passes.

    A splat may pass a function's parameter; for a dataclass field it may
    as well leave it out, since one splat call builds records of many shapes
    (``Setting(kind, key, flag, **where)``), and a ``*`` splat holds only
    the leading fields (``EstimatorResult(*pair)``).
    """
    def passes(value, field):
        return value is not None and not (field and value is SPLAT)
    return sorted((line, f"{callee}({name})")
                  for line, callee, pos, name, _, field in defaults(tree)
                  if all(passes(passed_argument(c, pos, name), field)
                         for c in calls.get(callee, [])))


def loop_calls(tree: ast.Module, name: str) -> list:
    """(line, name) of every call to ``name`` that a loop body or a comprehension repeats."""
    repeated = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            repeated += node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            repeated.append(node.elt)
        elif isinstance(node, ast.DictComp):
            repeated += [node.key, node.value]
    return sorted({(n.lineno, name) for part in repeated for n in ast.walk(part)
                   if isinstance(n, ast.Call)
                   and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))})


WINDOW_SPECIALS = {"log_ndtr", "erfcx"}


def special_uses(tree: ast.Module, names) -> list:
    """(line, name) of every import or attribute read of a name in ``names``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            out.append((node.lineno, node.attr))
    return sorted(out)


GENERATOR_BUILDERS = {"SeedSequence", "PCG64", "default_rng"}


def generator_constructions(tree: ast.Module) -> list:
    """(line, name) of every import or read of GENERATOR_BUILDERS and every ``Generator(`` call."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out |= {(node.lineno, a.name) for a in node.names if a.name in GENERATOR_BUILDERS}
        elif isinstance(node, ast.Attribute) and node.attr in GENERATOR_BUILDERS:
            out.add((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in GENERATOR_BUILDERS:
            out.add((node.lineno, node.id))
        elif isinstance(node, ast.Call) and "Generator" in (getattr(node.func, "id", None),
                                                            getattr(node.func, "attr", None)):
            out.add((node.lineno, "Generator"))
    return sorted(out)


def scoped_calls(tree: ast.Module, name: str) -> list:
    """(line, "Class.function") of every call to ``name``, named by the definitions around it."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                          getattr(child.func, "attr", None)):
                out.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, inner)

    visit(tree, ())
    return sorted(out)


def _scan(paths, scanner) -> list:
    assert paths
    return [f"{_rel(p)}:{line} {name}" for p in paths for line, name in scanner(_tree(p))]


def test_no_unused_imports():
    assert Path(__file__).resolve() in SOURCES
    assert _scan(SOURCES, unused_imports) == []


def test_no_private_imports_between_modules():
    assert _scan(PACKAGE, private_imports) == []


def test_reports_are_built_only_in_reports_module():
    outside = [p for p in SOURCES if p != ROOT / "src" / "sloclab" / "reports.py"]
    assert len(outside) == len(SOURCES) - 1
    assert _scan(outside, report_constructions) == []


def test_every_source_function_is_read_outside_tests():
    assert BENCH
    assert ROOT / "src" / "sloclab" / "__init__.py" in PACKAGE
    reads = source_reads((p.name, _tree(p)) for p in PACKAGE + BENCH)
    assert _scan(PACKAGE, lambda tree: unread_functions(tree, reads)) == []


def test_every_source_field_is_read_outside_tests():
    reads = attributes_read(_tree(p) for p in PACKAGE + BENCH if p.name != "__init__.py")
    assert _scan(PACKAGE, lambda tree: unread_fields(tree, reads)) == []


def test_no_branching_on_factor_tags():
    assert _scan(PACKAGE, tag_comparisons) == []


def test_no_scipy_in_package():
    assert _scan(PACKAGE, scipy_imports) == []


def test_no_scipy_stats_in_package():
    assert _scan(PACKAGE, lambda tree: scipy_imports(tree, "stats")) == []


def test_no_scipy_signal_in_package():
    assert _scan(PACKAGE, lambda tree: scipy_imports(tree, "signal")) == []


@pytest.mark.parametrize("sub", ["integrate", "optimize"])
def test_no_scipy_quadrature_or_optimizer_in_package(sub):
    assert _scan(PACKAGE, lambda tree: scipy_imports(tree, sub)) == []


def test_no_concurrent_futures_in_package():
    assert _scan(PACKAGE, futures_imports) == []


def test_no_sampling_knobs_in_library_signatures():
    assert _scan(PACKAGE, knob_parameters) == []
    for mod, fn in (("tilt", "tilt_table"), ("localization", "simulate_ensemble"),
                    ("isoconst", "check_projection_domination")):
        params = inspect.signature(
            getattr(importlib.import_module("sloclab." + mod), fn)).parameters
        assert not KNOBS & set(params), f"{mod}.{fn}"


def test_every_default_is_passed_by_some_source_call():
    # with a value other than the default's own literal
    calls = call_sites(_tree(p) for p in PACKAGE)
    found = [f"{_rel(p)} {name}" for p in PACKAGE
             for _, name in unchanged_defaults(_tree(p), calls)]
    assert found == ["src/sloclab/cli.py main(argv)"]


def test_every_default_is_omitted_by_some_call():
    calls = call_sites(_tree(p) for p in SOURCES)
    assert _scan(PACKAGE, lambda tree: never_omitted_defaults(tree, calls)) == []


def test_no_tilt_draws_repeated_in_loops():
    assert _scan(PACKAGE, lambda tree: loop_calls(tree, "tilt_sample_batch")) == []


def test_gaussian_window_tails_only_in_numerics():
    outside = [p for p in PACKAGE if p != ROOT / "src" / "sloclab" / "numerics.py"]
    assert len(outside) == len(PACKAGE) - 1
    assert _scan(outside, lambda tree: special_uses(tree, WINDOW_SPECIALS)) == []


def test_truncated_normal_moments_only_in_numerics_and_measures():
    users = {ROOT / "src" / "sloclab" / name for name in ("numerics.py", "measures.py")}
    outside = [p for p in PACKAGE if p not in users]
    assert len(outside) == len(PACKAGE) - 2
    assert _scan(outside, lambda tree: special_uses(tree, {"trunc_normal_moments"})) == []


def test_generators_are_built_only_in_streams_module():
    streams = ROOT / "src" / "sloclab" / "streams.py"
    outside = [p for p in PACKAGE if p != streams]
    assert len(outside) == len(PACKAGE) - 1
    assert _scan(outside, generator_constructions) == []
    assert _scan([streams], generator_constructions)


def test_paths_are_simulated_only_where_a_check_needs_its_own():
    found = Counter(f"{p.name}:{scope}" for p in PACKAGE
                    for _, scope in scoped_calls(_tree(p), "simulate_ensemble"))
    assert found == {"cli.py:RunContext.ensemble": 1,
                     "localization.py:check_driver_equivalence": 1,
                     "isoconst.py:check_projection_domination": 1}
    runs = {driver: Counter(f"{p.name}:{scope}" for p in PACKAGE
                            for _, scope in scoped_calls(_tree(p), driver))
            for driver in ("start_paths", "tilt_blocks")}
    assert runs["tilt_blocks"] == {"localization.py:simulate_ensemble": 1,
                                   "cli.py:_cmd_simulate": 1}
    assert runs["start_paths"] == {"localization.py:simulate_ensemble": 1,
                                   "cli.py:_cmd_simulate": 1,
                                   "localization.py:check_driver_equivalence": 1}


def test_cli_import_loads_no_scipy():
    # nor numpy.polynomial: the radial Gauss-Legendre rule is a table
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    probe = ("import sys, sloclab.cli\n"
             "print(sloclab.cli.__file__)\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
             "              or m.startswith('numpy.polynomial')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    where, loaded = proc.stdout.splitlines()
    assert Path(where).resolve() == ROOT / "src" / "sloclab" / "cli.py"
    assert loaded.split() == []


def test_scanners_flag_what_they_look_for():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\n"
                     "import numpy.linalg\n"
                     "from math import pi, tau as turn\n"
                     "from .tilt import _as_key, __doc__\n"
                     "from sloclab.cli import _REGISTRY\n"
                     "from . import streams\n"
                     "__all__ = ['streams']\n"
                     "def f(x: np.ndarray) -> float:\n"
                     "    return numpy.linalg.norm(x) * pi\n")
    assert unused_imports(tree) == [(2, "os"), (4, "turn"), (5, "__doc__"),
                                    (5, "_as_key"), (6, "_REGISTRY")]
    assert private_imports(tree) == [(5, "_as_key"), (6, "_REGISTRY")]
    built = ast.parse("from sloclab import reports\n"
                      "from sloclab.reports import LemmaReport, gate\n"
                      "a = LemmaReport('x', 'PASS', 0.0)\n"
                      "b = reports.LemmaReport('x', 'PASS', 0.0)\n"
                      "c = gate('x', 0.0, 1.0)\n"
                      "d: LemmaReport = c\n")
    assert report_constructions(built) == [(3, "LemmaReport"), (4, "LemmaReport")]
    defs = ast.parse("class Basis:\n"
                     "    def __init__(self):\n"
                     "        self.cols = used(1)\n"
                     "    def project(self, x):\n"
                     "        return self.project(x)\n"
                     "    @property\n"
                     "    def dim(self):\n"
                     "        return 2\n"
                     "def used(k):\n"
                     "    return k\n"
                     "def bound_by_name():\n"
                     "    pass\n"
                     "BINDINGS = ('bound_by_name',)\n"
                     "def orphan():\n"
                     "    return Basis().dim\n")
    assert unread_functions(defs, names_read(defs)) == [(4, "project"), (14, "orphan")]
    init = ast.parse("from .measures import whiten\n"
                     "__all__ = ['whiten']\n")
    lib = ast.parse("class Spec:\n"
                    "    pass\n"
                    "class Unused:\n"
                    "    pass\n"
                    "def whiten(spec):\n"
                    "    return Spec()\n")
    reads = source_reads([("__init__.py", init), ("measures.py", lib)])
    assert unread_functions(lib, reads) == [(3, "Unused"), (5, "whiten")]
    assert unread_functions(lib, names_read(init) + names_read(lib)) == [(3, "Unused")]
    fields = ast.parse("class Result:\n"
                       "    value: float\n"
                       "    n: int = 0\n"
                       "    label: str = ''\n"
                       "    count = 3\n"
                       "def show(r, n):\n"
                       "    r.n = n\n"
                       "    return f'{r.value}', getattr(r, 'label')\n")
    assert unread_fields(fields, attributes_read([fields])) == [(3, "Result.n")]
    tags = ast.parse("if factor.tag == 'exp':\n"
                     "    pass\n"
                     "ok = 'laplace' != f.tag\n"
                     "inside = f.tag in ('uniform', 'truncgauss')\n"
                     "name = f'{f.tag}'\n"
                     "same = tag == 'exp'\n")
    assert tag_comparisons(tags) == [(1, "tag"), (3, "tag"), (4, "tag")]
    stats = ast.parse("import scipy.stats\n"
                      "import scipy.special, scipy.stats.mstats as ms\n"
                      "from scipy import stats, signal\n"
                      "from scipy.stats import ks_2samp\n"
                      "from scipy.special import ndtr\n"
                      "from .stats import summary\n"
                      "import scipy.statsmodels\n"
                      "from scipy.integrate import quad\n"
                      "import scipy.optimize as opt\n"
                      "import scipy as sp\n"
                      "import scipyx\n")
    assert scipy_imports(stats, "stats") == [(1, "scipy.stats"), (2, "scipy.stats.mstats"),
                                             (3, "scipy.stats"), (4, "scipy.stats.ks_2samp")]
    assert scipy_imports(stats, "signal") == [(3, "scipy.signal")]
    assert scipy_imports(stats, "integrate") == [(8, "scipy.integrate.quad")]
    assert scipy_imports(stats, "optimize") == [(9, "scipy.optimize")]
    assert scipy_imports(stats) == [(1, "scipy.stats"), (2, "scipy.special"),
                                    (2, "scipy.stats.mstats"), (3, "scipy.signal"),
                                    (3, "scipy.stats"), (4, "scipy.stats.ks_2samp"),
                                    (5, "scipy.special.ndtr"), (7, "scipy.statsmodels"),
                                    (8, "scipy.integrate.quad"), (9, "scipy.optimize"),
                                    (10, "scipy")]
    futures = ast.parse("from concurrent.futures import ThreadPoolExecutor\n"
                        "import concurrent.futures as cf\n"
                        "from .concurrent import pool\n"
                        "import threading\n")
    assert futures_imports(futures) == [(1, "concurrent.futures"), (2, "concurrent.futures")]
    knobs = ast.parse("def table(spec, t, thetas, rng_for, n_samples=1024, *, workers=1):\n"
                      "    pass\n"
                      "def moments(spec, t, theta, *, stream=None):\n"
                      "    pass\n"
                      "def simulate(spec, grid, n_paths, seed, driver='direct'):\n"
                      "    samples = 3\n")
    assert knob_parameters(knobs) == [(1, "table(n_samples)"), (1, "table(rng_for)"),
                                      (1, "table(workers)"), (3, "moments(stream)")]
    defaults = ast.parse("def check(frame, seed, sigma=4.0, atol=1e-9, *, level=0.01):\n"
                         "    pass\n"
                         "def _private(x=1):\n"
                         "    pass\n"
                         "class Factor:\n"
                         "    def __init__(self, cut=1.0, scale=2.0):\n"
                         "        pass\n"
                         "    def tilt(self, t, theta=0.0):\n"
                         "        pass\n"
                         "    @staticmethod\n"
                         "    def rule(n, order=3):\n"
                         "        pass\n"
                         "def spread(a=1, b=2):\n"
                         "    pass\n"
                         "def axis_knob(x, axis=0):\n"
                         "    pass\n"
                         "def mode_knob(x, mode=None):\n"
                         "    pass\n"
                         "def quad_knob(f, limit=200):\n"
                         "    pass\n"
                         "check(f, 0, 3.0)\n"
                         "Factor(scale=3.0).tilt(1.0)\n"
                         "Factor.rule(4, 5)\n"
                         "spread(*pair)\n"
                         "axis_knob(x, 0)\n"
                         "axis_knob(y)\n"
                         "mode_knob(x, m)\n"
                         "mode_knob(y, mode=np.nan)\n"
                         "quad_knob(f, **kw)\n"
                         "quad_knob(g)\n")
    sites = call_sites([defaults])
    # axis_knob's callers pass only its default: a constant, not a knob
    assert unchanged_defaults(defaults, sites) == [
        (1, "check(atol)"), (1, "check(level)"), (6, "Factor(cut)"), (8, "tilt(theta)"),
        (15, "axis_knob(axis)")]
    # mode_knob's callers all spell out its mode: a required parameter
    assert never_omitted_defaults(defaults, sites) == [
        (1, "check(sigma)"), (6, "Factor(scale)"), (11, "rule(order)"), (13, "spread(a)"),
        (13, "spread(b)"), (17, "mode_knob(mode)")]
    fields = ast.parse("@dataclass(frozen=True)\n"
                       "class Grid:\n"
                       "    points: np.ndarray\n"
                       "    kind: str = 'geometric'\n"
                       "    scale: float = field(default=1.0)\n"
                       "    cache: dict = field(init=False, default=None)\n"
                       "    unit: ClassVar[str] = 's'\n"
                       "    label: str = ''\n"
                       "@dataclasses.dataclass\n"
                       "class Record:\n"
                       "    value: float\n"
                       "    notes: str = ''\n"
                       "    tags: tuple = ()\n"
                       "class Plain:\n"
                       "    size: int = 3\n"
                       "Grid(pts, 'geometric', 2.0)\n"
                       "Grid(pts, 'geometric', label='x')\n"
                       "Record(*pair)\n"
                       "Record(1.0, tags=t)\n"
                       "Plain()\n")
    sites = call_sites([fields])
    # every call spells out Grid's kind, as the default's own value: a
    # constant and a required field at once.  Record(*pair) may pass notes
    # and tags, and may leave them out, where a function's splat counts as
    # passing them; the field(init=False) and the ClassVar are no parameters
    assert unchanged_defaults(fields, sites) == [(4, "Grid(kind)")]
    assert never_omitted_defaults(fields, sites) == [(4, "Grid(kind)")]
    loops = ast.parse("for theta in thetas:\n"
                      "    draws = tilt.tilt_sample_batch(spec, t, theta[None], rng, 64)\n"
                      "while pending:\n"
                      "    pending = tilt_sample_batch(spec, t, thetas, rng, 1)[0].size\n"
                      "rows = [tilt_sample_batch(spec, t, th[None], rng, 8) for th in thetas]\n"
                      "for row in tilt_sample_batch(spec, t, thetas, rng, 64)[0]:\n"
                      "    total = tilt_table(spec, t, thetas)\n"
                      "once = tilt_sample_batch(spec, t, thetas, rng, 64)\n")
    assert loop_calls(loops, "tilt_sample_batch") == [(2, "tilt_sample_batch"),
                                                      (4, "tilt_sample_batch"),
                                                      (5, "tilt_sample_batch")]
    specials = ast.parse("from scipy.special import erfcx, ndtr\n"
                         "from scipy.special import log_ndtr as tail\n"
                         "import scipy.special\n"
                         "z = scipy.special.log_ndtr(3.0) + ndtr(1.0)\n"
                         "erfcx = 2\n")
    assert special_uses(specials, WINDOW_SPECIALS) == [(1, "erfcx"), (2, "log_ndtr"),
                                                       (4, "log_ndtr")]
    moments = ast.parse("from .numerics import quad, trunc_normal_moments\n"
                        "from . import numerics\n"
                        "w = numerics.trunc_normal_moments(0.0, 1.0, -1.0, 1.0)\n"
                        "trunc_normal_moments = None\n")
    assert special_uses(moments, {"trunc_normal_moments"}) == [(1, "trunc_normal_moments"),
                                                               (3, "trunc_normal_moments")]
    rngs = ast.parse("import numpy as np\n"
                     "from numpy.random import default_rng, SeedSequence\n"
                     "a = np.random.Generator(np.random.PCG64(3))\n"
                     "b = default_rng(0)\n"
                     "def f(rng: np.random.Generator) -> np.random.Generator:\n"
                     "    return rng.standard_normal(2)\n"
                     "c = np.random.SeedSequence([1]).spawn(2)\n"
                     "d = streams.generator(0, 'w')\n")
    calls = ast.parse("ens = simulate_ensemble(spec, grid, 8, 0)\n"
                      "class RunContext:\n"
                      "    def ensemble(self):\n"
                      "        return localization.simulate_ensemble(self.spec, self.grid, 8, 0)\n"
                      "def check(spec):\n"
                      "    def side(seed):\n"
                      "        return simulate_ensemble(spec, grid, 8, seed)\n"
                      "    return [side(0), simulate_ensemble]\n")
    assert scoped_calls(calls, "simulate_ensemble") == [(1, "<module>"),
                                                       (4, "RunContext.ensemble"),
                                                       (7, "check.side")]
    assert generator_constructions(rngs) == [(2, "SeedSequence"), (2, "default_rng"),
                                             (3, "Generator"), (3, "PCG64"),
                                             (4, "default_rng"), (7, "SeedSequence")]
