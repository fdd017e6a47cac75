"""The benchmark still names lpmech functions that exist.

``perfbench/tracing.py`` rebinds each ``(module, attribute)`` pair of its
``TARGETS`` from outside the package, and the other benchmark scripts import
lpmech names, read attributes of lpmech modules and read fields of catalog
records.  Without these checks a rename under ``src/`` would break
``perfbench/run.py`` with no test failing.
"""

import ast
import dataclasses
import importlib
import importlib.util
import pathlib

import pytest

from lpmech import cli
from lpmech.systems import SystemRecord

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
_TRACING = _PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(target[0], target[1]) for target in _tracing().TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves_to_a_callable(module, attr):
    owner = importlib.import_module(f"lpmech.{module}")
    if "." in attr:
        # methods are wrapped where the class itself defines them
        cls_name, meth = attr.split(".")
        fn = vars(getattr(owner, cls_name)).get(meth)
    else:
        fn = getattr(owner, attr, None)
    assert callable(fn)


_INLINE_BUNDLE = """\
samples: 5
bundle:
  n: 2
  m: 2
  gamma:
    polynomial:
      terms:
        - {index: [0, 0, 1], powers: [1, 0], coeff: 0.5}
"""


def test_tracer_sees_the_layers_of_in_process_cli_runs(tmp_path):
    """The traced pass of perfbench/run.py: the jobs run once untraced, then
    under the installed Tracer.  A name that cli imports when a command runs
    must still reach the rebound function, or its layer would read 0."""
    cfg = tmp_path / "bundle.yaml"
    cfg.write_text(_INLINE_BUNDLE, encoding="utf-8")
    runs = (
        ["simulate", "--system", "central_potential_particle", "--t-end", "0.02", "--dt", "0.01"],
        ["check-axioms", "--config", str(cfg)],
    )

    def run_all(tag, run_job=lambda fn: fn()):
        for i, argv in enumerate(runs):
            out = tmp_path / f"{tag}{i}"
            assert run_job(lambda: cli.main(argv + ["--out", str(out)])) == 0

    run_all("untraced")
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        run_all("traced", tracer.run_job)
    finally:
        tracer.uninstall()
    calls = {layer: n for layer, (n, _) in tracer.table().items()}
    assert calls.get("dynamics.integrate_lp") == 1
    assert calls.get("dynamics.write_trajectory_csv") == 1
    assert calls.get("systems.build_system") == 1
    assert calls.get("lpbundle.check_axioms") == 1
    assert calls.get("cli.main.simulate") == calls.get("cli.main.check-axioms") == 1
    assert tracer.counts["dynamics.integrate_lp.steps"] == 2
    assert tracer.counts["dynamics.write_trajectory_csv.bytes"] > 0


def _resolve(dotted):
    """The object a dotted lpmech path names, or None."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:  # a submodule that nothing has imported yet
                obj = importlib.import_module(".".join(parts[:i]))
                continue
            except ModuleNotFoundError:
                return None
        obj = getattr(obj, part)
    return obj


def _dotted(node, modules):
    """``module.attr...`` as a dotted lpmech path when ``node`` is an
    attribute chain on a name bound to an lpmech module, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in modules:
        return None
    return ".".join([modules[node.id]] + attrs[::-1])


def _lpmech_references(tree):
    """Every lpmech path an imported name or an attribute chain refers to."""
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lpmech":
                    head = alias.name if alias.asname else "lpmech"
                    modules[alias.asname or "lpmech"] = head
                    refs.append(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lpmech":
            for alias in node.names:
                refs.append(f"{node.module}.{alias.name}")
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        path = _dotted(node, modules) if isinstance(node, ast.Attribute) else None
        if path:
            refs.append(path)
    return refs


def _string_text(node):
    """A string literal's text; an f-string's replacement fields read as ``_``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "_" for v in node.values)
    return ""


def _perfbench_references(path):
    """References in the script and in the code strings it runs elsewhere,
    such as the setup snippet that run.py hands to a fresh interpreter."""
    tree = ast.parse(path.read_text())
    refs = _lpmech_references(tree)
    for node in ast.walk(tree):
        text = _string_text(node)
        if "lpmech" in text:
            try:
                refs += _lpmech_references(ast.parse(text))
            except SyntaxError:  # prose, or a fragment of an f-string
                pass
    return refs


_SCRIPTS = sorted(_PERFBENCH.glob("*.py"))


@pytest.mark.parametrize("script", _SCRIPTS, ids=[p.name for p in _SCRIPTS])
def test_perfbench_lpmech_references_resolve(script):
    missing = [ref for ref in _perfbench_references(script) if _resolve(ref) is None]
    assert not missing, f"{script.name} refers to missing lpmech names: {missing}"


def test_perfbench_reference_scan_sees_the_library_calls():
    refs = set(_perfbench_references(_PERFBENCH / "brackets.py"))
    assert {"lpmech.hamiltonian.DualObservable", "lpmech.lpbundle.Section"} <= refs
    assert "lpmech.systems.build_system" in _perfbench_references(_PERFBENCH / "run.py")


def _record_reads(path):
    """Attributes read off a catalog record in a script: off a name bound to
    ``systems.build_system(...)`` or off a parameter named ``rec``."""
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            names |= {a.arg for a in node.args + node.kwonlyargs if a.arg == "rec"}
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "build_system"
        ):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in names
    }


@pytest.mark.parametrize("script", _SCRIPTS, ids=[p.name for p in _SCRIPTS])
def test_perfbench_record_reads_are_record_fields(script):
    fields = {f.name for f in dataclasses.fields(SystemRecord)}
    missing = sorted(_record_reads(script) - fields)
    assert not missing, f"{script.name} reads SystemRecord fields that do not exist: {missing}"


def test_perfbench_record_scan_sees_the_reads():
    assert {"params", "bundle", "lagrangian"} <= _record_reads(_PERFBENCH / "brackets.py")
