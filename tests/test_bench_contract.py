"""The benchmark harness traces the run through module attributes it names.

``bench/tracer.py`` wraps each ``(module, attribute)`` of its ``WRAPPED``
table, and ``bench/layers.py`` derives the cell-steps of a run from the
``solver.step`` calls under ``solver.run`` (``n_cells`` taken from the
run's first argument) and divides by the ``solver.rhs_eval`` count.
``bench/run.py`` and ``bench/layers.py`` call the package root as ``rb``.
These tests keep those names and call counts in place; the harness files
are only read, never imported or run.
"""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import radialblowup
from _helpers import read_series
from radialblowup import _kernel, cli, diagnostics, solver

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
MODULES = {"cli": cli, "solver": solver, "diagnostics": diagnostics}

STRIDE_ONE_RUN = """
[model]
dim = 3
delta = 1
pressure_const = 1
gamma = 1.4

[numerics]
n_cells = 64
t_end = 0.05
steepening_threshold = 1e9
output_stride = 1

[initial]
family = gaussian_truncated
"""


def _wrapped() -> tuple:
    """The WRAPPED table of bench/tracer.py, read from its source."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py has no WRAPPED table")


def test_every_traced_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    for module, attr, _ in wrapped:
        assert callable(getattr(MODULES[module], attr)), f"{module}.{attr}"


def _harness_root_names() -> set:
    """Every ``rb.<name>`` of the harness files that import the package as ``rb``."""
    names = set()
    for path in (ROOT / "bench" / "run.py", ROOT / "bench" / "layers.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "rb"
            ):
                names.add(node.attr)
    return names


def _readme_root_names() -> set:
    """The names the README's python examples import from the package root."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set()
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "radialblowup":
                names.update(alias.name for alias in node.names)
    return names


def test_every_harness_root_name_resolves():
    names = _harness_root_names()
    assert "first_crossing_time" in names
    missing = sorted(name for name in names if not hasattr(radialblowup, name))
    assert not missing


def test_the_root_exports_only_what_its_callers_read():
    exported = {
        name
        for name, value in vars(radialblowup).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    read = {
        name
        for name in _harness_root_names() | _readme_root_names()
        if not inspect.ismodule(getattr(radialblowup, name))
    }
    assert exported == read


def test_stride_one_run_steps_through_the_module_attributes(tmp_path, monkeypatch):
    calls = Counter()
    run_cells = []
    for module, name in ((cli, "run"), (solver, "step"), (solver, "rhs_eval")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            if _name == "run":
                run_cells.append(len(args[0]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    config = tmp_path / "run.ini"
    config.write_text(STRIDE_ONE_RUN)
    assert cli.main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0

    (run_dir,) = (p for p in (tmp_path / "out").iterdir() if p.is_dir())
    rows = read_series(run_dir)["t"].size
    assert calls["run"] == 1 and run_cells == [64]
    # a row at t = 0 and one after every step
    assert calls["step"] == rows - 1 > 0
    assert calls["rhs_eval"] == 2 * calls["step"]


def test_check_never_loads_the_kernel(tmp_path, monkeypatch, capsys):
    def refuse():
        raise AssertionError("check loaded the kernel")

    monkeypatch.setattr(_kernel, "load", refuse)
    config = tmp_path / "run.ini"
    config.write_text(STRIDE_ONE_RUN)
    assert cli.main(["check", str(config)]) == 0
    assert "bound_applicable=True" in capsys.readouterr().out
