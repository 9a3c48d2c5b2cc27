import ast
import importlib
import pathlib
import pkgutil

import greenrl


def test_every_exported_name_resolves():
    """Every name a module lists in ``__all__`` exists, so a deletion cannot
    leave ``from greenrl.<module> import *`` broken."""
    checked = 0
    for info in pkgutil.iter_modules(greenrl.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"greenrl.{info.name}")
        exported = getattr(module, "__all__", ())
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"greenrl.{info.name}.__all__ lists missing {missing}"
        assert len(set(exported)) == len(exported), f"greenrl.{info.name}.__all__ repeats a name"
        checked += bool(exported)
    assert checked


# Benchmark span targets whose names greenrl no longer has, so their spans
# read 0 until the benchmark drops or repoints them (ROADMAP item 7).
KNOWN_DEAD_TARGETS = {
    "rl_core.linear_q_predict",
    "rl_core.linear_q_update",
    "compression.discretize",
    "neural.ReplayBuffer.push",
}


def _benchmark_targets() -> tuple:
    """``TARGETS`` of ``perfbench/spans.py``, read from its source, not imported."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} assigns no TARGETS")


def test_benchmark_hook_targets_resolve():
    """Every name the benchmark's timing hooks wrap still exists, but for the
    known-dead ones, which must stay gone.  A hook whose target is gone is
    skipped and its metrics read 0, so a deletion must be recorded here."""
    from greenrl import cloud_loop, runner

    assert runner.instantiate is cloud_loop.instantiate  # the capture hook wraps it
    dead = set()
    for span, module, path in _benchmark_targets():
        owner = importlib.import_module(f"greenrl.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            dead.add(span)
    assert dead == KNOWN_DEAD_TARGETS


def test_scipy_special_is_the_only_scipy_module_imported():
    """No greenrl module imports a scipy module but ``scipy.special``, at the
    top or inside a function: ``scipy.stats`` and ``scipy.optimize`` each
    take most of a second to load."""
    scipy = []
    for path in sorted(pathlib.Path(greenrl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            scipy += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert {".".join(name.split(".")[:2]) for _, name in scipy} == {"scipy.special"}, scipy


def test_no_module_imports_scipy_at_import_time():
    """scipy is imported only inside a function body, so a run that computes
    no paired statistic never loads it: ``scipy.special`` alone adds about
    20 MiB and 0.25 s to a process that otherwise loads numpy and greenrl."""
    found = []
    for path in sorted(pathlib.Path(greenrl.__file__).parent.glob("*.py")):
        # what runs at import: every statement outside a function body
        stack = list(ast.parse(path.read_text(), str(path)).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
                found.append((path.name, node.module))
            stack.extend(ast.iter_child_nodes(node))
    assert not found, found
