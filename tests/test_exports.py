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


def test_benchmark_hook_targets_resolve():
    """The names the benchmark's timing and capture hooks wrap still exist.
    A hook whose target is gone is skipped, and its metrics read 0."""
    from greenrl import agents, cloud_loop, compression, neural, runner, spatial

    assert runner.instantiate is cloud_loop.instantiate
    for owner, name in (
        (cloud_loop.Session, "outer_round"),
        (cloud_loop.Session, "train_on_batch"),
        (runner, "write_csv"),
        (agents, "run_local_agent"),
        (agents, "evaluate_greedy_net"),
        *((neural, name) for name in (
            "forward", "net_to_bytes", "net_from_bytes", "dqn_train_step", "batch_loss", "backprop_minibatch",
        )),
        (neural.ReplayBuffer, "sample"),
        (neural.ReplayBuffer, "push"),
        (compression, "prune_by_magnitude"),
        (compression, "threshold_for_sparsity"),
        (spatial, "transfer_weights"),
    ):
        assert callable(getattr(owner, name, None)), name


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
