import importlib
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
    from greenrl import agents, cloud_loop, runner

    assert runner.instantiate is cloud_loop.instantiate
    for owner, name in (
        (cloud_loop.Session, "outer_round"),
        (cloud_loop.Session, "train_on_batch"),
        (runner, "write_csv"),
        (agents, "run_local_agent"),
    ):
        assert callable(getattr(owner, name, None)), name
