import ast
import importlib
import pathlib
import pkgutil
import sys

import numpy as np

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


def _count_calls(monkeypatch, counts: dict, module: str, path: str) -> None:
    """Swap ``greenrl.<module>.<path>`` for a counting wrapper wherever it is
    bound, as the benchmark's hooks do: a method on its class, a function in
    every loaded greenrl module that binds the same object."""
    owner = importlib.import_module(f"greenrl.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        counts[path] += 1
        return original(*args, **kwargs)

    counts[path] = 0
    if outer:
        monkeypatch.setattr(owner, attr, counted)
        return
    for name, mod in list(sys.modules.items()):
        if name == "greenrl" or name.startswith("greenrl."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)


def _hooked(monkeypatch) -> dict:
    counts: dict = {}
    _count_calls(monkeypatch, counts, "rach_env", "RachEnv.step")
    _count_calls(monkeypatch, counts, "neural", "forward")
    _count_calls(monkeypatch, counts, "rl_core", "epsilon_greedy")
    return counts


# The coordinator-path calls the benchmark's spans wrap, as perfbench/spans.py
# binds them, with their calls per entity-round.
COORDINATOR_HOOKS = {
    ("neural", "net_to_bytes"): 1,
    ("neural", "net_from_bytes"): 1,
    ("cloud_loop", "encode_snapshot"): 1,
    ("cloud_loop", "decode_snapshot"): 1,
    ("cloud_loop", "encode_sample_batch"): 1,
    ("cloud_loop", "decode_sample_batch"): 1,
    ("neural", "ReplayBuffer.sample"): 1,
    ("neural", "dqn_train_step"): 1,
    ("energy", "EnergyLedger.record_inference"): 1,
    ("energy", "EnergyLedger.record_train_step"): 1,
    ("energy", "EnergyLedger.record_message"): 2,
}


def test_benchmark_hooks_see_every_slot(monkeypatch):
    """The benchmark times the host between environment steps by wrapping
    ``RachEnv.step`` on the class, and traces ``forward`` and
    ``epsilon_greedy`` through their module attributes.  A slot loop that
    went round them would leave the host probes empty and fail the
    benchmark's run, so every slot must call them through those names:
    K x entities steps per round, one ``forward`` and one ``epsilon_greedy``
    per greedy slot, and one step per evaluation slot.  The coordinator's
    codec, replay, learner and ledger calls are traced the same way, so in
    either mode each entity-round calls each of them once through its name
    (``record_message`` twice, one message each way)."""
    from greenrl.agents import LocalAgentParams, evaluate_greedy_agent, evaluate_greedy_net, make_agent
    from greenrl.cloud_loop import MODES, DqnConfig, ServiceRequest, Session
    from greenrl.config import DEFAULT_MENU
    from greenrl.rach_env import BernoulliTraffic, RachConfig

    counts = _hooked(monkeypatch)
    coordinator: dict = {}
    for module, path in COORDINATOR_HOOKS:
        _count_calls(monkeypatch, coordinator, module, path)
    per_round = {path: calls for (_module, path), calls in COORDINATOR_HOOKS.items()}
    env_cfg = RachConfig(20, DEFAULT_MENU, 2, BernoulliTraffic(0.1))
    k, entities = 5, (0, 1, 2)
    for mode in MODES:
        for eps, greedy in ((0.0, "all"), (1.0, "none"), (0.5, "some")):
            dqn = DqnConfig(hidden=(8,), batch_size=4, eps_start=eps, eps_end=eps)
            session = Session(ServiceRequest(entities, env_cfg, inner_steps=k, mode=mode, dqn=dqn, seed=1))
            for _ in range(3):
                counts.update(dict.fromkeys(counts, 0))
                coordinator.update(dict.fromkeys(coordinator, 0))
                session.run_round()
                assert counts["RachEnv.step"] == k * len(entities)
                assert counts["forward"] == counts["epsilon_greedy"]
                n_greedy = {"all": k * len(entities), "none": 0}.get(greedy)
                if n_greedy is not None:
                    assert counts["forward"] == n_greedy
                assert coordinator == {path: calls * len(entities) for path, calls in per_round.items()}
            if greedy == "some":
                assert 0 < counts["forward"] < k * len(entities)

    slots = 7
    counts.update(dict.fromkeys(counts, 0))
    evaluate_greedy_net(session.online, env_cfg, slots, seed=2)
    assert counts == {"RachEnv.step": slots, "forward": slots, "epsilon_greedy": slots}
    for kind, greedy_calls in (("la-q", slots), ("tabular", slots), ("le-urc", 0)):
        agent = make_agent(kind, env_cfg, LocalAgentParams(), np.random.default_rng(0))
        counts.update(dict.fromkeys(counts, 0))
        evaluate_greedy_agent(agent, env_cfg, slots, seed=2)
        assert counts == {"RachEnv.step": slots, "forward": 0, "epsilon_greedy": greedy_calls}
