"""The benchmark's workloads: a workload seed in, greenrl config dicts out.

Each workload is one experiment shape taken from the acceptance criteria,
shortened so that one run of it takes a few seconds.  The program sees only
the generated config dicts; the workload seed picks the experiment's
``seeds`` list and nothing else.
"""

from __future__ import annotations

# Settings of the agent-ordering criterion (test_c01): traffic, learner and
# local-agent schedules.
C01_RACH = {"traffic_p": 0.08}
C01_CLOUD = {
    "inner_steps": 2,
    "lr": 0.001,
    "batch_size": 128,
    "target_sync_every": 100,
    "eps_decay_steps": 2500,
    "replay_capacity": 8000,
}
C01_AGENT_PARAMS = {"eps_decay_steps": 6000}

# Settings of the transfer criterion (test_c09).
C09_CLOUD = {
    "inner_steps": 4,
    "lr": 0.0025,
    "batch_size": 128,
    "target_sync_every": 100,
    "eps_decay_steps": 250,
    "replay_capacity": 3000,
}

LOCAL_AGENTS = ("la-q", "le-urc", "tabular")

# name -> (experiment seeds, total_slots, eval_slots) at full size and tiny
SIZES = {
    "dqn-train": ((2, 1000, 300), (2, 160, 40)),
    "fleet-compress": ((2, 800, 200), (1, 128, 40)),
    "field-transfer": ((2, 600, 1000), (2, 240, 1000)),  # eval_slots unused
    "local-baselines": ((2, 2000, 500), (2, 160, 40)),
}

WORKLOADS = tuple(SIZES)


def experiment_seeds(seed: int, count: int) -> list[int]:
    """The experiment's seed list for one workload seed."""
    return [seed * 100 + i for i in range(count)]


def config_dicts(workload: str, seed: int, out_dir: str, tiny: bool = False) -> list[dict]:
    """The config dicts one repetition of ``workload`` runs."""
    n_seeds, total_slots, eval_slots = SIZES[workload][1 if tiny else 0]
    common = {
        "seeds": experiment_seeds(seed, n_seeds),
        "total_slots": total_slots,
        "eval_slots": eval_slots,
        "out_dir": out_dir,
    }
    if workload == "dqn-train":
        return [
            {
                "name": "dqn-train",
                "scenario": "rach",
                "agent": "dqn",
                "rach": C01_RACH,
                "cloud": C01_CLOUD,
                **common,
            }
        ]
    if workload == "fleet-compress":
        return [
            {
                "name": "fleet-compress",
                "scenario": "compression",
                "agent": "dqn",
                "cloud": {
                    "n_entities": 4,
                    "inner_steps": 32,
                    "batch_size": 32,
                    "batch_fp16": True,
                    "eps_decay_steps": 200,
                },
                "compression": {"prune_quantile": 0.5, "quant_bits": 8},
                **common,
            }
        ]
    if workload == "field-transfer":
        return [
            {
                "name": "field-transfer",
                "scenario": "transfer",
                "agent": "dqn",
                "reward_threshold": 9.0,
                "threshold_window": 25,
                "cloud": C09_CLOUD,
                **common,
            }
        ]
    if workload == "local-baselines":
        return [
            {
                "name": f"local-{agent}",
                "scenario": "rach",
                "agent": agent,
                "rach": C01_RACH,
                "cloud": {"inner_steps": C01_CLOUD["inner_steps"]},
                "agent_params": C01_AGENT_PARAMS,
                **common,
            }
            for agent in LOCAL_AGENTS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def run(runner, workload: str, cfgs: list) -> dict:
    """Drive the program through its public entry points."""
    if workload == "local-baselines":
        return runner.compare_agents(cfgs)
    return runner.run_experiment(cfgs[0])


def slot_counts(cfgs: list) -> tuple[int, int]:
    """(training slots, greedy-eval slots) the workload steps, from its config."""
    train = evals = 0
    for cfg in cfgs:
        per_entity = cfg.rounds() * cfg.cloud.inner_steps
        n = len(cfg.seeds)
        if cfg.scenario == "rach" and cfg.agent == "dqn":
            train += n * per_entity * cfg.cloud.n_entities
            evals += n * cfg.eval_slots
        elif cfg.scenario == "rach":
            train += n * cfg.total_slots
            evals += n * cfg.eval_slots
        elif cfg.scenario == "compression":
            train += n * 2 * per_entity * cfg.cloud.n_entities  # dense + compressed
            evals += n * len(cfg.compression.sparsity_levels) * cfg.eval_slots
        elif cfg.scenario == "transfer":
            train += n * 2 * len(cfg.spatial.bs_cells) * per_entity  # two arms
    return train, evals


def reward(workload: str, result: dict) -> float:
    """The workload's headline outcome, in reward per slot."""
    if workload == "dqn-train":
        values = [s["eval_reward"] for s in result["per_seed"]]
    elif workload == "fleet-compress":
        values = [s["compressed_terminal_reward"] for s in result["per_seed"]]
    elif workload == "field-transfer":
        values = [a["terminal_reward"] for a in result["per_seed"]["transfer"]]
    else:
        values = [r for entry in result["agents"].values() for r in entry["eval_rewards"]]
    return sum(values) / len(values)
