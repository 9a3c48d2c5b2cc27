"""Experiment runner: validated configs in, CSV/JSON artifacts out.

Each scenario is one pure seed function, ``run_seed(cfg, seed) -> (rows,
entry)``, that opens no file and touches no shared state; ``rows`` are the
records of the scenario's CSV, each a tuple in column order:

* ``rach`` (``run_rach_seed``): one agent (cloud DQN or a local baseline) on
  the slotted random-access environment; the rows are its ``RoundLog``, one
  record per round and entity, in ``ROUND_COLUMNS`` order.
* ``compression`` (``run_compression_seed``): trains a dense DQN, evaluates
  it pruned to each configured sparsity level, and re-runs the same session
  with pruning plus snapshot quantisation to compare energy/byte ledgers.
* ``transfer`` (``run_transfer_seed``): two single-entity coordinators on
  sites of one shared spatial traffic field, with and without
  correlation-gated parameter transfer, comparing rounds-to-threshold.  The
  two arms read one field source and play their rounds before the first
  transfer once; the baseline arm continues from forks of those sessions.
  An arm's learning curve is the mean of its two sessions' ``curve()``.

``run_experiment`` owns the one loop over a config's seeds and every write
and aggregate.  Outputs are deterministic for a given config and seed: no
timestamps, sorted JSON keys, atomic writes.  Every run directory carries a
config snapshot and its hash.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import os
import re
import tempfile
from dataclasses import asdict, replace

import numpy as np

from .agents import evaluate_greedy_agent, evaluate_greedy_net, run_local_agent
from .cloud_loop import (
    ROUND_COLUMNS,
    CompressionPlan,
    RoundLog,
    _seed_int,
    instantiate,
    run_session,
    tail_mean,
)
from .compression import prune_by_magnitude, threshold_for_sparsity
from .config import ExperimentConfig, config_from_dict, config_hash, set_by_path
from .energy import EnergyLedger
from .energy import compare as energy_compare
from .errors import ConfigError
from .neural import sync_target
from .paired import _effect_size_d, _paired_p, _paired_stats, ci95, ttest_p
from .rach_env import ExternalTraffic
from .spatial import (
    FieldNoise,
    FieldTrafficSource,
    Kernel,
    SpatialField,
    estimate_correlation,
    transfer_weights,
)

__all__ = [
    "run_experiment",
    "compare_agents",
    "sweep",
    "rounds_to_threshold",
    "run_transfer_arms",
    "ROUND_COLUMNS",
]

_SPARSITY_COLUMNS = (
    "seed", "sparsity_target", "threshold", "sparsity", "nonzero_weights", "mac_count_pruned", "reward",
)
_CURVE_COLUMNS = ("seed", "arm", "round", "reward_mean")

EVAL_SEED_OFFSET = 100000  # greedy-evaluation envs get their own seed stream


# ---------------------------------------------------------------------------
# Deterministic file output
# ---------------------------------------------------------------------------


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` exactly as given, via a temporary file and a rename."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    _atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_csv(path: str, records, columns) -> None:
    """Write a header of ``columns`` and then each record, a sequence of
    values in column order."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(records)
    _atomic_write_text(path, buf.getvalue())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def rounds_to_threshold(curve: np.ndarray, threshold: float, window: int) -> int:
    """First round whose trailing-window mean reaches the threshold.

    A crossing needs a full window of history, so a single lucky round early
    in training cannot count as convergence.  Returns the total number of
    rounds when the threshold is never reached (right-censored).
    """
    curve = np.asarray(curve, dtype=float)
    if len(curve) < window:
        return len(curve)
    sums = np.convolve(curve, np.ones(window), mode="valid")
    hits = np.nonzero(sums >= threshold * window)[0]
    return int(hits[0]) + window if hits.size else len(curve)


def _learning_curve(cfg: ExperimentConfig, curve: np.ndarray) -> dict:
    """A per-round curve, its terminal reward, and its rounds to threshold
    (None when the config sets no threshold)."""
    threshold = cfg.reward_threshold
    rtt = None if threshold is None else rounds_to_threshold(curve, threshold, cfg.threshold_window)
    terminal = tail_mean(curve, cfg.tail_fraction)
    return {"curve": curve, "terminal_reward": terminal, "rounds_to_threshold": rtt}


# ---------------------------------------------------------------------------
# Seed functions: run_seed(cfg, seed) -> (rows, entry), writing nothing
# ---------------------------------------------------------------------------


def run_rach_seed(cfg: ExperimentConfig, seed: int) -> tuple[RoundLog, dict]:
    """One seed of the single-agent scenario; returns (round log, summary).

    The training log's curve is the learning curve; ``eval_reward``
    measures the frozen greedy policy on a held-out env (seed offset by
    EVAL_SEED_OFFSET) so agents are compared at convergence without
    exploration noise.
    """
    env_cfg = cfg.rach.to_env_config()
    if cfg.agent == "dqn":
        session = instantiate(cfg.service_request(seed))
        metrics = run_session(session, cfg.rounds())
        rows, energy, reports = metrics.rows, metrics.energy, metrics.sparsity_reports
        message = rows.message_block()
        eval_reward = evaluate_greedy_net(metrics.final_net, env_cfg, cfg.eval_slots, seed + EVAL_SEED_OFFSET)
    else:
        rows, agent = run_local_agent(env_cfg, cfg.agent, cfg.agent_params, cfg.total_slots, cfg.cloud.inner_steps, seed)
        # a local agent sends no message: its block is an empty log's
        message, energy, reports = RoundLog(1).message_block(), EnergyLedger(), []
        eval_reward = evaluate_greedy_agent(agent, env_cfg, cfg.eval_slots, seed + EVAL_SEED_OFFSET)
    figures = _learning_curve(cfg, rows.curve())
    curve = figures.pop("curve")
    summary = {
        "seed": seed,
        "agent": cfg.agent,
        "rounds": int(len(curve)),
        "total_slots": cfg.total_slots,
        "eval_reward": eval_reward,
        "reward_threshold": cfg.reward_threshold,
        "message": message,
        "energy": energy.snapshot(),
        "sparsity_reports": [asdict(r) for r in reports],
        **figures,
    }
    return rows, summary


def _compressed_plan(cfg: ExperimentConfig) -> CompressionPlan:
    """The compression scenario's compressed session: pruned once, by default
    at the median magnitude a quarter of the way in, with quantised snapshots."""
    quantile, at = cfg.compression.prune_quantile, cfg.compression.prune_at_round
    return CompressionPlan(
        snapshot_bits=cfg.compression.quant_bits,
        batch_fp16=cfg.cloud.batch_fp16,
        prune_quantile=0.5 if quantile is None else quantile,
        prune_at_round=cfg.rounds() // 4 if at is None else at,
    )


def run_compression_seed(cfg: ExperimentConfig, seed: int) -> tuple[list[tuple], dict]:
    """One seed of the compression scenario; returns (sparsity-curve rows, ledger entry).

    A dense session is trained, and its final network is pruned to each
    sparsity level and evaluated greedily; then the same request runs again
    compressed, and the two sessions' ledgers are compared.
    """
    env_cfg = cfg.rach.to_env_config()
    dense_request = cfg.service_request(seed, compression=CompressionPlan())
    dense = run_session(instantiate(dense_request), cfg.rounds())
    rows = []
    for frac in cfg.compression.sparsity_levels:
        thr = threshold_for_sparsity(dense.final_net, frac)
        pruned, report = prune_by_magnitude(dense.final_net, thr)
        reward = evaluate_greedy_net(pruned, env_cfg, cfg.eval_slots, EVAL_SEED_OFFSET + seed)
        counts = (report.sparsity, report.nonzero_weights, report.mac_count_pruned)
        rows.append((seed, frac, thr, *counts, reward))
    comp_request = cfg.service_request(seed, compression=_compressed_plan(cfg))
    comp = run_session(instantiate(comp_request), cfg.rounds())
    ledger_cmp = energy_compare(dense.energy, comp.energy)
    entry = {
        "seed": seed,
        "dense_terminal_reward": dense.terminal_reward(cfg.tail_fraction),
        "compressed_terminal_reward": comp.terminal_reward(cfg.tail_fraction),
        "dense": {"message": dense.rows.message_block(), "energy": dense.energy.snapshot()},
        "compressed": {"message": comp.rows.message_block(), "energy": comp.energy.snapshot()},
        "ledger_ratios": {k: v["ratio"] for k, v in ledger_cmp.items()},
        "sparsity_reports": [asdict(r) for r in comp.sparsity_reports],
    }
    return rows, entry


def run_transfer_arms(cfg: ExperimentConfig, seed: int) -> tuple[dict, dict]:
    """Both arms of one seed, (transfer, baseline): two coordinators on one
    shared field, with and without parameter transfer.

    The arms are one computation until the first transfer, before round
    ``transfer_every``, so each session plays those rounds once; the pair
    is then forked, the transfer arm finishes on the originals and the
    baseline arm on the forks, each session numbering its own rounds.
    Both read one ``FieldTrafficSource``, whose counts depend only on the
    slot; the transfer before round r, for every r a multiple of
    ``transfer_every``, estimates its correlation on the first
    ``r * inner_steps`` slots, the ones played before round r.
    """
    sp = cfg.spatial
    children = np.random.SeedSequence([int(seed), 7077]).spawn(5)
    noise = FieldNoise(sp.noise_sigma, seed=children[0])
    field = SpatialField.line(sp.n_sites, sp.length, 0.0)
    kernel = Kernel(sp.kernel_amplitude, sp.kernel_length_scale)
    source = FieldTrafficSource(
        field, kernel, sp.squash, noise, sp.mu, seed=children[1], burn_in=sp.burn_in
    )
    base_env = cfg.rach.to_env_config()
    net_seed = _seed_int(children[4])
    sessions = []
    for idx, cell in enumerate(sp.bs_cells):
        env_cfg = replace(base_env, traffic=ExternalTraffic(source.stream_region(cell)))
        request = cfg.service_request(_seed_int(children[2 + idx]), net_seed=net_seed, env_config=env_cfg)
        sessions.append(instantiate(request))
    rounds = cfg.rounds()
    shared = min(sp.transfer_every, rounds)
    for session in sessions:
        run_session(session, shared)
    baseline = [session.fork() for session in sessions]
    correlations = []
    for r in range(shared, rounds):
        if r % sp.transfer_every == 0:
            cm = estimate_correlation(source.region_history(sp.bs_cells)[: r * cfg.cloud.inner_steps])
            correlations.append(float(cm.values[0, 1]))
            mixed = transfer_weights([s.online for s in sessions], cm, sp.beta)
            for session, net in zip(sessions, mixed):
                session.online = net
                session.target = sync_target(net)
        for session in sessions:
            session.run_round()
    transfer_arm = _arm_result(cfg, seed, True, sessions, correlations)
    sessions.clear()  # frees the transfer arm's replay rings before the forks allocate theirs
    for session in baseline:
        for _ in range(shared, rounds):
            session.run_round()
    return transfer_arm, _arm_result(cfg, seed, False, baseline, [])


def _arm_result(cfg: ExperimentConfig, seed: int, enabled: bool, sessions, correlations) -> dict:
    return {
        "seed": seed,
        "enabled": enabled,
        **_learning_curve(cfg, np.mean([s.log.curve() for s in sessions], axis=0)),
        "correlations": correlations,
        "bytes_down": sum(s.log.bytes_down for s in sessions),
        "bytes_up": sum(s.log.bytes_up for s in sessions),
    }


_TRANSFER_ARMS = ("transfer", "baseline")


def run_transfer_seed(cfg: ExperimentConfig, seed: int) -> tuple[list[tuple], dict]:
    """One seed of the transfer scenario; returns (curve rows of both arms,
    {arm: its result without the curve})."""
    arms = dict(zip(_TRANSFER_ARMS, run_transfer_arms(cfg, seed)))
    rows = [
        (seed, arm, r, reward)
        for arm, result in arms.items()
        for r, reward in enumerate(result["curve"])
    ]
    return rows, {arm: {k: v for k, v in result.items() if k != "curve"} for arm, result in arms.items()}


# ---------------------------------------------------------------------------
# The driver, and each scenario's aggregate: (cfg, per-seed entries) ->
# (summary, {file name: JSON object})
# ---------------------------------------------------------------------------


def _rach_summary(cfg: ExperimentConfig, per_seed: list[dict]) -> tuple[dict, dict]:
    terminals = np.asarray([s["terminal_reward"] for s in per_seed])
    evals = np.asarray([s["eval_reward"] for s in per_seed])
    return {
        "agent": cfg.agent,
        "seeds": list(cfg.seeds),
        "per_seed": per_seed,
        "terminal_reward_mean": float(terminals.mean()),
        "terminal_reward_std": float(terminals.std(ddof=1)) if len(terminals) > 1 else 0.0,
        "eval_reward_mean": float(evals.mean()),
        "eval_reward_std": float(evals.std(ddof=1)) if len(evals) > 1 else 0.0,
    }, {}


def _compression_summary(cfg: ExperimentConfig, per_seed: list[dict]) -> tuple[dict, dict]:
    plan = _compressed_plan(cfg)
    return {
        "agent": cfg.agent,
        "seeds": list(cfg.seeds),
        "per_seed": per_seed,
        "sparsity_levels": list(cfg.compression.sparsity_levels),
        "prune_quantile": plan.prune_quantile,
        "prune_at_round": plan.prune_at_round,
        "quant_bits": cfg.compression.quant_bits,
    }, {"ledger_comparison.json": per_seed}


def _transfer_summary(cfg: ExperimentConfig, per_seed: list[dict]) -> tuple[dict, dict]:
    arms = {arm: [entry[arm] for entry in per_seed] for arm in _TRANSFER_ARMS}

    def paired(key: str) -> list[list]:  # [transfer values, baseline values], seed by seed
        return [[result[key] for result in arms[arm]] for arm in _TRANSFER_ARMS]

    term_transfer, term_baseline = paired("terminal_reward")
    all_corr = [c for a in arms["transfer"] for c in a["correlations"]]
    summary = {
        "seeds": list(cfg.seeds),
        "rounds_to_threshold": _paired_stats(*paired("rounds_to_threshold")),
        "terminal_reward": {
            "transfer_mean": float(np.mean(term_transfer)),
            "baseline_mean": float(np.mean(term_baseline)),
            "p_transfer_drop": _paired_p(term_transfer, term_baseline, ttest_p, alternative="less"),
            "effect_size_d": _effect_size_d(
                np.asarray(term_transfer) - np.asarray(term_baseline)
            ),
        },
        "estimated_correlation_mean": float(np.mean(all_corr)) if all_corr else None,
        "per_seed": arms,
    }
    return summary, {"transfer_summary.json": dict(summary)}


# scenario: (seed function, aggregate, the run's CSV of every seed's rows and
# its columns); a rach seed's rows go to its own CSV as the seed finishes.
_SCENARIOS = {
    "rach": (run_rach_seed, _rach_summary, None, ROUND_COLUMNS),
    "compression": (run_compression_seed, _compression_summary, "sparsity_reward.csv", _SPARSITY_COLUMNS),
    "transfer": (run_transfer_seed, _transfer_summary, "transfer_curves.csv", _CURVE_COLUMNS),
}

# Files a run writes besides config.json and its seedNNNN_* files.
_RUN_ARTIFACTS = (
    "summary.json", "error.json", "sparsity_reward.csv", "ledger_comparison.json",
    "transfer_curves.csv", "transfer_summary.json",
)


def _remove_run_artifacts(run_dir: str) -> None:
    if not os.path.isdir(run_dir):
        return
    for name in os.listdir(run_dir):
        head, sep, _ = name.partition("_")
        if name in _RUN_ARTIFACTS or (sep and head.startswith("seed") and head[4:].isdigit()):
            os.remove(os.path.join(run_dir, name))


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every seed of the configured scenario and write all artifacts.

    The one loop over ``cfg.seeds`` calls the scenario's seed function, which
    writes nothing, and does every write here.  A rach seed's
    ``seedNNNN_rounds.csv`` and ``_summary.json`` are written as the seed
    finishes, so its rows are not held; the other scenarios write one CSV of
    every seed's rows and their summary files once the last seed is done.

    An earlier run's artifacts in the same directory are removed first.  A
    failure or an interrupt leaves ``config.json`` and the finished rach
    seeds' files, and records the error in ``error.json`` before
    propagating; only a run that completes writes ``summary.json``.
    """
    run_dir = cfg.run_dir()
    error_path = os.path.join(run_dir, "error.json")
    chash = config_hash(cfg)
    _remove_run_artifacts(run_dir)
    write_json(os.path.join(run_dir, "config.json"), {"hash": chash, "config": cfg.to_dict()})
    try:
        run_seed, aggregate, rows_file, columns = _SCENARIOS[cfg.scenario]
        all_rows, per_seed = [], []
        for seed in cfg.seeds:
            rows, entry = run_seed(cfg, seed)
            per_seed.append(entry)
            if rows_file is None:
                write_csv(os.path.join(run_dir, f"seed{seed:04d}_rounds.csv"), rows, columns)
                write_json(os.path.join(run_dir, f"seed{seed:04d}_summary.json"), entry)
            else:
                all_rows += rows
        if rows_file is not None:
            write_csv(os.path.join(run_dir, rows_file), all_rows, columns)
        summary, files = aggregate(cfg, per_seed)
        for name, obj in files.items():
            write_json(os.path.join(run_dir, name), obj)
    except (Exception, KeyboardInterrupt) as exc:
        write_json(
            error_path, {"error": str(exc), "type": type(exc).__name__, "config_hash": chash}
        )
        raise
    summary.update(
        {"name": cfg.name, "scenario": cfg.scenario, "config_hash": chash, "run_dir": run_dir}
    )
    write_json(os.path.join(run_dir, "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# Multi-config operations
# ---------------------------------------------------------------------------


def compare_agents(cfgs: list[ExperimentConfig]) -> dict:
    """Run several agent configs on the identical scenario and rank them.

    All configs must share the environment section, seeds, slot budget, and
    round length so per-seed results pair up.
    """
    if len(cfgs) < 2:
        raise ConfigError("compare needs at least two configs")
    names = [cfg.name for cfg in cfgs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"duplicate config name {name!r} in compare")
    base = cfgs[0]
    for other in cfgs:
        if other.scenario != "rach":
            raise ConfigError("compare only supports the rach scenario")
    for other in cfgs[1:]:
        same = (
            other.rach == base.rach
            and other.seeds == base.seeds
            and other.total_slots == base.total_slots
            and other.eval_slots == base.eval_slots
            and other.cloud.inner_steps == base.cloud.inner_steps
        )
        if not same:
            raise ConfigError(
                "compare configs must share rach section, seeds, slot budgets, inner_steps"
            )
    results = {cfg.name: run_experiment(cfg) for cfg in cfgs}
    report_rows = []
    report = {"agents": {}, "pairwise": {}}
    for name in names:
        res = results[name]
        evals = np.asarray([s["eval_reward"] for s in res["per_seed"]], dtype=float)
        entry = {
            "agent": res["agent"],
            "terminal_rewards": [s["terminal_reward"] for s in res["per_seed"]],
            "eval_rewards": evals.tolist(),
            "terminal_mean": res["terminal_reward_mean"],
            "mean": res["eval_reward_mean"],
        }
        # one seed, or seeds that all scored alike, have no spread to test
        entry["ci95"] = list(ci95(evals)) if res["eval_reward_std"] > 0 else [entry["mean"]] * 2
        rtts = [s["rounds_to_threshold"] for s in res["per_seed"]]
        if all(r is not None for r in rtts):
            entry["rounds_to_threshold_mean"] = float(np.mean(rtts))
            entry["rounds_to_threshold_median"] = float(np.median(rtts))
        report["agents"][name] = entry
        report_rows.append((name, res["agent"], entry["mean"], entry["terminal_mean"], *entry["ci95"]))
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            ta = np.asarray(report["agents"][a]["eval_rewards"])
            tb = np.asarray(report["agents"][b]["eval_rewards"])
            report["pairwise"][f"{a}>{b}"] = {
                "mean_diff": float((ta - tb).mean()),
                "p_one_sided": _paired_p(ta, tb, ttest_p, alternative="greater"),
            }
    report["ranking"] = sorted(
        names, key=lambda n: report["agents"][n]["mean"], reverse=True
    )
    out_dir = os.path.join(base.output_root(), "comparison_" + "_".join(names))
    write_json(os.path.join(out_dir, "compare_report.json"), report)
    write_csv(
        os.path.join(out_dir, "compare_table.csv"),
        sorted(report_rows, key=lambda r: -r[2]),
        ("name", "agent", "eval_reward_mean", "terminal_reward_mean", "ci95_low", "ci95_high"),
    )
    report["out_dir"] = out_dir
    return report


def _sanitize(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.+-]", "_", token)


def sweep(cfg: ExperimentConfig, param_path: str, values: list) -> dict:
    """Re-run the experiment for each value of one dotted config field."""
    if len(values) == 0:
        raise ConfigError("sweep needs at least one value")
    if cfg.scenario != "rach":
        raise ConfigError("sweep only supports the rach scenario")
    base_dict = cfg.to_dict()
    sub_cfgs = []  # every value is checked before any run writes
    for value in values:
        data = copy.deepcopy(base_dict)
        set_by_path(data, param_path, value)
        data["name"] = os.path.join(cfg.name, "sweep", _sanitize(param_path), _sanitize(str(value)))
        sub_cfgs.append(config_from_dict(data))
    rows = []
    for value, sub_cfg in zip(values, sub_cfgs):
        result = run_experiment(sub_cfg)
        per_seed = result["per_seed"]
        bytes_down = float(np.mean([s["message"]["bytes_down"] for s in per_seed]))
        bytes_up = float(np.mean([s["message"]["bytes_up"] for s in per_seed]))
        energy_proxy = float(np.mean([s["energy"]["energy_proxy"] for s in per_seed]))
        rows.append(
            {
                "param": param_path,
                "value": value,
                "terminal_reward_mean": result["terminal_reward_mean"],
                "eval_reward_mean": result["eval_reward_mean"],
                "bytes_down_mean": bytes_down,
                "bytes_up_mean": bytes_up,
                "bytes_total_mean": bytes_down + bytes_up,
                "energy_proxy_mean": energy_proxy,
            }
        )
    out_dir = os.path.join(cfg.run_dir(), "sweep", _sanitize(param_path))
    write_csv(os.path.join(out_dir, "sweep.csv"), [r.values() for r in rows], tuple(rows[0]))  # in key order
    report = {"param": param_path, "values": values, "rows": rows, "out_dir": out_dir}
    write_json(os.path.join(out_dir, "sweep.json"), {"param": param_path, "rows": rows})
    return report
