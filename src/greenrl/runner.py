"""Experiment runner: validated configs in, CSV/JSON artifacts out.

Three scenarios:

* ``rach``: one agent (cloud DQN or a local baseline) on the slotted
  random-access environment, one run per seed.
* ``compression``: trains a dense DQN per seed, emits the sparsity-vs-reward
  curve at configured sparsity levels, and re-runs the same session with
  pruning plus snapshot quantisation to compare energy/byte ledgers.
* ``transfer``: two single-entity coordinators on sites of one shared
  spatial traffic field, with and without correlation-gated parameter
  transfer, comparing rounds-to-threshold.

Outputs are deterministic for a given config and seed: no timestamps, sorted
JSON keys, atomic writes.  Every run directory carries a config snapshot and
its hash.
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
    CompressionPlan,
    ServiceRequest,
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
    "per_round_curve",
    "rounds_to_threshold",
    "run_transfer_arm",
    "ROUND_COLUMNS",
]

ROUND_COLUMNS = (
    "round",
    "entity",
    "reward_mean",
    "loss",
    "epsilon",
    "staleness",
    "bytes_down_total",
    "bytes_up_total",
)

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


def write_csv(path: str, rows, columns) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows([row[c] for c in columns] for row in rows)
    _atomic_write_text(path, buf.getvalue())


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def per_round_curve(rows) -> np.ndarray:
    """Mean reward per round, averaged over entities.

    Rounds with the same number of entities are averaged together by one
    ``mean(axis=1)`` over their (rounds, entities) matrix, which reduces each
    row as ``np.mean`` reduces that round's list, so a curve takes one numpy
    call per distinct round size rather than one per round.
    """
    by_round: dict[int, list[float]] = {}
    for row in rows:
        by_round.setdefault(row["round"], []).append(row["reward_mean"])
    rounds = [by_round[r] for r in sorted(by_round)]
    by_size: dict[int, list[int]] = {}
    for i, values in enumerate(rounds):
        by_size.setdefault(len(values), []).append(i)
    curve = np.empty(len(rounds))
    for idx in by_size.values():
        curve[idx] = np.array([rounds[i] for i in idx], dtype=float).mean(axis=1)
    return curve


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


# ---------------------------------------------------------------------------
# Single-agent runs (scenario "rach")
# ---------------------------------------------------------------------------


def _ledger_dicts(metrics) -> tuple[dict, dict]:
    msg = metrics.message_ledger
    message = {
        "rounds": msg.rounds,
        "bytes_down": msg.bytes_down,
        "bytes_up": msg.bytes_up,
        "staleness_histogram": {str(k): v for k, v in sorted(msg.staleness_histogram.items())},
    }
    return message, metrics.energy.snapshot()


def run_rach_seed(cfg: ExperimentConfig, seed: int) -> tuple[list[dict], dict]:
    """One seed of the single-agent scenario; returns (rows, summary).

    Training rows feed the learning curve; ``eval_reward`` measures the
    frozen greedy policy on a held-out env (seed offset by EVAL_SEED_OFFSET)
    so agents are compared at convergence without exploration noise.
    """
    env_cfg = cfg.rach.to_env_config()
    if cfg.agent == "dqn":
        session = instantiate(cfg.service_request(seed))
        metrics = run_session(session, cfg.rounds(), cfg.cloud.mode)
        rows = metrics.rows
        message, energy_snapshot = _ledger_dicts(metrics)
        sparsity = [asdict(r) for r in metrics.sparsity_reports]
        eval_reward = evaluate_greedy_net(
            metrics.final_net,
            env_cfg,
            cfg.eval_slots,
            float(env_cfg.max_opportunities),
            seed + EVAL_SEED_OFFSET,
        )
    else:
        rows, agent = run_local_agent(
            env_cfg,
            cfg.agent,
            cfg.agent_params,
            cfg.total_slots,
            cfg.cloud.inner_steps,
            seed,
        )
        message = {"rounds": 0, "bytes_down": 0, "bytes_up": 0, "staleness_histogram": {}}
        energy_snapshot = EnergyLedger().snapshot()
        sparsity = []
        eval_reward = evaluate_greedy_agent(agent, env_cfg, cfg.eval_slots, seed + EVAL_SEED_OFFSET)
    curve = per_round_curve(rows)
    summary = {
        "seed": seed,
        "agent": cfg.agent,
        "rounds": int(len(curve)),
        "total_slots": cfg.total_slots,
        "terminal_reward": tail_mean(curve, cfg.tail_fraction),
        "eval_reward": eval_reward,
        "rounds_to_threshold": (
            rounds_to_threshold(curve, cfg.reward_threshold, cfg.threshold_window)
            if cfg.reward_threshold is not None
            else None
        ),
        "reward_threshold": cfg.reward_threshold,
        "message": message,
        "energy": energy_snapshot,
        "sparsity_reports": sparsity,
    }
    return rows, summary


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


def _write_seed_outputs(run_dir: str, seed: int, rows, summary) -> None:
    write_csv(os.path.join(run_dir, f"seed{seed:04d}_rounds.csv"), rows, ROUND_COLUMNS)
    write_json(os.path.join(run_dir, f"seed{seed:04d}_summary.json"), summary)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run every seed of the configured scenario and write all artifacts.

    The artifacts of an earlier run in the same directory are removed first,
    so every file there belongs to this run.  A mid-run failure leaves this
    run's partial outputs in place and records the error in ``error.json``
    before propagating.
    """
    run_dir = cfg.run_dir()
    error_path = os.path.join(run_dir, "error.json")
    chash = config_hash(cfg)
    _remove_run_artifacts(run_dir)
    write_json(os.path.join(run_dir, "config.json"), {"hash": chash, "config": cfg.to_dict()})
    try:
        if cfg.scenario == "rach":
            aggregate = _run_rach(cfg, run_dir)
        elif cfg.scenario == "compression":
            aggregate = _run_compression(cfg, run_dir)
        elif cfg.scenario == "transfer":
            aggregate = _run_transfer(cfg, run_dir)
        else:  # pragma: no cover - scenario validated at config build
            raise ConfigError(f"unknown scenario {cfg.scenario!r}")
    except Exception as exc:
        write_json(
            error_path, {"error": str(exc), "type": type(exc).__name__, "config_hash": chash}
        )
        raise
    aggregate.update(
        {"name": cfg.name, "scenario": cfg.scenario, "config_hash": chash, "run_dir": run_dir}
    )
    write_json(os.path.join(run_dir, "summary.json"), aggregate)
    return aggregate


def _run_rach(cfg: ExperimentConfig, run_dir: str) -> dict:
    per_seed = []
    for seed in cfg.seeds:
        rows, summary = run_rach_seed(cfg, seed)
        _write_seed_outputs(run_dir, seed, rows, summary)
        per_seed.append(summary)
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
    }


# ---------------------------------------------------------------------------
# Scenario "compression"
# ---------------------------------------------------------------------------


def _run_compression(cfg: ExperimentConfig, run_dir: str) -> dict:
    env_cfg = cfg.rach.to_env_config()
    norm = float(env_cfg.max_opportunities)
    quantile = cfg.compression.prune_quantile if cfg.compression.prune_quantile is not None else 0.5
    prune_round = cfg.compression.prune_at_round or max(0, cfg.rounds() // 4)
    curve_rows: list[dict] = []
    per_seed = []
    for seed in cfg.seeds:
        dense_req = cfg.service_request(seed, compression=CompressionPlan())
        dense = instantiate(dense_req)
        dense_metrics = run_session(dense, cfg.rounds(), cfg.cloud.mode)
        final = dense_metrics.final_net
        for frac in cfg.compression.sparsity_levels:
            thr = threshold_for_sparsity(final, frac)
            pruned, report = prune_by_magnitude(final, thr)
            reward = evaluate_greedy_net(
                pruned, env_cfg, cfg.eval_slots, norm, EVAL_SEED_OFFSET + seed
            )
            curve_rows.append(
                {
                    "seed": seed,
                    "sparsity_target": frac,
                    "threshold": thr,
                    "sparsity": report.sparsity,
                    "nonzero_weights": report.nonzero_weights,
                    "mac_count_pruned": report.mac_count_pruned,
                    "reward": reward,
                }
            )
        comp_plan = CompressionPlan(
            snapshot_bits=cfg.compression.quant_bits,
            batch_fp16=cfg.cloud.batch_fp16,
            prune_quantile=quantile,
            prune_at_round=prune_round,
        )
        comp = instantiate(cfg.service_request(seed, compression=comp_plan))
        comp_metrics = run_session(comp, cfg.rounds(), cfg.cloud.mode)
        ledger_cmp = energy_compare(dense_metrics.energy, comp_metrics.energy)
        dense_msg, dense_energy = _ledger_dicts(dense_metrics)
        comp_msg, comp_energy = _ledger_dicts(comp_metrics)
        per_seed.append(
            {
                "seed": seed,
                "dense_terminal_reward": dense_metrics.terminal_reward(cfg.tail_fraction),
                "compressed_terminal_reward": comp_metrics.terminal_reward(cfg.tail_fraction),
                "dense": {"message": dense_msg, "energy": dense_energy},
                "compressed": {"message": comp_msg, "energy": comp_energy},
                "ledger_ratios": {k: v["ratio"] for k, v in ledger_cmp.items()},
                "sparsity_reports": [asdict(r) for r in comp_metrics.sparsity_reports],
            }
        )
    write_csv(
        os.path.join(run_dir, "sparsity_reward.csv"),
        curve_rows,
        (
            "seed",
            "sparsity_target",
            "threshold",
            "sparsity",
            "nonzero_weights",
            "mac_count_pruned",
            "reward",
        ),
    )
    write_json(os.path.join(run_dir, "ledger_comparison.json"), per_seed)
    return {
        "agent": cfg.agent,
        "seeds": list(cfg.seeds),
        "per_seed": per_seed,
        "sparsity_levels": list(cfg.compression.sparsity_levels),
        "prune_quantile": quantile,
        "prune_at_round": prune_round,
        "quant_bits": cfg.compression.quant_bits,
    }


# ---------------------------------------------------------------------------
# Scenario "transfer"
# ---------------------------------------------------------------------------


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, np.uint64)[0] % (2**63))


def run_transfer_arm(cfg: ExperimentConfig, seed: int, enabled: bool) -> dict:
    """Two coordinators on one shared field, optional parameter transfer."""
    threshold = cfg.reward_threshold
    if threshold is None:
        raise ConfigError("transfer scenario needs reward_threshold")
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
    plan = CompressionPlan(snapshot_bits=cfg.cloud.snapshot_bits, batch_fp16=cfg.cloud.batch_fp16)
    sessions = []
    for idx, cell in enumerate(sp.bs_cells):
        env_cfg = replace(base_env, traffic=ExternalTraffic(source.stream_region(cell)))
        request = ServiceRequest(
            entity_ids=(0,),
            env_config=env_cfg,
            inner_steps=cfg.cloud.inner_steps,
            dqn=cfg.cloud.dqn_config(),
            compression=plan,
            seed=_seed_int(children[2 + idx]),
            net_seed=net_seed,
        )
        sessions.append(instantiate(request))
    rounds = cfg.rounds()
    rows = []
    correlations = []
    for r in range(rounds):
        for session in sessions:
            rows += session.run_round(r)
        if enabled and (r + 1) % sp.transfer_every == 0 and (r + 1) < rounds:
            cm = estimate_correlation(source.region_history(sp.bs_cells))
            correlations.append(float(cm.values[0, 1]))
            mixed = transfer_weights([s.online for s in sessions], cm, sp.beta)
            for session, net in zip(sessions, mixed):
                session.online = net
                session.target = sync_target(net)
    curve = per_round_curve(rows)
    return {
        "seed": seed,
        "enabled": enabled,
        "curve": curve,
        "rounds_to_threshold": rounds_to_threshold(curve, threshold, cfg.threshold_window),
        "terminal_reward": tail_mean(curve, cfg.tail_fraction),
        "correlations": correlations,
        "bytes_down": sum(s.message_ledger.bytes_down for s in sessions),
        "bytes_up": sum(s.message_ledger.bytes_up for s in sessions),
    }


def _run_transfer(cfg: ExperimentConfig, run_dir: str) -> dict:
    curve_rows = []
    arms: dict[bool, list[dict]] = {True: [], False: []}
    for seed in cfg.seeds:
        for enabled in (True, False):
            result = run_transfer_arm(cfg, seed, enabled)
            arms[enabled].append(result)
            for r, reward in enumerate(result["curve"]):
                curve_rows.append(
                    {
                        "seed": seed,
                        "arm": "transfer" if enabled else "baseline",
                        "round": r,
                        "reward_mean": reward,
                    }
                )
    write_csv(
        os.path.join(run_dir, "transfer_curves.csv"),
        curve_rows,
        ("seed", "arm", "round", "reward_mean"),
    )
    rtt_stats = _paired_stats(
        [a["rounds_to_threshold"] for a in arms[True]],
        [a["rounds_to_threshold"] for a in arms[False]],
    )
    term_transfer = [a["terminal_reward"] for a in arms[True]]
    term_baseline = [a["terminal_reward"] for a in arms[False]]
    all_corr = [c for a in arms[True] for c in a["correlations"]]
    summary = {
        "seeds": list(cfg.seeds),
        "rounds_to_threshold": rtt_stats,
        "terminal_reward": {
            "transfer_mean": float(np.mean(term_transfer)),
            "baseline_mean": float(np.mean(term_baseline)),
            "p_transfer_drop": _paired_p(term_transfer, term_baseline, ttest_p, alternative="less"),
            "effect_size_d": _effect_size_d(
                np.asarray(term_transfer) - np.asarray(term_baseline)
            ),
        },
        "estimated_correlation_mean": float(np.mean(all_corr)) if all_corr else None,
        "per_seed": {
            "transfer": [
                {k: v for k, v in a.items() if k != "curve"} for a in arms[True]
            ],
            "baseline": [
                {k: v for k, v in a.items() if k != "curve"} for a in arms[False]
            ],
        },
    }
    write_json(os.path.join(run_dir, "transfer_summary.json"), summary)
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
    names = []
    results = {}
    for cfg in cfgs:
        if cfg.name in results:
            raise ConfigError(f"duplicate config name {cfg.name!r} in compare")
        results[cfg.name] = run_experiment(cfg)
        names.append(cfg.name)
    report_rows = []
    report = {"agents": {}, "pairwise": {}}
    for name in names:
        res = results[name]
        terminals = np.asarray([s["terminal_reward"] for s in res["per_seed"]], dtype=float)
        evals = np.asarray([s["eval_reward"] for s in res["per_seed"]], dtype=float)
        entry = {
            "agent": res["agent"],
            "terminal_rewards": terminals.tolist(),
            "eval_rewards": evals.tolist(),
            "terminal_mean": float(terminals.mean()),
            "mean": float(evals.mean()),
        }
        if len(evals) > 1 and evals.std(ddof=1) > 0:
            entry["ci95"] = list(ci95(evals))
        else:
            entry["ci95"] = [float(evals.mean()), float(evals.mean())]
        rtts = [s["rounds_to_threshold"] for s in res["per_seed"]]
        if all(r is not None for r in rtts):
            entry["rounds_to_threshold_mean"] = float(np.mean(rtts))
            entry["rounds_to_threshold_median"] = float(np.median(rtts))
        report["agents"][name] = entry
        report_rows.append(
            {
                "name": name,
                "agent": res["agent"],
                "eval_reward_mean": entry["mean"],
                "terminal_reward_mean": entry["terminal_mean"],
                "ci95_low": entry["ci95"][0],
                "ci95_high": entry["ci95"][1],
            }
        )
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
        sorted(report_rows, key=lambda r: -r["eval_reward_mean"]),
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
    set_by_path(copy.deepcopy(base_dict), param_path, values[0])  # path check up front
    rows = []
    per_value = {}
    for value in values:
        data = copy.deepcopy(base_dict)
        set_by_path(data, param_path, value)
        data["name"] = os.path.join(cfg.name, "sweep", _sanitize(param_path), _sanitize(str(value)))
        sub_cfg = config_from_dict(data)
        result = run_experiment(sub_cfg)
        per_seed = result["per_seed"]
        terminals = np.asarray([s["terminal_reward"] for s in per_seed], dtype=float)
        evals = np.asarray([s["eval_reward"] for s in per_seed], dtype=float)
        bytes_down = float(np.mean([s["message"]["bytes_down"] for s in per_seed]))
        bytes_up = float(np.mean([s["message"]["bytes_up"] for s in per_seed]))
        energy_proxy = float(np.mean([s["energy"]["energy_proxy"] for s in per_seed]))
        rows.append(
            {
                "param": param_path,
                "value": value,
                "terminal_reward_mean": float(terminals.mean()),
                "eval_reward_mean": float(evals.mean()),
                "bytes_down_mean": bytes_down,
                "bytes_up_mean": bytes_up,
                "bytes_total_mean": bytes_down + bytes_up,
                "energy_proxy_mean": energy_proxy,
            }
        )
        per_value[str(value)] = result
    out_dir = os.path.join(cfg.run_dir(), "sweep", _sanitize(param_path))
    write_csv(
        os.path.join(out_dir, "sweep.csv"),
        rows,
        (
            "param",
            "value",
            "terminal_reward_mean",
            "eval_reward_mean",
            "bytes_down_mean",
            "bytes_up_mean",
            "bytes_total_mean",
            "energy_proxy_mean",
        ),
    )
    report = {"param": param_path, "values": values, "rows": rows, "out_dir": out_dir}
    write_json(os.path.join(out_dir, "sweep.json"), {"param": param_path, "rows": rows})
    return report
