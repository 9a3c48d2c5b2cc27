"""Output checks and the path-independent output digest.

Every check is tied to one operation (one seed of one experiment); a seed
with any failed check counts as a failed operation.  The checks read the
artifacts the run wrote, plus the ledger totals of the sessions the run
created (see ``spans.SessionLog``) where the artifacts do not carry them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

# Fields that name the output location; two identical runs in different
# out_dirs differ only in these and in config.json.
PATH_FIELDS = ("config_hash", "run_dir")


def _ledger_problems(message: dict, energy: dict) -> list[str]:
    problems = []
    if message["bytes_down"] + message["bytes_up"] != energy["bytes_wire"]:
        problems.append(
            f"bytes_down + bytes_up = {message['bytes_down'] + message['bytes_up']}"
            f" but bytes_wire = {energy['bytes_wire']}"
        )
    counters = (
        energy["macs_inference"] + energy["macs_training"] + energy["mem_accesses"]
        + energy["bytes_wire"]
    )
    if energy["energy_proxy"] != counters:
        problems.append(f"energy_proxy {energy['energy_proxy']} != counter sum {counters}")
    return problems


def _session_problems(record: dict, rounds: int) -> list[str]:
    problems = _ledger_problems(record["message"], record["energy"])
    if record["message"]["rounds"] != rounds:
        problems.append(f"session ran {record['message']['rounds']} rounds, expected {rounds}")
    return problems


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _rach_seed(cfg, seed: int) -> list[str]:
    stem = os.path.join(cfg.run_dir(), f"seed{seed:04d}")
    summary = _read_json(stem + "_summary.json")
    rows = _read_csv(stem + "_rounds.csv")
    entities = cfg.cloud.n_entities if cfg.agent == "dqn" else 1
    problems = _ledger_problems(summary["message"], summary["energy"])
    if len(rows) != cfg.rounds() * entities:
        problems.append(f"round CSV has {len(rows)} rows, expected {cfg.rounds() * entities}")
    elif (
        int(rows[-1]["bytes_down_total"]) != summary["message"]["bytes_down"]
        or int(rows[-1]["bytes_up_total"]) != summary["message"]["bytes_up"]
    ):
        problems.append("final bytes_*_total of the round CSV differ from the seed summary")
    return problems


def check_outputs(workload: str, cfgs: list, sessions: list[dict]) -> dict:
    """Map each failed operation ``(config name, seed)`` to its problems.

    ``sessions`` holds the ledger totals of every session the run created,
    in creation order.  When none were captured (a refactor stopped
    creating sessions through ``instantiate``) the session checks are
    skipped; any other count is a failure.
    """
    failures: dict = {}
    cfg = cfgs[0]
    per_seed_sessions = {"dqn-train": 1, "fleet-compress": 2, "field-transfer": 4}.get(workload, 0)
    expected = per_seed_sessions * len(cfg.seeds)
    if sessions and len(sessions) != expected:
        return {
            (c.name, seed): [f"captured {len(sessions)} sessions, expected {expected}"]
            for c in cfgs
            for seed in c.seeds
        }

    if workload in ("dqn-train", "local-baselines"):
        for c in cfgs:
            for seed in c.seeds:
                failures[(c.name, seed)] = _rach_seed(c, seed)
        for i, record in enumerate(sessions):
            failures[(cfg.name, cfg.seeds[i])] += _session_problems(
                record, cfg.rounds() * cfg.cloud.n_entities
            )
    elif workload == "fleet-compress":
        summary = _read_json(os.path.join(cfg.run_dir(), "summary.json"))
        curve = _read_csv(os.path.join(cfg.run_dir(), "sparsity_reward.csv"))
        levels = len(cfg.compression.sparsity_levels)
        for i, (seed, entry) in enumerate(zip(cfg.seeds, summary["per_seed"])):
            problems = failures[(cfg.name, seed)] = []
            for arm in ("dense", "compressed"):
                problems += _ledger_problems(entry[arm]["message"], entry[arm]["energy"])
            rows = sum(1 for row in curve if int(row["seed"]) == seed)
            if rows != levels:
                problems.append(f"sparsity curve has {rows} rows for the seed, expected {levels}")
            for arm, record in zip(("dense", "compressed"), sessions[2 * i : 2 * i + 2]):
                problems += _session_problems(record, cfg.rounds() * cfg.cloud.n_entities)
                if record["message"]["bytes_up"] != entry[arm]["message"]["bytes_up"]:
                    problems.append(f"{arm} bytes_up differ between session and summary")
    elif workload == "field-transfer":
        summary = _read_json(os.path.join(cfg.run_dir(), "transfer_summary.json"))
        curve = _read_csv(os.path.join(cfg.run_dir(), "transfer_curves.csv"))
        for i, seed in enumerate(cfg.seeds):
            problems = failures[(cfg.name, seed)] = []
            rows = sum(1 for row in curve if int(row["seed"]) == seed)
            if rows != 2 * cfg.rounds():
                problems.append(f"transfer curve has {rows} rows for the seed, expected {2 * cfg.rounds()}")
            arms = (summary["per_seed"]["transfer"][i], summary["per_seed"]["baseline"][i])
            for j, arm in enumerate(arms):
                records = sessions[4 * i + 2 * j : 4 * i + 2 * j + 2]
                for record in records:
                    problems += _session_problems(record, cfg.rounds())
                if records and sum(r["message"]["bytes_up"] for r in records) != arm["bytes_up"]:
                    problems.append("arm bytes_up differ between sessions and summary")
                if records and sum(r["message"]["bytes_down"] for r in records) != arm["bytes_down"]:
                    problems.append("arm bytes_down differ between sessions and summary")
    return {op: problems for op, problems in failures.items() if problems}


def _strip_paths(obj):
    if isinstance(obj, dict):
        return {k: _strip_paths(v) for k, v in obj.items() if k not in PATH_FIELDS}
    if isinstance(obj, list):
        return [_strip_paths(v) for v in obj]
    return obj


def output_digest(out_root: str) -> tuple[str, int]:
    """sha256 over every artifact under ``out_root`` but config.json, and their total size.

    Files are taken in relative-path order; JSON files are hashed after the
    path fields are dropped, so the digest does not depend on ``out_dir``.
    """
    digest = hashlib.sha256()
    total = 0
    paths = []
    for dirpath, _dirs, files in os.walk(out_root):
        paths += [os.path.join(dirpath, name) for name in files]
    for path in sorted(paths, key=lambda p: os.path.relpath(p, out_root)):
        rel = os.path.relpath(path, out_root)
        with open(path, "rb") as fh:
            data = fh.read()
        total += len(data)
        if os.path.basename(path) == "config.json":
            continue
        if path.endswith(".json"):
            data = json.dumps(_strip_paths(json.loads(data)), sort_keys=True).encode()
        digest.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest(), total
