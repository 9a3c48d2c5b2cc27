"""Golden digests of the deterministic artifacts of small fixed configs.

Each config below runs end to end through ``run_experiment`` and every file
it writes is hashed with sha256.  A refactor that claims to leave outputs
unchanged must keep these digests bit for bit; a change that moves them on
purpose must say why and re-pin them.

``config.json`` is left out, and so are the ``config_hash`` and ``run_dir``
fields of ``summary.json``: ``config_hash`` hashes ``out_dir``, which is a
fresh temporary directory on every run.

The digests are pinned to the numpy build and BLAS library of the machine
they were recorded on (numpy 2.4.6 with its bundled OpenBLAS, x86-64,
Python 3.11).  Another BLAS may round matrix products differently and move
the DQN digests without any change to the code.
"""

import hashlib
import json
import os

import pytest

from greenrl.config import config_from_dict
from greenrl.runner import run_experiment

# Replay capacities are small so the replay buffer wraps many times, and
# 8-row uploads into a capacity of 100 wrap in the middle of a batch.
CONFIGS = {
    "rach-dqn": {
        "scenario": "rach",
        "agent": "dqn",
        "seeds": [0, 1],
        "total_slots": 1200,
        "eval_slots": 300,
        "cloud": {
            "inner_steps": 2,
            "batch_size": 32,
            "replay_capacity": 250,
            "target_sync_every": 50,
            "eps_decay_steps": 300,
        },
    },
    # concurrent rounds: each upload is trained on as many steps late as its
    # entity's position in the round
    "rach-dqn-concurrent": {
        "scenario": "rach",
        "agent": "dqn",
        "seeds": [0],
        "total_slots": 240,
        "eval_slots": 200,
        "cloud": {
            "inner_steps": 4,
            "n_entities": 3,
            "mode": "concurrent",
            "batch_size": 16,
            "replay_capacity": 100,
            "target_sync_every": 20,
            "eps_decay_steps": 60,
        },
    },
    "rach-la-q": {
        "scenario": "rach",
        "agent": "la-q",
        "seeds": [0, 1],
        "total_slots": 1200,
        "eval_slots": 300,
        "cloud": {"inner_steps": 2},
        "agent_params": {"eps_decay_steps": 600},
    },
    "rach-tabular": {
        "scenario": "rach",
        "agent": "tabular",
        "seeds": [0, 1],
        "total_slots": 1200,
        "eval_slots": 300,
        "cloud": {"inner_steps": 2},
        "agent_params": {"eps_decay_steps": 600, "levels": 5},
    },
    "rach-le-urc": {
        "scenario": "rach",
        "agent": "le-urc",
        "seeds": [0, 1],
        "total_slots": 1200,
        "eval_slots": 300,
        "cloud": {"inner_steps": 2},
    },
    "compression": {
        "scenario": "compression",
        "agent": "dqn",
        "seeds": [0],
        "total_slots": 640,
        "eval_slots": 200,
        "cloud": {
            "inner_steps": 8,
            "n_entities": 2,
            "replay_capacity": 100,
            "batch_fp16": True,
            "eps_decay_steps": 60,
            "dtype": "float64",
        },
        "compression": {"prune_quantile": 0.5, "quant_bits": 8},
    },
    "transfer": {
        "scenario": "transfer",
        "agent": "dqn",
        "seeds": [0, 1],
        "total_slots": 480,
        "reward_threshold": 9.0,
        "cloud": {
            "inner_steps": 4,
            "batch_size": 64,
            "replay_capacity": 150,
            "eps_decay_steps": 60,
        },
        "spatial": {"burn_in": 100, "transfer_every": 30},
    },
}

GOLDEN = {
    "compression": {
        "ledger_comparison.json": "477a9ddcd190695561eb03f912a986039cbb66add22e4817e2c4e7dc9007826a",
        "sparsity_reward.csv": "69dc3985a11dafbe0db408f089530977789f066dd994f36887b7da35671cb019",
        "summary.json": "d36ec6ef055269e69f9b8b9f484f0b5fa3f90d061eda131fd5fdf868fb0cf234",
    },
    "rach-dqn": {
        "seed0000_rounds.csv": "aede62e86be2fd70ae9203ea808ecc67f2860d7564a387b50615d526f0bcb691",
        "seed0000_summary.json": "4f338b763a270fe6ad77b20cc87b12f026e7a5d7a750710e89f4d70331dc94a3",
        "seed0001_rounds.csv": "eda7bb2c8a4365ce58c954bd1c11e57bab56170e40eadbd11bbae6e643517a1b",
        "seed0001_summary.json": "331f0059a9e0d50742834a9275ace35edf41b26f9e08a2e2f9dbf6721d2709e5",
        "summary.json": "e7f3da1f2e6272d29e0fe5577063236a1e1295e2bd7e43a701c30859de032ac3",
    },
    "rach-dqn-concurrent": {
        "seed0000_rounds.csv": "edcdf3c0021f695a220de6e18efd1d25fd10763725eb623040c22d5ebafcc869",
        "seed0000_summary.json": "9bdc7e5ca7211405404c224e97b21812fce5fa84c0f01f5c350cc7f03c0ba5ab",
        "summary.json": "403aa7eef4d7cc8a78cf9dedf2199e26223e9f06e561ed6c044355630b69e369",
    },
    "rach-la-q": {
        "seed0000_rounds.csv": "62c7646c0804b74b1d98a42b50aab3fbd046f08ee8ec6ac426672a29d9d7017c",
        "seed0000_summary.json": "67b8a5f8a0eb95c5deee46dda81207f245c1820f896482b28b31bf74a293d29d",
        "seed0001_rounds.csv": "6f021ddcfc1fcb9b88e43a753217e09ff6b7fb26519112c182a5f6f6b9a505cd",
        "seed0001_summary.json": "2d5aefcf9282bb8239f7e552ca7d12a809368533604ade73a26a250fd1b48686",
        "summary.json": "5b049c6f480c5efcd3d1d5e31c2ec9fb71b45296cbafb1bdf9d242e24897b8ff",
    },
    "rach-le-urc": {
        "seed0000_rounds.csv": "c2b489b4c4147aba61f2d410d1d6d44ad86fefd70fbcc791deddfa1a30dd3107",
        "seed0000_summary.json": "d613decf3cdae45a6f60a99bac565e330d11bdb0b55e738bbe2502283fa83a93",
        "seed0001_rounds.csv": "1293fce79caeaabba7d3ed403e44735120bd43045a7f23d251fdac225faa81db",
        "seed0001_summary.json": "0fa7f63e5b1cf334955e93290fdecc4b7f05af5bfcb71b980a9782c5e0c7fca0",
        "summary.json": "8161e68269bf1259370b2a6eb9b9155b66b12c730dc0fa9c3d28db65aede7589",
    },
    "rach-tabular": {
        "seed0000_rounds.csv": "46a054a436429aa3ef466f7ee73d263d58d96e75bcfe12a70bfcf352177b3aae",
        "seed0000_summary.json": "b5a3aea8719b6ac24bcdb504114ef1ed65bb8ef316fbae55393dab933c9710a8",
        "seed0001_rounds.csv": "70f37d2889cf629d849e9cde86c99251ad65d58856bdec461aa40eaeb61ed0d2",
        "seed0001_summary.json": "0c4f0b826e7310e8e2e5376c2e48088dd097da28639bb5bc507c26e0b9d9ecf6",
        "summary.json": "a8da28366ab36e93ffec15ac5d5cc9695c48ed14c7d2b60b7c1da2625990849c",
    },
    "transfer": {
        "summary.json": "87ef663146e3bc1067bc763a3196907a80799a4c22c50e7b8dc6361ccc498bce",
        "transfer_curves.csv": "f326d996090d24127772ae307b7e9cae90507466828a92da4be50fd6319782e0",
        "transfer_summary.json": "d0196ffb4eca3a7e62da34a65587977f675391ce11692cb6ac32abc59b589823",
    },
}

PATH_FIELDS = ("config_hash", "run_dir")


def _artifact_digests(run_dir: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(run_dir)):
        if name == "config.json":
            continue
        with open(os.path.join(run_dir, name), "rb") as fh:
            data = fh.read()
        if name == "summary.json":
            summary = {k: v for k, v in json.loads(data).items() if k not in PATH_FIELDS}
            data = json.dumps(summary, sort_keys=True).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    cfg = config_from_dict({"name": name, "out_dir": str(tmp_path), **CONFIGS[name]})
    run_experiment(cfg)
    got = _artifact_digests(cfg.run_dir())
    assert got == GOLDEN[name]
