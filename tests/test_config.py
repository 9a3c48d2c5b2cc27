import json

import pytest

from greenrl.cloud_loop import CompressionPlan
from greenrl.config import (
    OUTPUT_ROOT_ENV,
    CloudSection,
    ExperimentConfig,
    RachSection,
    SpatialSection,
    config_from_dict,
    config_hash,
    load_config,
)
from greenrl.config import set_by_path
from greenrl.errors import ConfigError
from greenrl.rach_env import BernoulliTraffic, RachAction


def test_empty_document_yields_defaults():
    cfg = config_from_dict({})
    assert cfg.scenario == "rach"
    assert cfg.agent == "dqn"
    assert cfg.seeds == (1,)
    assert cfg.cloud.hidden == (32, 32)
    assert cfg.spatial.n_sites == 16


def test_unknown_keys_are_named_with_full_path():
    with pytest.raises(ConfigError, match=r"config\.bogus"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match=r"config\.cloud\.warmup"):
        config_from_dict({"cloud": {"lr": 0.01, "warmup": 5}})
    menu = [{"rach_channels": 1, "preambles_per_channel": 8, "repetition": 8, "power": 3}]
    with pytest.raises(ConfigError, match=r"rach\.menu\[0\]\.power"):
        config_from_dict({"rach": {"menu": menu}})


def test_removed_transfer_enabled_key_is_rejected():
    # the transfer scenario always runs both arms, so the old switch is gone
    with pytest.raises(ConfigError, match=r"config\.spatial\.transfer_enabled: unknown key"):
        config_from_dict({"scenario": "transfer", "spatial": {"transfer_enabled": False}})


def test_validation_errors_carry_section_path():
    with pytest.raises(ConfigError, match=r"config\.cloud"):
        config_from_dict({"cloud": {"lr": -1.0}})
    with pytest.raises(ConfigError, match="scenario"):
        config_from_dict({"scenario": "bandit"})
    with pytest.raises(ConfigError, match="agent"):
        config_from_dict({"agent": "sarsa"})


def test_json_lists_become_tuples():
    cfg = config_from_dict(
        {
            "seeds": [3, 4, 5],
            "cloud": {"hidden": [16, 8]},
            "spatial": {"bs_cells": [[0, 1], [1, 2]], "n_sites": 4},
        }
    )
    assert cfg.seeds == (3, 4, 5)
    assert cfg.cloud.hidden == (16, 8)
    assert cfg.spatial.bs_cells == ((0, 1), (1, 2))


def test_rach_section_builds_env_config():
    sec = RachSection(num_devices=12, traffic_p=0.2)
    actions = sec.actions()
    assert actions[0] == RachAction(1, 8, 8)
    assert [a.opportunities for a in actions] == [8, 16, 32, 48]
    env = sec.to_env_config(seed=77)
    assert env.num_devices == 12
    assert env.traffic == BernoulliTraffic(0.2)
    assert env.seed == 77
    assert env.max_opportunities == 48


def test_cloud_section_validation_and_conversion():
    with pytest.raises(ConfigError):
        CloudSection(mode="async")
    with pytest.raises(ConfigError):
        CloudSection(n_entities=0)
    dqn = CloudSection(lr=0.002, hidden=(8,)).dqn_config()
    assert dqn.lr == 0.002
    assert dqn.hidden == (8,)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bs_cells": ((0, 1),)},
        {"bs_cells": ((0,), ())},
        {"bs_cells": ((0,), (99,))},
        {"beta": 1.5},
        {"transfer_every": 0},
    ],
)
def test_spatial_section_validation(kwargs):
    with pytest.raises(ConfigError):
        SpatialSection(**kwargs)


@pytest.mark.parametrize(
    "key,value",
    [
        ("mu", -1.0),
        ("mu", 0.0),
        ("mu", float("inf")),
        ("noise_sigma", -0.5),
        ("noise_sigma", float("nan")),
        ("squash", "nope"),
        ("kernel_amplitude", -0.1),
        ("kernel_amplitude", float("inf")),
        ("kernel_length_scale", 0.0),
        ("kernel_length_scale", float("nan")),
        ("n_sites", 0),
        ("length", 0.0),
        ("length", float("inf")),
        ("burn_in", -1),
        ("burn_in", 2.5),
        ("bs_cells", [[0, 1.5], [2, 3]]),
        ("mu", "abc"),
    ],
)
def test_spatial_field_checks_name_the_dotted_path(key, value):
    with pytest.raises(ConfigError, match=rf"^config\.spatial\.{key}: must be"):
        config_from_dict({"scenario": "transfer", "spatial": {key: value}})


def test_spatial_cells_normalised_to_int_tuples():
    sec = SpatialSection(n_sites=4, bs_cells=([0, 1], [2, 3]))
    assert sec.bs_cells == ((0, 1), (2, 3))
    assert all(isinstance(s, int) for cell in sec.bs_cells for s in cell)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"seeds": ()},
        {"total_slots": 0},
        {"eval_slots": 0},
        {"tail_fraction": 0.0},
        {"tail_fraction": 1.2},
        {"threshold_window": 0},
    ],
)
def test_experiment_validation(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


def test_rounds_is_ceiling_division():
    cfg = config_from_dict({"total_slots": 10, "cloud": {"inner_steps": 4}})
    assert cfg.rounds() == 3
    assert config_from_dict({"total_slots": 8, "cloud": {"inner_steps": 4}}).rounds() == 2


def test_output_root_resolution(monkeypatch, tmp_path):
    monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
    cfg = ExperimentConfig(name="demo")
    assert cfg.output_root() == "results"
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert cfg.output_root() == str(tmp_path)
    assert cfg.run_dir().endswith("demo")
    explicit = ExperimentConfig(name="demo", out_dir="/elsewhere")
    assert explicit.output_root() == "/elsewhere"  # out_dir beats the env var


def test_service_request_wiring():
    cfg = config_from_dict(
        {
            "cloud": {"n_entities": 3, "inner_steps": 2, "snapshot_bits": 8, "batch_fp16": True}
        }
    )
    req = cfg.service_request(seed=5)
    assert req.entity_ids == (0, 1, 2)
    assert req.inner_steps == 2
    assert req.seed == 5
    assert req.compression == CompressionPlan(snapshot_bits=8, batch_fp16=True)
    override = cfg.service_request(seed=5, compression=CompressionPlan(), net_seed=42)
    assert override.compression == CompressionPlan()
    assert override.net_seed == 42


def test_config_hash_stable_and_sensitive():
    a = config_from_dict({"total_slots": 100})
    b = config_from_dict({"total_slots": 100})
    c = config_from_dict({"total_slots": 101})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16
    int(config_hash(a), 16)  # hex digest prefix


def test_to_dict_is_json_serialisable():
    cfg = config_from_dict({"seeds": [1, 2]})
    doc = json.dumps(cfg.to_dict(), sort_keys=True)
    back = config_from_dict(json.loads(doc))
    assert back == cfg


def test_load_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"name": "trial", "seeds": [9], "cloud": {"lr": 0.001}}))
    cfg = load_config(str(path))
    assert cfg.name == "trial"
    assert cfg.seeds == (9,)
    assert cfg.cloud.lr == 0.001


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))


def test_set_by_path():
    doc = {"cloud": {"lr": 0.01}, "total_slots": 5}
    set_by_path(doc, "cloud.lr", 0.5)
    assert doc["cloud"]["lr"] == 0.5
    set_by_path(doc, "total_slots", 9)
    assert doc["total_slots"] == 9
    with pytest.raises(ConfigError, match="unknown field"):
        set_by_path(doc, "cloud.momentum", 1)
    with pytest.raises(ConfigError, match="no section"):
        set_by_path(doc, "optim.lr", 1)
