import copy
import json
from dataclasses import fields
from pathlib import Path

import pytest

from greenrl.cloud_loop import CompressionPlan, DqnConfig
from greenrl.config import (
    OUTPUT_ROOT_ENV,
    CloudSection,
    CompressionSection,
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


@pytest.mark.parametrize("scenario", ["compression", "transfer"])
def test_non_rach_scenarios_need_the_dqn_agent(scenario):
    """compression used to fail only at run time, and transfer silently trained a DQN."""
    with pytest.raises(ConfigError, match=r"^config\.agent: must be dqn"):
        config_from_dict({"scenario": scenario, "agent": "le-urc", "reward_threshold": 1.0})


# scenario, agent and seed count of each config in configs/
SHIPPED_CONFIGS = {
    "compression.json": ("compression", "dqn", 3),
    "rach_dqn.json": ("rach", "dqn", 12),
    "rach_la_q.json": ("rach", "la-q", 12),
    "rach_le_urc.json": ("rach", "le-urc", 12),
    "transfer.json": ("transfer", "dqn", 12),
}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_every_shipped_config_is_listed():
    assert sorted(p.name for p in CONFIG_DIR.glob("*.json")) == sorted(SHIPPED_CONFIGS)


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_shipped_config_loads(name):
    cfg = load_config(str(CONFIG_DIR / name))
    assert (cfg.scenario, cfg.agent, len(cfg.seeds)) == SHIPPED_CONFIGS[name]


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


# config_hash of each shipped config, pinned at the commit before the
# config schema was read from the dataclass annotations
SHIPPED_HASHES = {
    "compression.json": "10dacb61e674f732",
    "rach_dqn.json": "514ab58199175bc4",
    "rach_la_q.json": "5ef9d3e43b885881",
    "rach_le_urc.json": "624248cccc21235d",
    "transfer.json": "103e1314fa1532a6",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_HASHES))
def test_shipped_config_hash_is_pinned(name):
    assert config_hash(load_config(str(CONFIG_DIR / name))) == SHIPPED_HASHES[name]


FUZZ_VALUES = (
    None, True, False, 0, -1, 2.5, 1e308, float("nan"), float("inf"),
    "abc", "", [], [1, 2], [{}], {}, {"a": 1}, 2**40,
)


def _wrong_type(declared: str, value) -> bool:
    """Whether ``value`` is not of a scalar field's declared type; False for non-scalars."""
    base = declared.removesuffix(" | None")
    if base not in ("int", "float", "bool", "str"):
        return False
    if value is None:
        return base == declared
    if base == "int":
        return isinstance(value, bool) or not isinstance(value, int)
    if base == "float":
        return isinstance(value, bool) or not isinstance(value, (int, float)) or value != value
    return not isinstance(value, bool if base == "bool" else str)


def _leaves(cfg, doc, prefix=""):
    """(dotted path, declared type) of each non-section field of a config."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(doc[f.name], dict):
            yield from _leaves(value, doc[f.name], f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f.type


@pytest.mark.parametrize("name", sorted(SHIPPED_CONFIGS))
def test_single_field_fuzz_loads_or_names_the_field(name):
    """Each field of a shipped config set to each of 17 JSON values either
    loads or raises a ConfigError under ``config.``, and a value of the
    wrong scalar type is rejected under its own dotted field."""
    base = load_config(str(CONFIG_DIR / name))
    doc = base.to_dict()
    problems = []
    for dotted, declared in _leaves(base, doc):
        *sections, leaf = dotted.split(".")
        for value in FUZZ_VALUES:
            case = copy.deepcopy(doc)
            node = case
            for section in sections:
                node = node[section]
            node[leaf] = value
            try:
                config_from_dict(case)
                message = None
            except ConfigError as exc:
                message = str(exc)
                if not message.startswith("config."):
                    problems.append((dotted, value, message))
            if _wrong_type(declared, value) and not (message or "").startswith(f"config.{dotted}: must be"):
                problems.append((dotted, value, message))
    assert problems == []


ENTRY = {"rach_channels": 1, "preambles_per_channel": 8, "repetition": 8}


@pytest.mark.parametrize(
    "menu, error",
    [
        ([dict(ENTRY, rach_channels=2.5)], "menu[0].rach_channels: must be an integer"),
        ([dict(ENTRY, preambles_per_channel=0)], "menu[0].preambles_per_channel: must be an integer >= 1"),
        ([ENTRY, dict(ENTRY, repetition="8")], "menu[1].repetition: must be an integer"),
        ([{"rach_channels": 1, "preambles_per_channel": 8}], "menu[0].repetition: missing required key"),
        ([{}], "menu[0].rach_channels: missing required key"),
        ([1, 2], "menu[0]: expected an object"),
        (5, "menu: must be a list of objects"),
        ([], "menu: must be a nonempty list"),
    ],
)
def test_menu_entries_are_checked_under_their_dotted_path(menu, error):
    """A fractional rach_channels used to load and end the run in a raw
    TypeError; [1, 2], [{}] and 5 were reported as ``config.rach``."""
    with pytest.raises(ConfigError) as info:
        config_from_dict({"rach": {"menu": menu}})
    assert str(info.value).startswith(f"config.rach.{error}")


def test_menu_entries_load_as_actions():
    menu = [{"rach_channels": 3, "preambles_per_channel": 4, "repetition": 2}]
    sec = config_from_dict({"rach": {"menu": menu}}).rach
    assert sec.actions() == (RachAction(3, 4, 2),)
    assert sec.to_env_config().action_menu == (RachAction(3, 4, 2),)


@pytest.mark.parametrize(
    "doc, error",
    [
        ({"cloud": {"mode": "async"}}, "config.cloud.mode: must be one of ['lockstep', 'concurrent'], got 'async'"),
        ({"scenario": "bandit"}, "config.scenario: must be one of ['rach', 'compression', 'transfer'], got 'bandit'"),
        ({"agent": "sarsa"}, "config.agent: must be one of ['dqn', "),
    ],
)
def test_enum_fields_list_their_values(doc, error):
    with pytest.raises(ConfigError) as info:
        config_from_dict(doc)
    assert str(info.value).startswith(error)


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (DqnConfig, {"batch_size": 2.5}),
        (SpatialSection, {"n_sites": 2.5}),
        (CloudSection, {"batch_fp16": "abc"}),
        (CloudSection, {"inner_steps": True}),
        (CompressionSection, {"quant_bits": None}),
        (CompressionPlan, {"prune_quantile": "abc"}),
        (RachAction, {"rach_channels": 2.5, "preambles_per_channel": 8, "repetition": 8}),
        (BernoulliTraffic, {"p": True}),
        (RachSection, {"menu": ({"rach_channels": 1, "preambles_per_channel": 8, "repetition": 8},)}),
        (ExperimentConfig, {"name": {}}),
        (ExperimentConfig, {"reward_threshold": float("nan")}),
        (ExperimentConfig, {"scenario": "transfer"}),
    ],
)
def test_direct_construction_checks_declared_types(cls, kwargs):
    with pytest.raises(ConfigError, match=r"^\w+: must be"):
        cls(**kwargs)


def test_cloud_section_is_a_dqn_config():
    cloud = config_from_dict({"cloud": {"lr": 0.01, "hidden": [16], "inner_steps": 4}}).cloud
    assert isinstance(cloud, DqnConfig)
    assert type(cloud.dqn_config()) is DqnConfig
    assert cloud.dqn_config() == DqnConfig(lr=0.01, hidden=(16,))
    assert {f.name for f in fields(CloudSection)} - {f.name for f in fields(DqnConfig)} == {
        "inner_steps", "mode", "n_entities", "snapshot_bits", "batch_fp16"
    }


@pytest.mark.parametrize(
    "doc, error",
    [
        ({}, "config.reward_threshold: must be a number"),
        ({"reward_threshold": 1.0, "cloud": {"inner_steps": 1}, "spatial": {"transfer_every": 1}},
         "config.spatial.transfer_every: must be >= 2"),
        ({"reward_threshold": 1.0, "cloud": {"n_entities": 2}}, "config.cloud.n_entities: must be 1"),
    ],
)
def test_transfer_rules_are_config_rules(doc, error):
    """The transfer rules are config rules: ``config_from_dict`` raises them
    (it used to build such a config, leaving them to ``load_config`` and
    ``run_experiment``)."""
    with pytest.raises(ConfigError) as info:
        config_from_dict({"scenario": "transfer", **doc})
    assert str(info.value).startswith(error)


def test_transfer_rules_allow_a_run_with_no_transfer():
    """transfer_every 1 at one slot a round is fine when the run has one round."""
    cfg = config_from_dict(
        {"scenario": "transfer", "reward_threshold": 1.0, "total_slots": 1,
         "cloud": {"inner_steps": 1}, "spatial": {"transfer_every": 1}}
    )
    assert cfg.rounds() == 1 and cfg.spatial.transfer_every == 1
