import contextlib
import csv
import io
import json
import os
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from greenrl import runner
from greenrl.cli import main as cli_main
from greenrl.cli import run_report
from greenrl.agents import LocalAgentParams
from greenrl.cloud_loop import CompressionPlan, RoundLog
from greenrl.config import (
    DEFAULT_MENU,
    MAX_ARRAY_BYTES,
    CloudSection,
    CompressionSection,
    ExperimentConfig,
    RachSection,
    SpatialSection,
    config_from_dict,
    config_hash,
)
from greenrl.errors import ConfigError, InvalidInputError
from greenrl.neural import _Workspace, glorot_init, net_from_bytes, net_to_bytes
from greenrl.paired import _effect_size_d, _paired_p, ttest_p, wilcoxon_p
from greenrl.rach_env import RachAction
from greenrl.runner import (
    ROUND_COLUMNS,
    compare_agents,
    rounds_to_threshold,
    run_experiment,
    run_rach_seed,
    sweep,
    write_csv,
    write_json,
)
from oracles import reference_per_round_curve, reference_run_transfer_arm


def tiny_config(tmp_path, **overrides):
    doc = {
        "name": "t",
        "agent": "le-urc",
        "seeds": [1, 2],
        "total_slots": 60,
        "eval_slots": 40,
        "out_dir": str(tmp_path),
        "rach": {"num_devices": 20},
        "cloud": {"inner_steps": 20, "hidden": [8], "batch_size": 8, "replay_capacity": 64},
    }
    doc.update(overrides)
    return config_from_dict(doc)


# ---------------------------------------------------------------------------
# curve summarisation
# ---------------------------------------------------------------------------


def test_rounds_to_threshold_pinned():
    curve = np.array([0.0, 0.0, 10.0, 10.0, 10.0, 10.0])
    assert rounds_to_threshold(curve, 5.0, window=2) == 3
    assert rounds_to_threshold(curve, 10.0, window=2) == 4  # needs two full tens
    assert rounds_to_threshold(curve, 11.0, window=2) == 6  # never reached
    assert rounds_to_threshold(np.array([1.0]), 0.5, window=2) == 1  # shorter than window


def test_rounds_to_threshold_needs_a_full_window():
    # one lucky round cannot count as convergence
    spike = np.array([50.0, 0.0, 0.0, 0.0])
    assert rounds_to_threshold(spike, 40.0, window=2) == 4
    steady = np.array([50.0, 45.0, 0.0, 0.0])
    assert rounds_to_threshold(steady, 40.0, window=2) == 2  # minimum possible value


def test_rounds_to_threshold_boundary_counts():
    curve = np.array([4.0, 6.0, 5.0])
    assert rounds_to_threshold(curve, 5.0, window=2) == 2  # mean exactly at threshold


def log_of(width: int, rewards) -> RoundLog:
    """A round log holding ``rewards`` in play order, ``width`` per round."""
    log = RoundLog(width)
    for i, reward in enumerate(rewards):
        log.append(i // width, i % width, reward, 0.0, 0.0, 0, 0, 0)
    return log


def test_per_round_curve_averages_entities():
    log = log_of(2, [1.0, 3.0, 5.0, 5.0])
    assert len(log) == 4
    np.testing.assert_allclose(log.curve(), [2.0, 5.0])


def test_round_log_refuses_a_record_of_the_wrong_length():
    with pytest.raises(ValueError):
        RoundLog(1).append(0, 0, 1.0)


@pytest.mark.parametrize("width", [1, 3, 9, 33])
def test_round_log_curve_matches_per_round_mean(width):
    """Rewards over six orders of magnitude: bit for bit the one-np.mean-per-round reference."""
    rng = np.random.default_rng(width)
    log = log_of(width, [float(v) for v in rng.normal(size=300 * width) * 10.0 ** rng.integers(-3, 4, 300 * width)])
    rows = [{"round": r, "reward_mean": v} for r, v in zip(log["round"], log["reward_mean"])]
    assert len(log.curve()) == 300
    assert log.curve().tobytes() == reference_per_round_curve(rows).tobytes()


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def test_write_json_canonical(tmp_path):
    path = tmp_path / "deep" / "out.json"
    write_json(str(path), {"b": 1, "a": [1, 2]})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # keys sorted
    assert json.loads(text) == {"a": [1, 2], "b": 1}


def test_write_csv_selects_columns(tmp_path):
    """The header names the columns, and each record is written in their order."""
    path = tmp_path / "rows.csv"
    rows = [(2, 1), (5, 4)]
    write_csv(str(path), rows, ("y", "x"))
    lines = path.read_text().strip().splitlines()
    assert lines == ["y,x", "2,1", "5,4"]
    assert path.read_bytes() == b"y,x\r\n2,1\r\n5,4\r\n"  # csv's own line ends


# ---------------------------------------------------------------------------
# single-seed runs
# ---------------------------------------------------------------------------


def test_run_rach_seed_local_agent(tmp_path):
    cfg = tiny_config(tmp_path)
    rows, summary = run_rach_seed(cfg, seed=1)
    assert len(rows) == 3  # 60 slots bucketed by 20
    assert all(len(record) == len(ROUND_COLUMNS) for record in rows)
    assert summary["agent"] == "le-urc"
    assert summary["rounds"] == 3
    assert summary["eval_reward"] > 0.0
    assert summary["rounds_to_threshold"] is None
    assert summary["message"]["bytes_down"] == 0  # no cloud traffic for local agents


def test_run_rach_seed_dqn_accounts_messages(tmp_path):
    cfg = tiny_config(tmp_path, agent="dqn", total_slots=40, cloud={"inner_steps": 8, "hidden": [8]})
    rows, summary = run_rach_seed(cfg, seed=1)
    assert len(rows) == 5
    assert summary["message"]["bytes_down"] > 0
    assert summary["message"]["bytes_up"] > 0
    assert summary["energy"]["energy_proxy"] > 0
    assert rows["bytes_down_total"][-1] == summary["message"]["bytes_down"]


def test_run_rach_seed_threshold_summary(tmp_path):
    cfg = tiny_config(tmp_path, reward_threshold=0.0, threshold_window=1)
    _, summary = run_rach_seed(cfg, seed=1)
    assert summary["rounds_to_threshold"] == 1
    assert summary["reward_threshold"] == 0.0


# ---------------------------------------------------------------------------
# full experiment runs
# ---------------------------------------------------------------------------


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = tiny_config(tmp_path)
    result = run_experiment(cfg)
    run_dir = result["run_dir"]
    assert os.path.isfile(os.path.join(run_dir, "config.json"))
    assert os.path.isfile(os.path.join(run_dir, "summary.json"))
    for seed in (1, 2):
        assert os.path.isfile(os.path.join(run_dir, f"seed{seed:04d}_rounds.csv"))
        assert os.path.isfile(os.path.join(run_dir, f"seed{seed:04d}_summary.json"))
    assert result["scenario"] == "rach"
    assert len(result["per_seed"]) == 2
    assert result["terminal_reward_mean"] == pytest.approx(
        np.mean([s["terminal_reward"] for s in result["per_seed"]])
    )
    with open(os.path.join(run_dir, "config.json")) as fh:
        saved = json.load(fh)
    assert saved["hash"] == result["config_hash"]


def refuse_sessions(request):
    raise InvalidInputError("no session for this request")


def test_run_experiment_records_failures(tmp_path, monkeypatch):
    # the run fails when it builds its first session
    cfg = tiny_config(tmp_path, scenario="transfer", agent="dqn", reward_threshold=1.0)
    with monkeypatch.context() as m:
        m.setattr(runner, "instantiate", refuse_sessions)
        with pytest.raises(InvalidInputError):
            run_experiment(cfg)
    error_path = os.path.join(cfg.run_dir(), "error.json")
    with open(error_path) as fh:
        record = json.load(fh)
    assert record["type"] == "InvalidInputError"
    assert "no session" in record["error"]
    assert record["config_hash"] == config_hash(cfg)
    assert not os.path.exists(os.path.join(cfg.run_dir(), "summary.json"))
    # the fixed config succeeds in the same run_dir and clears the stale error
    fixed = tiny_config(tmp_path, scenario="transfer", agent="dqn", reward_threshold=1.0)
    assert fixed.run_dir() == cfg.run_dir()
    run_experiment(fixed)
    assert not os.path.exists(error_path)
    assert os.path.isfile(os.path.join(cfg.run_dir(), "summary.json"))


def test_failed_run_leaves_no_earlier_artifacts(tmp_path, monkeypatch):
    """A failing config cannot sit beside an earlier run's summary and seed files."""
    first = run_experiment(tiny_config(tmp_path))
    run_dir = first["run_dir"]
    assert os.path.isfile(os.path.join(run_dir, "seed0001_rounds.csv"))
    failing = tiny_config(tmp_path, agent="dqn", cloud=TINY_DQN)
    assert failing.run_dir() == run_dir
    monkeypatch.setattr(runner, "instantiate", refuse_sessions)
    with pytest.raises(InvalidInputError):
        run_experiment(failing)
    assert sorted(os.listdir(run_dir)) == ["config.json", "error.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_effect_size_of_one_pair_is_zero():
    """One pair has no spread: 0.0, without numpy's degrees-of-freedom warnings."""
    assert _effect_size_d(np.array([0.4])) == 0.0


def test_paired_p_branches():
    a = np.array([1.0, 2.0, 3.5, 4.0])
    b = np.array([0.5, 2.5, 1.0, 3.0])
    # pairs that tie to within allclose give 1.0, even for a single pair
    assert _paired_p(a, a + 1e-12, ttest_p) == 1.0
    assert _paired_p([2.0], [2.0], wilcoxon_p) == 1.0
    # one pair that differs carries no significance
    assert _paired_p([2.0], [1.0], ttest_p, alternative="greater") is None
    assert _paired_p([2.0], [1.0], wilcoxon_p) is None
    # otherwise the test's p-value, with its keyword arguments passed on;
    # scipy.stats gives the reference value
    got = _paired_p(list(a), list(b), ttest_p, alternative="less")
    assert got == float(stats.ttest_rel(a, b, alternative="less").pvalue)
    assert _paired_p(a, b, wilcoxon_p) == float(stats.wilcoxon(a, b).pvalue)


# ---------------------------------------------------------------------------
# comparisons and sweeps
# ---------------------------------------------------------------------------


def test_compare_agents_ranking_and_files(tmp_path):
    a = tiny_config(tmp_path, name="heuristic", agent="le-urc", seeds=[1, 2, 3])
    b = tiny_config(tmp_path, name="uniform", agent="random", seeds=[1, 2, 3])
    report = compare_agents([a, b])
    assert set(report["agents"]) == {"heuristic", "uniform"}
    means = {n: report["agents"][n]["mean"] for n in report["agents"]}
    assert report["ranking"] == sorted(means, key=means.get, reverse=True)
    assert "heuristic>uniform" in report["pairwise"]
    p = report["pairwise"]["heuristic>uniform"]["p_one_sided"]
    assert 0.0 <= p <= 1.0
    out_dir = os.path.join(str(tmp_path), "comparison_heuristic_uniform")
    assert os.path.isfile(os.path.join(out_dir, "compare_report.json"))
    assert os.path.isfile(os.path.join(out_dir, "compare_table.csv"))


def test_compare_agents_validation(tmp_path):
    a = tiny_config(tmp_path, name="one")
    with pytest.raises(ConfigError, match="at least two"):
        compare_agents([a])
    with pytest.raises(ConfigError, match="duplicate"):
        compare_agents([a, tiny_config(tmp_path, name="one", agent="random")])
    assert not os.path.exists(a.run_dir())  # rejected before anything ran
    mismatched = tiny_config(tmp_path, name="two", total_slots=80)
    with pytest.raises(ConfigError, match="share"):
        compare_agents([a, mismatched])


def test_compare_agents_pairs_a_menu_given_as_a_list(tmp_path):
    """A config built directly with its menu as a list shares the rach section
    of one loaded with the same menu; compare used to reject the pair."""
    listed = tiny_config(tmp_path, name="listed")
    listed = replace(listed, rach=replace(listed.rach, menu=list(DEFAULT_MENU)))
    report = compare_agents([listed, tiny_config(tmp_path, name="loaded", agent="random")])
    assert set(report["agents"]) == {"listed", "loaded"}


def test_sweep_rows_and_files(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[1])
    report = sweep(cfg, "rach.traffic_p", [0.05, 0.3])
    assert [row["value"] for row in report["rows"]] == [0.05, 0.3]
    for row in report["rows"]:
        assert row["param"] == "rach.traffic_p"
        assert row["eval_reward_mean"] > 0.0
    assert os.path.isfile(os.path.join(report["out_dir"], "sweep.csv"))
    assert os.path.isfile(os.path.join(report["out_dir"], "sweep.json"))
    # heavier offered load leaves more to serve per slot
    assert report["rows"][1]["terminal_reward_mean"] > report["rows"][0]["terminal_reward_mean"]


def test_sweep_checks_every_value_before_running_any(tmp_path):
    """A later value that fails its config check stops the sweep before the
    first value's run writes anything; it used to write the whole first run."""
    cfg = tiny_config(tmp_path, seeds=[1])
    with pytest.raises(ConfigError, match="config.rach.traffic_p"):
        sweep(cfg, "rach.traffic_p", [0.05, 2])
    assert not os.path.exists(cfg.run_dir())
    assert os.listdir(tmp_path) == []


def test_sweep_validation(tmp_path):
    cfg = tiny_config(tmp_path, seeds=[1])
    with pytest.raises(ConfigError, match="at least one value"):
        sweep(cfg, "rach.traffic_p", [])
    with pytest.raises(ConfigError, match="unknown field"):
        sweep(cfg, "rach.velocity", [1])
    spatial_cfg = tiny_config(tmp_path, scenario="compression", agent="dqn")
    with pytest.raises(ConfigError, match="rach scenario"):
        sweep(spatial_cfg, "rach.traffic_p", [0.1])


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def write_config_file(tmp_path, name="cli", **overrides):
    doc = {
        "name": name,
        "agent": "le-urc",
        "seeds": [1],
        "total_slots": 60,
        "eval_slots": 40,
        "out_dir": str(tmp_path / "out"),
        "rach": {"num_devices": 20},
        "cloud": {"inner_steps": 20},
    }
    doc.update(overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_run(tmp_path, capsys):
    rc = cli_main(["run", write_config_file(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "run complete" in out
    assert "terminal reward mean" in out


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"agent": "alphago"}))
    rc = cli_main(["run", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err


@pytest.mark.parametrize("case", ["not-utf8", "nested-config", "nested-sweep-value"])
def test_cli_rejects_malformed_input_with_a_config_error(tmp_path, capsys, monkeypatch, case):
    """A config file that is not UTF-8 used to end in a raw
    UnicodeDecodeError traceback, and a config nested 200,000 lists deep or
    a ``--values`` entry nested 100,000 deep in a raw RecursionError.  Each
    exits 2 with one ``config error:`` line and writes nothing."""

    def unreachable(request):
        raise AssertionError("the run started")

    monkeypatch.setattr(runner, "instantiate", unreachable)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.json"
    argv = ["run", str(path)]
    if case == "not-utf8":
        path.write_bytes(b"\xff\xfe\x00{")
    elif case == "nested-config":
        path.write_text("[" * 200_000)
    else:
        argv = ["sweep", write_config_file(tmp_path), "--param", "cloud.lr", "--values", "[" * 100_000]
    written = sorted(os.listdir(tmp_path))
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == written


@pytest.mark.parametrize(
    "key,value",
    [
        ("mu", -1), ("squash", "nope"), ("noise_sigma", -0.5), ("kernel_length_scale", 0),
        ("burn_in", 2.5), ("bs_cells", [[0, 1.5], [2, 3]]), ("mu", "abc"),
    ],
)
def test_cli_rejects_bad_spatial_field_before_writing(tmp_path, capsys, key, value):
    path = write_config_file(
        tmp_path, scenario="transfer", agent="dqn", reward_threshold=1.0, spatial={key: value}
    )
    rc = cli_main(["run", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"spatial.{key}" in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "key,value",
    [
        ("eps_decay_steps", 0), ("alpha", 1.5), ("eps_start", 2.0),
        ("cloud.inner_steps", 0), ("compression.quant_bits", 99),
        ("rach.num_devices", 0), ("rach.traffic_p", 1.5), ("cloud.snapshot_bits", 99),
        ("compression.prune_quantile", 1.5), ("compression.prune_at_round", -1), ("cloud.n_entities", 2.5),
        ("compression.sparsity_levels", [1.5]), ("cloud.lr", -1), ("cloud.eps_end", 2.0),
    ],
)
def test_cli_rejects_bad_agent_param_before_writing(tmp_path, capsys, key, value):
    """A bare key is an ``agent_params`` field.  Each used to fail only at
    run time: eps_decay_steps 0 and inner_steps 0 as a raw ZeroDivisionError
    or ValueError (exit 1), alpha and eps_start after config.json was
    written, and quant_bits 99 not at all on a run that never quantises.
    num_devices, traffic_p and snapshot_bits failed after config.json and
    error.json were written, the compression fields only on a compression
    run, and n_entities 2.5 not at all on a local agent.  sparsity_levels
    [1.5] failed on a compression run only after the dense session had
    trained, and lr and eps_end were reported as ``config.cloud`` alone."""
    section, _, field = key.rpartition(".")
    section = section or "agent_params"
    path = write_config_file(tmp_path, agent="tabular", **{section: {field: value}})
    rc = cli_main(["run", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config.{section}.{field}: must be" in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("seeds", ["abc", [1.5], [True]])
def test_cli_rejects_non_integer_seeds_before_writing(tmp_path, capsys, seeds):
    """"abc" used to end in a raw ValueError traceback, and [1.5] and [True]
    ran silently as seed 1."""
    rc = cli_main(["run", write_config_file(tmp_path, seeds=seeds)])
    assert rc == 2
    assert "config.seeds: must be a nonempty list of integers" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "key,value",
    [
        ("total_slots", "5"), ("total_slots", 2.5), ("eval_slots", True), ("threshold_window", True),
        ("threshold_window", 0), ("tail_fraction", 1.5), ("tail_fraction", "0.2"),
    ],
)
def test_cli_rejects_bad_experiment_field_before_writing(tmp_path, capsys, key, value):
    """eval_slots and threshold_window true used to run, and total_slots "5"
    exited 2 with a bare "'<' not supported" comparison error."""
    rc = cli_main(["run", write_config_file(tmp_path, **{key: value})])
    assert rc == 2
    assert f"config.{key}: must be" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize(
    "overrides, error",
    [
        ({"scenario": "transfer", "agent": "dqn"}, "config.reward_threshold: must be a number"),
        (
            {"scenario": "transfer", "agent": "dqn", "reward_threshold": 1.0, "cloud": {"inner_steps": 1},
             "spatial": {"transfer_every": 1}},
            "config.spatial.transfer_every: must be >= 2",
        ),
        ({"rach": {"menu": [{"rach_channels": 2.5, "preambles_per_channel": 8, "repetition": 8}]}},
         "config.rach.menu[0].rach_channels: must be an integer"),
        ({"rach": {"menu": [{}]}}, "config.rach.menu[0].rach_channels: missing required key"),
        ({"cloud": {"inner_steps": 20, "batch_fp16": "abc"}}, "config.cloud.batch_fp16: must be a boolean"),
        ({"reward_threshold": "abc"}, "config.reward_threshold: must be a number or null"),
        ({"rach": {"traffic_p": True}}, "config.rach.traffic_p: must be a number"),
        ({"compression": {"quant_bits": None}}, "config.compression.quant_bits: must be an integer"),
        ({"name": ".."}, "config.name: must be a nonempty relative path with no '..' component"),
        ({"name": ""}, "config.name: must be a nonempty relative path with no '..' component"),
        ({"cloud": {"inner_steps": 20, "mode": "batch"}},
         "config.cloud.mode: must be one of ['lockstep', 'concurrent'], got 'batch'"),
    ],
)
def test_cli_rejects_before_writing(tmp_path, capsys, overrides, error):
    """A transfer run without reward_threshold used to write config.json and
    error.json before failing, and one whose first transfer came after one
    slot exited 1 from estimate_correlation.  The fractional menu entry ran
    into a raw TypeError, [{}] was reported as ``config.rach``, and the
    wrong-typed scalars loaded (quant_bits null turned quantisation off)."""
    rc = cli_main(["run", write_config_file(tmp_path, **overrides)])
    assert rc == 2
    assert error in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("name", ["absolute", "../escape", "sub/../../escape"])
def test_cli_rejects_a_name_that_leaves_out_dir(tmp_path, capsys, name):
    """An absolute ``name`` used to replace ``out_dir`` (``os.path.join``
    keeps the absolute part): the run wrote there, and its clean-up deleted a
    seedNNNN_* file that it never wrote.  A ``..`` component resolved outside
    ``out_dir``.  Both now exit 2 before anything is written or removed."""
    outside = tmp_path / "absolute"
    outside.mkdir()
    (outside / "seed0009_notes.txt").write_text("not a run artifact")
    if name == "absolute":
        name = str(outside)
    doc = {"name": name, "agent": "le-urc", "seeds": [1], "total_slots": 60, "eval_slots": 40,
           "out_dir": str(tmp_path / "out"), "rach": {"num_devices": 20}, "cloud": {"inner_steps": 20}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    rc = cli_main(["run", str(path)])
    assert rc == 2
    assert "config.name: must be a nonempty relative path with no '..' component" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["absolute", "cfg.json"]
    assert os.listdir(outside) == ["seed0009_notes.txt"]


def test_cli_reports_a_file_system_error(tmp_path, capsys):
    """An ``out_dir`` that is a regular file used to end in a raw
    NotADirectoryError traceback from ``os.makedirs``."""
    blocker = tmp_path / "out"
    blocker.write_text("not a directory")
    rc = cli_main(["run", write_config_file(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("key", ["name", "out_dir"])
def test_cli_rejects_a_nul_in_a_path_before_writing(tmp_path, capsys, key):
    """A NUL character in ``name`` or ``out_dir`` used to end in a bare
    ValueError ("embedded null byte") from the file system, exit 1."""
    path = write_config_file(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    doc[key] = doc[key] + "\0x"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    rc = cli_main(["run", path])
    assert rc == 2
    assert f"config error: config.{key}: must be" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cli.json"]


def test_cli_shows_an_unknown_key_with_a_line_break_on_one_line(tmp_path, capsys):
    """An unknown key holding a line break used to split the config error
    line in two; such a key is shown escaped."""
    rc = cli_main(["run", write_config_file(tmp_path, cloud={"inner_steps": 20, "a\r\nb": 1})])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "config error: config.cloud.'a\\r\\nb': unknown key\n"


_JUNK_KEYS = ("junk", "", "Seeds", "rach.num_devices")
_WORDS = ("rach", "compression", "transfer", "dqn", "le-urc", "tabular", "la-q", "identity", "squash",
          "lockstep", "concurrent", "float32", "float64", "run")
_json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-2, 12), st.floats(-4.0, 4.0),
        st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300]), st.sampled_from(_WORDS),
        st.text(max_size=4),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=5,
)
# Values that often pass the check of a field of each declared type; sizes
# stay small so that a valid config runs in milliseconds.
_LIKELY = {
    "int": st.integers(1, 12),
    "float": st.floats(0.05, 1.0) | st.just(1),
    "bool": st.booleans(),
    "str": st.sampled_from(_WORDS),
    "tuple": st.lists(st.integers(0, 15) | st.floats(0.0, 1.0), max_size=3)
    | st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=4), min_size=2, max_size=2),
    "tuple[int, ...]": st.lists(st.integers(1, 12), min_size=1, max_size=3),
}


def _json_object(cls, special=None):
    """JSON objects of ``cls``'s keys, now and then with a junk key.  Each
    value is mostly one that its field's check may accept, else any JSON value."""
    special = special or {}

    def likely(f):
        base, _, optional = f.type.partition(" | ")
        strategy = special.get(f.name, _LIKELY.get(base, _json_values))
        return st.none() | strategy if optional else strategy

    real = st.fixed_dictionaries({}, optional={f.name: st.one_of(*[likely(f)] * 12, _json_values) for f in fields(cls)})
    junk = st.dictionaries(st.sampled_from(_JUNK_KEYS), _json_values, max_size=1)
    return st.builds(lambda doc, extra: {**doc, **extra}, real, st.one_of(*[st.just({})] * 7, junk))


_SECTIONS = {"rach": RachSection, "cloud": CloudSection, "agent_params": LocalAgentParams,
             "compression": CompressionSection, "spatial": SpatialSection}
_MENU = st.lists(_json_object(RachAction), min_size=1, max_size=3)
# A valid start for each scenario, which the generated keys then overwrite.
_STARTS = (
    {"scenario": "rach", "agent": "le-urc"},
    {"scenario": "rach", "agent": "dqn"},
    {"scenario": "compression", "agent": "dqn"},
    {"scenario": "transfer", "agent": "dqn", "reward_threshold": 0.5},
)
_CONFIG_DOCS = st.builds(
    lambda start, doc: {**start, **doc},
    st.sampled_from(_STARTS),
    _json_object(ExperimentConfig, {
        "scenario": st.sampled_from(["rach", "compression", "transfer"]),
        "agent": st.sampled_from(["dqn", "le-urc", "tabular", "la-q"]),
        **{name: _json_object(cls, {"menu": _MENU}) for name, cls in _SECTIONS.items()},
    }),
)


@given(doc=_CONFIG_DOCS, total_slots=st.integers(1, 40), eval_slots=st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_cli_run_on_any_config_ends_in_a_documented_exit(doc, total_slots, eval_slots):
    """Any JSON object of real and junk keys, under small slot budgets: a
    rejected config exits 2 with one ``config error:`` line and writes
    nothing; a valid one runs (exit 0), or fails at run time with a typed
    error that ``error.json`` records (exit 1: a learner or a field that
    diverges), never with an error of any other type."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump({**doc, "seeds": [1], "total_slots": total_slots, "eval_slots": eval_slots, "out_dir": out}, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["run", path])
        lines = err.getvalue().splitlines()
        assert rc in (0, 1, 2), (rc, lines)
        assert len(lines) == (rc != 0), lines
        if rc == 2:
            assert lines[0].startswith("config error: ") and not os.path.exists(out)
        elif rc == 1:
            found = [os.path.join(d, "error.json") for d, _, files in os.walk(out) if "error.json" in files]
            with open(found[0]) as fh:
                assert json.load(fh)["type"] in ("InvalidInputError", "NotReadyError"), lines


@pytest.mark.parametrize(
    "message,shown",
    [
        ("Unable to allocate 7.45 EiB for an array with shape (1000000000, 1000000000) and data type float64",
         "Unable to allocate 7.45 EiB"),
        ("", "MemoryError"),
    ],
    ids=["numpy-message", "no-message"],
)
def test_cli_reports_an_allocation_failure(tmp_path, capsys, monkeypatch, message, shown):
    """A network too large to allocate used to end in a raw MemoryError
    traceback; it exits 1 with an ``error:`` line, after ``error.json``
    records it."""

    def out_of_memory(request):
        raise MemoryError(message)

    monkeypatch.setattr(runner, "instantiate", out_of_memory)
    rc = cli_main(["run", write_config_file(tmp_path, agent="dqn")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {shown}")
    assert "Traceback" not in err
    with open(tmp_path / "out" / "cli" / "error.json") as fh:
        assert json.load(fh)["type"] == "MemoryError"


TINY_DQN = {"inner_steps": 20, "hidden": [8], "batch_size": 8, "replay_capacity": 64}


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_cli_maps_an_interrupt_to_exit_130(tmp_path, capsys, monkeypatch, command):
    """Ctrl-C used to end in a KeyboardInterrupt traceback and leave no
    ``error.json``.  The interrupt is raised inside the first run, as a
    signal would raise it: that run records it, no later run starts, and
    the command exits 130 with one line."""

    def interrupted(request):
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "instantiate", interrupted)
    path = write_config_file(tmp_path, agent="dqn", cloud=TINY_DQN)
    argv = {
        "run": ["run", path],
        "compare": ["compare", path, write_config_file(tmp_path, name="other", agent="dqn", cloud=TINY_DQN)],
        "sweep": ["sweep", path, "--param", "cloud.lr", "--values", "0.01,0.02"],
    }[command]
    assert cli_main(argv) == 130
    assert capsys.readouterr().err == "error: interrupted\n"
    (error_path,) = (tmp_path / "out").rglob("error.json")
    with open(error_path) as fh:
        assert json.load(fh)["type"] == "KeyboardInterrupt"


@pytest.mark.parametrize(
    "error, line",
    [
        (ValueError("a value no check foresaw"), "error: ValueError: a value no check foresaw\n"),
        (ZeroDivisionError(), "error: ZeroDivisionError\n"),
    ],
    ids=["ValueError", "ZeroDivisionError"],
)
def test_cli_maps_any_other_error_to_exit_1(tmp_path, capsys, monkeypatch, error, line):
    """An exception type the CLI does not name used to end in a traceback;
    it exits 1 with one line naming its type, after ``error.json`` records it."""

    def failing(request):
        raise error

    monkeypatch.setattr(runner, "instantiate", failing)
    assert cli_main(["run", write_config_file(tmp_path, agent="dqn", cloud=TINY_DQN)]) == 1
    assert capsys.readouterr().err == line
    with open(tmp_path / "out" / "cli" / "error.json") as fh:
        assert json.load(fh)["type"] == type(error).__name__


def test_cli_maps_sigterm_to_exit_143(tmp_path):
    """SIGTERM used to kill the process with no line and no ``error.json``.
    A real signal, sent to a ``python -m greenrl run`` child once its run has
    written ``config.json``, ends it like an interrupt: the run records it,
    writes no summary, and the command exits 143 with one line."""
    import signal
    import subprocess
    import sys
    import time

    import greenrl

    path = write_config_file(tmp_path, agent="dqn", total_slots=10**7, cloud=TINY_DQN)
    run_dir = tmp_path / "out" / "cli"
    src = os.path.dirname(os.path.dirname(greenrl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen(
        [sys.executable, "-m", "greenrl", "run", path], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (run_dir / "config.json").exists():
            assert child.poll() is None and time.monotonic() < deadline, "the run never started"
            time.sleep(0.02)
        time.sleep(0.2)  # into the run's seed loop, past the write of config.json
        child.send_signal(signal.SIGTERM)
        _out, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait(timeout=60)
    assert child.returncode == 143
    assert err == "error: terminated\n"
    with open(run_dir / "error.json") as fh:
        assert json.load(fh)["type"] == "Terminated"
    assert not (run_dir / "summary.json").exists()


def test_cli_reports_a_diverged_snapshot(tmp_path, capsys):
    """A float64 learner whose weights outgrow the 8-bit snapshot's float32
    scale field used to end in a raw OverflowError traceback from
    ``struct.pack``."""
    cloud = {**TINY_DQN, "dtype": "float64", "snapshot_bits": 8, "lr": 1e12}
    rc = cli_main(["run", write_config_file(tmp_path, agent="dqn", cloud=cloud)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "float32 quantisation scale" in err
    assert "Traceback" not in err
    with open(tmp_path / "out" / "cli" / "error.json") as fh:
        assert json.load(fh)["type"] == "InvalidInputError"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_reports_divergence_with_its_error_line_alone(tmp_path, capsys):
    """A float64 learner with a huge learning rate overflows; numpy's
    overflow warnings used to print before the typed error line."""
    cloud = {**TINY_DQN, "dtype": "float64", "lr": 1e300}
    rc = cli_main(["run", write_config_file(tmp_path, agent="dqn", cloud=cloud)])
    assert rc == 1
    assert capsys.readouterr().err == "error: snapshot parameters must be finite\n"


def test_cli_rejects_more_hidden_layers_than_the_wire_counts(tmp_path, capsys):
    """The snapshot header counts the layer dims (input, *hidden, output) in
    one byte.  254 hidden layers used to load, then end the run in a raw
    ``struct.error`` after writing ``error.json``."""
    rc = cli_main(["run", write_config_file(tmp_path, agent="dqn", cloud={**TINY_DQN, "hidden": [2] * 254})])
    assert rc == 2
    assert "config.cloud.hidden" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    cfg = config_from_dict({"agent": "dqn", "cloud": {**TINY_DQN, "hidden": [2] * 253}})
    dims = (3, *cfg.cloud.hidden, 4)
    assert net_from_bytes(net_to_bytes(glorot_init(dims, 0))).layer_dims == dims


@pytest.mark.parametrize(
    "cloud, path",
    [
        ({"hidden": [1000000000]}, "cloud.hidden"),
        ({"replay_capacity": 10**9}, "cloud.replay_capacity"),
        # 204 MB of parameters, but about 1.5 GB of learner activations
        ({"hidden": [3000000], "batch_size": 32}, "cloud.batch_size"),
    ],
)
def test_cli_rejects_sizes_past_the_byte_bound(tmp_path, capsys, monkeypatch, cloud, path):
    """Nothing bounded a network's widths or the replay capacity: a config
    asking for tens of GB exited 1 from numpy's allocation failure, after
    writing ``error.json``.  The bound is checked by arithmetic at load, so
    the config exits 2 before anything is written; a run reaching the
    session would fail this test rather than allocate."""

    def unreachable(request):
        raise AssertionError("the run started")

    monkeypatch.setattr(runner, "instantiate", unreachable)
    rc = cli_main(["run", write_config_file(tmp_path, agent="dqn", cloud={**TINY_DQN, **cloud})])
    assert rc == 2
    assert f"config.{path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dtype, itemsize", [("float32", 4), ("float64", 8)])
def test_replay_byte_bound_is_exact(dtype, itemsize):
    """The ring holds two states of 3 * history_window floats, a reward and
    a live flag in the network dtype, and an int64 action per row; the
    largest capacity that fits the bound loads and one more row does not.
    Local agents build no ring, so the bound does not apply to them."""
    row = 8 + itemsize * (2 * 12 + 2)
    most = MAX_ARRAY_BYTES // row
    assert config_from_dict({"agent": "dqn", "cloud": {"dtype": dtype, "replay_capacity": most}})
    with pytest.raises(ConfigError, match="config.cloud.replay_capacity"):
        config_from_dict({"agent": "dqn", "cloud": {"dtype": dtype, "replay_capacity": most + 1}})
    assert config_from_dict({"agent": "le-urc", "cloud": {"dtype": dtype, "replay_capacity": most + 1}})


@pytest.mark.parametrize("dtype, itemsize", [("float32", 4), ("float64", 8)])
def test_activation_byte_bound_is_exact(dtype, itemsize):
    """A train step holds (2, batch, d) pre-activations for every layer and
    activations for every hidden layer, as ``_Workspace`` allocates them; the
    largest batch that fits the bound loads and one more row does not.  The
    learner never samples more rows than the ring holds, so a larger batch
    over a ring that small loads, and local agents are exempt."""
    ws = _Workspace(glorot_init((12, 5, 3, 4), 0, dtype=np.dtype(dtype)), 7)
    assert sum(a.nbytes for a in ws.z + ws.h) == 2 * 7 * itemsize * ((5 + 3 + 4) + (5 + 3))
    most = MAX_ARRAY_BYTES // (2 * itemsize * ((1000 + 1000 + 4) + (1000 + 1000)))
    cloud = {"dtype": dtype, "hidden": [1000, 1000], "replay_capacity": most + 1}
    assert config_from_dict({"agent": "dqn", "cloud": {**cloud, "batch_size": most}})
    with pytest.raises(ConfigError, match="config.cloud.batch_size"):
        config_from_dict({"agent": "dqn", "cloud": {**cloud, "batch_size": most + 1}})
    assert config_from_dict({"agent": "dqn", "cloud": {**cloud, "batch_size": most + 1, "replay_capacity": most}})
    assert config_from_dict({"agent": "le-urc", "cloud": {**cloud, "batch_size": most + 1}})


def test_cli_run_compression_report(tmp_path, capsys):
    path = write_config_file(tmp_path, scenario="compression", agent="dqn", cloud=TINY_DQN)
    assert cli_main(["run", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    run_dir = tmp_path / "out" / "cli"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert run_report(summary) == lines
    row = summary["per_seed"][0]
    ratios = " ".join(f"{k}={v:.3f}" for k, v in sorted(row["ledger_ratios"].items()))
    assert lines[1:3] == [
        f"seed 1: reward dense={row['dense_terminal_reward']:.3f} "
        f"compressed={row['compressed_terminal_reward']:.3f}  {ratios}",
        "reward by pruned fraction of the dense net:",
    ]
    with open(run_dir / "sparsity_reward.csv") as fh:
        rewards = [float(r["reward"]) for r in csv.DictReader(fh)]
    # one seed: each level's mean is its one reward
    assert lines[3:] == [f"  {pct:3d}%: {r:.4f}" for pct, r in zip((0, 25, 50, 75), rewards)]


@pytest.mark.parametrize("prune_at_round, pruned_after", [(None, 1), (0, 0), (3, 3)])
def test_compression_prunes_after_the_round_it_names(tmp_path, monkeypatch, prune_at_round, pruned_after):
    """Four rounds: null prunes a quarter of the way in, after round 1, and
    any other value after that round.  0 used to mean a quarter of the way
    in, and the summary reported the value given, not the round used."""
    import greenrl.cloud_loop as cloud_loop

    pruned_at, real = [], cloud_loop.Session.apply_pruning

    def recorded(session):
        pruned_at.append(len(session.log) - 1)  # one entity: one record per round
        real(session)

    monkeypatch.setattr(cloud_loop.Session, "apply_pruning", recorded)
    path = write_config_file(
        tmp_path, scenario="compression", agent="dqn", total_slots=80, cloud=TINY_DQN,
        compression={"prune_at_round": prune_at_round},
    )
    assert cli_main(["run", path]) == 0
    summary = json.loads((tmp_path / "out" / "cli" / "summary.json").read_text())
    assert pruned_at == [pruned_after] and summary["prune_at_round"] == pruned_after
    assert len(summary["per_seed"][0]["sparsity_reports"]) == 1


@pytest.mark.parametrize("prune_at_round", [4, 1000])
def test_compression_prune_at_round_past_the_run_exits_2_before_writing(tmp_path, capsys, prune_at_round):
    """A round the run never reaches used to prune nothing without a word,
    while the summary reported the value given."""
    path = write_config_file(
        tmp_path, scenario="compression", agent="dqn", total_slots=80, cloud=TINY_DQN,
        compression={"prune_at_round": prune_at_round},
    )
    assert cli_main(["run", path]) == 2
    assert "config.compression.prune_at_round: must be less than the run's 4 rounds" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_compression_rejects_cloud_snapshot_bits_before_writing(tmp_path, capsys):
    """The compression scenario's dense session publishes dense snapshots and
    its compressed one quantises at ``compression.quant_bits``, so
    ``cloud.snapshot_bits`` used to be ignored: 4 and null wrote the same
    ledger comparison and sparsity curve."""
    path = write_config_file(
        tmp_path, scenario="compression", agent="dqn", total_slots=80, cloud=dict(TINY_DQN, snapshot_bits=4),
    )
    assert cli_main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "config.cloud.snapshot_bits: must be null for the compression scenario" in err
    assert "compression.quant_bits" in err
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("transfer_every, correlation", [(5, True), (50, False)])
def test_cli_run_transfer_report(tmp_path, capsys, transfer_every, correlation):
    """15 rounds: a transfer every 5 measures the demand correlation, one
    every 50 never runs, and the report says n/a rather than failing."""
    path = write_config_file(
        tmp_path, scenario="transfer", agent="dqn", reward_threshold=1.0, cloud=dict(TINY_DQN, inner_steps=4),
        spatial={"burn_in": 10, "transfer_every": transfer_every},
    )
    assert cli_main(["run", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads((tmp_path / "out" / "cli" / "summary.json").read_text())
    assert run_report(summary) == lines
    corr = summary["estimated_correlation_mean"]
    rtt, term = summary["rounds_to_threshold"], summary["terminal_reward"]
    assert (corr is not None) == correlation
    assert lines[1:] == [
        "demand correlation between stations: " + (f"{corr:.4f}" if correlation else "n/a"),
        f"rounds to threshold: transfer median={rtt['transfer_median']} baseline median={rtt['baseline_median']} "
        f"(mean {rtt['transfer_mean']:.1f} vs {rtt['baseline_mean']:.1f})",
        f"terminal reward: transfer={term['transfer_mean']:.4f} baseline={term['baseline_mean']:.4f} "
        f"p(drop)={term['p_transfer_drop']} effect d={term['effect_size_d']:.3f}",
    ]


TRANSFER_ROUNDS = 9


def transfer_config(tmp_path, transfer_every, inner_steps=4, compressed=False):
    """Two seeds of TRANSFER_ROUNDS rounds, greedy from the fourth train step
    on, so a transfer changes the actions; a replay of 24 rows wraps by
    round 6 at 4 steps."""
    cloud = dict(TINY_DQN, inner_steps=inner_steps, replay_capacity=24, eps_decay_steps=3)
    if compressed:
        cloud.update(snapshot_bits=8, batch_fp16=True)
    return tiny_config(
        tmp_path, scenario="transfer", agent="dqn", seeds=[4, 5], total_slots=TRANSFER_ROUNDS * inner_steps,
        reward_threshold=6.0, threshold_window=3, cloud=cloud,
        spatial={"burn_in": 10, "transfer_every": transfer_every},
    )


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize("inner_steps", [1, 4])
@pytest.mark.parametrize("transfer_every", [1, 7, TRANSFER_ROUNDS, TRANSFER_ROUNDS + 5])
def test_transfer_arms_match_separate_arms(tmp_path, transfer_every, inner_steps, compressed):
    """Both arms of a seed, sharing their rounds before the first transfer
    and one field source, equal two separately run arms bit for bit: the
    curves, correlations, rounds to threshold, terminal rewards and bytes.
    A transfer after one slot has too short a history for a correlation:
    the config is refused, and forced past that rule, both ways of running
    fail alike."""
    if transfer_every * inner_steps < 2:
        with pytest.raises(ConfigError, match=r"^config\.spatial\.transfer_every: must be >= 2"):
            transfer_config(tmp_path, transfer_every, inner_steps, compressed)
        cfg = transfer_config(tmp_path, 2, inner_steps, compressed)
        object.__setattr__(cfg.spatial, "transfer_every", transfer_every)
        for run in (lambda: runner.run_transfer_arms(cfg, 4), lambda: reference_run_transfer_arm(cfg, 4, True)):
            with pytest.raises(InvalidInputError, match="T >= 2"):
                run()
        return
    cfg = transfer_config(tmp_path, transfer_every, inner_steps, compressed)
    for seed in cfg.seeds:
        for got, enabled in zip(runner.run_transfer_arms(cfg, seed), (True, False)):
            want = reference_run_transfer_arm(cfg, seed, enabled)
            assert got["curve"].tobytes() == want["curve"].tobytes()
            assert {k: v for k, v in got.items() if k != "curve"} == {k: v for k, v in want.items() if k != "curve"}
            transfers = sum(1 for r in range(1, TRANSFER_ROUNDS) if r % transfer_every == 0)
            assert len(got["correlations"]) == (transfers if enabled else 0)


def test_transfer_run_creates_a_session_pair_per_arm(tmp_path, monkeypatch):
    """Wrapped the way a ledger capture wraps ``instantiate``, binding each
    session's ledger objects when it is created, a transfer run creates four
    sessions per seed: the transfer arm's pair, then the baseline arm's pair,
    forked from it in the same order.  Every session ends with all rounds on
    the ledgers it was created with, and each pair's add up to its arm's bytes."""
    import greenrl.cloud_loop as cloud_loop

    created = []
    original = cloud_loop.instantiate

    def capturing(request):
        session = original(request)
        created.append((request, session, session.message_ledger, session.energy))
        return session

    for module in (cloud_loop, runner):
        monkeypatch.setattr(module, "instantiate", capturing)
    cfg = transfer_config(tmp_path, 3)
    summary = run_experiment(cfg)
    assert len(created) == 4 * len(cfg.seeds)
    for i in range(len(cfg.seeds)):
        group = created[4 * i : 4 * i + 4]
        assert group[0][0] is not group[1][0]
        assert group[2][0] is group[0][0] and group[3][0] is group[1][0]
        for arm, pair in (("transfer", group[:2]), ("baseline", group[2:])):
            for _request, session, message, energy in pair:
                assert message is session.log and session.energy is energy
                assert message.rounds == cfg.rounds()
                assert energy.recompute_from_events()["bytes_wire"] == message.bytes_down + message.bytes_up
            result = summary["per_seed"][arm][i]
            assert sum(m.bytes_up for _, _, m, _ in pair) == result["bytes_up"]
            assert sum(m.bytes_down for _, _, m, _ in pair) == result["bytes_down"]


def capture_sessions(monkeypatch) -> list:
    """Wrap ``instantiate`` the way a ledger capture does; the list gets each
    (request, session, message ledger, energy ledger) at creation.  The
    message ledger is the session's round log, which ``message_ledger``
    returns."""
    import greenrl.cloud_loop as cloud_loop

    created = []
    original = cloud_loop.instantiate

    def capturing(request):
        session = original(request)
        created.append((request, session, session.message_ledger, session.energy))
        return session

    for module in (cloud_loop, runner):
        monkeypatch.setattr(module, "instantiate", capturing)
    return created


def test_rach_run_creates_one_session_per_seed(tmp_path, monkeypatch):
    """A rach dqn run creates one session per seed, in seed order, and each
    session's final ledgers are its seed's summary entry."""
    created = capture_sessions(monkeypatch)
    cfg = tiny_config(tmp_path, agent="dqn", seeds=[3, 1, 2], cloud=TINY_DQN)
    summary = run_experiment(cfg)
    assert [request.seed for request, *_ in created] == [3, 1, 2]
    for (_request, session, message, energy), entry in zip(created, summary["per_seed"]):
        assert message is session.log and session.energy is energy
        assert message.rounds == cfg.rounds()
        assert message.message_block() == entry["message"]
        assert energy.snapshot() == entry["energy"]


def test_compression_run_creates_dense_then_compressed_per_seed(tmp_path, monkeypatch):
    """A compression run creates two sessions per seed, dense then
    compressed, and each one's final ledgers are its arm of the seed's entry."""
    created = capture_sessions(monkeypatch)
    cfg = tiny_config(tmp_path, scenario="compression", agent="dqn", cloud=TINY_DQN)
    summary = run_experiment(cfg)
    assert [request.seed for request, *_ in created] == [1, 1, 2, 2]
    for i, entry in enumerate(summary["per_seed"]):
        dense, compressed = created[2 * i : 2 * i + 2]
        assert dense[0].compression == CompressionPlan()
        assert compressed[0].compression.snapshot_bits == cfg.compression.quant_bits
        assert compressed[0].compression.prune_quantile == summary["prune_quantile"]
        for arm, (_request, session, message, energy) in (("dense", dense), ("compressed", compressed)):
            assert message is session.log and session.energy is energy
            assert message.rounds == cfg.rounds()
            assert message.message_block() == entry[arm]["message"]
            assert energy.snapshot() == entry[arm]["energy"]


@pytest.mark.parametrize(
    "agent, cloud",
    [("dqn", TINY_DQN), ("dqn", {**TINY_DQN, "mode": "concurrent", "n_entities": 3}), ("le-urc", TINY_DQN)],
    ids=["lockstep", "concurrent", "local"],
)
def test_message_block_reconciles_with_the_round_csv(tmp_path, agent, cloud):
    """Each seed's summary ``message`` block is rebuilt offline from its
    round CSV alone: the row count, the last row's byte totals and the count
    of each staleness.  A local agent sends no message, so its block is the
    fixed zero block whatever its CSV holds."""
    cfg = tiny_config(tmp_path, agent=agent, cloud=cloud)
    run_experiment(cfg)
    for seed in cfg.seeds:
        with open(tmp_path / "t" / f"seed{seed:04d}_rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "t" / f"seed{seed:04d}_summary.json") as fh:
            block = json.load(fh)["message"]
        assert len(rows) == cfg.rounds() * cfg.cloud.n_entities
        if agent != "dqn":
            assert block == {"rounds": 0, "bytes_down": 0, "bytes_up": 0, "staleness_histogram": {}}
            continue
        staleness = [int(row["staleness"]) for row in rows]
        assert sorted(set(staleness)) == list(range(cfg.cloud.n_entities if cfg.cloud.mode == "concurrent" else 1))
        assert block == {
            "rounds": len(rows),
            "bytes_down": int(rows[-1]["bytes_down_total"]),
            "bytes_up": int(rows[-1]["bytes_up_total"]),
            "staleness_histogram": {str(lag): staleness.count(lag) for lag in set(staleness)},
        }


@pytest.mark.parametrize("scenario, sessions_per_seed", [("rach", 1), ("compression", 2)])
def test_failure_in_a_later_seed_keeps_the_finished_seeds(tmp_path, monkeypatch, scenario, sessions_per_seed):
    """The second of two seeds fails at its first session.  The first rach
    seed's files stay, ``error.json`` names the error and no summary.json is
    written; a compression run writes its files once every seed is done, so
    it leaves only config.json and error.json."""
    original = runner.instantiate
    seeds = []

    def failing(request):
        seeds.append(request.seed)
        if len(seeds) > sessions_per_seed:
            raise RuntimeError("the second seed failed")
        return original(request)

    monkeypatch.setattr(runner, "instantiate", failing)
    cfg = tiny_config(tmp_path, scenario=scenario, agent="dqn", cloud=TINY_DQN)
    with pytest.raises(RuntimeError, match="the second seed failed"):
        run_experiment(cfg)
    assert seeds == [1] * sessions_per_seed + [2]
    finished = ["seed0001_rounds.csv", "seed0001_summary.json"] if scenario == "rach" else []
    assert sorted(os.listdir(cfg.run_dir())) == ["config.json", "error.json"] + finished
    with open(os.path.join(cfg.run_dir(), "error.json")) as fh:
        record = json.load(fh)
    assert record == {"error": "the second seed failed", "type": "RuntimeError", "config_hash": config_hash(cfg)}


def test_cli_compare(tmp_path, capsys):
    a = write_config_file(tmp_path, name="heur", seeds=[1, 2])
    b = write_config_file(tmp_path, name="rand", agent="random", seeds=[1, 2])
    rc = cli_main(["compare", a, b])
    out = capsys.readouterr().out
    assert rc == 0
    assert "comparison written" in out
    assert "heur" in out and "rand" in out
    report = json.loads((tmp_path / "out" / "comparison_heur_rand" / "compare_report.json").read_text())
    for name in ("heur", "rand"):
        entry = report["agents"][name]
        lo, hi = entry["ci95"]
        assert lo < hi
        assert f"  {name}: {entry['mean']:.4f} ci95=[{lo:.4f}, {hi:.4f}] (agent={entry['agent']})" in out
    pair = report["pairwise"]["heur>rand"]
    assert f"pairwise one-sided p-values:\n  heur>rand: diff={pair['mean_diff']:+.4f} p={pair['p_one_sided']}\n" in out


def test_cli_compare_rejects_a_repeated_name_before_running(tmp_path, capsys):
    """``compare a b a`` used to run a and b in full, write their run
    directories, and only then exit 2 on the repeated name."""
    a = write_config_file(tmp_path, name="a")
    b = write_config_file(tmp_path, name="b", agent="random")
    rc = cli_main(["compare", a, b, a])
    assert rc == 2
    assert "duplicate config name 'a'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_cli_sweep(tmp_path, capsys):
    rc = cli_main(["sweep", write_config_file(tmp_path), "--param", "rach.traffic_p", "--values", "0.05,0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sweep written" in out
    assert "rach.traffic_p=0.05" in out
