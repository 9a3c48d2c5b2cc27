import csv
import json
import os

import numpy as np
import pytest
from scipy import stats

from greenrl import runner
from greenrl.cli import main as cli_main
from greenrl.cli import run_report
from greenrl.config import config_from_dict
from greenrl.errors import ConfigError
from greenrl.paired import _effect_size_d, _paired_p, ttest_p, wilcoxon_p
from greenrl.runner import (
    ROUND_COLUMNS,
    compare_agents,
    per_round_curve,
    rounds_to_threshold,
    run_experiment,
    run_rach_seed,
    sweep,
    write_csv,
    write_json,
)
from oracles import reference_per_round_curve


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


def test_per_round_curve_averages_entities():
    rows = [
        {"round": 0, "reward_mean": 1.0},
        {"round": 0, "reward_mean": 3.0},
        {"round": 1, "reward_mean": 5.0},
    ]
    np.testing.assert_allclose(per_round_curve(rows), [2.0, 5.0])


@pytest.mark.parametrize("max_entities", [1, 3, 9, 33])
def test_per_round_curve_matches_per_round_mean(max_entities):
    """Ragged rounds, in shuffled row order: bit for bit the one-np.mean-per-round reference."""
    rng = np.random.default_rng(max_entities)
    rows = [
        {"round": r, "reward_mean": float(v)}
        for r in range(300)
        for v in rng.normal(size=int(rng.integers(1, max_entities + 1))) * 10.0 ** rng.integers(-3, 4)
    ]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    assert per_round_curve(rows).tobytes() == reference_per_round_curve(rows).tobytes()


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
    path = tmp_path / "rows.csv"
    rows = [{"x": 1, "y": 2, "z": 3}, {"x": 4, "y": 5, "z": 6}]
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
    assert set(rows[0]) == set(ROUND_COLUMNS)
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
    assert rows[-1]["bytes_down_total"] == summary["message"]["bytes_down"]


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


def test_run_experiment_records_failures(tmp_path, monkeypatch):
    # the transfer scenario insists on a convergence threshold, and checks
    # for it before it builds or trains any session
    cfg = tiny_config(tmp_path, scenario="transfer", agent="dqn")
    with monkeypatch.context() as m:
        m.setattr(runner, "instantiate", lambda request: pytest.fail("trained before failing"))
        with pytest.raises(ConfigError):
            run_experiment(cfg)
    error_path = os.path.join(cfg.run_dir(), "error.json")
    with open(error_path) as fh:
        record = json.load(fh)
    assert record["type"] == "ConfigError"
    assert "threshold" in record["error"]
    assert not os.path.exists(os.path.join(cfg.run_dir(), "summary.json"))
    # the fixed config succeeds in the same run_dir and clears the stale error
    fixed = tiny_config(tmp_path, scenario="transfer", agent="dqn", reward_threshold=1.0)
    assert fixed.run_dir() == cfg.run_dir()
    run_experiment(fixed)
    assert not os.path.exists(error_path)
    assert os.path.isfile(os.path.join(cfg.run_dir(), "summary.json"))


def test_failed_run_leaves_no_earlier_artifacts(tmp_path):
    """A failing config cannot sit beside an earlier run's summary and seed files."""
    first = run_experiment(tiny_config(tmp_path))
    run_dir = first["run_dir"]
    assert os.path.isfile(os.path.join(run_dir, "seed0001_rounds.csv"))
    failing = tiny_config(tmp_path, scenario="transfer", agent="dqn")
    assert failing.run_dir() == run_dir
    with pytest.raises(ConfigError):
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
    mismatched = tiny_config(tmp_path, name="two", total_slots=80)
    with pytest.raises(ConfigError, match="share"):
        compare_agents([a, mismatched])


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
    ],
)
def test_cli_rejects_bad_agent_param_before_writing(tmp_path, capsys, key, value):
    """A bare key is an ``agent_params`` field.  Each used to fail only at
    run time: eps_decay_steps 0 and inner_steps 0 as a raw ZeroDivisionError
    or ValueError (exit 1), alpha and eps_start after config.json was
    written, and quant_bits 99 not at all on a run that never quantises.
    num_devices, traffic_p and snapshot_bits failed after config.json and
    error.json were written, the compression fields only on a compression
    run, and n_entities 2.5 not at all on a local agent."""
    section, _, field = key.rpartition(".")
    section = section or "agent_params"
    path = write_config_file(tmp_path, agent="tabular", **{section: {field: value}})
    rc = cli_main(["run", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"config.{section}.{field}: must be" in err
    assert not os.path.exists(tmp_path / "out")


TINY_DQN = {"inner_steps": 20, "hidden": [8], "batch_size": 8, "replay_capacity": 64}


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


def test_cli_sweep(tmp_path, capsys):
    rc = cli_main(["sweep", write_config_file(tmp_path), "--param", "rach.traffic_p", "--values", "0.05,0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sweep written" in out
    assert "rach.traffic_p=0.05" in out
