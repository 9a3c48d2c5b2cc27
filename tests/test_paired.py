"""The paired statistics against scipy.stats, and an import path without it.

``greenrl.paired`` computes its p-values and interval from ``scipy.special``
so that greenrl never loads ``scipy.stats``; scipy.stats is the reference
here, and every value must match it exactly.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from greenrl.paired import _paired_p, _t_statistic, ci95, ttest_p, wilcoxon_p

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def samples(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    return np.array(draw(st.lists(finite, min_size=n, max_size=n)))


@st.composite
def signed_ranks(draw, min_n, max_n, ties):
    """Differences whose magnitudes all differ (``ties=False``) or come from a
    few small integers, so that ties and zeros are common (``ties=True``)."""
    n = draw(st.integers(min_n, max_n))
    if ties:
        mags = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    else:
        mags = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True))
    signs = draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=n, max_size=n))
    scale = draw(st.sampled_from((1.0, 0.37, 1e-3, 250.0)))
    return np.array(signs) * np.array(mags, dtype=float) * scale


def _tied_or_zero(d):
    nonzero = d[d != 0]
    return len(np.unique(np.abs(nonzero))) < len(nonzero) or len(nonzero) < len(d)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(a=samples(2, 60), data=st.data())
def test_ttest_matches_scipy(a, data):
    b = data.draw(samples(len(a), len(a)))
    assume(not np.allclose(a - b, 0))
    for alternative in ("two-sided", "less", "greater"):
        want = float(stats.ttest_rel(a, b, alternative=alternative).pvalue)
        assert ttest_p(a - b, alternative) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(x=samples(2, 60))
def test_ci95_matches_scipy(x):
    assume(x.std(ddof=1) > 0)
    lo, hi = stats.t.interval(0.95, len(x) - 1, loc=x.mean(), scale=stats.sem(x))
    assert ci95(x) == (float(lo), float(hi))


@settings(max_examples=200, deadline=None)
@given(d=signed_ranks(2, 50, ties=False))
def test_wilcoxon_exact_matches_scipy(d):
    assert not _tied_or_zero(d)
    assert wilcoxon_p(d) == float(stats.wilcoxon(d).pvalue)


@settings(max_examples=40, deadline=None)
@given(d=signed_ranks(2, 13, ties=True))
def test_wilcoxon_sign_flips_match_scipy(d):
    assume(_tied_or_zero(d) and np.any(d != 0))
    assert wilcoxon_p(d) == float(stats.wilcoxon(d).pvalue)


@pytest.mark.parametrize("ties,min_n", [(True, 14), (False, 51)])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_wilcoxon_normal_approximation_matches_scipy(ties, min_n, data):
    d = data.draw(signed_ranks(min_n, 60, ties=ties))
    assume(np.any(d != 0))
    assert _tied_or_zero(d) == ties
    assert wilcoxon_p(d) == float(stats.wilcoxon(d).pvalue)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_constant_difference_gives_infinite_t():
    # zero variance: t is infinite, and the p-value is still scipy's
    d = np.array([1.0, 1.0, 1.0])
    assert _t_statistic(d) == np.inf
    assert _t_statistic(-d) == -np.inf
    a, b = [3.0, 4.0, 5.0], [2.0, 3.0, 4.0]
    for alternative in ("two-sided", "less", "greater"):
        want = float(stats.ttest_rel(a, b, alternative=alternative).pvalue)
        assert _paired_p(a, b, ttest_p, alternative=alternative) == want
    assert _paired_p(a, b, ttest_p, alternative="greater") == 0.0


def test_ttest_rejects_unknown_alternative():
    with pytest.raises(ValueError, match="alternative"):
        ttest_p(np.array([1.0, 2.0]), "bigger")


_IMPORT_PROBE = """
import json, sys

import greenrl.cli, greenrl.runner
from greenrl.config import config_from_dict
from greenrl.runner import compare_agents, run_experiment

def heavy():
    return sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)

report = {"after_import": heavy()}
base = {
    "seeds": [1, 2, 3],
    "total_slots": 60,
    "eval_slots": 40,
    "out_dir": sys.argv[1],
    "rach": {"num_devices": 20},
    "cloud": {"inner_steps": 20, "hidden": [8], "batch_size": 8, "replay_capacity": 64},
}
transfer = run_experiment(config_from_dict({
    **base,
    "name": "transfer",
    "scenario": "transfer",
    "agent": "dqn",
    "total_slots": 240,
    "reward_threshold": 9.0,
    "cloud": {"inner_steps": 4, "hidden": [8], "batch_size": 16, "replay_capacity": 64,
              "eps_decay_steps": 30},
    "spatial": {"burn_in": 20, "transfer_every": 10},
}))
compare = compare_agents([
    config_from_dict({**base, "name": "a", "agent": "le-urc"}),
    config_from_dict({**base, "name": "b", "agent": "random"}),
])
report["after_runs"] = heavy()
report["transfer"] = {k: transfer[k] for k in ("rounds_to_threshold", "terminal_reward")}
report["compare"] = {"ci95": compare["agents"]["a"]["ci95"], "pairwise": compare["pairwise"]}
print(json.dumps(report))
"""


def test_import_and_statistics_load_no_scipy_stats(tmp_path):
    # A fresh interpreter: this test process has loaded scipy.stats itself.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["after_runs"] == []
    # the runs really computed each statistic, not just its guards
    rtt = report["transfer"]["rounds_to_threshold"]
    assert rtt["mean_diff"] != 0
    assert rtt["p_wilcoxon_two_sided"] is not None
    assert rtt["p_transfer_worse"] is not None
    assert report["transfer"]["terminal_reward"]["p_transfer_drop"] not in (None, 1.0)
    lo, hi = report["compare"]["ci95"]
    assert lo < hi
    assert report["compare"]["pairwise"]["a>b"]["p_one_sided"] not in (None, 1.0)


_COLD_PROBE = """
import json, sys

import greenrl.cli, greenrl.runner
from greenrl.config import config_from_dict
from greenrl.runner import compare_agents, run_experiment

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = {"after_import": scipy_modules()}
base = {
    "seeds": [1, 2, 3],
    "total_slots": 60,
    "eval_slots": 40,
    "out_dir": sys.argv[1],
    "rach": {"num_devices": 20},
    "cloud": {"inner_steps": 20, "hidden": [8], "batch_size": 8, "replay_capacity": 64},
}
rach = run_experiment(config_from_dict({**base, "name": "rach", "agent": "dqn"}))
compression = run_experiment(config_from_dict({**base, "name": "compression", "scenario": "compression",
                                               "agent": "dqn", "seeds": [1]}))
report["after_rach_and_compression"] = scipy_modules()
report["ran"] = [rach["scenario"], compression["scenario"]]
transfer = run_experiment(config_from_dict({
    **base,
    "name": "transfer",
    "scenario": "transfer",
    "agent": "dqn",
    "total_slots": 240,
    "reward_threshold": 9.0,
    "cloud": {"inner_steps": 4, "hidden": [8], "batch_size": 16, "replay_capacity": 64,
              "eps_decay_steps": 30},
    "spatial": {"burn_in": 20, "transfer_every": 10},
}))
report["after_transfer"] = "scipy.special" in sys.modules
compare = compare_agents([
    config_from_dict({**base, "name": "a", "agent": "le-urc"}),
    config_from_dict({**base, "name": "b", "agent": "random"}),
])
report["after_compare"] = scipy_modules()
report["transfer"] = transfer["terminal_reward"]["p_transfer_drop"]
report["compare"] = {"ci95": compare["agents"]["a"]["ci95"], "p": compare["pairwise"]["a>b"]["p_one_sided"]}
print(json.dumps(report))
"""


def test_rach_and_compression_runs_never_load_scipy(tmp_path):
    """scipy.special loads at the first paired statistic, which only transfer
    and compare runs compute, so a rach or compression process starts with
    numpy alone.  A fresh interpreter: this test process has loaded scipy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["ran"] == ["rach", "compression"]
    assert report["after_rach_and_compression"] == []
    # the statistics load scipy.special, not scipy.stats, and each was computed, not cut short by a guard
    assert report["after_transfer"]
    assert "scipy.special" in report["after_compare"]
    assert not {"scipy.stats", "scipy.optimize"} & set(report["after_compare"])
    assert report["transfer"] not in (None, 1.0)
    lo, hi = report["compare"]["ci95"]
    assert lo < hi
    assert report["compare"]["p"] not in (None, 1.0)
