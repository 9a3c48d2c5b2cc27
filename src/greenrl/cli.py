"""Command-line entry points.

    greenrl run <config.json>
    greenrl compare <configA.json> <configB.json> [...]
    greenrl sweep <config.json> --param cloud.inner_steps --values 1,8,64

``run`` prints the run's report (``run_report``): the terminal reward mean
for ``rach``; each seed's dense and compressed reward and ledger ratios,
then the mean reward at each sparsity level, for ``compression``; the
demand correlation, rounds to threshold and paired terminal-reward test for
``transfer``.  ``compare`` prints each agent's mean eval reward with its 95%
interval, then every pair's mean difference and one-sided p-value.

Exit codes: 0 success, 1 any other failure (runtime, file system,
allocation, or an unexpected error, reported as ``error: <Type>: <message>``),
2 configuration error, 130 interrupted, 143 terminated by SIGTERM.  An
interrupted or terminated run records the signal in its ``error.json``, as a
failed run records its error.  The output root comes from each
config's ``out_dir``, else the GREENRL_OUTPUT_ROOT environment variable, else ./results.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import signal
import sys

import numpy as np

from .config import load_config
from .errors import ConfigError, GreenRLError
from .runner import compare_agents, run_experiment, sweep


def _parse_values(raw: str) -> list:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
        except RecursionError:
            raise ConfigError("--values: a value is nested too deeply to parse") from None
    if not values:
        raise ConfigError("--values must list at least one value")
    return values


def run_report(summary: dict) -> list[str]:
    """The lines ``greenrl run`` prints for a run's summary, as in its ``summary.json``.

    A compression report also reads the run's ``sparsity_reward.csv``.
    """
    lines = [f"run complete: {summary['run_dir']}"]
    if summary["scenario"] == "rach":
        lines.append(f"terminal reward mean: {summary['terminal_reward_mean']:.4f}")
    elif summary["scenario"] == "compression":
        for row in summary["per_seed"]:
            # sorted, as summary.json stores them
            ratios = " ".join(f"{k}={v:.3f}" for k, v in sorted(row["ledger_ratios"].items()))
            lines.append(
                f"seed {row['seed']}: reward dense={row['dense_terminal_reward']:.3f} "
                f"compressed={row['compressed_terminal_reward']:.3f}  {ratios}"
            )
        by_level: dict[float, list[float]] = {}
        with open(os.path.join(summary["run_dir"], "sparsity_reward.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                by_level.setdefault(float(row["sparsity_target"]), []).append(float(row["reward"]))
        lines.append("reward by pruned fraction of the dense net:")
        lines += [f"  {int(lvl * 100):3d}%: {sum(v) / len(v):.4f}" for lvl, v in sorted(by_level.items())]
    else:
        corr = summary["estimated_correlation_mean"]
        rtt, term = summary["rounds_to_threshold"], summary["terminal_reward"]
        lines += [
            # no transfer round runs when transfer_every >= the run's rounds
            "demand correlation between stations: " + ("n/a" if corr is None else f"{corr:.4f}"),
            f"rounds to threshold: transfer median={rtt['transfer_median']} "
            f"baseline median={rtt['baseline_median']} (mean {rtt['transfer_mean']:.1f} "
            f"vs {rtt['baseline_mean']:.1f})",
            f"terminal reward: transfer={term['transfer_mean']:.4f} "
            f"baseline={term['baseline_mean']:.4f} p(drop)={term['p_transfer_drop']} "
            f"effect d={term['effect_size_d']:.3f}",
        ]
    return lines


class Terminated(KeyboardInterrupt):
    """SIGTERM, raised in the main thread as Ctrl-C raises KeyboardInterrupt, so that a
    run records it as it records an interrupt."""


def _terminate(signum, frame):
    raise Terminated("terminated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="greenrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")

    p_cmp = sub.add_parser("compare", help="run several configs on one scenario and rank agents")
    p_cmp.add_argument("configs", nargs="+")

    p_sweep = sub.add_parser("sweep", help="re-run one config across values of one field")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="dotted field path, e.g. cloud.inner_steps")
    p_sweep.add_argument("--values", required=True, help="comma-separated JSON scalars")
    return parser


# A diverging learner overflows in numpy before the typed finite-snapshot
# check reports it; that check's error line is the whole report.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        if args.command == "run":
            print("\n".join(run_report(run_experiment(load_config(args.config)))))
        elif args.command == "compare":
            report = compare_agents([load_config(p) for p in args.configs])
            print(f"comparison written: {report['out_dir']}")
            for name in report["ranking"]:
                entry = report["agents"][name]
                lo, hi = entry["ci95"]
                print(f"  {name}: {entry['mean']:.4f} ci95=[{lo:.4f}, {hi:.4f}] (agent={entry['agent']})")
            print("pairwise one-sided p-values:")
            for pair, res in report["pairwise"].items():
                print(f"  {pair}: diff={res['mean_diff']:+.4f} p={res['p_one_sided']}")
        elif args.command == "sweep":
            report = sweep(load_config(args.config), args.param, _parse_values(args.values))
            print(f"sweep written: {report['out_dir']}")
            for row in report["rows"]:
                print(
                    f"  {args.param}={row['value']}: reward={row['terminal_reward_mean']:.4f}"
                    f" bytes={row['bytes_total_mean']:.0f}"
                )
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (GreenRLError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 143
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # any other error still ends in one line, not a traceback
        print(f"error: {type(exc).__name__}" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
