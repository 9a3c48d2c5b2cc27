"""Self-test of the benchmark: every workload, tiny, untraced and traced.

    python3 perfbench/selftest.py

Runs ``run.py --tiny`` for each workload in both modes and asserts that
the result line is well formed, that every metric BENCHMARK.json declares
is printed with its declared unit, and that the output checks pass (no
failed operation, one output digest).  Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit code {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
            assert result["correct"] is True, (workload, trace)
            assert result["failed"] == 0 and result["attempted"] >= 1, (workload, trace)
            declared = {m["name"]: m["unit"] for m in bench[key]}
            assert set(result["metrics"]) == set(declared), set(declared) ^ set(result["metrics"])
            for name, metric in result["metrics"].items():
                assert metric["unit"] == declared[name], (name, metric)
                assert math.isfinite(metric["value"]), (name, metric)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == 0:
                for name in declared:
                    assert values[name] > 0, name
            else:
                cloud = workload != "local-baselines"
                assert (values["neural.forward.calls"] > 0) == cloud, workload
                assert (values["wire_bytes_per_slot"] > 0) == cloud, workload
                assert (values["spatial.side_step.calls"] > 0) == (workload == "field-transfer")
            print(f"ok {workload} trace={trace}: {len(result['metrics'])} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
