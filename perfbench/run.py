"""greenrl benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload dqn-train --seed 1 --seconds 25 --trace 0

Run from the repository root.  The load is a closed loop in one process at
a time: fresh interpreters (``worker.py``) run one after another, each
importing greenrl from ``src/``, building the workload's configs from the
seed and running them through ``run_experiment`` / ``compare_agents`` back
to back for a fifth of ``--seconds``, checking every run's outputs.  Five
short-lived interpreters rather than fewer long ones spread the runs over
more process layouts; the median over processes of one invocation differed
by more than run-to-run noise explains.

Reported values:

* ``setup_s``: median over the interpreters of import (numpy's included)
  plus config build.
* ``slots_per_s``: slots of one run over its duration at a reference host
  speed, median over the runs.  The host's speed drifts by up to 1.5x over
  tens of seconds, long enough for a whole run to sit in a slow phase, so
  each run's duration is scaled by its host slowness: the mean of the
  middle 80% of the speed probes run during it (``spans.HostProbe``; their
  time is left out of the duration) over ``spans.PROBE_REF_NS``.  Over
  30-second stretches this cut the spread of single runs' durations from
  0.08-0.18 to 0.05-0.07 (sd of the log).  The unscaled figure is in the
  detail file.
* ``peak_rss_mb``: median over interpreters of the peak resident memory
  after their first run.
* ``reward``: the workload's headline reward, identical in every run.

With ``--trace 1`` every other run in each interpreter is traced (see
``spans.py``) and the per-layer metrics are medians over the traced runs.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  A fuller record (machine, every run, output digest) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKERS = 5  # fresh interpreters per run; each measures for a fifth of --seconds
CHILD_TIMEOUT_S = 150


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import numpy  # noqa: F401  (loads the BLAS library)

    info: dict = {"threads": None, "config": None}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                info = {"threads": get_threads(), "config": get_config().decode(), "library": path}
    return info


def _source_sha256() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest.update(os.path.relpath(path, src).encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_block() -> dict:
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": _openblas(),
        "loadavg_at_start": os.getloadavg(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
    }


def run_worker(args, *extra: str) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), "--out", OUT]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timing_summary(samples: list[float]) -> dict:
    """Sample count, median and the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    out = {"n": len(ordered), "median": statistics.median(ordered) if ordered else None}
    if len(ordered) > 10:
        pct = 100 * (len(ordered) - 10) // len(ordered)
        out[f"p{pct}"] = ordered[(len(ordered) * pct) // 100]
    return out


def _digest_change(key: str, digest: str, source: str) -> str | None:
    """Record the digest; return the earlier source hash if the digest changed."""
    path = os.path.join(OUT, "digests.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    before = known.get(key)
    known[key] = {"digest": digest, "source_sha256": source}
    with open(path, "w") as fh:
        json.dump(known, fh, indent=2, sort_keys=True)
    if before and before["digest"] != digest:
        return before["source_sha256"]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny experiments, for the self-test")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "greenrl", "__init__.py")):
        print(f"no greenrl sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(2, os.cpu_count() or 1))
    os.makedirs(OUT, exist_ok=True)
    machine = machine_block()

    if not os.path.isdir(os.path.join(ROOT, "src", "greenrl", "__pycache__")):
        run_worker(args, "--setup-only")  # first run in this tree: compile byte-code, unmeasured
    extra = ["--seconds", str(args.seconds / WORKERS)] + (["--trace"] if args.trace else [])
    procs = [run_worker(args, *extra) for _ in range(WORKERS)]

    runs = [run for proc in procs for run in proc["runs"]]
    timed = [r for r in runs if not r["traced"] and "digest" in r]
    traced_runs = [r for r in runs if r["traced"] and "digest" in r]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = sorted({r["digest"] for r in timed + traced_runs})
    correct = failed == 0 and len(digests) == 1

    values: dict[str, float] = {}
    if timed:
        slots = timed[0]["slots"]
        scaled_s = [
            r["experiment_s"] * spans.PROBE_REF_NS / spans.trimmed_mean(r["probes_ns"]) for r in timed
        ]
        values.update(
            setup_s=statistics.median(p["setup_s"] for p in procs),
            slots_per_s=slots / statistics.median(scaled_s),
            peak_rss_mb=statistics.median(p["peak_rss_mb"] for p in procs if "peak_rss_mb" in p),
            reward=timed[0]["reward"],
        )
    if traced_runs:
        values.update(spans.zero_stats())
        for key in traced_runs[0]["layers"]:
            values[key] = statistics.median(r["layers"].get(key, 0) for r in traced_runs)
        values["setup.import_s"] = statistics.median(p["import_s"] for p in procs)
        values["setup.config_s"] = statistics.median(p["config_s"] for p in procs)
        # Each traced run against the untraced run just before it in the same
        # interpreter, so that both ran in about the same host phase.
        ratios = [
            b["experiment_s"] / a["experiment_s"]
            for proc in procs
            for a, b in zip(proc["runs"], proc["runs"][1:])
            if b["traced"] and not a["traced"] and "digest" in a and "digest" in b
        ]
        if ratios:
            values["trace.overhead_frac"] = statistics.median(ratios) - 1

    digest_changed_since = None
    if len(digests) == 1 and not args.trace:
        key = f"{args.workload}/seed{args.seed}" + ("/tiny" if args.tiny else "")
        digest_changed_since = _digest_change(key, digests[0], machine["source_sha256"])
        if digest_changed_since:
            print(
                f"note: output digest changed since source {digest_changed_since[:12]}",
                file=sys.stderr,
            )
    metrics = {}
    for metric in declared:
        if metric["name"] in values:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        correct = False
        print(f"metrics not measured: {missing}", file=sys.stderr)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "experiment_seeds": workloads.experiment_seeds(
            args.seed, workloads.SIZES[args.workload][1 if args.tiny else 0][0]
        ),
        "machine": machine,
        "digests": digests,
        "digest_changed_since_source": digest_changed_since,
        "samples": {"timed": len(timed), "traced": len(traced_runs)},
        "slots_per_s_unscaled": slots / statistics.median(r["experiment_s"] for r in timed) if timed else None,
        "scaled_s": timing_summary(scaled_s) if timed else None,
        "experiment_s": timing_summary([r["experiment_s"] for r in timed]),
        "setup_s": timing_summary([p["setup_s"] for p in procs]),
        "interpreters": procs,
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
    for key, metric in metrics.items():
        print(f"{key:45s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    print(f"output digest {args.workload} seed {args.seed}: {' '.join(digests) or 'none'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
