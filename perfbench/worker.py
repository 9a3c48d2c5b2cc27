"""One fresh interpreter: set-up once, then the workload's experiment repeatedly.

    python3 perfbench/worker.py --workload W --seed N --out DIR --seconds S [--trace] [--tiny]

Times ``import greenrl`` plus config build (set-up), then runs the
experiment back to back while another run fits in ``S`` seconds (at least
once), checking the outputs of every run.  Each run records its duration
and the speed probes run during it (``spans.HostProbe``), whose time the
duration leaves out; with ``--trace`` every other run is traced, unprobed.
Peak memory is read after the first run.
Prints one JSON line with the measurements.  Artifacts are written under
DIR and removed after each run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def layer_totals(sessions: list[dict], train_slots: int, output_bytes: int) -> dict:
    """Per-layer figures read from the session ledgers and the artifacts."""
    rounds = sum(s["message"]["rounds"] for s in sessions)
    down = sum(s["message"]["bytes_down"] for s in sessions)
    up = sum(s["message"]["bytes_up"] for s in sessions)
    macs = sum(s["energy"]["macs_inference"] + s["energy"]["macs_training"] for s in sessions)
    return {
        "wire_bytes_per_slot": (down + up) / train_slots,
        "macs_per_slot": macs / train_slots,
        "cloud_loop.snapshot.bytes": down / rounds if rounds else 0,
        "cloud_loop.sample_batch.bytes": up / rounds if rounds else 0,
        "energy.events": sum(s["events"] for s in sessions) / len(sessions) if sessions else 0,
        "runner.output_bytes": output_bytes,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import greenrl.config
    import greenrl.runner

    t1 = time.perf_counter()
    if not os.path.abspath(greenrl.__file__).startswith(SRC + os.sep):
        print(f"greenrl imported from {greenrl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    run_root = os.path.join(args.out, f"run-{os.getpid()}")
    dicts = workloads.config_dicts(args.workload, args.seed, run_root, args.tiny)
    cfgs = [greenrl.config.config_from_dict(d) for d in dicts]
    t2 = time.perf_counter()
    # The benchmark's own modules load numpy; imported only now, so that
    # numpy's import counts in set-up.
    import checks
    import spans

    result = {"import_s": t1 - t0, "config_s": t2 - t1, "setup_s": t2 - t0, "runs": []}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    ops = sum(len(cfg.seeds) for cfg in cfgs)  # one operation is one seed of one experiment
    train_slots, eval_slots = workloads.slot_counts(cfgs)
    session_log = spans.SessionLog()
    session_log.install()
    host_probe = spans.HostProbe()
    host_probe.install()
    # With --trace every other run is traced, so traced and untraced runs
    # sample the same stretch of machine time.
    tracer = spans.Tracer() if args.trace else None
    min_runs = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    last = 0.0  # how long the previous run took, checks included
    while len(result["runs"]) < min_runs or time.perf_counter() + last < deadline:
        began = time.perf_counter()
        traced = tracer is not None and len(result["runs"]) % 2 == 1
        run = workloads.run
        if traced:
            tracer.clear()
            tracer.install()
            run = tracer.wrap(spans.ROOT_SPAN, workloads.run)
        host_probe.enabled = not traced  # no probe time inside traced spans
        shutil.rmtree(run_root, ignore_errors=True)
        try:
            start = time.perf_counter_ns()
            try:
                outcome = run(greenrl.runner, args.workload, cfgs)
            finally:
                end = time.perf_counter_ns()
                if traced:
                    tracer.uninstall()
            sessions = session_log.take()
            failures = checks.check_outputs(args.workload, cfgs, sessions)
            digest, output_bytes = checks.output_digest(run_root)
        except Exception:  # a run that raises is a result: each of its operations failed
            traceback.print_exc()
            result["runs"].append(
                {"traced": traced, "attempted": ops, "failed": ops, "problems": {"run": "raised"}}
            )
            break
        finally:
            shutil.rmtree(run_root, ignore_errors=True)
        if len(result["runs"]) == 0:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probing_ns, probes_ns = host_probe.take()
        record = {
            "traced": traced,
            "attempted": ops,
            "failed": len(failures),
            "problems": {f"{name}/{seed}": p for (name, seed), p in failures.items()},
            "experiment_s": (end - start - probing_ns) / 1e9,
            "slots": train_slots + eval_slots,
            "reward": workloads.reward(args.workload, outcome),
            "digest": digest,
            "layers": layer_totals(sessions, train_slots, output_bytes),
            "probes_ns": probes_ns,
        }
        if traced:
            record["layers"].update(spans.span_stats(tracer.spans))
        result["runs"].append(record)
        last = time.perf_counter() - began
    if tracer is not None:
        tracer.write(os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
