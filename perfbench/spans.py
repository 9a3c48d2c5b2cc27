"""Timing and capture hooks, installed on greenrl from outside it.

``Tracer`` records spans at layer boundaries, ``HostProbe`` times a fixed
piece of work (``speed_probe``) between environment steps, and
``SessionLog`` keeps each cloud session's final ledger totals.

Modules import functions by name (``from .neural import forward``), so a
wrapper must replace a function in every greenrl module that holds it, not
only in the module that defines it.  A target that no longer exists is
skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import weakref

import numpy as np

# (span name, module, attribute path) for every traced boundary.
TARGETS = (
    ("neural.dqn_train_step", "neural", "dqn_train_step"),
    ("neural.batch_loss", "neural", "batch_loss"),
    ("neural.backprop_minibatch", "neural", "backprop_minibatch"),
    ("neural.ReplayBuffer.sample", "neural", "ReplayBuffer.sample"),
    ("neural.ReplayBuffer.push", "neural", "ReplayBuffer.push"),
    ("neural.forward", "neural", "forward"),
    ("neural.net_to_bytes", "neural", "net_to_bytes"),
    ("neural.net_from_bytes", "neural", "net_from_bytes"),
    ("cloud_loop.outer_round", "cloud_loop", "Session.outer_round"),
    ("cloud_loop.train_on_batch", "cloud_loop", "Session.train_on_batch"),
    ("cloud_loop.encode_snapshot", "cloud_loop", "encode_snapshot"),
    ("cloud_loop.decode_snapshot", "cloud_loop", "decode_snapshot"),
    ("cloud_loop.encode_sample_batch", "cloud_loop", "encode_sample_batch"),
    ("cloud_loop.decode_sample_batch", "cloud_loop", "decode_sample_batch"),
    ("energy.record_inference", "energy", "EnergyLedger.record_inference"),
    ("energy.record_train_step", "energy", "EnergyLedger.record_train_step"),
    ("rach_env.step", "rach_env", "RachEnv.step"),
    ("rach_env.simulate_contention", "rach_env", "simulate_contention"),
    ("rl_core.epsilon_greedy", "rl_core", "epsilon_greedy"),
    ("rl_core.linear_q_predict", "rl_core", "linear_q_predict"),
    ("rl_core.linear_q_update", "rl_core", "linear_q_update"),
    ("agents.run_local_agent", "agents", "run_local_agent"),
    ("agents.evaluate_greedy_net", "agents", "evaluate_greedy_net"),
    ("agents.evaluate_greedy_agent", "agents", "evaluate_greedy_agent"),
    ("spatial.side_step", "spatial", "side_step"),
    ("spatial.FieldTrafficSource.counts_at", "spatial", "FieldTrafficSource.counts_at"),
    ("spatial.estimate_correlation", "spatial", "estimate_correlation"),
    ("spatial.transfer_weights", "spatial", "transfer_weights"),
    ("compression.prune_by_magnitude", "compression", "prune_by_magnitude"),
    ("compression.threshold_for_sparsity", "compression", "threshold_for_sparsity"),
    ("compression.discretize", "compression", "discretize"),
    ("runner.write_csv", "runner", "write_csv"),
    ("runner.write_json", "runner", "write_json"),
)
ROOT_SPAN = "experiment"


def replace_everywhere(module: str, path: str, make) -> bool:
    """Swap ``greenrl.<module>.<path>`` for ``make(original)`` wherever it is bound.

    A method is replaced on its class; a function in every loaded greenrl
    module that binds the same object.  Returns False when the target is gone.
    """
    owner = sys.modules.get(f"greenrl.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None)
    if original is None:
        return False
    replacement = make(original)
    if outer:
        setattr(owner, attr, replacement)
        return True
    for name, mod in list(sys.modules.items()):
        if name == "greenrl" or name.startswith("greenrl."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
    return True


class Tracer:
    """Records (name, start_ns, end_ns, parent index) for every traced call."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._originals: list = []

    def install(self) -> None:
        for name, module, path in TARGETS:
            replace_everywhere(module, path, functools.partial(self._wrap_target, name, module, path))

    def _wrap_target(self, name: str, module: str, path: str, fn):
        self._originals.append((module, path, fn))
        return self.wrap(name, fn)

    def uninstall(self) -> None:
        """Put every original back, so the next run is untraced."""
        for module, path, original in reversed(self._originals):
            replace_everywhere(module, path, lambda _wrapped, original=original: original)
        self._originals.clear()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def clear(self) -> None:
        self.spans.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def span_stats(spans: list) -> dict:
    """Per-layer metrics from one traced experiment.

    For each span name: calls, us_p50, us_p99, s (total) and self_s (total
    minus time covered by child spans); ``<name>.share`` and
    ``<module>.self_share`` are fractions of the root span's duration;
    ``cloud_loop.round`` is one outer_round through its train_on_batch.
    """
    durations: dict[str, list[int]] = {}
    self_ns = [end - start for _name, start, end, _parent in spans]
    for name, start, end, parent in spans:
        durations.setdefault(name, []).append(end - start)
        if parent >= 0:
            self_ns[parent] -= end - start
    rounds, round_start = [], None
    for name, start, end, _parent in spans:
        if name == "cloud_loop.outer_round":
            round_start = start
        elif name == "cloud_loop.train_on_batch" and round_start is not None:
            rounds.append(end - round_start)
            round_start = None
    if rounds:
        durations["cloud_loop.round"] = rounds
    total_ns = sum(durations[ROOT_SPAN])
    out: dict[str, float] = {}
    self_by_name: dict[str, int] = {}
    for (name, *_rest), own in zip(spans, self_ns):
        self_by_name[name] = self_by_name.get(name, 0) + own
    for name, values in durations.items():
        arr = np.asarray(values, dtype=np.float64)
        out[f"{name}.calls"] = len(values)
        out[f"{name}.us_p50"] = float(np.percentile(arr, 50)) / 1e3
        out[f"{name}.us_p99"] = float(np.percentile(arr, 99)) / 1e3
        out[f"{name}.s"] = float(arr.sum()) / 1e9
        out[f"{name}.share"] = float(arr.sum()) / total_ns
    for name, own in self_by_name.items():
        out[f"{name}.self_s"] = own / 1e9
        layer = name.split(".")[0]
        key = f"{layer}.self_share"
        out[key] = out.get(key, 0.0) + own / total_ns
    return out


def zero_stats() -> dict:
    """The value every span metric takes when the span never ran."""
    out = {}
    for name in [t[0] for t in TARGETS] + ["cloud_loop.round"]:
        for stat in ("calls", "us_p50", "us_p99", "s", "share", "self_s"):
            out[f"{name}.{stat}"] = 0
        out[f"{name.split('.')[0]}.self_share"] = 0
    return out


_PROBE_SMALL = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
_PROBE_BATCH = np.linspace(-1.0, 1.0, 128 * 64).reshape(128, 64)
_PROBE_LAYER = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
# A typical speed_probe() on a 2-vCPU Intel Xeon VM (Python 3.11, numpy
# 2.4, OpenBLAS 0.3.31); timings are scaled to a host this fast.
PROBE_REF_NS = 300_000


def speed_probe() -> int:
    """Duration (ns) of a fixed mix of the kinds of work greenrl does.

    Plain Python, per-slot small-vector numpy and a batch-sized matrix
    product, in about equal parts.  Host slowdowns stretched the workloads'
    runs 0.9 to 1.4 times as much (in log) as this mix; no one of the three
    parts alone came closer.  The probe does the same work on every commit.
    """
    start = time.perf_counter_ns()
    acc, table = 0, {}
    for k in range(600):
        acc += k * k % 7
        table[k & 63] = acc
    x = np.ones(32)
    for _ in range(25):
        x = np.tanh(_PROBE_SMALL @ x)
    _PROBE_BATCH.T @ (_PROBE_BATCH @ _PROBE_LAYER)
    return time.perf_counter_ns() - start


def trimmed_mean(values: list[int]) -> float:
    """Mean of the middle 80%: the host's average speed over a run, without
    the probes a context switch or interrupt landed in."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut : len(ordered) - cut])


class HostProbe:
    """Runs ``speed_probe()`` between environment steps, at most every ``GAP_NS``.

    The probes tell how fast the host ran during a run; ``take`` returns
    their durations and the time they took, which the run's duration
    leaves out.
    """

    GAP_NS = 20_000_000

    def __init__(self):
        self.probes: list[int] = []
        self.enabled = True
        self._spent = 0
        self._last = 0

    def install(self) -> None:
        replace_everywhere("rach_env", "RachEnv.step", self._wrap)

    def _wrap(self, step):
        probes, gap, clock = self.probes, self.GAP_NS, time.perf_counter_ns

        @functools.wraps(step)
        def probed(*args, **kwargs):
            now = clock()
            if self.enabled and now - self._last > gap:
                probes.append(speed_probe())
                self._last = clock()
                self._spent += self._last - now
            return step(*args, **kwargs)

        return probed

    def take(self) -> tuple[int, list[int]]:
        """(ns spent probing, probe durations) since the last take."""
        out = (self._spent, list(self.probes))
        self.probes.clear()
        self._spent = 0
        self._last = 0  # probe at the next run's first step
        return out


class SessionLog:
    """Final ledger totals of every cloud session, in creation order.

    Wraps ``instantiate`` and reads each session's ledgers when it is
    collected, so no session outlives its run and peak memory is unchanged.
    """

    def __init__(self):
        self.records: list = []
        self._finalizers: list = []

    def install(self) -> None:
        replace_everywhere("cloud_loop", "instantiate", self._wrap)

    def _wrap(self, instantiate):
        @functools.wraps(instantiate)
        def capturing(request):
            session = instantiate(request)
            record: dict = {}
            self.records.append(record)
            self._finalizers.append(
                weakref.finalize(session, self._record, record, session.message_ledger, session.energy)
            )
            return session

        return capturing

    @staticmethod
    def _record(record: dict, message, energy) -> None:
        record.update({
            "message": {
                "rounds": message.rounds,
                "bytes_down": message.bytes_down,
                "bytes_up": message.bytes_up,
            },
            "energy": energy.snapshot(),
            "events": len(energy.events),
        })

    def take(self) -> list[dict]:
        """Read the sessions still alive, return every record and start afresh."""
        for finalizer in self._finalizers:
            finalizer()
        records, self.records, self._finalizers = self.records, [], []
        return records
