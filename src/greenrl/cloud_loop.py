"""Two-loop training protocol: cloud coordinator, inference-only entities.

The coordinator owns the online/target networks, the replay buffer, and the
exploration schedule.  Each outer round it publishes a versioned parameter
snapshot (optionally quantised on the wire); the addressed entity loads it,
runs K inner environment steps with epsilon-greedy actions at the published
epsilon, and uploads the K transitions as one fixed-width binary batch.  The
coordinator writes them into the replay ring in one batch and performs one
mini-batch update.
Entities never backprop; their network changes only by snapshot overwrite.

Both message directions are real byte payloads, so the message ledger and
the energy ledger account exactly what would cross the wire.  A lockstep
mode serves entities round-robin; a concurrent mode runs entities in
threads with the coordinator serialising training on arrival order.
"""

from __future__ import annotations

import queue
import struct
import threading
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .compression import prune_by_magnitude, threshold_for_sparsity
from .energy import EnergyLedger
from .errors import ConfigError, InvalidInputError
from .neural import (
    DenseNet,
    ReplayBuffer,
    dqn_train_step,
    forward,
    glorot_init,
    net_from_bytes,
    net_to_bytes,
    sync_target,
)
from .rach_env import RachConfig, RachEnv
from .rl_core import Transition, check_discount, epsilon_greedy

__all__ = [
    "DqnConfig",
    "CompressionPlan",
    "ServiceRequest",
    "ParamSnapshot",
    "SampleBatch",
    "MessageLedger",
    "Session",
    "SessionMetrics",
    "instantiate",
    "run_session",
    "derive_seeds",
    "build_state",
    "epsilon_linear",
    "encode_sample_batch",
    "decode_sample_batch",
    "encode_snapshot",
    "decode_snapshot",
    "CONSUMER_TIERS",
]

CONSUMER_TIERS = ("infrastructure-provider", "tenant", "user")


@dataclass(frozen=True)
class DqnConfig:
    """Value-network and training hyperparameters owned by the coordinator."""

    hidden: tuple[int, ...] = (32, 32)
    lr: float = 0.005
    batch_size: int = 32
    discount: float = 0.9
    replay_capacity: int = 2000
    target_sync_every: int = 100
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 3000
    dtype: str = "float32"

    def __post_init__(self):
        check_discount(self.discount)
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.batch_size < 1 or self.replay_capacity < 1:
            raise ConfigError("batch_size and replay_capacity must be >= 1")
        if self.target_sync_every < 1:
            raise ConfigError("target_sync_every must be >= 1")
        for name in ("eps_start", "eps_end"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        if self.eps_decay_steps < 1:
            raise ConfigError("eps_decay_steps must be >= 1")
        if len(self.hidden) == 0 or any(h < 1 for h in self.hidden):
            raise ConfigError("hidden must be a nonempty tuple of positive ints")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass(frozen=True)
class CompressionPlan:
    """What to compress inside a session, if anything.

    snapshot_bits quantises published parameters on the wire; batch_fp16
    halves uploaded sample precision; prune_quantile (with prune_at_round)
    magnitude-prunes the online network once mid-session.
    """

    snapshot_bits: int | None = None
    batch_fp16: bool = False
    prune_quantile: float | None = None
    prune_at_round: int = 0

    def __post_init__(self):
        if self.snapshot_bits is not None and not 2 <= self.snapshot_bits <= 16:
            raise ConfigError("snapshot_bits must lie in [2, 16]")
        if self.prune_quantile is not None and not 0.0 <= self.prune_quantile < 1.0:
            raise ConfigError("prune_quantile must lie in [0, 1)")
        if self.prune_at_round < 0:
            raise ConfigError("prune_at_round must be >= 0")


@dataclass(frozen=True)
class ServiceRequest:
    """Instantiation request binding entities to one training service."""

    entity_ids: tuple[int, ...]
    env_config: RachConfig
    consumer: str = "tenant"
    algorithm: str = "dqn"
    inner_steps: int = 8
    dqn: DqnConfig = field(default_factory=DqnConfig)
    compression: CompressionPlan = field(default_factory=CompressionPlan)
    seed: int = 0
    net_seed: int | None = None  # override to share initial weights across sessions

    def __post_init__(self):
        object.__setattr__(self, "entity_ids", tuple(self.entity_ids))
        if len(self.entity_ids) == 0:
            raise ConfigError("need at least one entity")
        if len(set(self.entity_ids)) != len(self.entity_ids):
            raise ConfigError("entity ids must be unique")
        if self.consumer not in CONSUMER_TIERS:
            raise ConfigError(f"consumer must be one of {CONSUMER_TIERS}")
        if self.algorithm != "dqn":
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.inner_steps < 1:
            raise ConfigError("inner_steps must be >= 1")


@dataclass(frozen=True)
class ParamSnapshot:
    version: int
    epsilon: float
    payload: bytes

    @property
    def byte_size(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class SampleBatch:
    entity_id: int
    snapshot_version: int
    transitions: tuple[Transition, ...]
    byte_size: int


@dataclass
class MessageLedger:
    rounds: int = 0
    bytes_down: int = 0
    bytes_up: int = 0
    staleness_histogram: dict[int, int] = field(default_factory=dict)


def epsilon_linear(step: int, start: float, end: float, decay_steps: int) -> float:
    """Linear anneal from start to end over decay_steps, then flat."""
    frac = min(1.0, max(0, step) / decay_steps)
    return start + (end - start) * frac


def derive_seeds(seed: int, n_entities: int) -> dict:
    """Deterministic per-concern seeds: net init, replay sampling, and one
    (action, environment) pair per entity."""
    children = np.random.SeedSequence(seed).spawn(2 + 2 * n_entities)
    return {
        "net": children[0],
        "sample": children[1],
        "entities": [
            {
                "action": children[2 + 2 * i],
                "env": int(children[3 + 2 * i].generate_state(1, np.uint64)[0] % (2**63)),
            }
            for i in range(n_entities)
        ],
    }


def build_state(obs: np.ndarray, norm: float, dtype) -> np.ndarray:
    """Network input: observation counts scaled by the largest menu size."""
    return (np.asarray(obs, dtype=np.float64) / norm).astype(dtype)


# ---------------------------------------------------------------------------
# Message encodings
# ---------------------------------------------------------------------------

_SNAP_MAGIC = b"GSNP"
_BATCH_MAGIC = b"GSMB"
_WIRE_VERSION = 1


def encode_snapshot(version: int, epsilon: float, net: DenseNet, quant_bits: int | None) -> bytes:
    header = _SNAP_MAGIC + struct.pack("<HId", _WIRE_VERSION, version, epsilon)
    return header + net_to_bytes(net, quant_bits)


def decode_snapshot(buf: bytes) -> tuple[int, float, DenseNet]:
    if buf[:4] != _SNAP_MAGIC:
        raise InvalidInputError("bad magic in snapshot payload")
    fmt, version, epsilon = struct.unpack_from("<HId", buf, 4)
    if fmt != _WIRE_VERSION:
        raise InvalidInputError(f"unsupported snapshot format {fmt}")
    return version, epsilon, net_from_bytes(buf[18:])


def encode_sample_batch(
    entity_id: int,
    snapshot_version: int,
    transitions: Sequence[Transition],
    fp16: bool = False,
) -> bytes:
    """Fixed-width little-endian transition records.

    Per record: state floats, action u16, reward float, next-state floats,
    terminal u8, with float32 precision (float16 when fp16 is set).
    """
    if len(transitions) == 0:
        raise InvalidInputError("cannot encode an empty batch")
    dim = len(transitions[0].state)
    ftype = np.float16 if fp16 else np.float32
    parts = [
        _BATCH_MAGIC,
        struct.pack(
            "<HBIII", _WIRE_VERSION, 1 if fp16 else 0, entity_id, snapshot_version, len(transitions)
        ),
        struct.pack("<I", dim),
    ]
    for t in transitions:
        state = np.asarray(t.state, dtype=ftype)
        nxt = np.asarray(t.next_state, dtype=ftype)
        if state.shape != (dim,) or nxt.shape != (dim,):
            raise InvalidInputError("ragged state dimensions in batch")
        parts.append(state.tobytes())
        parts.append(struct.pack("<H", int(t.action)))
        parts.append(np.asarray([t.reward], dtype=ftype).tobytes())
        parts.append(nxt.tobytes())
        parts.append(struct.pack("<B", 1 if t.terminal else 0))
    return b"".join(parts)


def decode_sample_batch(buf: bytes) -> SampleBatch:
    if buf[:4] != _BATCH_MAGIC:
        raise InvalidInputError("bad magic in sample batch payload")
    fmt, fp16, entity_id, version, count = struct.unpack_from("<HBIII", buf, 4)
    if fmt != _WIRE_VERSION:
        raise InvalidInputError(f"unsupported batch format {fmt}")
    (dim,) = struct.unpack_from("<I", buf, 19)
    off = 23
    ftype = np.dtype(np.float16 if fp16 else np.float32)
    fsize = ftype.itemsize
    transitions = []
    for _ in range(count):
        state = np.frombuffer(buf, dtype=ftype, count=dim, offset=off).astype(np.float32)
        off += dim * fsize
        (action,) = struct.unpack_from("<H", buf, off)
        off += 2
        reward = float(np.frombuffer(buf, dtype=ftype, count=1, offset=off)[0])
        off += fsize
        nxt = np.frombuffer(buf, dtype=ftype, count=dim, offset=off).astype(np.float32)
        off += dim * fsize
        (terminal,) = struct.unpack_from("<B", buf, off)
        off += 1
        transitions.append(Transition(state, int(action), reward, nxt, bool(terminal)))
    if off != len(buf):
        raise InvalidInputError("trailing bytes in sample batch payload")
    return SampleBatch(entity_id, version, tuple(transitions), len(buf))


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


@dataclass
class _Entity:
    env: RachEnv
    action_rng: np.random.Generator
    obs: np.ndarray
    net: DenseNet | None = None
    snapshot_version: int = -1


class Session:
    """One coordinator, its entities, and their shared accounting."""

    def __init__(self, request: ServiceRequest):
        self.request = request
        cfg = request.dqn
        seeds = derive_seeds(request.seed, len(request.entity_ids))
        env_cfg = request.env_config
        dims = (3 * env_cfg.history_window, *cfg.hidden, len(env_cfg.action_menu))
        net_seed = seeds["net"] if request.net_seed is None else request.net_seed
        self.online = glorot_init(dims, net_seed, dtype=cfg.np_dtype)
        self.target = sync_target(self.online)
        self.buffer = ReplayBuffer(cfg.replay_capacity)
        self.sample_rng = np.random.default_rng(seeds["sample"])
        self.version = 0
        self.train_steps = 0
        self.norm = float(env_cfg.max_opportunities)
        self.entities: dict[int, _Entity] = {}
        for eid, es in zip(request.entity_ids, seeds["entities"]):
            env = RachEnv(replace(env_cfg, seed=es["env"]))
            self.entities[eid] = _Entity(
                env=env, action_rng=np.random.default_rng(es["action"]), obs=env.reset()
            )
        self.message_ledger = MessageLedger()
        self.energy = EnergyLedger()
        self.sparsity_reports: list = []
        self._lock = threading.Lock()

    # -- coordinator side ---------------------------------------------------

    def current_epsilon(self) -> float:
        cfg = self.request.dqn
        return epsilon_linear(self.train_steps, cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps)

    def _publish(self) -> ParamSnapshot:
        self.version += 1
        payload = encode_snapshot(
            self.version,
            self.current_epsilon(),
            self.online,
            self.request.compression.snapshot_bits,
        )
        self.message_ledger.bytes_down += len(payload)
        self.energy.record_message(len(payload), "down")
        return ParamSnapshot(self.version, self.current_epsilon(), payload)

    def train_on_batch(self, batch: SampleBatch) -> float:
        """Append the batch to replay and run one mini-batch update.

        Stale batches (older snapshot version) are accepted; the lag is
        recorded in the staleness histogram.
        """
        cfg = self.request.dqn
        with self._lock:
            lag = self.version - batch.snapshot_version
            hist = self.message_ledger.staleness_histogram
            hist[lag] = hist.get(lag, 0) + 1
            self.buffer.extend(batch.transitions)
            bs = min(cfg.batch_size, len(self.buffer))
            self.energy.record_train_step(self.online, bs)
            self.online, loss = dqn_train_step(
                self.online, self.target, self.buffer, bs, cfg.discount, cfg.lr, self.sample_rng
            )
            self.train_steps += 1
            if self.train_steps % cfg.target_sync_every == 0:
                self.target = sync_target(self.online)
            return loss

    def apply_pruning(self) -> None:
        plan = self.request.compression
        with self._lock:
            thr = threshold_for_sparsity(self.online, plan.prune_quantile)
            self.online, report = prune_by_magnitude(self.online, thr)
            self.target = sync_target(self.online)
            self.sparsity_reports.append(report)

    # -- entity side ----------------------------------------------------------

    def outer_round(self, entity_id: int) -> tuple[SampleBatch, dict]:
        """Publish to one entity, run K inference-only steps, upload the batch."""
        if entity_id not in self.entities:
            raise InvalidInputError(f"unknown entity {entity_id}")
        entity = self.entities[entity_id]
        cfg = self.request.dqn
        menu = self.request.env_config.action_menu
        with self._lock:
            snap = self._publish()
        _version, epsilon, net = decode_snapshot(snap.payload)
        entity.net = net
        entity.snapshot_version = snap.version
        transitions = []
        rewards = []
        for _ in range(self.request.inner_steps):
            state = build_state(entity.obs, self.norm, cfg.np_dtype)
            q = forward(entity.net, state)
            with self._lock:
                self.energy.record_inference(entity.net)
            action = epsilon_greedy(q, epsilon, entity.action_rng)
            obs2, reward, _outcome = entity.env.step(menu[action])
            next_state = build_state(obs2, self.norm, cfg.np_dtype)
            transitions.append(Transition(state, action, reward, next_state, False))
            rewards.append(reward)
            entity.obs = obs2
        payload = encode_sample_batch(
            entity_id, snap.version, transitions, self.request.compression.batch_fp16
        )
        batch = decode_sample_batch(payload)
        with self._lock:
            self.message_ledger.bytes_up += len(payload)
            self.energy.record_message(len(payload), "up")
            self.message_ledger.rounds += 1
        delta = {
            "bytes_down": snap.byte_size,
            "bytes_up": len(payload),
            "reward_mean": float(np.mean(rewards)),
            "epsilon": epsilon,
        }
        return batch, delta


def instantiate(request: ServiceRequest) -> Session:
    return Session(request)


@dataclass
class SessionMetrics:
    """Per-round rows plus final ledgers of one run_session call."""

    rows: list[dict]
    message_ledger: MessageLedger
    energy: EnergyLedger
    final_net: DenseNet
    sparsity_reports: list

    def reward_curve(self) -> np.ndarray:
        return np.asarray([r["reward_mean"] for r in self.rows], dtype=float)

    def terminal_reward(self, tail_fraction: float = 0.2) -> float:
        curve = self.reward_curve()
        tail = max(1, int(len(curve) * tail_fraction))
        return float(curve[-tail:].mean())


def run_session(session: Session, rounds: int, mode: str = "lockstep") -> SessionMetrics:
    """Drive the protocol for ``rounds`` outer rounds per entity.

    Lockstep serves entities round-robin, training after each upload.
    Concurrent runs one thread per entity and trains in arrival order; it
    keeps every accounting guarantee but not cross-run determinism.
    """
    if rounds < 1:
        raise InvalidInputError("rounds must be >= 1")
    if mode not in ("lockstep", "concurrent"):
        raise ConfigError(f"unknown session mode {mode!r}")
    plan = session.request.compression
    eids = list(session.entities)
    rows: list[dict] = []

    def make_row(round_idx, batch, delta, loss):
        return {
            "round": round_idx,
            "entity": batch.entity_id,
            "reward_mean": delta["reward_mean"],
            "loss": loss,
            "epsilon": delta["epsilon"],
            "staleness": session.version - batch.snapshot_version,
            "bytes_down_total": session.message_ledger.bytes_down,
            "bytes_up_total": session.message_ledger.bytes_up,
        }

    if mode == "lockstep":
        for r in range(rounds):
            for eid in eids:
                batch, delta = session.outer_round(eid)
                loss = session.train_on_batch(batch)
                rows.append(make_row(r, batch, delta, loss))
            if plan.prune_quantile is not None and r == plan.prune_at_round:
                session.apply_pruning()
    else:
        inbox: queue.Queue = queue.Queue()

        def worker(eid: int):
            for _ in range(rounds):
                inbox.put(session.outer_round(eid))

        threads = [threading.Thread(target=worker, args=(eid,)) for eid in eids]
        for t in threads:
            t.start()
        total = rounds * len(eids)
        for i in range(total):
            batch, delta = inbox.get()
            loss = session.train_on_batch(batch)
            rows.append(make_row(i // len(eids), batch, delta, loss))
            if plan.prune_quantile is not None and (i + 1) == (plan.prune_at_round + 1) * len(eids):
                session.apply_pruning()
        for t in threads:
            t.join()

    return SessionMetrics(
        rows=rows,
        message_ledger=session.message_ledger,
        energy=session.energy,
        final_net=session.online,
        sparsity_reports=list(session.sparsity_reports),
    )
