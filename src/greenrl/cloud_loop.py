"""Two-loop training protocol: cloud coordinator, inference-only entities.

The coordinator owns the online/target networks, the replay buffer, and the
exploration schedule.  Each outer round it publishes a versioned parameter
snapshot (optionally quantised on the wire); the addressed entity loads it,
runs K inner environment steps with epsilon-greedy actions at the published
epsilon, and uploads the K transitions as one fixed-width binary batch.  The
coordinator writes them into the replay ring in one batch and performs one
mini-batch update.
Entities never backprop; their network changes only by snapshot overwrite,
so a round's K inferences are logged as one ledger entry.

The round is array-native end to end.  The entity writes its states into one
(K+1, dim) array, where row i+1 is both slot i's next state and slot i+1's
state, and uploads them as ``ReplayBatch`` columns.  Each wire record is one
packed little-endian numpy structured dtype, so a batch encodes with one
``tobytes`` and decodes with one ``frombuffer`` into float64/int64 columns
that go straight into the replay ring.

Each slot of a round is a lean path with the same RNG calls, in the same
order, as the per-object path it replaced.  The entity runs ``forward`` on
row i of the state array: one finiteness check of the row, then one
trusted (1, dim) forward pass.  ``epsilon_greedy`` picks the action from
those values, and ``RachEnv.step`` plays it through the environment's
precomputed action table.  ``build_state`` writes the new observation,
divided by the menu norm, straight into row i+1.

Both message directions are real byte payloads, so the message ledger and
the energy ledger account exactly what would cross the wire.

One deterministic round driver, ``Session.run_round``, serves every entity
once per round.  A snapshot's version is the coordinator's train-step count
at publish time, and an upload's staleness is the number of train steps
taken between its snapshot and the update that uses it.  In lockstep mode
the coordinator trains on each upload as it arrives, so staleness is always
0.  In concurrent mode every entity acts on a snapshot of the same train
step and the coordinator then trains on the uploads in entity order, so the
i-th upload is exactly i train steps stale (the stale-synchronous-parallel
schedule of Ho et al., NeurIPS 2013, with its bound set by the entity
count).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .compression import prune_by_magnitude, threshold_for_sparsity
from .energy import EnergyLedger
from .errors import ConfigError, InvalidInputError
from .neural import (
    DenseNet,
    ReplayBatch,
    ReplayBuffer,
    dqn_train_step,
    forward,
    glorot_init,
    net_from_bytes,
    net_to_bytes,
    sync_target,
)
from .rach_env import RachConfig, RachEnv, _is_int
from .rl_core import check_discount, epsilon_greedy

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
    "tail_mean",
]


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
        bits, quantile, at_round = self.snapshot_bits, self.prune_quantile, self.prune_at_round
        if bits is not None and not (_is_int(bits) and 2 <= bits <= 16):
            raise ConfigError(f"snapshot_bits: must be an integer in [2, 16], got {bits!r}")
        if quantile is not None and not 0.0 <= quantile < 1.0:
            raise ConfigError(f"prune_quantile: must be in [0, 1), got {quantile!r}")
        if not (_is_int(at_round) and at_round >= 0):
            raise ConfigError(f"prune_at_round: must be an integer >= 0, got {at_round!r}")


@dataclass(frozen=True)
class ServiceRequest:
    """Instantiation request binding entities to one training service."""

    entity_ids: tuple[int, ...]
    env_config: RachConfig
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
    """A decoded upload: one float64/int64 replay column per record field."""

    entity_id: int
    snapshot_version: int
    columns: ReplayBatch
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


def build_state(obs: np.ndarray, norm: float, dtype, out: np.ndarray | None = None) -> np.ndarray:
    """Network input: observation counts scaled by the largest menu size.

    The counts are divided in float64 and rounded once to ``dtype``.  With
    ``out``, a row of that dtype, the state is written there in place.
    """
    if out is None:
        out = np.empty(np.shape(obs), dtype)
    return np.divide(np.asarray(obs, dtype=np.float64), norm, out=out)


# ---------------------------------------------------------------------------
# Message encodings
# ---------------------------------------------------------------------------

_SNAP_MAGIC = b"GSNP"
_BATCH_MAGIC = b"GSMB"
_WIRE_VERSION = 1
# magic, format version, snapshot version, epsilon
_SNAP_HEADER = struct.Struct("<4sHId")
# magic, format version, fp16 flag, entity id, snapshot version, count, dim
_BATCH_HEADER = struct.Struct("<4sHBIIII")


@lru_cache(maxsize=64)
def _record_dtype(dim: int, fp16: bool) -> np.dtype:
    """Packed little-endian layout of one sample-batch record."""
    f = "<f2" if fp16 else "<f4"
    return np.dtype(
        [
            ("state", f, (dim,)),
            ("action", "<u2"),
            ("reward", f),
            ("next_state", f, (dim,)),
            ("terminal", "u1"),
        ]
    )


def encode_snapshot(version: int, epsilon: float, net: DenseNet, quant_bits: int | None) -> bytes:
    header = _SNAP_HEADER.pack(_SNAP_MAGIC, _WIRE_VERSION, version, epsilon)
    return header + net_to_bytes(net, quant_bits)


def decode_snapshot(buf: bytes) -> tuple[int, float, DenseNet]:
    """Parse an ``encode_snapshot`` payload; any malformed one raises InvalidInputError."""
    if len(buf) < _SNAP_HEADER.size:
        raise InvalidInputError("snapshot payload is shorter than its header")
    magic, fmt, version, epsilon = _SNAP_HEADER.unpack_from(buf)
    if magic != _SNAP_MAGIC:
        raise InvalidInputError("bad magic in snapshot payload")
    if fmt != _WIRE_VERSION:
        raise InvalidInputError(f"unsupported snapshot format {fmt}")
    return version, epsilon, net_from_bytes(buf[_SNAP_HEADER.size :])


def encode_sample_batch(
    entity_id: int,
    snapshot_version: int,
    batch: ReplayBatch,
    fp16: bool = False,
) -> bytes:
    """Fixed-width little-endian transition records.

    A 23-byte header (magic, format u16, fp16 flag u8, entity id u32,
    snapshot version u32, count u32, dim u32) is followed by one packed
    record per row: state floats, action u16, reward float, next-state
    floats, terminal u8 (set where ``live`` is 0), with float32 precision
    (float16 when fp16 is set).  Each column is cast from its own dtype
    straight to the wire float, as the record-by-record encoding did.
    """
    state, next_state = np.asarray(batch.state), np.asarray(batch.next_state)
    if state.ndim != 2 or state.shape != next_state.shape:
        raise InvalidInputError("state and next_state must be (count, dim) arrays of one shape")
    count, dim = state.shape
    if count == 0 or dim == 0:
        raise InvalidInputError("cannot encode an empty batch or zero-width states")
    action, reward, live = (np.asarray(c) for c in (batch.action, batch.reward, batch.live))
    if any(c.shape != (count,) for c in (action, reward, live)):
        raise InvalidInputError("every batch column must hold one entry per record")
    if action.dtype.kind not in "iu" or action.min() < 0 or action.max() > 0xFFFF:
        raise InvalidInputError("actions must be integers in [0, 65535]")
    try:
        header = _BATCH_HEADER.pack(
            _BATCH_MAGIC, _WIRE_VERSION, 1 if fp16 else 0, entity_id, snapshot_version, count, dim
        )
    except struct.error as exc:
        raise InvalidInputError(f"sample batch header out of range: {exc}") from exc
    records = np.empty(count, _record_dtype(dim, bool(fp16)))
    records["state"] = state
    records["action"] = action
    records["reward"] = reward
    records["next_state"] = next_state
    records["terminal"] = live == 0
    return header + records.tobytes()


def decode_sample_batch(buf: bytes) -> SampleBatch:
    """Parse an ``encode_sample_batch`` payload into float64/int64 columns."""
    if len(buf) < _BATCH_HEADER.size:
        raise InvalidInputError("sample batch payload is shorter than its header")
    magic, fmt, fp16, entity_id, version, count, dim = _BATCH_HEADER.unpack_from(buf)
    if magic != _BATCH_MAGIC:
        raise InvalidInputError("bad magic in sample batch payload")
    if fmt != _WIRE_VERSION:
        raise InvalidInputError(f"unsupported batch format {fmt}")
    if fp16 not in (0, 1):
        raise InvalidInputError(f"unknown precision flag {fp16} in sample batch payload")
    if count == 0 or dim == 0:
        raise InvalidInputError("sample batch payload holds no records")
    fsize = 2 if fp16 else 4
    itemsize = 2 * dim * fsize + fsize + 3
    body = len(buf) - _BATCH_HEADER.size
    if body != count * itemsize:
        raise InvalidInputError(
            f"sample batch payload has {body} record bytes, header says {count} x {itemsize}"
        )
    records = np.frombuffer(buf, _record_dtype(dim, bool(fp16)), count, _BATCH_HEADER.size)
    columns = ReplayBatch(
        records["state"].astype(np.float64),
        records["action"].astype(np.int64),
        records["reward"].astype(np.float64),
        records["next_state"].astype(np.float64),
        (records["terminal"] == 0).astype(np.float64),
    )
    return SampleBatch(entity_id, version, columns, len(buf))


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


@dataclass
class _Entity:
    env: RachEnv
    action_rng: np.random.Generator
    obs: np.ndarray
    net: DenseNet | None = None


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

    # -- coordinator side ---------------------------------------------------

    def current_epsilon(self) -> float:
        cfg = self.request.dqn
        return epsilon_linear(self.train_steps, cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps)

    def _publish(self) -> ParamSnapshot:
        """Encode the online network, versioned by the current train step."""
        epsilon = self.current_epsilon()
        payload = encode_snapshot(
            self.train_steps, epsilon, self.online, self.request.compression.snapshot_bits
        )
        self.message_ledger.bytes_down += len(payload)
        self.energy.record_message(len(payload), "down")
        return ParamSnapshot(self.train_steps, epsilon, payload)

    def train_on_batch(self, batch: SampleBatch) -> float:
        """Append the batch to replay and run one mini-batch update.

        A batch holding an action outside the network's outputs is rejected
        before anything is recorded or written.  Stale batches are accepted;
        the number of train steps taken since their snapshot is recorded in
        the staleness histogram.
        """
        # Checked on a list: for a batch this size several times cheaper than
        # numpy's min and max.
        actions, n_out = np.asarray(batch.columns.action).ravel().tolist(), self.online.layer_dims[-1]
        if actions and not 0 <= min(actions) <= max(actions) < n_out:
            raise InvalidInputError(f"uploaded actions must lie in [0, {n_out}), the network's outputs")
        cfg = self.request.dqn
        lag = self.train_steps - batch.snapshot_version
        hist = self.message_ledger.staleness_histogram
        hist[lag] = hist.get(lag, 0) + 1
        self.buffer.write(batch.columns)
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
        thr = threshold_for_sparsity(self.online, plan.prune_quantile)
        self.online, report = prune_by_magnitude(self.online, thr)
        self.target = sync_target(self.online)
        self.sparsity_reports.append(report)

    def run_round(self, round_idx: int, mode: str = "lockstep") -> list[dict]:
        """Serve every entity once, in entity order; return the round's rows.

        ``lockstep`` trains on each upload before the next entity acts.
        ``concurrent`` lets every entity act on the same train step's
        snapshot, then trains on the uploads in entity order, so the i-th
        upload is i train steps stale.  Mid-session pruning runs after the
        round numbered ``prune_at_round``.
        """
        if mode == "lockstep":
            uploads = (self.outer_round(eid) for eid in self.entities)
        elif mode == "concurrent":
            uploads = [self.outer_round(eid) for eid in self.entities]
        else:
            raise ConfigError(f"unknown session mode {mode!r}")
        rows = []
        for batch, delta in uploads:
            staleness = self.train_steps - batch.snapshot_version
            loss = self.train_on_batch(batch)
            rows.append(
                {
                    "round": round_idx,
                    "entity": batch.entity_id,
                    "reward_mean": delta["reward_mean"],
                    "loss": loss,
                    "epsilon": delta["epsilon"],
                    "staleness": staleness,
                    "bytes_down_total": self.message_ledger.bytes_down,
                    "bytes_up_total": self.message_ledger.bytes_up,
                }
            )
        plan = self.request.compression
        if plan.prune_quantile is not None and round_idx == plan.prune_at_round:
            self.apply_pruning()
        return rows

    # -- entity side ----------------------------------------------------------

    def outer_round(self, entity_id: int) -> tuple[SampleBatch, dict]:
        """Publish to one entity, run K inference-only steps, upload the batch."""
        if entity_id not in self.entities:
            raise InvalidInputError(f"unknown entity {entity_id}")
        entity = self.entities[entity_id]
        cfg = self.request.dqn
        menu = self.request.env_config.action_menu
        snap = self._publish()
        _version, epsilon, net = decode_snapshot(snap.payload)
        entity.net = net
        k = self.request.inner_steps
        env, rng = entity.env, entity.action_rng
        # Row i is slot i's state and row i+1 its next state.
        states = np.empty((k + 1, entity.obs.size), cfg.np_dtype)
        build_state(entity.obs, self.norm, cfg.np_dtype, out=states[0])
        actions = np.empty(k, np.int64)
        rewards = np.empty(k)
        for i in range(k):
            action = epsilon_greedy(forward(net, states[i]), epsilon, rng)
            entity.obs, rewards[i], _outcome = env.step(menu[action])
            build_state(entity.obs, self.norm, cfg.np_dtype, out=states[i + 1])
            actions[i] = action
        self.energy.record_inference(entity.net, count=k)
        rows = ReplayBatch(states[:-1], actions, rewards, states[1:], np.ones(k))
        payload = encode_sample_batch(
            entity_id, snap.version, rows, self.request.compression.batch_fp16
        )
        batch = decode_sample_batch(payload)
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
        return tail_mean(self.reward_curve(), tail_fraction)


def tail_mean(curve: np.ndarray, tail_fraction: float) -> float:
    """Mean of the last ``tail_fraction`` of a reward curve, at least one entry."""
    tail = max(1, int(len(curve) * tail_fraction))
    return float(curve[-tail:].mean())


def run_session(session: Session, rounds: int, mode: str = "lockstep") -> SessionMetrics:
    """Drive ``rounds`` rounds of ``Session.run_round``, numbered from 0.

    Both modes are deterministic for a given request; see ``run_round``.
    An unknown mode raises ConfigError before the first entity acts.
    """
    if rounds < 1:
        raise InvalidInputError("rounds must be >= 1")
    rows = [row for r in range(rounds) for row in session.run_round(r, mode)]
    return SessionMetrics(
        rows=rows,
        message_ledger=session.message_ledger,
        energy=session.energy,
        final_net=session.online,
        sparsity_reports=list(session.sparsity_reports),
    )
