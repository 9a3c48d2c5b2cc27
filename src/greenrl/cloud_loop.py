"""Two-loop training protocol: cloud coordinator, inference-only entities.

The coordinator owns the online/target networks, the replay buffer, and the
exploration schedule.  Each outer round it publishes a versioned parameter
snapshot (optionally quantised on the wire); the addressed entity loads it,
runs K inner environment steps with epsilon-greedy actions at the published
epsilon, and uploads the K transitions as one fixed-width binary batch.  The
coordinator writes them into the replay ring in one batch and performs one
mini-batch update.
Entities never backprop; their network changes only by snapshot overwrite,
so a round's K inferences are logged as one ledger entry.  The ledger logs
K even though exploring slots skip the forward pass: it models the deployed
entity (see ``greenrl.energy``).

The round is array-native end to end, and its fixed cost is kept small
while both messages stay real bytes, encoded and decoded every round:

- The entity keeps one resident network.  Each snapshot is decoded into
  its parameter vector in place (``decode_snapshot(payload, into=net)``),
  after every header, length and scale check has passed.
- The entity writes its states into one (K+1, dim) array it keeps across
  rounds, where row i+1 is both slot i's next state and slot i+1's state,
  and uploads them as ``ReplayBatch`` columns viewing that array, beside
  its kept action and reward arrays.
- Each wire record is one packed little-endian numpy structured dtype, so
  a batch encodes with one ``tobytes`` and is parsed with one
  ``frombuffer`` (``decode_sample_batch``), into read-only views of the
  payload in the wire's dtypes.  The session writes those columns
  straight into the replay ring through ``ReplayBuffer.write``; the ring
  holds its floats in the learner's dtype and casts them as it stores them.
- MACs are counted once per online parameter vector, for its train step
  and for an entity that loads a dense snapshot of it; an entity that
  loads a quantised snapshot is counted on its own (see ``greenrl.energy``).

Each slot of a round is a lean path with the same RNG calls, in the same
order, as the per-object path it replaced.  The entity draws first:
``explore`` makes epsilon-greedy's draws and, on an exploring slot, returns
the uniform action, so no forward pass runs.  Only on a greedy slot does
the entity run ``forward`` on row i of the state array (one finiteness
check of the row, then one trusted (1, dim) forward pass) and take the
argmax with ``epsilon_greedy`` at epsilon 0, which draws nothing.
``forward`` uses no randomness, so actions and generator states are those
of calling ``epsilon_greedy`` on every slot's values.  Since exploring
slots never look at the network, the entity checks the decoded snapshot's
parameters finite before it acts, and the round's states before upload.
``RachEnv.step`` plays the action through the environment's precomputed
action table, and ``build_state`` writes the new observation, divided by
the menu norm, straight into row i+1.

Both message directions are real byte payloads, so the message ledger and
the energy ledger account exactly what would cross the wire.

One deterministic round driver, ``Session.run_round``, serves every entity
once per round and appends one record per entity to the session's
``RoundLog``: a list per column of ``ROUND_COLUMNS``, in play order, which
the round CSV, the learning curves and ``SessionMetrics`` all read.  A
session numbers its rounds by its log (a fork inherits the count) and runs
in its request's ``mode``.  A snapshot's version is the coordinator's
train-step count at publish time, and an upload's staleness is the number
of train steps taken between its snapshot and the update that uses it.  In
lockstep mode the coordinator trains on each upload as it arrives, so
staleness is always 0.  In concurrent mode every entity acts on a snapshot
of the same train step and the coordinator then trains on the uploads in
entity order, so the i-th upload is exactly i train steps stale (the stale-synchronous-parallel
schedule of Ho et al., NeurIPS 2013, with its bound set by the entity
count).
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .compression import prune_by_magnitude, threshold_for_sparsity
from .energy import EnergyLedger, macs_forward
from .errors import InvalidInputError
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
from .rach_env import RachConfig, RachEnv, _check_fields, _is_int
from .rl_core import epsilon_greedy, explore

MODES = ("lockstep", "concurrent")

__all__ = [
    "MODES",
    "DqnConfig",
    "CompressionPlan",
    "ServiceRequest",
    "SampleBatch",
    "MessageLedger",
    "Session",
    "SessionMetrics",
    "RoundLog",
    "ROUND_COLUMNS",
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
        hidden = self.hidden
        widths_ok = isinstance(hidden, (tuple, list)) and hidden and all(_is_int(h) and h >= 1 for h in hidden)
        _check_fields(
            self,
            lambda: [
                # the wire's layer count is one byte, and it counts input and output too
                ("hidden", widths_ok and len(hidden) <= 253, "a nonempty list of at most 253 integers >= 1"),
                ("lr", 0 < self.lr < np.inf, "finite and > 0"),
                ("batch_size", self.batch_size >= 1, "an integer >= 1"),
                ("discount", 0 < self.discount <= 1, "a number in (0, 1]"),
                ("replay_capacity", self.replay_capacity >= 1, "an integer >= 1"),
                ("target_sync_every", self.target_sync_every >= 1, "an integer >= 1"),
                ("eps_start", 0 <= self.eps_start <= 1, "a number in [0, 1]"),
                ("eps_end", 0 <= self.eps_end <= 1, "a number in [0, 1]"),
                ("eps_decay_steps", self.eps_decay_steps >= 1, "an integer >= 1"),
                ("dtype", self.dtype in ("float32", "float64"), "float32 or float64"),
            ],
        )

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
        bits, quantile = self.snapshot_bits, self.prune_quantile
        _check_fields(
            self,
            lambda: [
                ("snapshot_bits", bits is None or 2 <= bits <= 16, "an integer in [2, 16]"),
                ("prune_quantile", quantile is None or 0 <= quantile < 1, "in [0, 1)"),
                ("prune_at_round", self.prune_at_round >= 0, "an integer >= 0"),
            ],
        )


@dataclass(frozen=True)
class ServiceRequest:
    """Instantiation request binding entities to one training service and its mode."""

    entity_ids: tuple[int, ...]
    env_config: RachConfig
    inner_steps: int = 8
    mode: str = "lockstep"
    dqn: DqnConfig = field(default_factory=DqnConfig)
    compression: CompressionPlan = field(default_factory=CompressionPlan)
    seed: int = 0
    net_seed: int | None = None  # override to share initial weights across sessions

    def __post_init__(self):
        ids = self.entity_ids
        if isinstance(ids, (list, range)):
            object.__setattr__(self, "entity_ids", ids := tuple(ids))
        # an id travels as the upload header's u32
        ids_ok = isinstance(ids, tuple) and len(ids) > 0 and all(_is_int(e) and 0 <= e < 2**32 for e in ids)
        _check_fields(
            self,
            lambda: [
                ("entity_ids", ids_ok, "a nonempty list of integers in [0, 2**32)"),
                ("entity_ids", ids_ok and len(set(ids)) == len(ids), "a list of distinct integers"),
                ("inner_steps", self.inner_steps >= 1, "an integer >= 1"),
                ("mode", self.mode in MODES, f"one of {list(MODES)}"),
                ("env_config", isinstance(self.env_config, RachConfig), "a RachConfig"),
                ("dqn", isinstance(self.dqn, DqnConfig), "a DqnConfig"),
                ("compression", isinstance(self.compression, CompressionPlan), "a CompressionPlan"),
            ],
        )


@dataclass(frozen=True)
class SampleBatch:
    """One upload's header fields and its columns, one per record field.

    The columns keep the wire's dtypes: read-only views of the payload
    holding float32 (float16 when fp16) states and rewards and u16 actions,
    and a bool ``live``; the replay ring casts them as it stores them.
    """

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

    def snapshot(self) -> dict:
        return {
            "rounds": self.rounds,
            "bytes_down": self.bytes_down,
            "bytes_up": self.bytes_up,
            "staleness_histogram": {str(k): v for k, v in sorted(self.staleness_histogram.items())},
        }


ROUND_COLUMNS = (
    "round",
    "entity",
    "reward_mean",
    "loss",
    "epsilon",
    "staleness",
    "bytes_down_total",
    "bytes_up_total",
)


class RoundLog:
    """One record per (round, entity), in play order, held as one list per
    column of ``ROUND_COLUMNS``.

    Every round holds ``width`` records, so ``len`` counts records, a column
    is read by name (``log["reward_mean"]``) and iterating yields each record
    as a tuple in column order.
    """

    def __init__(self, width: int):
        self.width = width
        self.columns = tuple([] for _ in ROUND_COLUMNS)

    def append(self, *record) -> None:
        for column, value in zip(self.columns, record, strict=True):
            column.append(value)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, name: str) -> list:
        return self.columns[ROUND_COLUMNS.index(name)]

    def __iter__(self):
        return zip(*self.columns)

    def curve(self) -> np.ndarray:
        """Mean reward per round over its entities: one ``mean(axis=1)`` over
        the (rounds, width) matrix, which reduces each row as ``np.mean``
        reduces that round's list."""
        return np.asarray(self["reward_mean"], dtype=float).reshape(-1, self.width).mean(axis=1)


def epsilon_linear(step: int, start: float, end: float, decay_steps: int) -> float:
    """Linear anneal from start to end over decay_steps, then flat."""
    frac = min(1.0, max(0, step) / decay_steps)
    return start + (end - start) * frac


def _seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, np.uint64)[0] % 2**63)


def derive_seeds(seed: int, n_entities: int) -> dict:
    """Deterministic per-concern seeds: net init, replay sampling, and one
    (action, environment) pair per entity."""
    children = np.random.SeedSequence(seed).spawn(2 + 2 * n_entities)
    return {
        "net": children[0],
        "sample": children[1],
        "entities": [
            {"action": children[2 + 2 * i], "env": _seed_int(children[3 + 2 * i])} for i in range(n_entities)
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


def decode_snapshot(buf: bytes, into: DenseNet | None = None) -> tuple[int, float, DenseNet]:
    """Parse an ``encode_snapshot`` payload; any malformed one raises InvalidInputError.

    The network is decoded as by ``net_from_bytes(body, into)``: into
    ``into`` where it fits the payload, and unchanged by a malformed one.
    """
    if len(buf) < _SNAP_HEADER.size:
        raise InvalidInputError("snapshot payload is shorter than its header")
    magic, fmt, version, epsilon = _SNAP_HEADER.unpack_from(buf)
    if magic != _SNAP_MAGIC:
        raise InvalidInputError("bad magic in snapshot payload")
    if fmt != _WIRE_VERSION:
        raise InvalidInputError(f"unsupported snapshot format {fmt}")
    return version, epsilon, net_from_bytes(memoryview(buf)[_SNAP_HEADER.size :], into)


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
    action, reward, live = np.asarray(batch.action), np.asarray(batch.reward), np.asarray(batch.live)
    if not action.shape == reward.shape == live.shape == (count,):
        raise InvalidInputError("every batch column must hold one entry per record")
    # On a round's few rows a list's min and max are several times cheaper than numpy's.
    if action.dtype.kind not in "iu" or min(acts := action.tolist()) < 0 or max(acts) > 0xFFFF:
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
    """Check an ``encode_sample_batch`` payload and view its columns in their
    wire dtypes, copying nothing but the ``live`` flags; any malformed
    payload raises InvalidInputError."""
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
        records["state"], records["action"], records["reward"], records["next_state"], records["terminal"] == 0
    )
    return SampleBatch(entity_id, version, columns, len(buf))


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------


@dataclass
class _Entity:
    """One entity's environment, generator and resident network, and the
    round arrays it refills each round: ``states`` is (K+1, dim), and
    ``rows`` views it (row i slot i's state, row i+1 its next state) beside
    the K actions, rewards and live flags."""

    env: RachEnv
    action_rng: np.random.Generator
    obs: np.ndarray
    states: np.ndarray
    rows: ReplayBatch
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
        self.buffer = ReplayBuffer(cfg.replay_capacity, cfg.np_dtype)
        self.sample_rng = np.random.default_rng(seeds["sample"])
        self.train_steps = 0
        self._macs_of: tuple[np.ndarray | None, int] = (None, 0)  # (online params, their macs_forward)
        self.norm = float(env_cfg.max_opportunities)
        self.entities: dict[int, _Entity] = {}
        k = request.inner_steps
        for eid, es in zip(request.entity_ids, seeds["entities"]):
            env = RachEnv(replace(env_cfg, seed=es["env"]))
            states = np.empty((k + 1, dims[0]), cfg.np_dtype)
            rows = ReplayBatch(states[:-1], np.empty(k, np.int64), np.empty(k), states[1:], np.ones(k))
            self.entities[eid] = _Entity(env, np.random.default_rng(es["action"]), env.reset(), states, rows)
        self.message_ledger = MessageLedger()
        self.energy = EnergyLedger()
        self.log = RoundLog(len(request.entity_ids))
        self.sparsity_reports: list = []

    # -- coordinator side ---------------------------------------------------

    def current_epsilon(self) -> float:
        cfg = self.request.dqn
        return epsilon_linear(self.train_steps, cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps)

    def _online_macs(self) -> int:
        """``macs_forward(self.online)``, counted once per parameter vector.

        The online network is replaced on every change, never written in
        place, so a vector's count holds for as long as it is online.
        """
        params = self.online.params
        if self._macs_of[0] is not params:
            self._macs_of = (params, macs_forward(self.online))
        return self._macs_of[1]

    def _publish(self) -> bytes:
        """The snapshot payload of the online network, versioned by the current train step."""
        payload = encode_snapshot(
            self.train_steps, self.current_epsilon(), self.online, self.request.compression.snapshot_bits
        )
        self.message_ledger.bytes_down += len(payload)
        self.energy.record_message(len(payload), "down")
        return payload

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
        self.energy.record_train_step(self.online, bs, self._online_macs())
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

    def run_round(self) -> None:
        """Serve every entity once, in entity order, logging one record each.

        The round's number is the count of rounds in the log.  In the
        request's mode, ``lockstep`` trains on each upload before the next
        entity acts; ``concurrent`` lets every entity act on one train
        step's snapshot, then trains on the uploads in entity order, so the
        i-th upload is i steps stale.  Pruning runs after round ``prune_at_round``.
        """
        round_idx = len(self.log) // self.log.width
        uploads = (self.outer_round(eid) for eid in self.entities)
        if self.request.mode == "concurrent":
            uploads = list(uploads)
        ledger = self.message_ledger
        for batch, (reward_mean, epsilon) in uploads:
            staleness = self.train_steps - batch.snapshot_version
            loss = self.train_on_batch(batch)
            self.log.append(
                round_idx, batch.entity_id, reward_mean, loss, epsilon, staleness,
                ledger.bytes_down, ledger.bytes_up,
            )
        plan = self.request.compression
        if plan.prune_quantile is not None and round_idx == plan.prune_at_round:
            self.apply_pruning()

    def fork(self) -> Session:
        """A new session that continues exactly as this one would.

        The fork is made through ``instantiate``, like any session, and then
        takes up this session's position: copies of the networks and the
        replay ring, every generator's state, the entities' environments,
        observations and loaded networks, and the train-step count.  Its
        ledger objects and round log are its own, filled with copies of this
        session's entries, so both sessions' totals and logs count the rounds
        played before the fork.  Both sessions' environments read one traffic
        callable, the request's.
        """
        twin = instantiate(self.request)
        twin.online, twin.target = sync_target(self.online), sync_target(self.target)
        twin.buffer = copy.deepcopy(self.buffer)
        twin.sample_rng.bit_generator.state = self.sample_rng.bit_generator.state
        twin.train_steps = self.train_steps
        for eid, entity in self.entities.items():
            mine = twin.entities[eid]
            mine.env.resume_from(entity.env)
            mine.action_rng.bit_generator.state = entity.action_rng.bit_generator.state
            mine.obs = entity.obs.copy()
            mine.net = None if entity.net is None else sync_target(entity.net)
        for mine, theirs in (
            (twin.message_ledger, self.message_ledger), (twin.energy, self.energy), (twin.log, self.log)
        ):
            vars(mine).update(copy.deepcopy(vars(theirs)))
        twin.sparsity_reports = list(self.sparsity_reports)
        return twin

    # -- entity side ----------------------------------------------------------

    def outer_round(self, entity_id: int) -> tuple[SampleBatch, tuple[float, float]]:
        """Publish to one entity, run K inference-only steps, upload the batch.

        Returns the parsed upload and (the round's mean reward, the epsilon
        the entity acted at).
        """
        if entity_id not in self.entities:
            raise InvalidInputError(f"unknown entity {entity_id}")
        entity = self.entities[entity_id]
        dtype = self.request.dqn.np_dtype
        menu = self.request.env_config.action_menu
        # The entity knows only the bytes: it stamps its upload with the version they carry.
        version, epsilon, net = decode_snapshot(self._publish(), into=entity.net)
        if not np.isfinite(net.params).all():
            raise InvalidInputError("snapshot parameters must be finite")
        entity.net = net
        k, n_actions = self.request.inner_steps, net.layer_dims[-1]
        env, rng, states, rows = entity.env, entity.action_rng, entity.states, entity.rows
        actions, rewards = rows.action, rows.reward
        build_state(entity.obs, self.norm, dtype, out=states[0])
        for i in range(k):
            action = explore(epsilon, rng, n_actions)
            if action is None:
                action = epsilon_greedy(forward(net, states[i]), 0.0, rng)
            entity.obs, rewards[i], _outcome = env.step(menu[action])
            build_state(entity.obs, self.norm, dtype, out=states[i + 1])
            actions[i] = action
        if not np.isfinite(states).all():
            raise InvalidInputError("states must be finite")
        # A dense snapshot is the online vector byte for byte; rounding can
        # zero more weights of a quantised one, so it is counted on its own.
        macs = self._online_macs() if net.quant is None else macs_forward(net)
        self.energy.record_inference(net, k, macs)
        payload = encode_sample_batch(entity_id, version, rows, self.request.compression.batch_fp16)
        batch = decode_sample_batch(payload)
        self.message_ledger.bytes_up += len(payload)
        self.energy.record_message(len(payload), "up")
        self.message_ledger.rounds += 1
        return batch, (float(rewards.sum()) / k, epsilon)  # the division np.mean makes


def instantiate(request: ServiceRequest) -> Session:
    return Session(request)


@dataclass
class SessionMetrics:
    """The session's round log plus its final ledgers, after run_session.

    ``reward_curve`` and ``terminal_reward`` read one reward per record, not
    the per-round ``rows.curve()``.
    """

    rows: RoundLog
    message_ledger: MessageLedger
    energy: EnergyLedger
    final_net: DenseNet
    sparsity_reports: list

    def reward_curve(self) -> np.ndarray:
        return np.asarray(self.rows["reward_mean"], dtype=float)

    def terminal_reward(self, tail_fraction: float = 0.2) -> float:
        return tail_mean(self.reward_curve(), tail_fraction)


def tail_mean(curve: np.ndarray, tail_fraction: float) -> float:
    """Mean of the last ``tail_fraction`` of a reward curve, at least one entry."""
    tail = max(1, int(len(curve) * tail_fraction))
    return float(curve[-tail:].mean())


def run_session(session: Session, rounds: int) -> SessionMetrics:
    """Play ``rounds`` more rounds of ``Session.run_round``, which numbers
    each round and runs it in the request's mode, so calls in pieces play as
    one call.  A session played fewer than ``prune_at_round + 1`` rounds
    stays dense."""
    if rounds < 1:
        raise InvalidInputError("rounds must be >= 1")
    for _ in range(rounds):
        session.run_round()
    return SessionMetrics(
        rows=session.log,
        message_ledger=session.message_ledger,
        energy=session.energy,
        final_net=session.online,
        sparsity_reports=list(session.sparsity_reports),
    )
