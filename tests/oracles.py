"""Independent reference computations used to pin expected test values.

Everything here is deliberately brute force: exhaustive enumeration, dense
value iteration, central finite differences, direct double-loop quadrature,
and a from-first-principles rewrite of the centralized training loop.  The
implementations avoid the code paths they are used to check.
"""

from __future__ import annotations

import itertools
import struct
from collections import Counter, deque
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from greenrl.cloud_loop import build_state, derive_seeds, epsilon_linear
from greenrl.errors import ConfigError, InvalidInputError, NotReadyError
from greenrl.neural import (
    DenseNet,
    GradientBatch,
    ReplayBuffer,
    batch_loss,
    dqn_train_step,
    forward,
    glorot_init,
    sgd_step,
    sync_target,
)
from greenrl.rach_env import BernoulliTraffic, RachEnv, SlotOutcome, simulate_contention
from greenrl.rl_core import Transition, check_discount, epsilon_greedy

# ---------------------------------------------------------------------------
# Finite MDPs
# ---------------------------------------------------------------------------


@dataclass
class FiniteMDP:
    """Dense tabular MDP: P[s, a, s'], R[s, a], terminal mask per state."""

    P: np.ndarray
    R: np.ndarray
    terminal: np.ndarray

    @property
    def n_states(self) -> int:
        return self.P.shape[0]

    @property
    def n_actions(self) -> int:
        return self.P.shape[1]


def value_iteration(mdp: FiniteMDP, discount: float, tol: float = 1e-14) -> np.ndarray:
    """Exact Q* by dense backups; terminal states have value 0."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    while True:
        v = np.where(mdp.terminal, 0.0, q.max(axis=1))
        q_new = mdp.R + discount * (mdp.P @ v)
        q_new[mdp.terminal] = 0.0
        if np.max(np.abs(q_new - q)) < tol:
            return q_new
        q = q_new


def policy_evaluation(mdp: FiniteMDP, policy: np.ndarray, discount: float) -> np.ndarray:
    """Exact V^pi via a linear solve; terminal states evaluate to 0."""
    n = mdp.n_states
    p_pi = mdp.P[np.arange(n), policy]
    r_pi = mdp.R[np.arange(n), policy].copy()
    p_pi = p_pi.copy()
    p_pi[mdp.terminal] = 0.0
    r_pi[mdp.terminal] = 0.0
    v = np.linalg.solve(np.eye(n) - discount * p_pi, r_pi)
    return v


def gridworld(size: int = 5, goal: tuple[int, int] = (4, 4)) -> FiniteMDP:
    """Deterministic gridworld; entering the goal pays 1, goal is absorbing.

    Actions 0..3 move up/down/left/right; bumping the border stays put.
    """
    n = size * size
    moves = ((-1, 0), (1, 0), (0, -1), (0, 1))
    P = np.zeros((n, 4, n))
    R = np.zeros((n, 4))
    terminal = np.zeros(n, dtype=bool)
    gid = goal[0] * size + goal[1]
    terminal[gid] = True
    for r in range(size):
        for c in range(size):
            s = r * size + c
            for a, (dr, dc) in enumerate(moves):
                nr, nc = r + dr, c + dc
                if not (0 <= nr < size and 0 <= nc < size):
                    nr, nc = r, c
                s2 = nr * size + nc
                P[s, a, s2] = 1.0
                if s2 == gid and s != gid:
                    R[s, a] = 1.0
    return FiniteMDP(P, R, terminal)


def chain_mdp() -> FiniteMDP:
    """3-state deterministic chain: advance pays 1 then 2; state 2 terminal."""
    P = np.zeros((3, 2, 3))
    R = np.zeros((3, 2))
    terminal = np.array([False, False, True])
    for s in range(3):
        P[s, 0, s] = 1.0  # stay
    P[0, 1, 1] = 1.0
    P[1, 1, 2] = 1.0
    P[2, 1, 2] = 1.0
    R[0, 1] = 1.0
    R[1, 1] = 2.0
    return FiniteMDP(P, R, terminal)


def bandit_mdp() -> FiniteMDP:
    """Two alternating states; the correct action in each pays 1."""
    P = np.zeros((2, 2, 2))
    R = np.zeros((2, 2))
    terminal = np.array([False, False])
    for s in range(2):
        for a in range(2):
            P[s, a, 1 - s] = 1.0
    R[0, 0] = 1.0
    R[1, 1] = 1.0
    return FiniteMDP(P, R, terminal)


def aggregate_mdp(mdp: FiniteMDP, assignment: np.ndarray, n_clusters: int) -> FiniteMDP:
    """Cluster-level MDP with uniformly weighted member dynamics."""
    P = np.zeros((n_clusters, mdp.n_actions, n_clusters))
    R = np.zeros((n_clusters, mdp.n_actions))
    terminal = np.zeros(n_clusters, dtype=bool)
    for c in range(n_clusters):
        members = np.flatnonzero(assignment == c)
        terminal[c] = bool(mdp.terminal[members].any())
        for a in range(mdp.n_actions):
            R[c, a] = mdp.R[members, a].mean()
            for c2 in range(n_clusters):
                cols = np.flatnonzero(assignment == c2)
                P[c, a, c2] = mdp.P[np.ix_(members, [a], cols)].sum(axis=2).mean()
    return FiniteMDP(P, R, terminal)


# ---------------------------------------------------------------------------
# Random-access contention
# ---------------------------------------------------------------------------


def enumerate_expected_successes(n: int, m: int) -> float:
    """Average singleton count over all m**n equally likely assignments."""
    total = 0
    for assignment in itertools.product(range(m), repeat=n):
        counts = Counter(assignment)
        total += sum(1 for v in counts.values() if v == 1)
    return total / m**n


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def finite_diff_grads(net: DenseNet, batch, h: float = 1e-5):
    """Central-difference gradients of batch_loss w.r.t. every parameter."""
    weight_grads, bias_grads = [], []
    for li in range(net.n_layers):
        gw = np.zeros_like(net.weights[li])
        for idx in np.ndindex(net.weights[li].shape):
            orig = net.weights[li][idx]
            net.weights[li][idx] = orig + h
            up = batch_loss(net, batch)
            net.weights[li][idx] = orig - h
            dn = batch_loss(net, batch)
            net.weights[li][idx] = orig
            gw[idx] = (up - dn) / (2 * h)
        weight_grads.append(gw)
        gb = np.zeros_like(net.biases[li])
        for idx in np.ndindex(net.biases[li].shape):
            orig = net.biases[li][idx]
            net.biases[li][idx] = orig + h
            up = batch_loss(net, batch)
            net.biases[li][idx] = orig - h
            dn = batch_loss(net, batch)
            net.biases[li][idx] = orig
            gb[idx] = (up - dn) / (2 * h)
        bias_grads.append(gb)
    return weight_grads, bias_grads


def random_net_and_batch(rng: np.random.Generator, max_weights: int = 1000):
    """Random small float64 net plus a batch clear of ReLU kinks.

    Pre-activations within 1e-3 of zero would make central differences cross
    the kink, so such draws are rejected and redrawn.
    """
    while True:
        depth = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(1, 9)) for _ in range(depth))
        if sum(a * b for a, b in zip(dims[:-1], dims[1:])) > max_weights:
            continue
        net = glorot_init(dims, rng.integers(2**32))
        for i in range(net.n_layers):
            net.weights[i] = rng.normal(0, 1.0, net.weights[i].shape)
            net.biases[i] = rng.normal(0, 0.5, net.biases[i].shape)
        bsz = int(rng.integers(1, 5))
        x = rng.normal(0, 1.0, (bsz, dims[0]))
        targets = rng.normal(0, 1.0, (bsz, dims[-1]))
        masks = np.zeros((bsz, dims[-1]))
        masks[np.arange(bsz), rng.integers(0, dims[-1], bsz)] = 1.0
        h = x
        clear = True
        for i in range(net.n_layers):
            z = h @ net.weights[i] + net.biases[i]
            if i < net.n_layers - 1:
                if np.min(np.abs(z)) < 1e-3:
                    clear = False
                    break
                h = np.maximum(z, 0)
        if not clear:
            continue
        batch = list(zip(x, targets, masks))
        return net, batch


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def brute_force_side_step(sites, z, dx, amplitude, length_scale, f) -> np.ndarray:
    """Direct double loop over sites, no matrix assembly."""
    sites = np.atleast_2d(np.asarray(sites, dtype=float).T).T
    n = sites.shape[0]
    out = np.zeros(n)
    fz = [f(zi) for zi in z]
    for i in range(n):
        acc = 0.0
        for j in range(n):
            d2 = float(((sites[i] - sites[j]) ** 2).sum())
            acc += amplitude * np.exp(-d2 / (2.0 * length_scale**2)) * fz[j]
        out[i] = acc * dx
    return out


# ---------------------------------------------------------------------------
# Centralized training twin
# ---------------------------------------------------------------------------


def run_centralized_dqn(env_cfg, dqn_cfg, seed: int, steps: int):
    """Plain single-machine DQN loop, one train step per environment step.

    Mirrors what a no-protocol implementation would do.  Seeds derive the
    same way a one-entity session derives them so the two can be compared
    trajectory-for-trajectory.  Returns the per-step list of weight arrays.
    """
    seeds = derive_seeds(seed, 1)
    entity = seeds["entities"][0]
    dims = (3 * env_cfg.history_window, *dqn_cfg.hidden, len(env_cfg.action_menu))
    net = glorot_init(dims, seeds["net"], dtype=dqn_cfg.np_dtype)
    target = sync_target(net)
    buffer = ReplayBuffer(dqn_cfg.replay_capacity)
    sample_rng = np.random.default_rng(seeds["sample"])
    action_rng = np.random.default_rng(entity["action"])
    env = RachEnv(replace(env_cfg, seed=entity["env"]))
    obs = env.reset()
    norm = float(env_cfg.max_opportunities)
    menu = env_cfg.action_menu
    train_steps = 0
    weight_log = []
    for _ in range(steps):
        eps = epsilon_linear(train_steps, dqn_cfg.eps_start, dqn_cfg.eps_end, dqn_cfg.eps_decay_steps)
        state = build_state(obs, norm, dqn_cfg.np_dtype)
        q = forward(net, state)
        action = epsilon_greedy(q, eps, action_rng)
        obs2, reward, _ = env.step(menu[action])
        buffer.push(Transition(state, action, reward, build_state(obs2, norm, dqn_cfg.np_dtype), False))
        obs = obs2
        bs = min(dqn_cfg.batch_size, len(buffer))
        net, _loss = dqn_train_step(
            net, target, buffer, bs, dqn_cfg.discount, dqn_cfg.lr, sample_rng
        )
        train_steps += 1
        if train_steps % dqn_cfg.target_sync_every == 0:
            target = sync_target(net)
        weight_log.append([w.copy() for w in net.weights] + [b.copy() for b in net.biases])
    return weight_log


# ---------------------------------------------------------------------------
# Reference learner
# ---------------------------------------------------------------------------
#
# The transition-object replay and the four-forward train step that the
# array-native learner in greenrl.neural replaced, kept verbatim apart from
# their names.  Each step restacks the sample into arrays, runs the target
# and online networks, then runs the online network again in the loss and
# again in the backprop.  The learner must reproduce it bit for bit.  Only
# ``sgd_step`` is shared with greenrl.neural; the change it checks left that
# function as it was.


class ReferenceReplayBuffer:
    """Bounded FIFO of transitions with uniform random sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"replay capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._items: deque[Transition] = deque(maxlen=self.capacity)

    def push(self, t: Transition) -> None:
        self._items.append(t)

    def __len__(self) -> int:
        return len(self._items)

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        """Uniform sample with replacement; errors if underfilled."""
        if batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if len(self) < batch_size:
            raise NotReadyError(
                f"replay holds {len(self)} transitions, need {batch_size}"
            )
        idx = rng.integers(0, len(self._items), size=batch_size)
        return [self._items[i] for i in idx]


def _reference_forward_cached(net: DenseNet, x: np.ndarray):
    """Batched forward pass keeping per-layer inputs and pre-activations."""
    if net.activation != "relu":
        raise ConfigError(f"unsupported activation {net.activation!r}")
    inputs, pre_acts = [], []
    h = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ w + b
        pre_acts.append(z)
        h = np.maximum(z, 0) if i < net.n_layers - 1 else z
    return inputs, pre_acts


def _reference_stack_batch(net: DenseNet, batch):
    """Stack (input, target_vector, action_mask) triples into arrays."""
    if len(batch) == 0:
        raise InvalidInputError("batch must be nonempty")
    xs, ts, ms = zip(*batch)
    x = np.asarray(xs, dtype=net.dtype)
    t = np.asarray(ts, dtype=net.dtype)
    m = np.asarray(ms, dtype=net.dtype)
    out = net.layer_dims[-1]
    if x.shape != (len(batch), net.layer_dims[0]) or t.shape != (len(batch), out) or m.shape != t.shape:
        raise InvalidInputError("batch entries do not match network dims")
    return x, t, m


def reference_batch_loss(net: DenseNet, batch) -> float:
    """Mean over samples of the squared error restricted by each action mask."""
    x, t, m = _reference_stack_batch(net, batch)
    _, pre_acts = _reference_forward_cached(net, x)
    y = pre_acts[-1]
    per_sample = ((y - t) ** 2 * m).sum(axis=1)
    return float(per_sample.mean())


def reference_backprop_minibatch(net: DenseNet, batch) -> GradientBatch:
    """Exact gradients of ``reference_batch_loss`` w.r.t. every weight and bias."""
    x, t, m = _reference_stack_batch(net, batch)
    inputs, pre_acts = _reference_forward_cached(net, x)
    y = pre_acts[-1]
    n = x.shape[0]
    delta = 2.0 * m * (y - t) / n
    weight_grads = [np.empty(0)] * net.n_layers
    bias_grads = [np.empty(0)] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        weight_grads[i] = inputs[i].T @ delta
        bias_grads[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (pre_acts[i - 1] > 0)
    if net.mask is not None:
        weight_grads = [g * mk for g, mk in zip(weight_grads, net.mask)]
    return GradientBatch(weight_grads, bias_grads)


def reference_dqn_train_step(
    online: DenseNet,
    target: DenseNet,
    buffer: ReferenceReplayBuffer,
    batch_size: int,
    discount: float,
    lr: float,
    rng: np.random.Generator,
) -> tuple[DenseNet, float]:
    """One mini-batch TD update of the online network, four forwards."""
    lam = check_discount(discount)
    sample = buffer.sample(batch_size, rng)
    dt = online.dtype
    x = np.asarray([t.state for t in sample], dtype=dt)
    x2 = np.asarray([t.next_state for t in sample], dtype=dt)
    rewards = np.asarray([t.reward for t in sample], dtype=dt)
    actions = np.asarray([t.action for t in sample], dtype=np.int64)
    live = np.asarray([0.0 if t.terminal else 1.0 for t in sample], dtype=dt)

    _, tgt_acts = _reference_forward_cached(target, x2)
    boot = tgt_acts[-1].max(axis=1)
    td_target = rewards + dt.type(lam) * boot * live

    _, on_acts = _reference_forward_cached(online, x)
    preds = on_acts[-1]
    t_mat = preds.copy()
    rows = np.arange(len(sample))
    t_mat[rows, actions] = td_target
    m_mat = np.zeros_like(preds)
    m_mat[rows, actions] = 1

    batch = list(zip(x, t_mat, m_mat))
    loss = reference_batch_loss(online, batch)
    grads = reference_backprop_minibatch(online, batch)
    return sgd_step(online, grads, lr), loss


# ---------------------------------------------------------------------------
# Reference sample-batch codec
# ---------------------------------------------------------------------------
#
# The record-by-record upload codec that the packed-dtype codec in
# greenrl.cloud_loop replaced, kept verbatim apart from its names and the
# type it decodes into.  It walks the batch one ``Transition`` at a time with
# ``struct`` and per-record ``numpy`` casts.  Payloads of the new encoder must
# match it byte for byte, and its decoded records must match the new columns.

_REFERENCE_BATCH_MAGIC = b"GSMB"
_REFERENCE_WIRE_VERSION = 1


@dataclass(frozen=True)
class ReferenceSampleBatch:
    entity_id: int
    snapshot_version: int
    transitions: tuple[Transition, ...]
    byte_size: int


def reference_encode_sample_batch(
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
        _REFERENCE_BATCH_MAGIC,
        struct.pack(
            "<HBIII", _REFERENCE_WIRE_VERSION, 1 if fp16 else 0, entity_id, snapshot_version, len(transitions)
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


def reference_decode_sample_batch(buf: bytes) -> ReferenceSampleBatch:
    if buf[:4] != _REFERENCE_BATCH_MAGIC:
        raise InvalidInputError("bad magic in sample batch payload")
    fmt, fp16, entity_id, version, count = struct.unpack_from("<HBIII", buf, 4)
    if fmt != _REFERENCE_WIRE_VERSION:
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
    return ReferenceSampleBatch(entity_id, version, tuple(transitions), len(buf))


# ---------------------------------------------------------------------------
# Reference environment step
# ---------------------------------------------------------------------------
#
# The environment step that the rolling-window, precomputed-action step in
# greenrl.rach_env replaced, kept verbatim apart from its name and the
# dropped per-slot trace.  The window is a deque of triples rebuilt into an
# observation every slot, an action is checked with ``in`` against the menu
# tuple, and contention goes through ``simulate_contention``.  Both
# environments draw from one generator in the same order, so for one config
# they must agree slot for slot.


class ReferenceRachEnv:
    """Slotted random-access simulator; deterministic given its config seed."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.reset()

    def reset(self) -> np.ndarray:
        self.rng = np.random.default_rng(self.cfg.seed)
        self.backlog = 0
        self.slot = 0
        self._window: deque[tuple[int, int, int]] = deque(
            [(0, 0, 0)] * self.cfg.history_window, maxlen=self.cfg.history_window
        )
        return self.observation()

    def observation(self) -> np.ndarray:
        return np.asarray([v for triple in self._window for v in triple], dtype=float)

    def _draw_arrivals(self) -> int:
        traffic = self.cfg.traffic
        if isinstance(traffic, BernoulliTraffic):
            idle_devices = max(0, self.cfg.num_devices - self.backlog)
            return int(self.rng.binomial(idle_devices, traffic.p))
        count = int(traffic.counts(self.slot))
        if count < 0:
            raise InvalidInputError("external traffic produced a negative count")
        return min(count, self.cfg.num_devices - self.backlog)

    def step(self, action):
        if action not in self.cfg.action_menu:
            raise InvalidInputError(f"action {action} is not on the menu")
        arrivals = self._draw_arrivals()
        self.backlog += arrivals
        m = action.opportunities
        p_attempt = min(1.0, action.repetition / self.cfg.backoff_slots)
        attempts = int(self.rng.binomial(self.backlog, p_attempt))
        occupancy = simulate_contention(attempts, m, self.rng)
        successful = int((occupancy == 1).sum())
        collided = int((occupancy >= 2).sum())
        idle = m - successful - collided
        self.backlog -= successful
        self._window.appendleft((idle, collided, successful))
        self.slot += 1
        outcome = SlotOutcome(served=successful, backlog=self.backlog, occupancy=occupancy)
        return self.observation(), float(successful), outcome
