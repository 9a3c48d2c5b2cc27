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
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from greenrl.cloud_loop import (
    CompressionPlan,
    ServiceRequest,
    derive_seeds,
    epsilon_linear,
    instantiate,
    tail_mean,
)
from greenrl.compression import DiscretizationScheme
from greenrl.errors import ConfigError, InvalidInputError, NotReadyError
from greenrl.neural import (
    DenseNet,
    GradientBatch,
    QuantMeta,
    ReplayBatch,
    ReplayBuffer,
    batch_loss,
    dqn_train_step,
    forward,
    glorot_init,
    pack,
    symmetric_quantize_layer,
    sync_target,
)
from greenrl.rach_env import (
    COLLISION_MULTIPLICITY,
    BernoulliTraffic,
    ExternalTraffic,
    RachEnv,
    simulate_contention,
)
from greenrl.rl_core import (
    QTable,
    check_discount,
    epsilon_greedy,
)
from greenrl.runner import rounds_to_threshold
from greenrl.spatial import (
    CorrelationMatrix,
    FieldNoise,
    FieldTrafficSource,
    Kernel,
    SpatialField,
    estimate_correlation,
    quadrature_matrix,
    transfer_weights,
)

# ---------------------------------------------------------------------------
# Transition records and Q-table rows
# ---------------------------------------------------------------------------

# The per-transition record and the keyed Q-table read that the column
# replay ring and ``TabularQAgent.q_values`` replaced in greenrl, kept for
# the references below that walk one transition at a time.


@dataclass(frozen=True)
class Transition:
    """One (state, action, reward, next_state, terminal) experience record."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool = False


def state_key(state) -> Hashable:
    """Hashable dictionary key for a state vector or scalar id."""
    if isinstance(state, (int, str)):
        return state
    arr = np.asarray(state)
    if arr.ndim == 0:
        return arr.item()
    return tuple(arr.ravel().tolist())


def q_table_row(table: QTable, state) -> np.ndarray:
    """Per-action values for ``state`` (zeros if unseen).  Read-only copy."""
    key = state_key(state)
    if key in table.values:
        return table.values[key].copy()
    return np.zeros(table.n_actions)


# ---------------------------------------------------------------------------
# Returns
# ---------------------------------------------------------------------------

# No greenrl path computes a discounted return; test_rl_core.py pins this
# helper's contract.


def discounted_return(rewards: Iterable[float], discount: float) -> float:
    """Sum of rewards weighted by discount**t, t starting at 0.

    An empty reward sequence returns 0.0.  Non-finite rewards are rejected.
    """
    lam = check_discount(discount)
    r = np.asarray(list(rewards), dtype=float)
    if r.size == 0:
        return 0.0
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("rewards must all be finite")
    return float(r @ np.power(lam, np.arange(r.size)))


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


def partition_members(part) -> dict[int, list[Hashable]]:
    """The states of each abstract id of a ``StatePartition``, in mapping order."""
    out: dict[int, list[Hashable]] = {i: [] for i in range(part.n_clusters)}
    for key, cid in part.mapping.items():
        out[cid].append(key)
    return out


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
            net.weights[i][...] = rng.normal(0, 1.0, net.weights[i].shape)
            net.biases[i][...] = rng.normal(0, 0.5, net.biases[i].shape)
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
# Field traffic source
# ---------------------------------------------------------------------------

# The field step, intensity and traffic source as they were before the
# source stepped a bare array through a propagator built once: a new
# quadrature matrix and a validated SpatialField every step, and a
# TrafficIntensity per slot.  The spatial parity tests match them bit for bit.

_REFERENCE_SQUASH_FNS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda z: z,
    "squash": np.tanh,
}


def reference_side_step(
    field: SpatialField,
    kernel: Kernel,
    f: str | Callable[[np.ndarray], np.ndarray] = "squash",
    noise: FieldNoise | None = None,
) -> SpatialField:
    """One field update z' = (K f(z)) dx + e; returns a new field."""
    fn = _REFERENCE_SQUASH_FNS.get(f) if isinstance(f, str) else f
    if fn is None:
        raise ConfigError(f"unknown squash tag {f!r}; use one of {sorted(_REFERENCE_SQUASH_FNS)}")
    k_mat = quadrature_matrix(field, kernel)
    z_new = (k_mat @ fn(field.z)) * field.dx
    if noise is not None:
        z_new = z_new + noise.draw(field.n_sites)
    if not np.all(np.isfinite(z_new)):
        raise InvalidInputError("field update produced non-finite values")
    return SpatialField(field.sites, z_new, field.dx)


@dataclass(frozen=True)
class ReferenceTrafficIntensity:
    """Per-site Poisson rates mu * exp(z) for one field snapshot."""

    base_rate: float
    z: np.ndarray

    def __post_init__(self):
        if self.base_rate <= 0 or not np.isfinite(self.base_rate):
            raise ConfigError(f"base_rate must be positive, got {self.base_rate}")
        z = np.asarray(self.z, dtype=float)
        object.__setattr__(self, "z", z)
        if not np.all(np.isfinite(self.rates)):
            raise InvalidInputError("intensity overflowed; field values too large")

    @property
    def rates(self) -> np.ndarray:
        return self.base_rate * np.exp(self.z)


def reference_sample_traffic(
    intensity: ReferenceTrafficIntensity, rng: np.random.Generator
) -> np.ndarray:
    """Independent Poisson draw per site at the current rates."""
    return rng.poisson(intensity.rates)


class ReferenceFieldTrafficSource:
    """Advances a field one step per slot on demand and serves site counts.

    Multiple consumers can pull arrivals for different sites in any order;
    each slot's field step and Poisson draw happen exactly once and are
    cached, so all consumers see one consistent realisation.
    """

    def __init__(
        self,
        field: SpatialField,
        kernel: Kernel,
        squash: str | Callable[[np.ndarray], np.ndarray],
        noise: FieldNoise,
        base_rate: float,
        seed: int = 0,
        burn_in: int = 0,
    ):
        for _ in range(int(burn_in)):
            field = reference_side_step(field, kernel, squash, noise)
        self.field = field
        self.kernel = kernel
        self.squash = squash
        self.noise = noise
        self.base_rate = float(base_rate)
        self._rng = np.random.default_rng(seed)
        self._counts: list[np.ndarray] = []

    def counts_at(self, slot: int) -> np.ndarray:
        if slot < 0:
            raise InvalidInputError("slot must be >= 0")
        while len(self._counts) <= slot:
            self.field = reference_side_step(self.field, self.kernel, self.squash, self.noise)
            intensity = ReferenceTrafficIntensity(self.base_rate, self.field.z)
            self._counts.append(reference_sample_traffic(intensity, self._rng))
        return self._counts[slot]

    def stream(self, site: int) -> Callable[[int], int]:
        """Per-slot arrival callable for one site, env-traffic compatible."""
        if not 0 <= site < self.field.n_sites:
            raise InvalidInputError(f"site {site} out of range")
        return lambda slot: int(self.counts_at(slot)[site])

    def stream_region(self, sites) -> Callable[[int], int]:
        """Per-slot arrivals summed over a cell of sites (one station's view)."""
        idx = [int(s) for s in sites]
        if not idx:
            raise InvalidInputError("region needs at least one site")
        for s in idx:
            if not 0 <= s < self.field.n_sites:
                raise InvalidInputError(f"site {s} out of range")
        return lambda slot: int(self.counts_at(slot)[idx].sum())

    def history(self) -> np.ndarray:
        """All counts sampled so far, shape (slots, n_sites)."""
        if not self._counts:
            return np.zeros((0, self.field.n_sites), dtype=int)
        return np.asarray(self._counts)

    def region_history(self, cells) -> np.ndarray:
        """Summed count series per cell, shape (slots, n_cells)."""
        hist = self.history()
        return np.stack([hist[:, [int(s) for s in cell]].sum(axis=1) for cell in cells], axis=1)


# ---------------------------------------------------------------------------
# Centralized training twin
# ---------------------------------------------------------------------------

# The state rule that greenrl's slot loop and ``evaluate_greedy_net`` inline
# as ``obs / norm`` assigned into a row of the network's dtype.


def build_state(obs: np.ndarray, norm: float, dtype) -> np.ndarray:
    """Network input: observation counts scaled by the largest menu size,
    divided in float64 and rounded once to ``dtype``."""
    return (np.asarray(obs, dtype=np.float64) / norm).astype(dtype)


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
        obs2, reward = env.step(menu[action])
        next_state = build_state(obs2, norm, dqn_cfg.np_dtype)
        buffer.write(
            ReplayBatch(
                state[None], np.array([action], np.int64), np.array([reward], np.float64), next_state[None],
                np.array([1.0]),
            )
        )
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
# again in the backprop, and updates through ``reference_sgd_step`` below.
# The learner must reproduce it bit for bit.


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
    return reference_sgd_step(online, grads, lr), loss


# ---------------------------------------------------------------------------
# Reference parameter update and network codec
# ---------------------------------------------------------------------------
#
# The per-layer parameter update and network codec that the flat parameter
# vector in greenrl.neural replaced, kept verbatim apart from their names.
# They walk the network one weight matrix and bias vector at a time.  The
# learner's one-vector update (``dqn_train_step``) must match
# ``reference_sgd_step`` bit for bit, and payloads of the new codec must
# match these byte for byte.


def reference_sgd_step(net: DenseNet, grads: GradientBatch, lr: float) -> DenseNet:
    """w <- w - lr * g; the sparsity mask is re-applied afterwards."""
    if not lr > 0:
        raise InvalidInputError(f"learning rate must be positive, got {lr!r}")
    if len(grads.weight_grads) != net.n_layers:
        raise InvalidInputError("gradient layer count does not match network")
    lr = net.dtype.type(lr)
    weights, biases = [], []
    for i in range(net.n_layers):
        if grads.weight_grads[i].shape != net.weights[i].shape:
            raise InvalidInputError(f"gradient shape mismatch at layer {i}")
        w = net.weights[i] - lr * grads.weight_grads[i].astype(net.dtype)
        if net.mask is not None:
            w = w * net.mask[i]
        weights.append(w)
        biases.append(net.biases[i] - lr * grads.bias_grads[i].astype(net.dtype))
    mask = [mk.copy() for mk in net.mask] if net.mask is not None else None
    return pack(net.layer_dims, weights, biases, mask)


_REF_MAGIC = b"GDNW"
_REF_FORMAT_VERSION = 1
# magic, format version, float tag, quant bits, activation tag, n_dims
_REF_NET_HEADER = struct.Struct("<4sHBBBB")
_REF_FLOAT_TAGS = {0: np.float32, 1: np.float64}
_REF_ACT_TAGS = {"relu": 0}


def reference_net_to_bytes(net: DenseNet, quant_bits: int | None = None) -> bytes:
    """Serialise to the flat little-endian wire payload.

    Layout: magic, format version u16, float tag u8 (0=f32, 1=f64),
    quant bits u8 (0 = dense floats), activation tag u8, n_dims u8,
    dims u32 each, then per layer the weight block (row-major floats, or a
    f32 scale followed by i8/i16 codes when quantised) and f32/f64 biases.
    """
    float_tag = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}.get(net.dtype)
    if float_tag is None:
        raise InvalidInputError(f"unsupported network dtype {net.dtype}")
    parts = [
        _REF_MAGIC,
        struct.pack(
            "<HBBBB",
            _REF_FORMAT_VERSION,
            float_tag,
            0 if quant_bits is None else int(quant_bits),
            _REF_ACT_TAGS["relu"],
            len(net.layer_dims),
        ),
        struct.pack(f"<{len(net.layer_dims)}I", *net.layer_dims),
    ]
    for w, b in zip(net.weights, net.biases):
        if quant_bits is None:
            parts.append(np.ascontiguousarray(w).tobytes())
        else:
            codes, scale = symmetric_quantize_layer(w, quant_bits)
            code_dtype = np.int8 if quant_bits <= 8 else np.int16
            parts.append(struct.pack("<f", scale))
            parts.append(codes.astype(code_dtype).tobytes())
        parts.append(np.ascontiguousarray(b).tobytes())
    return b"".join(parts)


def reference_net_from_bytes(buf: bytes) -> DenseNet:
    """Rebuild a DenseNet from ``reference_net_to_bytes`` output.

    Quantised payloads decode to dequantised float weights (codes * scale)
    carrying a QuantMeta tag.  The header fields are checked, and the
    payload length is checked against the length they imply before any
    body read, so every malformed payload raises ``InvalidInputError``.
    """
    if len(buf) < _REF_NET_HEADER.size:
        raise InvalidInputError("network payload is shorter than its header")
    magic, fmt, float_tag, quant_bits, act_tag, n_dims = _REF_NET_HEADER.unpack_from(buf)
    if magic != _REF_MAGIC:
        raise InvalidInputError("bad magic in network payload")
    if fmt != _REF_FORMAT_VERSION:
        raise InvalidInputError(f"unsupported payload format version {fmt}")
    if float_tag not in _REF_FLOAT_TAGS:
        raise InvalidInputError(f"unknown float tag {float_tag}")
    if quant_bits != 0 and not 2 <= quant_bits <= 16:
        raise InvalidInputError(f"quantisation bits must be 0 or lie in [2, 16], got {quant_bits}")
    if act_tag not in _REF_ACT_TAGS.values():
        raise InvalidInputError(f"unknown activation tag {act_tag}")
    if n_dims < 2:
        raise InvalidInputError(f"network payload needs >= 2 layer dims, got {n_dims}")
    off = _REF_NET_HEADER.size + 4 * n_dims
    if len(buf) < off:
        raise InvalidInputError("network payload is shorter than its layer dims")
    dims = struct.unpack_from(f"<{n_dims}I", buf, _REF_NET_HEADER.size)
    if min(dims) < 1:
        raise InvalidInputError(f"network layer dims must be >= 1, got {dims}")
    dtype = np.dtype(_REF_FLOAT_TAGS[float_tag])
    code_dtype = np.dtype(np.int8) if quant_bits <= 8 else np.dtype(np.int16)
    layer_head, w_size = (0, dtype.itemsize) if quant_bits == 0 else (4, code_dtype.itemsize)
    expected = off + sum(
        layer_head + (fan_in * w_size + dtype.itemsize) * fan_out
        for fan_in, fan_out in zip(dims[:-1], dims[1:])
    )
    if len(buf) != expected:
        raise InvalidInputError(f"network payload holds {len(buf)} bytes, its header implies {expected}")
    weights, biases, scales = [], [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        n = fan_in * fan_out
        if quant_bits == 0:
            w = np.frombuffer(buf, dtype=dtype, count=n, offset=off).reshape(fan_in, fan_out)
            off += n * dtype.itemsize
        else:
            (scale,) = struct.unpack_from("<f", buf, off)
            if not 0 < scale < np.inf:
                raise InvalidInputError(f"quantisation scale must be finite and positive, got {scale}")
            off += 4
            codes = np.frombuffer(buf, dtype=code_dtype, count=n, offset=off)
            off += n * code_dtype.itemsize
            w = (codes.astype(dtype) * dtype.type(scale)).reshape(fan_in, fan_out)
            scales.append(float(scale))
        weights.append(w.copy())
        b = np.frombuffer(buf, dtype=dtype, count=fan_out, offset=off)
        off += fan_out * dtype.itemsize
        biases.append(b.copy())
    quant = None
    if quant_bits:
        quant = QuantMeta(quant_bits, scales)
    return pack(tuple(dims), weights, biases, quant=quant)



def reference_per_round_curve(rows) -> np.ndarray:
    """Mean reward per round, averaged over entities: one ``np.mean`` per round."""
    by_round: dict[int, list[float]] = {}
    for row in rows:
        by_round.setdefault(row["round"], []).append(row["reward_mean"])
    return np.asarray([np.mean(by_round[r]) for r in sorted(by_round)])


# The per-layer correlation-gated blend that whole-vector blending in
# greenrl.spatial replaced, kept verbatim apart from its name.
def reference_transfer_weights(
    nets: Sequence[DenseNet],
    corr: CorrelationMatrix | np.ndarray,
    beta: float,
) -> list[DenseNet]:
    """Correlation-gated convex blend of per-agent network parameters.

    For agent i let Z_i be the sum of clipped correlations c+_ij over j != i
    and w_i = Z_i / (1 + Z_i).  The update

        theta_i' = (1 - beta w_i) theta_i + beta w_i sum_j (c+_ij / Z_i) theta_j

    is a convex combination (coefficients sum to 1).  beta = 0, or no
    positive correlation, leaves the agent unchanged.  With two agents at
    correlation 1 and beta 1 both land on the elementwise average.  Each
    agent's own sparsity mask is re-applied to the blend.
    """
    values = corr.values if isinstance(corr, CorrelationMatrix) else np.asarray(corr, dtype=float)
    n = len(nets)
    if values.shape != (n, n):
        raise InvalidInputError(f"correlation matrix {values.shape} does not match {n} agents")
    if not 0.0 <= beta <= 1.0:
        raise InvalidInputError(f"beta must lie in [0, 1], got {beta!r}")
    dims = nets[0].layer_dims
    if any(net.layer_dims != dims for net in nets):
        raise InvalidInputError("all agents must share one architecture")

    def copy_of(net: DenseNet) -> DenseNet:
        return pack(
            net.layer_dims,
            [w.copy() for w in net.weights],
            [b.copy() for b in net.biases],
            [m.copy() for m in net.mask] if net.mask is not None else None,
        )

    out: list[DenseNet] = []
    pos = np.clip(values, 0.0, None)
    np.fill_diagonal(pos, 0.0)
    for i, net in enumerate(nets):
        z_i = float(pos[i].sum())
        if beta == 0.0 or z_i == 0.0:
            out.append(copy_of(net))
            continue
        w_i = z_i / (1.0 + z_i)
        self_coeff = 1.0 - beta * w_i
        weights, biases = [], []
        for layer in range(net.n_layers):
            w_mix = self_coeff * net.weights[layer]
            b_mix = self_coeff * net.biases[layer]
            for j, other in enumerate(nets):
                if j == i or pos[i, j] == 0.0:
                    continue
                share = beta * w_i * (pos[i, j] / z_i)
                w_mix = w_mix + share * other.weights[layer]
                b_mix = b_mix + share * other.biases[layer]
            if net.mask is not None:
                w_mix = w_mix * net.mask[layer]
            weights.append(w_mix.astype(net.dtype))
            biases.append(b_mix.astype(net.dtype))
        out.append(
            pack(
                net.layer_dims,
                weights,
                biases,
                [m.copy() for m in net.mask] if net.mask is not None else None,
            )
        )
    return out


# The one-arm transfer driver that ``greenrl.runner.run_transfer_arms``
# replaced, kept verbatim apart from its name, ``_reference_seed_int``, its
# ``run_round()`` calls, whose rounds the sessions number themselves, and
# its curve, which is gathered from the sessions' round logs into
# ``reference_per_round_curve``, one ``np.mean`` per round.  Each call
# builds its own field source and sessions and runs every round, so an arm
# shares nothing with the other arm of its seed.
def _reference_seed_int(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, np.uint64)[0] % (2**63))


def reference_run_transfer_arm(cfg, seed: int, enabled: bool) -> dict:
    """Two coordinators on one shared field, optional parameter transfer."""
    threshold = cfg.reward_threshold
    if threshold is None:
        raise ConfigError("transfer scenario needs reward_threshold")
    sp = cfg.spatial
    children = np.random.SeedSequence([int(seed), 7077]).spawn(5)
    noise = FieldNoise(sp.noise_sigma, seed=children[0])
    field = SpatialField.line(sp.n_sites, sp.length, 0.0)
    kernel = Kernel(sp.kernel_amplitude, sp.kernel_length_scale)
    source = FieldTrafficSource(
        field, kernel, sp.squash, noise, sp.mu, seed=children[1], burn_in=sp.burn_in
    )
    base_env = cfg.rach.to_env_config()
    net_seed = _reference_seed_int(children[4])
    plan = CompressionPlan(snapshot_bits=cfg.cloud.snapshot_bits, batch_fp16=cfg.cloud.batch_fp16)
    sessions = []
    for idx, cell in enumerate(sp.bs_cells):
        env_cfg = replace(base_env, traffic=ExternalTraffic(source.stream_region(cell)))
        request = ServiceRequest(
            entity_ids=(0,),
            env_config=env_cfg,
            inner_steps=cfg.cloud.inner_steps,
            dqn=cfg.cloud.dqn_config(),
            compression=plan,
            seed=_reference_seed_int(children[2 + idx]),
            net_seed=net_seed,
        )
        sessions.append(instantiate(request))
    rounds = cfg.rounds()
    correlations = []
    for r in range(rounds):
        for session in sessions:
            session.run_round()
        if enabled and (r + 1) % sp.transfer_every == 0 and (r + 1) < rounds:
            cm = estimate_correlation(source.region_history(sp.bs_cells))
            correlations.append(float(cm.values[0, 1]))
            mixed = transfer_weights([s.online for s in sessions], cm, sp.beta)
            for session, net in zip(sessions, mixed):
                session.online = net
                session.target = sync_target(net)
    rows = [
        {"round": r, "reward_mean": reward}
        for session in sessions
        for r, reward in zip(session.log["round"], session.log["reward_mean"])
    ]
    curve = reference_per_round_curve(rows)
    return {
        "seed": seed,
        "enabled": enabled,
        "curve": curve,
        "rounds_to_threshold": rounds_to_threshold(curve, threshold, cfg.threshold_window),
        "terminal_reward": tail_mean(curve, cfg.tail_fraction),
        "correlations": correlations,
        "bytes_down": sum(s.message_ledger.bytes_down for s in sessions),
        "bytes_up": sum(s.message_ledger.bytes_up for s in sessions),
    }

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
# dropped per-slot trace and outcome record.  The window is a deque of
# triples rebuilt into an observation every slot, an action is checked with
# ``in`` against the menu tuple, and contention goes through
# ``simulate_contention``.  Both environments draw from one generator in the
# same order, so for one config they must agree slot for slot.


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
        return self.observation(), float(successful)


# ---------------------------------------------------------------------------
# Reference local agents
# ---------------------------------------------------------------------------
#
# The local agents and their drivers that the features-once path in
# greenrl.agents replaced, kept verbatim apart from their names, with the
# verbatim rules they called: ``discretize``, ``le_urc_policy``,
# ``tabular_q_update``, ``linear_q_predict`` and ``linear_q_update``.  Each
# agent keys or augments every observation itself, on every call; the
# tabular and linear updates return a fresh table or weight matrix.  Both
# paths draw from one generator in the same order, so for one config the
# rows, eval rewards, final Q-table and weights must agree bit for bit.


def reference_discretize(scheme, value: float) -> int:
    """Bin index in [0, levels); values outside the range clamp to the edges."""
    v = float(value)
    if not np.isfinite(v):
        raise InvalidInputError("value must be finite")
    width = (scheme.high - scheme.low) / scheme.levels
    idx = int((v - scheme.low) // width)
    return min(max(idx, 0), scheme.levels - 1)


def reference_le_urc_policy(obs: np.ndarray, menu):
    """Load-estimating baseline: pseudo-Bayesian backlog estimate, myopic pick."""
    if len(menu) == 0:
        raise InvalidInputError("menu must be nonempty")
    v = np.asarray(obs, dtype=float).ravel()
    if v.size < 3:
        raise InvalidInputError("observation must hold at least one slot triple")
    if np.any(v < 0):
        raise InvalidInputError("observation counts cannot be negative")
    _idle, collided, successful = v[0], v[1], v[2]
    n_hat = max(successful + COLLISION_MULTIPLICITY * collided, 1.0)
    best_idx = None
    best_key = None
    for i, action in enumerate(menu):
        m = action.opportunities
        score = n_hat * (1.0 - 1.0 / m) ** (n_hat - 1.0) if m > 1 else (1.0 if n_hat <= 1 else 0.0)
        key = (-score, m, i)
        if best_key is None or key < best_key:
            best_key = key
            best_idx = i
    return menu[best_idx]


def _reference_check_step_size(alpha: float) -> float:
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise ConfigError(f"step size must lie in (0, 1], got {alpha!r}")
    return a


def reference_tabular_q_update(table: QTable, t: Transition, discount: float) -> QTable:
    """One Q-learning backup; returns a new table sharing untouched rows."""
    lam = check_discount(discount)
    if not np.isfinite(t.reward):
        raise InvalidInputError("reward must be finite")
    a = int(t.action)
    if not 0 <= a < table.n_actions:
        raise InvalidInputError(f"action {t.action} outside [0, {table.n_actions})")
    row = q_table_row(table, t.state)
    if t.terminal:
        target = float(t.reward)
    else:
        target = float(t.reward) + lam * float(q_table_row(table, t.next_state).max())
    row[a] = (1.0 - table.alpha) * row[a] + table.alpha * target
    new_values = dict(table.values)
    new_values[state_key(t.state)] = row
    return QTable(table.n_actions, table.alpha, new_values)


@dataclass
class LinearQ:
    """One linear value head per action over [features; 1], the model type
    greenrl's linear agent replaced with its own weight matrix.

    ``weights`` has shape (n_actions, n_features + 1); the trailing column
    multiplies a constant 1 appended to every state (the bias feature).
    """

    weights: np.ndarray

    @classmethod
    def zeros(cls, n_actions: int, n_features: int) -> "LinearQ":
        return cls(np.zeros((n_actions, n_features + 1)))

    @property
    def n_actions(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1] - 1


def _reference_bias_augment(lq: LinearQ, state) -> np.ndarray:
    x = np.asarray(state, dtype=float).ravel()
    if x.size != lq.n_features:
        raise InvalidInputError(
            f"state has {x.size} features, model expects {lq.n_features}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("state features must be finite")
    return np.append(x, 1.0)


def reference_linear_q_predict(lq: LinearQ, state) -> np.ndarray:
    """Per-action value estimates w_a . [state; 1]."""
    return lq.weights @ _reference_bias_augment(lq, state)


def reference_linear_q_update(lq: LinearQ, t: Transition, discount: float, alpha: float) -> LinearQ:
    """Semi-gradient Q-learning step on the taken action's weight row."""
    lam = check_discount(discount)
    a_step = _reference_check_step_size(alpha)
    if not np.isfinite(t.reward):
        raise InvalidInputError("reward must be finite")
    a = int(t.action)
    if not 0 <= a < lq.n_actions:
        raise InvalidInputError(f"action {t.action} outside [0, {lq.n_actions})")
    phi = _reference_bias_augment(lq, t.state)
    if t.terminal:
        target = float(t.reward)
    else:
        target = float(t.reward) + lam * float(reference_linear_q_predict(lq, t.next_state).max())
    pred = float(lq.weights[a] @ phi)
    w = lq.weights.copy()
    w[a] += a_step * (target - pred) * phi
    return LinearQ(w)


class ReferenceTabularQAgent:
    """Q-table over the latest slot triple, each count binned equal-width."""

    def __init__(self, n_actions: int, norm: float, params, rng):
        self.params = params
        self.norm = norm
        self.rng = rng
        self.table = QTable(n_actions, params.alpha)
        self.scheme = DiscretizationScheme(0.0, norm + 1.0, params.levels)
        self.slot = 0

    def _key(self, obs: np.ndarray) -> tuple[int, ...]:
        return tuple(reference_discretize(self.scheme, v) for v in np.asarray(obs)[:3])

    def act(self, obs: np.ndarray) -> int:
        eps = epsilon_linear(
            self.slot, self.params.eps_start, self.params.eps_end, self.params.eps_decay_steps
        )
        return epsilon_greedy(q_table_row(self.table, self._key(obs)), eps, self.rng)

    def learn(self, obs, action, reward, next_obs) -> None:
        t = Transition(
            np.asarray(self._key(obs)), action, reward, np.asarray(self._key(next_obs)), False
        )
        self.table = reference_tabular_q_update(self.table, t, self.params.discount)
        self.slot += 1


class ReferenceLinearQAgent:
    """Semi-gradient linear Q-learning on the normalised window vector."""

    def __init__(self, n_actions: int, n_features: int, norm: float, params, rng):
        self.params = params
        self.norm = norm
        self.rng = rng
        self.model = LinearQ.zeros(n_actions, n_features)
        self.slot = 0

    def _feat(self, obs: np.ndarray) -> np.ndarray:
        return np.asarray(obs, dtype=float) / self.norm

    def act(self, obs: np.ndarray) -> int:
        eps = epsilon_linear(
            self.slot, self.params.eps_start, self.params.eps_end, self.params.eps_decay_steps
        )
        return epsilon_greedy(reference_linear_q_predict(self.model, self._feat(obs)), eps, self.rng)

    def learn(self, obs, action, reward, next_obs) -> None:
        t = Transition(self._feat(obs), action, reward, self._feat(next_obs), False)
        self.model = reference_linear_q_update(self.model, t, self.params.discount, self.params.alpha)
        self.slot += 1


class ReferenceLeUrcAgent:
    """Stateless wrapper around the load-estimating heuristic."""

    def __init__(self, menu):
        self.menu = tuple(menu)

    def act(self, obs: np.ndarray) -> int:
        return self.menu.index(reference_le_urc_policy(obs, self.menu))

    def learn(self, *args) -> None:
        pass


class ReferenceRandomAgent:
    def __init__(self, n_actions: int, rng):
        self.n_actions = n_actions
        self.rng = rng

    def act(self, obs: np.ndarray) -> int:
        return int(self.rng.integers(self.n_actions))

    def learn(self, *args) -> None:
        pass


def reference_make_agent(kind: str, env_cfg, params, rng):
    n_actions = len(env_cfg.action_menu)
    norm = float(env_cfg.max_opportunities)
    if kind == "tabular":
        return ReferenceTabularQAgent(n_actions, norm, params, rng)
    if kind == "la-q":
        return ReferenceLinearQAgent(n_actions, 3 * env_cfg.history_window, norm, params, rng)
    if kind == "le-urc":
        return ReferenceLeUrcAgent(env_cfg.action_menu)
    if kind == "random":
        return ReferenceRandomAgent(n_actions, rng)
    raise ConfigError(f"unknown local agent {kind!r}")


def reference_run_local_agent(env_cfg, kind: str, params, total_slots: int, bucket: int, seed: int):
    """Run one local agent; rows aggregate every ``bucket`` slots."""
    seeds = derive_seeds(seed, 1)["entities"][0]
    env = RachEnv(replace(env_cfg, seed=seeds["env"]))
    rng = np.random.default_rng(seeds["action"])
    agent = reference_make_agent(kind, env_cfg, params, rng)
    obs = env.reset()
    rows: list[dict] = []
    bucket_rewards: list[float] = []
    for slot in range(total_slots):
        action = agent.act(obs)
        next_obs, reward = env.step(env_cfg.action_menu[action])
        agent.learn(obs, action, reward, next_obs)
        obs = next_obs
        bucket_rewards.append(reward)
        if len(bucket_rewards) == bucket or slot == total_slots - 1:
            eps = epsilon_linear(
                getattr(agent, "slot", slot),
                params.eps_start,
                params.eps_end,
                params.eps_decay_steps,
            )
            rows.append(
                {
                    "round": len(rows),
                    "entity": 0,
                    "reward_mean": float(np.mean(bucket_rewards)),
                    "loss": float("nan"),
                    "epsilon": eps if kind in ("tabular", "la-q") else 0.0,
                    "staleness": 0,
                    "bytes_down_total": 0,
                    "bytes_up_total": 0,
                }
            )
            bucket_rewards = []
    return rows, agent


def reference_greedy_action(agent, obs: np.ndarray) -> int:
    """Exploitation-only action for a trained local agent."""
    if isinstance(agent, ReferenceTabularQAgent):
        return int(np.argmax(q_table_row(agent.table, agent._key(obs))))
    if isinstance(agent, ReferenceLinearQAgent):
        return int(np.argmax(reference_linear_q_predict(agent.model, agent._feat(obs))))
    return agent.act(obs)


def reference_evaluate_greedy_agent(agent, env_cfg, slots: int, seed: int) -> float:
    """Mean per-slot reward of a frozen local agent on a fresh env."""
    seeds = derive_seeds(seed, 1)["entities"][0]
    env = RachEnv(replace(env_cfg, seed=seeds["env"]))
    obs = env.reset()
    total = 0.0
    for _ in range(slots):
        obs, reward = env.step(env_cfg.action_menu[reference_greedy_action(agent, obs)])
        total += reward
    return total / slots
