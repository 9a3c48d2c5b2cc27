"""Fully connected value network trained by hand-rolled backprop.

ReLU hidden layers and a linear output head, one output per action, trained
by plain SGD on the squared TD error of the taken action.

A network is its parameter vector: ``params``, one contiguous array in the
network's dtype, laid out ``[W0, b0, W1, b1, ...]`` row-major, which is
also the dense wire body.  ``weights[i]`` and ``biases[i]`` are read-only
views of it, and an optional sparsity mask is a vector of the same layout
(1 in every bias slot), seen per layer through ``mask``.  ``DenseNet``
takes both vectors as given; ``pack`` is the one way to build a network
from per-layer arrays, and copies them into a fresh vector.  No two
networks handed out share a vector: every update, copy and compression
step returns a fresh one.  The one vector written in place is a cloud
entity's resident network, which ``net_from_bytes(payload, into=net)``
overwrites with each snapshot.

A DQN step gathers its replay sample into network-dtype arrays, runs the online and
the target network as one stack, one product, bias add and ReLU per layer for both
(numpy's stacked product equals each 2-D one bit for bit), and takes the loss from the
taken-action column alone.  Its pass, backprop and flat gradient use a workspace made
once per (dims, batch size, dtype) and kept with the replay buffer; nothing returned
aliases it.  The update is one vector operation, ``params - lr * grad``, re-masked.
``batch_loss`` and ``backprop_minibatch`` run the same helpers on a stack of one
network, in a workspace made for the one call.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError, NotReadyError
from .rl_core import check_discount

__all__ = [
    "DenseNet", "QuantMeta", "pack", "GradientBatch", "ReplayBatch", "ReplayBuffer", "glorot_init", "forward",
    "batch_loss", "backprop_minibatch", "dqn_train_step", "sync_target", "net_to_bytes", "net_from_bytes",
    "symmetric_quantize_layer",
]

@dataclass
class QuantMeta:
    """Record of a symmetric per-layer weight quantisation: ``scales`` holds
    one positive step size per weight layer, and every zero point is 0."""

    bits: int
    scales: list[float]

    def __post_init__(self):
        if not 2 <= int(self.bits) <= 16:
            raise ConfigError(f"quantisation bits must lie in [2, 16], got {self.bits}")
        if any(s <= 0 for s in self.scales):
            raise ConfigError("quantisation scales must be positive")


def _views(dims: tuple[int, ...], flat: np.ndarray, lead=()) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer (*lead, fan_in, fan_out) and (*lead, fan_out) views of a ``[W0, b0, W1, b1, ...]``
    vector, or a (*lead, n) stack of them.  One that does not hold exactly those layers raises
    ConfigError, or the reshape's ValueError where it ends inside a weight block."""
    weights, biases, off = [], [], 0
    if flat.ndim == len(lead) + 1:
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            end = off + fan_in * fan_out
            weights.append(flat[..., off:end].reshape(*lead, fan_in, fan_out))
            biases.append(flat[..., end : end + fan_out])
            off = end + fan_out
    if not weights or flat.shape != (*lead, off):
        raise ConfigError(f"a vector of shape {flat.shape} does not hold the layers of {dims}")
    return tuple(weights), tuple(biases)


class DenseNet:
    """Feed-forward value network on one parameter vector.

    ``params`` is laid out ``[W0, b0, W1, b1, ...]``, and ``weights[i]``, of
    shape (layer_dims[i], layer_dims[i+1]), and ``biases[i]`` are read-only
    views of it.  An optional ``param_mask`` has the same layout, with 1 in
    every bias slot, and ``mask`` views its weight blocks; a mask entry of 0
    pins its weight to exactly zero through any training.  ``quant`` records
    the symmetric quantisation the weights sit on, if any.

    The constructor takes both vectors as given, without copying them;
    ``pack`` builds a network from per-layer arrays.
    """

    __slots__ = ("layer_dims", "params", "param_mask", "quant", "_weights", "_biases", "_mask")

    def __init__(
        self,
        layer_dims: tuple[int, ...],
        params: np.ndarray,
        param_mask: np.ndarray | None = None,
        quant: QuantMeta | None = None,
    ):
        self.layer_dims, self.params, self.param_mask, self.quant = layer_dims, params, param_mask, quant
        self._weights, self._biases = _views(layer_dims, params)
        self._mask = None if param_mask is None else _views(layer_dims, param_mask)[0]

    weights = property(lambda self: self._weights)
    biases = property(lambda self: self._biases)
    mask = property(lambda self: self._mask)

    def __reduce__(self):  # pickle and deepcopy rebuild the views on the copied vectors
        return DenseNet, (self.layer_dims, self.params, self.param_mask, self.quant)

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def dtype(self) -> np.dtype:
        return self.params.dtype


def pack(layer_dims, weights, biases, mask=None, quant: QuantMeta | None = None) -> DenseNet:
    """A network on one fresh vector holding the given per-layer arrays.

    Weights and biases must share one dtype; the mask, one array per weight
    layer, is cast to it.  A shape that does not match ``layer_dims`` raises
    ConfigError.
    """
    dims = _validate_dims(layer_dims)
    weights, biases = [np.asarray(w) for w in weights], [np.asarray(b) for b in biases]
    dtypes = sorted({str(a.dtype) for a in weights + biases})
    if len(dtypes) > 1:
        raise ConfigError(f"weights and biases must share one dtype, got {dtypes}")
    shapes = list(zip(dims[:-1], dims[1:]))
    if [w.shape for w in weights] != shapes or [b.shape for b in biases] != [s[1:] for s in shapes]:
        raise ConfigError(f"weight and bias shapes do not match layer_dims {dims}")
    params = np.concatenate([a.ravel() for layer in zip(weights, biases) for a in layer])
    param_mask = None
    if mask is not None:
        mask = [np.asarray(m, params.dtype) for m in mask]
        if [m.shape for m in mask] != shapes:
            raise ConfigError(f"mask shapes do not match layer_dims {dims}")
        param_mask = np.concatenate([a.ravel() for m, b in zip(mask, biases) for a in (m, np.ones_like(b))])
    return DenseNet(dims, params, param_mask, quant)


@dataclass
class GradientBatch:
    """Per-layer gradients matching a DenseNet's weight and bias shapes."""

    weight_grads: list[np.ndarray]
    bias_grads: list[np.ndarray]


def _validate_dims(layer_dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"layer_dims needs >= 2 positive entries, got {layer_dims!r}")
    return dims


def glorot_init(layer_dims: Sequence[int], seed, dtype=np.float64) -> DenseNet:
    """Uniform(-sqrt(6/(fan_in+fan_out)), +...) weights, zero biases."""
    dims = _validate_dims(layer_dims)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype))
        biases.append(np.zeros(fan_out, dtype=dtype))
    return pack(dims, weights, biases)


def _forward_cached(layers, x: np.ndarray, ws: _Workspace) -> None:
    """Batched forward pass of the (weight, bias) ``layers`` on ``x`` of shape
    (..., n, d), for every network in the stack at once, keeping the hidden
    activations and pre-activations in the workspace's ``h`` and ``z``."""
    last, h = len(layers) - 1, x
    for i, (w, b) in enumerate(layers):
        z = np.matmul(h, w, out=ws.z[i])
        np.add(z, b, out=z)
        if i < last:
            h = np.maximum(z, 0, out=ws.h[i])


def forward(net: DenseNet, state) -> np.ndarray:
    """Per-action value estimates for a single state vector.

    After one check of the state, a pass of the same (1, d) product and bias
    add as ``_forward_cached``, so its values equal that function's on the
    state as a batch of one, bit for bit.  Rows of larger batches may differ
    from them in the last bits: numpy hands a (1, d) product to gemv and a
    larger one to gemm, which can sum in another order.

    The state is checked finite on its values read out as Python floats, an
    exact widening and for an input-sized vector several times cheaper than
    ``np.isfinite``; each bias is added in place into the fresh product."""
    x = np.asarray(state, dtype=net.params.dtype)
    if x.shape != (net.layer_dims[0],):
        raise InvalidInputError(f"state shape {x.shape} does not match input dim {net.layer_dims[0]}")
    if not all(map(math.isfinite, x.tolist())):
        raise InvalidInputError("state must be finite")
    last, h = len(net.layer_dims) - 2, x[None, :]
    for i, (w, b) in enumerate(zip(net._weights, net._biases)):
        h = h @ w
        h += b
        if i < last:
            np.maximum(h, 0, out=h)
    return h[0]


def _batch_loss_and_grad(net: DenseNet, batch, with_grad: bool) -> tuple[float, np.ndarray | None]:
    """Masked squared-error loss of (input, target_vector, action_mask) triples
    and, if asked, its flat gradient, in a workspace made for this call."""
    if len(batch) == 0:
        raise InvalidInputError("batch must be nonempty")
    x, t, m = (np.asarray(column, dtype=net.dtype) for column in zip(*batch))
    n, dims = len(batch), net.layer_dims
    if x.shape != (n, dims[0]) or t.shape != (n, dims[-1]) or m.shape != t.shape:
        raise InvalidInputError("batch entries do not match network dims")
    ws = _Workspace(net, n, depth=1)
    ws.pair[0] = net.params
    _forward_cached(ws.layers, x[None], ws)
    diff = ws.z0[-1] - t
    loss = float((diff**2 * m).sum(axis=1).mean())
    return loss, _backprop(net, x, 2.0 * m * diff / x.shape[0], ws) if with_grad else None


def _backprop(net: DenseNet, x: np.ndarray, delta: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Flat gradient ``ws.grad``, laid out like ``params``, for the (n, out) output delta of
    row 0's pass on ``x``; the lower deltas overwrite the cached activations once they are spent."""
    grad, (weight_grads, bias_grads) = ws.grad, ws.grad_views
    inputs, pre_acts = (x, *ws.h0), ws.z0
    for i in range(net.n_layers - 1, -1, -1):
        np.matmul(inputs[i].T, delta, out=weight_grads[i])
        np.add.reduce(delta, axis=0, out=bias_grads[i])
        if i > 0:
            back = np.matmul(delta, net.weights[i].T, out=inputs[i])
            delta = np.multiply(back, np.greater(pre_acts[i - 1], 0, out=pre_acts[i - 1]), out=back)
    if net.param_mask is not None:
        np.multiply(grad, net.param_mask, out=grad)
    return grad


def batch_loss(net: DenseNet, batch) -> float:
    """Mean over samples of the squared error restricted by each action mask."""
    return _batch_loss_and_grad(net, batch, with_grad=False)[0]


def backprop_minibatch(net: DenseNet, batch) -> GradientBatch:
    """Exact gradients of ``batch_loss`` w.r.t. every weight and bias.

    The per-sample loss carries no 1/2 factor, so a single neuron with
    prediction (w x + b) and target y has gradient 2 (w x + b - y) x.
    Gradients of masked weights are zeroed.  The per-layer gradients are
    views of one fresh flat vector."""
    grad = _batch_loss_and_grad(net, batch, with_grad=True)[1]
    return GradientBatch(*map(list, _views(net.layer_dims, grad)))


def _descend(net: DenseNet, grad: np.ndarray, lr: float) -> DenseNet:
    """``params - lr * grad``, re-masked, as a network on a fresh vector; spends ``grad``."""
    if not lr > 0:
        raise InvalidInputError(f"learning rate must be positive, got {lr!r}")
    params = net.params - np.multiply(grad, net.dtype.type(lr), out=grad)
    mask = net.param_mask
    if mask is not None:
        np.multiply(params, mask, out=params)
        mask = mask.copy()
    return DenseNet(net.layer_dims, params, mask)


def sync_target(net: DenseNet) -> DenseNet:
    """Deep copy used as the frozen bootstrap network."""
    quant = None if net.quant is None else QuantMeta(net.quant.bits, list(net.quant.scales))
    mask = None if net.param_mask is None else net.param_mask.copy()
    return DenseNet(net.layer_dims, net.params.copy(), mask, quant)


class ReplayBatch(NamedTuple):
    """Replay rows as columns; row i of every column is one transition.

    ``live`` is 0.0 for a terminal transition and 1.0 otherwise.
    """

    state: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_state: np.ndarray
    live: np.ndarray


class ReplayBuffer:
    """Bounded FIFO of transitions with uniform random sampling.

    The transitions live in a ring of preallocated column arrays, one row per
    slot, allocated at the first write once the state width is known.  A
    pickled or deep-copied buffer carries only its filled rows, and no
    learner workspace; it allocates its full ring at its next write.
    ``head`` is the slot of the oldest item; item i, counting from the
    oldest, sits in slot ``(head + i) % capacity``.  A full buffer
    overwrites its oldest slot.  Floats are stored in ``dtype``, float64 by
    default; a learner passes its network dtype.  A sample casts the floats
    to the network dtype, so each float is rounded to that dtype exactly
    once, whether at write time (a ring in the network dtype) or when
    sampled (a float64 ring, which holds any float32 or float64 input
    exactly): the sampled bytes are the same.

    ``write`` is the one path into the ring: it takes whole columns, one
    row per transition, as a session's parsed upload holds them.
    """

    def __init__(self, capacity: int, dtype=np.float64):
        if capacity < 1:
            raise ConfigError(f"replay capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.dtype = np.dtype(dtype)
        if self.dtype.type not in (np.float32, np.float64):
            raise ConfigError(f"replay dtype must be float32 or float64, got {self.dtype}")
        self._ring: ReplayBatch | None = None
        self._head = 0
        self._size = 0
        self._workspace: _Workspace | None = None  # dqn_train_step's scratch for this learner

    def write(self, rows: ReplayBatch) -> None:
        """Append column rows oldest first with one slice write per column.

        ``state`` and ``next_state`` are (k, width) and the other columns
        hold k entries.  The write splits in two where it wraps past the
        last slot.  When more than ``capacity`` rows arrive, only the
        newest are kept.  A negative action is rejected; one past the
        network's outputs is caught by ``dqn_train_step``.
        """
        cap = self.capacity
        rows = ReplayBatch._make(map(np.asarray, rows))
        if rows.state.ndim != 2 or rows.state.shape != rows.next_state.shape or rows.state.shape[1] == 0:
            raise InvalidInputError("state and next_state must be (rows, width) arrays of one nonzero width")
        k, width = rows.state.shape
        if not rows.action.shape == rows.reward.shape == rows.live.shape == (k,):
            raise InvalidInputError("every replay column must hold one entry per row")
        if k == 0:
            return
        if min(rows.action.tolist()) < 0:  # on a round's few rows a list min is ~8x cheaper than numpy's
            raise InvalidInputError("replay actions must be >= 0")
        held = self._ring
        if held is not None and width != held.state.shape[1]:
            raise InvalidInputError(f"state width {width} does not match replay width {held.state.shape[1]}")
        if held is None or len(held.action) < cap:  # the first write, or the first to a copy's filled rows
            f = self.dtype
            self._ring = ReplayBatch(
                np.zeros((cap, width), f), np.zeros(cap, np.int64), np.zeros(cap, f), np.zeros((cap, width), f),
                np.zeros(cap, f),
            )
            for col, rows_held in zip(self._ring, held or ()):
                col[: len(rows_held)] = rows_held
        if k > cap:
            rows = ReplayBatch(*(c[k - cap :] for c in rows))
            k = cap
        start = (self._head + self._size) % cap
        first = min(k, cap - start)
        for col, src in zip(self._ring, rows):
            col[start : start + first] = src[:first]
            if first < k:
                col[: k - first] = src[first:]
        overflow = max(0, self._size + k - cap)
        self._head = (self._head + overflow) % cap
        self._size += k - overflow

    def __len__(self) -> int:
        return self._size

    def __getstate__(self) -> dict:
        """Pickle and deepcopy keep the filled rows and leave the workspace behind.

        The rows in use are ``[0, size)``, since the ring starts at slot 0
        until it is full.  A copied workspace's gradient views would no
        longer view its gradient, so a copy builds its own at its first
        train step.
        """
        state = {k: v for k, v in vars(self).items() if k != "_workspace"}
        if self._ring is not None:
            state["_ring"] = ReplayBatch(*(col[: self._size] for col in self._ring))
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state, _workspace=None)

    def sample(self, batch_size: int, rng: np.random.Generator, out: ReplayBatch | None = None) -> ReplayBatch:
        """Uniform sample with replacement; errors if underfilled.

        One ``rng.integers(0, len(self), size=batch_size)`` draw picks the
        rows; draw value i selects the i-th oldest transition.  With ``out``
        the rows are gathered and cast into its columns, and ``out`` is
        returned.
        """
        if batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if len(self) < batch_size:
            raise NotReadyError(f"replay holds {len(self)} transitions, need {batch_size}")
        # "wrap" takes the slot modulo the ring's length: the capacity, or a
        # copy's filled rows, which start at slot 0 until the ring is full.
        slots = rng.integers(0, self._size, size=batch_size) + self._head
        if out is None:
            return ReplayBatch(*(col.take(slots, axis=0, mode="wrap") for col in self._ring))
        for col, dst in zip(self._ring, out):
            col.take(slots, axis=0, out=dst, mode="wrap")
        return out


class _Workspace:
    """Scratch for learner steps at one (dims, batch size, dtype) on a stack of ``depth`` networks:
    ``pair`` holds their vectors (row 0 the one trained, row 1 a train step's target), seen per layer
    through ``layers``.  A train step's kept workspace is never returned; a one-off one's gradient is."""

    def __init__(self, net: DenseNet, n: int, depth: int = 2):
        dims, dtype = net.layer_dims, net.dtype
        self.key = (dims, n, dtype)
        # Zeros: a gather from a ring of another dtype first casts these columns'
        # old contents, and a signalling NaN left in fresh memory warns.
        self.states = state, next_state = np.zeros((2, n, dims[0]), dtype)  # a train step's stacked input
        self.sample = ReplayBatch(state, np.zeros(n, np.int64), np.zeros(n, dtype), next_state, np.zeros(n, dtype))
        self.pair = np.empty((depth, net.params.size), dtype)
        self.layers = tuple((w, b[:, None]) for w, b in zip(*_views(dims, self.pair, (depth,))))
        self.z = [np.empty((depth, n, d), dtype) for d in dims[1:]]
        self.h = [np.empty((depth, n, d), dtype) for d in dims[1:-1]]
        self.z0, self.h0 = [z[0] for z in self.z], [h[0] for h in self.h]
        self.rows, self.td, self.delta = np.arange(n), np.empty(n, dtype), np.empty((n, dims[-1]), dtype)
        self.grad = np.empty_like(net.params)
        self.grad_views = _views(dims, self.grad)


def dqn_train_step(
    online: DenseNet, target: DenseNet, buffer: ReplayBuffer, batch_size: int, discount: float, lr: float,
    rng: np.random.Generator,
) -> tuple[DenseNet, float]:
    """One mini-batch TD update of the online network.

    Targets are r + discount * max_a target(s', a), with the bootstrap term
    dropped on terminal transitions; the loss touches only taken actions.
    Returns the updated network and the pre-update batch loss.  A sampled
    action the network has no output for raises ``InvalidInputError``
    before the network changes.
    """
    lam = check_discount(discount)
    dims, dt = online.layer_dims, online.dtype
    if target.layer_dims != dims or target.dtype != dt:
        raise InvalidInputError("target network must match the online network's dims and dtype")
    ws = buffer._workspace
    if getattr(ws, "key", None) != (dims, batch_size, dt):
        ws = buffer._workspace = _Workspace(online, max(batch_size, 0))
    sample = buffer.sample(batch_size, rng, out=ws.sample)
    # Copied every step: pruning and the transfer swap replace the target without a train step.
    ws.pair[0], ws.pair[1] = online.params, target.params
    _forward_cached(ws.layers, ws.states, ws)

    # np.maximum folded over the few action columns picks np.max(axis=1)'s element, far cheaper.
    q_next = ws.z[-1][1]
    td_target = ws.td
    np.copyto(td_target, q_next[:, 0])
    for j in range(1, dims[-1]):
        np.maximum(td_target, q_next[:, j], out=td_target)
    np.multiply(td_target, dt.type(lam), out=td_target)
    np.multiply(td_target, sample.live, out=td_target)
    np.add(sample.reward, td_target, out=td_target)

    # Only the taken action's column carries error: its squared error is the
    # per-sample loss, and every other entry of the output delta is zero, as
    # the masked loss over the full (n, out) matrix would give.
    try:
        diff = ws.z0[-1][ws.rows, sample.action]
    except IndexError:
        raise InvalidInputError(f"replay actions must lie in [0, {dims[-1]}), the network's outputs") from None
    np.subtract(diff, td_target, out=diff)
    loss = float(np.add.reduce(np.square(diff, out=td_target)) / batch_size)
    ws.delta.fill(0)
    ws.delta[ws.rows, sample.action] = 2.0 * diff / batch_size
    return _descend(online, _backprop(online, sample.state, ws.delta, ws), lr), loss


# Wire format: a little-endian header with the layer dims, then the layout of
# ``params``, as is or with each weight block replaced by integer codes.

_MAGIC = b"GDNW"
_FORMAT_VERSION = 1
# magic, format version, float tag, quant bits, activation tag, n_dims
_NET_HEADER = struct.Struct("<4sHBBBB")
_FLOAT_TAG_OF = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_OF_TAG = {tag: dtype for dtype, tag in _FLOAT_TAG_OF.items()}
_RELU_TAG = 0  # the activation tag: ReLU, the only activation


def symmetric_quantize_layer(w: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Round-to-nearest signed integer codes with scale max|w| / (2**(bits-1)-1).

    The wire's scale field is a float32: a scale that is 0 there becomes 1.0 (zero
    codes), and one it cannot hold raises ``InvalidInputError``.  Returns (codes, scale).
    """
    if not 2 <= int(bits) <= 16:
        raise ConfigError(f"quantisation bits must lie in [2, 16], got {bits}")
    q_max = 2 ** (int(bits) - 1) - 1
    w64 = np.asarray(w, dtype=np.float64)
    peak = float(np.max(np.abs(w64))) if w64.size else 0.0
    scale = peak / q_max
    if not scale <= float(np.finfo(np.float32).max):
        raise InvalidInputError(f"a layer with peak |w| {peak!r} has no float32 quantisation scale")
    scale = scale if np.float32(scale) > 0 else 1.0
    codes = np.clip(np.round(w64 / scale), -q_max, q_max).astype(np.int32)
    return codes, scale


def net_to_bytes(net: DenseNet, quant_bits: int | None = None) -> bytes:
    """Serialise to the flat little-endian wire payload.

    Layout: magic, format version u16, float tag u8 (0=f32, 1=f64),
    quant bits u8 (0 = dense floats), activation tag u8, n_dims u8,
    dims u32 each, then per layer the weight block (row-major floats, or a
    f32 scale followed by i8/i16 codes when quantised) and f32/f64 biases.
    A dense body is ``params`` byte for byte.
    """
    float_tag = _FLOAT_TAG_OF.get(net.dtype)
    if float_tag is None:
        raise InvalidInputError(f"unsupported network dtype {net.dtype}")
    dims, bits = net.layer_dims, 0 if quant_bits is None else int(quant_bits)
    head = _NET_HEADER.pack(_MAGIC, _FORMAT_VERSION, float_tag, bits, _RELU_TAG, len(dims))
    head += struct.pack(f"<{len(dims)}I", *dims)
    if quant_bits is None:
        return head + net.params.tobytes()
    code_dtype = np.int8 if quant_bits <= 8 else np.int16
    parts = [head]
    for w, b in zip(net.weights, net.biases):
        codes, scale = symmetric_quantize_layer(w, quant_bits)
        parts += [struct.pack("<f", scale), codes.astype(code_dtype).tobytes(), b.tobytes()]
    return b"".join(parts)


def net_from_bytes(buf, into: DenseNet | None = None) -> DenseNet:
    """Rebuild a DenseNet from ``net_to_bytes`` output.

    A dense body is copied into ``params`` whole; a quantised one writes each
    layer's codes * scale straight into its slice and carries a QuantMeta tag.
    The header fields, the payload length they imply and every quantisation
    scale are checked before any byte is written, so every malformed payload
    raises ``InvalidInputError`` and changes nothing.

    With ``into``, a network of the payload's dims and dtype and with no
    mask, the body is written into ``into.params``, which keeps its
    views, and ``into`` is returned with its quant tag replaced.  Any other
    ``into`` is left alone and a fresh network is returned.
    """
    if len(buf) < _NET_HEADER.size:
        raise InvalidInputError("network payload is shorter than its header")
    magic, fmt, float_tag, quant_bits, act_tag, n_dims = _NET_HEADER.unpack_from(buf)
    if magic != _MAGIC:
        raise InvalidInputError("bad magic in network payload")
    if fmt != _FORMAT_VERSION:
        raise InvalidInputError(f"unsupported payload format version {fmt}")
    dtype = _DTYPE_OF_TAG.get(float_tag)
    if dtype is None:
        raise InvalidInputError(f"unknown float tag {float_tag}")
    if quant_bits != 0 and not 2 <= quant_bits <= 16:
        raise InvalidInputError(f"quantisation bits must be 0 or lie in [2, 16], got {quant_bits}")
    if act_tag != _RELU_TAG:
        raise InvalidInputError(f"unknown activation tag {act_tag}")
    if n_dims < 2:
        raise InvalidInputError(f"network payload needs >= 2 layer dims, got {n_dims}")
    off = _NET_HEADER.size + 4 * n_dims
    if len(buf) < off:
        raise InvalidInputError("network payload is shorter than its layer dims")
    dims = struct.unpack_from(f"<{n_dims}I", buf, _NET_HEADER.size)
    if min(dims) < 1:
        raise InvalidInputError(f"network layer dims must be >= 1, got {dims}")
    code_dtype = np.dtype(np.int8) if quant_bits <= 8 else np.dtype(np.int16)
    layer_head, w_size = (0, dtype.itemsize) if quant_bits == 0 else (4, code_dtype.itemsize)
    layers = list(zip(dims[:-1], dims[1:]))
    expected = off + sum(layer_head + (fan_in * w_size + dtype.itemsize) * fan_out for fan_in, fan_out in layers)
    if len(buf) != expected:
        raise InvalidInputError(f"network payload holds {len(buf)} bytes, its header implies {expected}")
    scales, pos = [], off
    if quant_bits:
        for fan_in, fan_out in layers:
            (scale,) = struct.unpack_from("<f", buf, pos)
            if not 0 < scale < np.inf:
                raise InvalidInputError(f"quantisation scale must be finite and positive, got {scale}")
            scales.append(scale)
            pos += 4 + (fan_in * code_dtype.itemsize + dtype.itemsize) * fan_out
    fits = into is not None and into.param_mask is None
    if not (fits and (into.layer_dims, into.dtype) == (dims, dtype)):
        n_params = sum((fan_in + 1) * fan_out for fan_in, fan_out in layers)
        into = DenseNet(dims, np.empty(n_params, dtype))
    params = into.params
    if quant_bits == 0:
        params[...] = np.frombuffer(buf, dtype, offset=off)
        into.quant = None
        return into
    pos = 0
    for (fan_in, fan_out), scale in zip(layers, scales):
        n = fan_in * fan_out
        np.multiply(np.frombuffer(buf, code_dtype, n, off + 4), dtype.type(scale), out=params[pos : pos + n])
        off += 4 + n * code_dtype.itemsize
        params[pos + n : pos + n + fan_out] = np.frombuffer(buf, dtype, fan_out, off)
        off += fan_out * dtype.itemsize
        pos += n + fan_out
    into.quant = QuantMeta(quant_bits, scales)
    return into
