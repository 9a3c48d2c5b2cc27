"""Model and state-space compression.

Weight-level tools (magnitude pruning, neuron removal, symmetric integer
quantisation) operate on DenseNet instances and keep masked weights exactly
zero.  State-level tools (equal-width discretisation, greedy Q-table
aggregation) shrink tabular representations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Iterable

import numpy as np

from .errors import ConfigError, InvalidInputError
from .neural import DenseNet, QuantMeta, symmetric_quantize_layer
from .rl_core import QTable

__all__ = [
    "SparsityReport",
    "StatePartition",
    "DiscretizationScheme",
    "prune_by_magnitude",
    "prune_neurons",
    "quantize_weights",
    "threshold_for_sparsity",
    "bin_indices",
    "aggregate_states",
    "apply_partition",
]


@dataclass(frozen=True)
class SparsityReport:
    """Weight counts before/after masking and the implied multiply budget."""

    total_weights: int
    nonzero_weights: int
    sparsity: float
    mac_count_dense: int
    mac_count_pruned: int


def _mask_of(net: DenseNet) -> list[np.ndarray]:
    if net.mask is not None:
        return [m.astype(net.dtype) for m in net.mask]
    return [np.ones_like(w) for w in net.weights]


def prune_by_magnitude(net: DenseNet, threshold: float) -> tuple[DenseNet, SparsityReport]:
    """Zero every weight with |w| < threshold and pin it via the mask.

    Composes with any existing mask; biases are untouched.  threshold = 0
    leaves the network unchanged.
    """
    thr = float(threshold)
    if not np.isfinite(thr) or thr < 0:
        raise InvalidInputError(f"threshold must be finite and >= 0, got {threshold!r}")
    old_mask = _mask_of(net)
    new_mask = [((np.abs(w) >= thr).astype(net.dtype) * m) for w, m in zip(net.weights, old_mask)]
    weights = [w * m for w, m in zip(net.weights, new_mask)]
    total = sum(w.size for w in weights)
    nonzero = sum(int(np.count_nonzero(w)) for w in weights)
    report = SparsityReport(
        total_weights=total,
        nonzero_weights=nonzero,
        sparsity=1.0 - nonzero / total,
        mac_count_dense=total,
        mac_count_pruned=nonzero,
    )
    return DenseNet(net.layer_dims, weights, net.biases, net.activation, new_mask), report


def threshold_for_sparsity(net: DenseNet, fraction: float) -> float:
    """Magnitude threshold whose strict-less cut yields ~``fraction`` sparsity."""
    if not 0.0 <= fraction < 1.0:
        raise InvalidInputError(f"fraction must lie in [0, 1), got {fraction!r}")
    mags = np.concatenate([np.abs(w).ravel() for w in net.weights])
    return float(np.quantile(mags, fraction))


def prune_neurons(net: DenseNet, neurons: Iterable[tuple[int, int]]) -> DenseNet:
    """Remove hidden neurons outright (incoming and outgoing connections).

    ``neurons`` holds (layer_index, neuron_index) pairs where layer_index
    counts into layer_dims, so valid values are 1 .. len(layer_dims)-2.
    Dropping input/output units or an entire hidden layer is an error.
    """
    by_layer: dict[int, set[int]] = {}
    for layer, idx in neurons:
        layer, idx = int(layer), int(idx)
        if not 1 <= layer <= len(net.layer_dims) - 2:
            raise InvalidInputError(
                f"layer {layer} is not a hidden layer of dims {net.layer_dims}"
            )
        if not 0 <= idx < net.layer_dims[layer]:
            raise InvalidInputError(f"neuron {idx} out of range for layer {layer}")
        by_layer.setdefault(layer, set()).add(idx)
    for layer, drop in by_layer.items():
        if len(drop) >= net.layer_dims[layer]:
            raise InvalidInputError(f"cannot drop every neuron of layer {layer}")

    keep = [
        np.setdiff1d(np.arange(d), sorted(by_layer.get(i, ())))
        for i, d in enumerate(net.layer_dims)
    ]
    mask = net.mask
    weights, biases, new_mask = [], [], []
    for i in range(net.n_layers):
        w = net.weights[i][np.ix_(keep[i], keep[i + 1])]
        weights.append(w)
        biases.append(net.biases[i][keep[i + 1]])
        if mask is not None:
            new_mask.append(mask[i][np.ix_(keep[i], keep[i + 1])])
    dims = tuple(len(k) for k in keep)
    return DenseNet(
        dims, weights, biases, net.activation, new_mask if mask is not None else None, quant=None
    )


def _on_lattice(net: DenseNet, bits: int) -> bool:
    """True when every weight already equals codes * recorded_scale exactly."""
    if net.quant is None or net.quant.bits != bits:
        return False
    q_max = 2 ** (bits - 1) - 1
    for w, scale in zip(net.weights, net.quant.scales):
        codes = np.clip(np.round(np.asarray(w, dtype=np.float64) / scale), -q_max, q_max)
        if not np.array_equal((codes * scale).astype(net.dtype), w):
            return False
    return True


def quantize_weights(net: DenseNet, bits: int) -> DenseNet:
    """Symmetric per-layer quantisation; weights stored dequantised.

    scale = max|w| / (2**(bits-1) - 1) per layer (1.0 for an all-zero layer),
    codes round to nearest.  Re-quantising an already-quantised network at
    the same bit width returns it unchanged.  Biases are not quantised.
    """
    if not 2 <= int(bits) <= 16:
        raise ConfigError(f"quantisation bits must lie in [2, 16], got {bits}")
    bits = int(bits)
    if _on_lattice(net, bits):
        return replace(net, quant=QuantMeta(bits, list(net.quant.scales), list(net.quant.zero_points)))
    weights, scales = [], []
    for w in net.weights:
        codes, scale = symmetric_quantize_layer(w, bits)
        weights.append((codes * scale).astype(net.dtype))
        scales.append(scale)
    if net.mask is not None:
        weights = [w * m for w, m in zip(weights, net.mask)]
    return DenseNet(
        net.layer_dims, weights, net.biases, net.activation, net.mask, QuantMeta(bits, scales, [0] * len(scales))
    )


_INF = float("inf")


@dataclass(frozen=True)
class DiscretizationScheme:
    """Equal-width binning of a scalar range into ``levels`` cells."""

    low: float
    high: float
    levels: int

    def __post_init__(self):
        if not self.low < self.high:
            raise ConfigError(f"need low < high, got [{self.low}, {self.high}]")
        if not self.high - self.low < _INF:
            raise ConfigError(f"need a finite range, got [{self.low}, {self.high}]")
        if self.levels < 2:
            raise ConfigError(f"need >= 2 levels, got {self.levels}")


def bin_indices(scheme: DiscretizationScheme, values: Iterable[float]) -> tuple[int, ...]:
    """Bin index in [0, levels) of each float; values outside the range clamp
    to the edges.  The one binning formula: the tabular agent keys its
    table on the bins of each observation's latest slot triple.  The
    finiteness check is a comparison on the Python float, several times
    cheaper than ``np.isfinite``.

    Values at or beyond an edge take that edge's bin without a division, so
    a finite value far outside the range cannot overflow the quotient; for
    every other value the bin is floor((v - low) / width), clamped to the
    top bin.
    """
    low, high, top = scheme.low, scheme.high, scheme.levels - 1
    width = (high - low) / scheme.levels
    out = []
    for v in values:
        if not abs(v) < _INF:
            raise InvalidInputError("value must be finite")
        if v <= low:
            out.append(0)
        elif v >= high:
            out.append(top)
        else:
            out.append(min(int((v - low) // width), top))
    return tuple(out)


@dataclass
class StatePartition:
    """Grouping of table states into abstract ids 0 .. n_clusters-1."""

    mapping: dict[Hashable, int]
    n_clusters: int
    metric: str = "max-q-gap"
    epsilon: float = 0.0

    def members(self) -> dict[int, list[Hashable]]:
        out: dict[int, list[Hashable]] = {i: [] for i in range(self.n_clusters)}
        for key, cid in self.mapping.items():
            out[cid].append(key)
        return out


def _softmax(q: np.ndarray, temperature: float) -> np.ndarray:
    z = q / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _row_distance(a: np.ndarray, b: np.ndarray, metric: str, temperature: float) -> float:
    if metric == "max-q-gap":
        return float(np.max(np.abs(a - b)))
    if metric == "boltzmann-divergence":
        return float(0.5 * np.abs(_softmax(a, temperature) - _softmax(b, temperature)).sum())
    raise ConfigError(f"unknown aggregation metric {metric!r}")


def aggregate_states(
    table: QTable,
    epsilon: float,
    metric: str = "max-q-gap",
    temperature: float = 1.0,
) -> StatePartition:
    """Greedy first-fit clustering of Q-rows within ``epsilon``.

    States are visited in sorted id order; each joins the first existing
    cluster whose founding member's row is within epsilon under the chosen
    metric, else founds a new cluster.  epsilon = 0 groups exactly equal
    rows only.
    """
    eps = float(epsilon)
    if not np.isfinite(eps) or eps < 0:
        raise InvalidInputError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    if temperature <= 0:
        raise ConfigError(f"temperature must be positive, got {temperature!r}")
    reps: list[np.ndarray] = []
    mapping: dict[Hashable, int] = {}
    for key in sorted(table.values):
        row = table.values[key]
        for cid, rep in enumerate(reps):
            if _row_distance(row, rep, metric, temperature) <= eps:
                mapping[key] = cid
                break
        else:
            mapping[key] = len(reps)
            reps.append(row.copy())
    return StatePartition(mapping, len(reps), metric, eps)


def apply_partition(table: QTable, partition: StatePartition) -> QTable:
    """Collapse the table onto abstract states; each row is the member mean."""
    missing = [k for k in table.values if k not in partition.mapping]
    if missing:
        raise InvalidInputError(f"partition does not cover states {missing[:3]!r}...")
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for key, row in table.values.items():
        cid = partition.mapping[key]
        if cid in sums:
            sums[cid] = sums[cid] + row
            counts[cid] += 1
        else:
            sums[cid] = row.copy()
            counts[cid] = 1
    values = {cid: sums[cid] / counts[cid] for cid in sums}
    return QTable(table.n_actions, table.alpha, values)
