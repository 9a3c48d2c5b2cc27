"""Spatially correlated load fields and correlation-gated parameter transfer.

A latent field z over a fixed grid of sites evolves by a discretised
integro-difference step: z'(s_i) = sum_j k(s_i, s_j) f(z(s_j)) dx + noise,
i.e. a rectangle-rule quadrature of the kernel integral.  Traffic at each
site is Poisson with log-linked intensity mu * exp(z), which makes nearby
sites see correlated load.  Agents whose sites show correlated traffic can
blend parameters; the blend weight is gated by the estimated correlation.

Sites, kernel and dx never change during a run, so ``FieldTrafficSource``
builds the quadrature matrix once and steps a bare z array through
``_advance``, the same update ``side_step`` applies to a ``SpatialField``
(both give the same bytes), and draws each slot's counts at the rates of
``_rates``, the one intensity formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError
from .neural import DenseNet

__all__ = [
    "SpatialField",
    "Kernel",
    "FieldNoise",
    "CorrelationMatrix",
    "quadrature_matrix",
    "side_step",
    "FieldTrafficSource",
    "estimate_correlation",
    "transfer_weights",
    "SQUASH_TAGS",
]

_SQUASH_FNS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "identity": lambda z: z,
    "squash": np.tanh,
}
SQUASH_TAGS = tuple(sorted(_SQUASH_FNS))
# The largest rate numpy's Poisson sampler accepts; above it the draw raises
# a bare ValueError ("lam value too large").
_MAX_RATE = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


@dataclass(frozen=True)
class Kernel:
    """Gaussian interaction kernel a * exp(-d^2 / (2 l^2))."""

    amplitude: float
    length_scale: float

    def __post_init__(self):
        if self.amplitude < 0 or not np.isfinite(self.amplitude):
            raise ConfigError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if self.length_scale <= 0 or not np.isfinite(self.length_scale):
            raise ConfigError(f"length_scale must be positive, got {self.length_scale}")

    def __call__(self, dist: np.ndarray) -> np.ndarray:
        d = np.asarray(dist, dtype=float)
        return self.amplitude * np.exp(-(d**2) / (2.0 * self.length_scale**2))


@dataclass(frozen=True)
class SpatialField:
    """Field values z over fixed site coordinates with cell width dx."""

    sites: np.ndarray
    z: np.ndarray
    dx: float

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if sites.ndim == 1:
            sites = sites[:, None]
        if sites.ndim != 2 or sites.shape[0] < 1:
            raise ConfigError("sites must be (n,) or (n, d) with n >= 1")
        if z.shape != (sites.shape[0],):
            raise ConfigError("z must be one value per site")
        if not np.all(np.isfinite(z)) or not np.all(np.isfinite(sites)):
            raise InvalidInputError("sites and z must be finite")
        if not self.dx > 0 or not np.isfinite(self.dx):
            raise ConfigError(f"dx must be finite and positive, got {self.dx}")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "z", z)

    @property
    def n_sites(self) -> int:
        return self.sites.shape[0]

    @classmethod
    def line(cls, n_sites: int, length: float, z0: np.ndarray | float = 0.0) -> "SpatialField":
        """Evenly spaced midpoints of [0, length] split into n_sites cells."""
        if n_sites < 1 or length <= 0:
            raise ConfigError("need n_sites >= 1 and length > 0")
        dx = length / n_sites
        sites = (np.arange(n_sites) + 0.5) * dx
        z = np.full(n_sites, float(z0)) if np.isscalar(z0) else np.asarray(z0, dtype=float)
        return cls(sites, z, dx)


@dataclass
class FieldNoise:
    """Independent per-site Gaussian innovations; sigma 0 is exactly silent."""

    sigma: float
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not self.sigma >= 0 or not np.isfinite(self.sigma):
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        self._rng = np.random.default_rng(self.seed)

    def draw(self, n: int) -> np.ndarray:
        if self.sigma == 0:
            return np.zeros(n)
        return self._rng.normal(0.0, self.sigma, size=n)


def _pairwise_distances(sites: np.ndarray) -> np.ndarray:
    diff = sites[:, None, :] - sites[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def quadrature_matrix(field: SpatialField, kernel: Kernel) -> np.ndarray:
    """Kernel evaluated on all site pairs; row i integrates against site i."""
    return kernel(_pairwise_distances(field.sites))


def _squash_fn(f: str | Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    fn = _SQUASH_FNS.get(f) if isinstance(f, str) else f
    if fn is None:
        raise ConfigError(f"unknown squash tag {f!r}; use one of {sorted(_SQUASH_FNS)}")
    return fn


def _advance(
    k_mat: np.ndarray,
    z: np.ndarray,
    dx: float,
    fn: Callable[[np.ndarray], np.ndarray],
    noise: FieldNoise | None,
) -> np.ndarray:
    """z' = (K f(z)) dx + e on bare arrays.

    dx multiplies after the matvec rather than being folded into K, and the
    noise is added even at sigma 0 (-0.0 + 0.0 is +0.0), so every path that
    steps a field rounds alike.
    """
    z_new = (k_mat @ fn(z)) * dx
    if noise is not None:
        z_new = z_new + noise.draw(z_new.shape[0])
    if not np.all(np.isfinite(z_new)):
        raise InvalidInputError("field update produced non-finite values")
    return z_new


def side_step(
    field: SpatialField,
    kernel: Kernel,
    f: str | Callable[[np.ndarray], np.ndarray] = "squash",
    noise: FieldNoise | None = None,
) -> SpatialField:
    """One field update z' = (K f(z)) dx + e; returns a new field."""
    fn = _squash_fn(f)
    z_new = _advance(quadrature_matrix(field, kernel), field.z, field.dx, fn, noise)
    return SpatialField(field.sites, z_new, field.dx)


def _check_base_rate(base_rate: float) -> None:
    if not base_rate > 0 or not np.isfinite(base_rate):
        raise ConfigError(f"base_rate must be finite and positive, got {base_rate}")


def _rates(base_rate: float, z: np.ndarray) -> np.ndarray:
    """Poisson rates mu * exp(z), rejected if any overflowed or is too large to draw."""
    rates = base_rate * np.exp(z)
    if not np.all(rates <= _MAX_RATE):
        raise InvalidInputError("intensity overflowed; field values too large")
    return rates


class FieldTrafficSource:
    """Advances a field one step per slot on demand and serves site counts.

    Multiple consumers can pull arrivals for different sites in any order;
    each slot's field step and Poisson draw happen exactly once and are
    cached read-only, so all consumers see one consistent realisation.

    The squash function and the quadrature matrix are resolved and built
    once, at construction, since sites, kernel and dx are fixed; each slot
    is then one ``_advance`` of the bare z array, one ``_rates`` and one
    Poisson draw, with the same bytes and generator order as stepping a
    ``SpatialField`` through ``side_step`` and drawing at its rates.  The
    transfer scenario reads one base station's arrivals through
    ``stream_region``.
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
        self._fn = _squash_fn(squash)
        self.base_rate = float(base_rate)
        _check_base_rate(self.base_rate)
        self._k_mat = quadrature_matrix(field, kernel)
        self.sites = field.sites
        self.dx = field.dx
        self.noise = noise
        z = field.z
        for _ in range(int(burn_in)):
            z = _advance(self._k_mat, z, self.dx, self._fn, noise)
        self._z = z
        self._rng = np.random.default_rng(seed)
        self._counts: list[np.ndarray] = []

    @property
    def n_sites(self) -> int:
        return self.sites.shape[0]

    @property
    def field(self) -> SpatialField:
        """The field after the last step taken, as a validated snapshot."""
        return SpatialField(self.sites, self._z, self.dx)

    def counts_at(self, slot: int) -> np.ndarray:
        if slot < 0:
            raise InvalidInputError("slot must be >= 0")
        while len(self._counts) <= slot:
            self._z = _advance(self._k_mat, self._z, self.dx, self._fn, self.noise)
            counts = self._rng.poisson(_rates(self.base_rate, self._z))
            counts.setflags(write=False)
            self._counts.append(counts)
        return self._counts[slot]

    def stream_region(self, sites) -> Callable[[int], int]:
        """Per-slot arrivals summed over a cell of sites (one station's view)."""
        idx = np.array([int(s) for s in sites], dtype=np.intp)
        if not idx.size:
            raise InvalidInputError("region needs at least one site")
        for s in idx:
            if not 0 <= s < self.n_sites:
                raise InvalidInputError(f"site {s} out of range")
        return lambda slot: int(self.counts_at(slot)[idx].sum())

    def history(self) -> np.ndarray:
        """All counts sampled so far, shape (slots, n_sites)."""
        if not self._counts:
            return np.zeros((0, self.n_sites), dtype=int)
        return np.asarray(self._counts)

    def region_history(self, cells) -> np.ndarray:
        """Summed count series per cell, shape (slots, n_cells)."""
        hist = self.history()
        return np.stack([hist[:, [int(s) for s in cell]].sum(axis=1) for cell in cells], axis=1)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pairwise Pearson correlations with degenerate series flagged.

    Rows/columns of zero-variance series are zeroed (including the diagonal)
    and listed in ``zero_variance_sites``.
    """

    values: np.ndarray
    zero_variance_sites: tuple[int, ...] = ()


def estimate_correlation(history: np.ndarray) -> CorrelationMatrix:
    """Pearson correlation of per-site count series, shape (T, n_sites)."""
    h = np.asarray(history, dtype=float)
    if h.ndim != 2 or h.shape[0] < 2:
        raise InvalidInputError("history must be (T >= 2, n_sites)")
    if not np.all(np.isfinite(h)):
        raise InvalidInputError("history must be finite")
    n = h.shape[1]
    stds = h.std(axis=0)
    degenerate = tuple(int(i) for i in np.flatnonzero(stds == 0))
    values = np.zeros((n, n))
    ok = stds > 0
    if ok.any():
        sub = np.corrcoef(h[:, ok], rowvar=False)
        sub = np.atleast_2d(sub)
        idx = np.flatnonzero(ok)
        values[np.ix_(idx, idx)] = sub
    return CorrelationMatrix(values, degenerate)


def transfer_weights(
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
    correlation 1 and beta 1 both land on the elementwise average.  The
    blend runs on whole parameter vectors, and each agent's own sparsity
    mask is re-applied to it.
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

    out: list[DenseNet] = []
    pos = np.clip(values, 0.0, None)
    np.fill_diagonal(pos, 0.0)
    for i, net in enumerate(nets):
        z_i = float(pos[i].sum())
        mix, mask = net.params, net.param_mask
        if beta != 0.0 and z_i != 0.0:  # else the agent keeps its parameters
            w_i = z_i / (1.0 + z_i)
            mix = (1.0 - beta * w_i) * mix
            for j, other in enumerate(nets):
                if j != i and pos[i, j] != 0.0:
                    mix = mix + beta * w_i * (pos[i, j] / z_i) * other.params
            if mask is not None:
                mix = mix * mask
        # Copies of both vectors: no two networks share one.
        out.append(DenseNet(dims, np.array(mix, net.dtype), None if mask is None else mask.copy()))
    return out
