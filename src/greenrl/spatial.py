"""Spatially correlated load fields and correlation-gated parameter transfer.

A latent field z over a fixed grid of sites evolves by a discretised
integro-difference step: z'(s_i) = sum_j k(s_i, s_j) f(z(s_j)) dx + noise,
i.e. a rectangle-rule quadrature of the kernel integral.  Traffic at each
site is Poisson with log-linked intensity mu * exp(z), which makes nearby
sites see correlated load.  Agents whose sites show correlated traffic can
blend parameters; the blend weight is gated by the estimated correlation.

Every field step runs through ``_walk``, which steps a bare z array on
one noise draw per call: ``side_step`` takes one step of a ``SpatialField``,
and ``FieldTrafficSource`` takes its burn-in and slots a block at a time,
each block one ``_rates`` (the one intensity formula) and one Poisson draw.
Numpy fills a (T, n) normal or Poisson draw in C order from one generator,
exp and the bound check work element by element, and z still rounds once
per step, so a block holds the bytes of T one-slot steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError
from .neural import DenseNet
from .rach_env import _is_int

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
_NON_FINITE = "field update produced non-finite values"


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

    def draw(self, shape: int | tuple[int, int]) -> np.ndarray:
        """Innovations at n sites, or (steps, sites): the stream of that many draws of n."""
        if self.sigma == 0:
            return np.zeros(shape)
        return self._rng.normal(0.0, self.sigma, size=shape)


def _pairwise_distances(sites: np.ndarray) -> np.ndarray:
    diff = sites[:, None, :] - sites[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def quadrature_matrix(field: SpatialField, kernel: Kernel) -> np.ndarray:
    """Kernel evaluated on all site pairs; row i integrates against site i."""
    return kernel(_pairwise_distances(field.sites))


def _squash_fn(tag: str) -> Callable[[np.ndarray], np.ndarray]:
    fn = _SQUASH_FNS.get(tag) if isinstance(tag, str) else None
    if fn is None:
        raise ConfigError(f"unknown squash tag {tag!r}; use one of {sorted(_SQUASH_FNS)}")
    return fn


@np.errstate(over="ignore", invalid="ignore")
def _walk(
    k_mat: np.ndarray,
    z: np.ndarray,
    dx: float,
    fn: Callable[[np.ndarray], np.ndarray],
    noise: FieldNoise | None,
    steps: int,
) -> tuple[np.ndarray, int]:
    """``steps`` updates z' = (K f(z)) dx + e from z, e one (steps, sites) draw of
    ``noise`` (None: no e term), warning-free: the z rows, and how many lead finite.

    dx multiplies after the matvec rather than being folded into K, and the
    noise is added even at sigma 0 (-0.0 + 0.0 is +0.0), so every path that
    steps a field rounds alike.
    """
    zs = np.empty((steps, z.shape[0]))
    e = None if noise is None else noise.draw(zs.shape)
    for t, row in enumerate(zs):
        np.multiply(k_mat @ fn(z), dx, out=row)
        if e is not None:
            np.add(row, e[t], out=row)
        z = row
    finite = np.isfinite(zs).all(axis=1)
    return zs, steps if finite.all() else int(finite.argmin())


def side_step(
    field: SpatialField,
    kernel: Kernel,
    f: str = "squash",
    noise: FieldNoise | None = None,
) -> SpatialField:
    """One field update z' = (K f(z)) dx + e, with f named by its squash tag
    (one of ``SQUASH_TAGS``); returns a new field."""
    zs, finite = _walk(quadrature_matrix(field, kernel), field.z, field.dx, _squash_fn(f), noise, 1)
    if not finite:
        raise InvalidInputError(_NON_FINITE)
    return SpatialField(field.sites, zs[0], field.dx)


def _check_base_rate(base_rate: float) -> None:
    if not base_rate > 0 or not np.isfinite(base_rate):
        raise ConfigError(f"base_rate must be finite and positive, got {base_rate}")


@np.errstate(over="ignore")
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

    The squash tag and quadrature matrix are resolved and built once.
    ``counts_at`` makes slots ``BLOCK`` at a time, so the noise generator
    runs up to a block ahead.  A block ends at its first slot whose z is
    not finite or whose rates cannot be drawn; asking for that slot or a
    later one raises ``InvalidInputError``, a slot never asked for raises
    nothing.  ``field``, ``history()`` and ``region_history()`` describe
    the slots served: up to the highest asked for, or once a failed slot
    has raised, up to it (``field`` at its z if its rates failed).  Each
    ``stream_region`` region's sums are filled once per block.
    """

    BLOCK = 128  # slots made at a time

    def __init__(
        self,
        field: SpatialField,
        kernel: Kernel,
        squash: str,
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
        z, burn_in = field.z, int(burn_in)
        for done in range(0, burn_in, self.BLOCK):
            zs, finite = _walk(self._k_mat, z, self.dx, self._fn, noise, min(self.BLOCK, burn_in - done))
            if finite < len(zs):
                raise InvalidInputError(_NON_FINITE)
            z = zs[-1]
        self._z0 = z
        self._rng = np.random.default_rng(seed)
        self._zs: list[np.ndarray] = []  # each block's z rows
        self._counts: list[np.ndarray] = []  # each block's counts, up to its failed slot
        self._regions: dict[tuple[int, ...], list[int]] = {}  # per-slot sums of each region read
        self._made = self._reached = 0  # slots made, and slots the field has stepped through for callers
        self._error: tuple[int, str] | None = None  # (slots reached once raised, message)

    @property
    def n_sites(self) -> int:
        return self.sites.shape[0]

    @property
    def field(self) -> SpatialField:
        """The field at the last slot served (after burn-in before any), as a validated snapshot."""
        last = self._reached - 1
        z = self._z0 if last < 0 else self._zs[last // self.BLOCK][last % self.BLOCK]
        return SpatialField(self.sites, z.copy(), self.dx)

    def _make_block(self) -> None:
        """Makes the next ``BLOCK`` slots, up to the first that fails, whose error it keeps."""
        z = self._zs[-1][-1] if self._zs else self._z0
        zs, made = _walk(self._k_mat, z, self.dx, self._fn, self.noise, self.BLOCK)
        if made < self.BLOCK:
            self._error = (self._made + made, _NON_FINITE)
        while True:
            try:
                rates = _rates(self.base_rate, zs[:made])
                break
            except InvalidInputError as exc:  # drop the last slot until the rest can be drawn
                made, self._error = made - 1, (self._made + made, str(exc))
        counts = self._rng.poisson(rates)
        counts.setflags(write=False)
        self._zs.append(zs)
        self._counts.append(counts)
        self._made += made
        for idx, sums in self._regions.items():
            sums += counts[:, idx].sum(axis=1).tolist()

    def counts_at(self, slot: int) -> np.ndarray:
        """Site counts of ``slot``, made with its block if not made yet."""
        if not _is_int(slot) or slot < 0:
            raise InvalidInputError(f"slot must be an integer >= 0, got {slot!r}")
        while slot >= self._made:
            if self._error is not None:
                self._reached, message = self._error
                raise InvalidInputError(message)
            self._make_block()
        self._reached = max(self._reached, int(slot) + 1)
        return self._counts[slot // self.BLOCK][slot % self.BLOCK]

    def _region(self, sites) -> tuple[int, ...]:
        """A region's sites, checked: a nonempty collection of integer sites in [0, n_sites)."""
        idx = tuple(sites) if np.iterable(sites) else ()
        for s in idx or [sites]:  # an empty region is named whole
            if not idx or not _is_int(s) or not 0 <= s < self.n_sites:
                raise InvalidInputError(f"a region is a nonempty list of sites in [0, {self.n_sites}), got {s!r}")
        return tuple(map(int, idx))

    def stream_region(self, sites) -> Callable[[int], int]:
        """Per-slot arrivals summed over a cell of sites (one station's view)."""
        idx = self._region(sites)
        if idx not in self._regions:
            self._regions[idx] = self._made_counts()[:, idx].sum(axis=1).tolist()
        sums = self._regions[idx]

        def read(slot: int) -> int:
            if type(slot) is not int or not 0 <= slot < len(sums):
                self.counts_at(slot)  # makes its block, or raises
            elif slot >= self._reached:
                self._reached = slot + 1
            return sums[slot]

        return read

    def history(self) -> np.ndarray:
        """Counts of the slots served so far, shape (slots, n_sites)."""
        return self._made_counts()[: min(self._reached, self._made)]

    def _made_counts(self) -> np.ndarray:
        """Counts of every slot made, shape (slots, n_sites)."""
        return np.concatenate([np.zeros((0, self.n_sites), dtype=int), *self._counts])

    def region_history(self, cells) -> np.ndarray:
        """Summed count series per cell over the slots served so far, shape (slots, n_cells)."""
        hist = self.history()
        return np.stack([hist[:, self._region(cell)].sum(axis=1) for cell in cells], axis=1)


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
