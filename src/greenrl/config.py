"""Experiment configuration: JSON in, validated dataclasses out.

Configs are plain JSON documents.  Loading is strict: unknown keys anywhere
raise a ConfigError naming the full field path, and every validation error
is prefixed with the path of the section it came from; a section check
whose message starts ``<field>: `` is reported under ``<section>.<field>``.
Where a runtime type (``RachConfig``, ``DqnConfig``, ``CompressionPlan``)
already holds a rule, the section builds it at load rather than repeating
the rule, so every error surfaces before a run writes anything.
A canonical hash of the config travels with every output file so results
stay attributable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields

from .agents import LOCAL_AGENTS, LocalAgentParams
from .cloud_loop import CompressionPlan, DqnConfig, ServiceRequest
from .errors import ConfigError
from .rach_env import BernoulliTraffic, RachAction, RachConfig, _is_int

__all__ = [
    "RachSection",
    "CloudSection",
    "CompressionSection",
    "SpatialSection",
    "ExperimentConfig",
    "load_config",
    "config_from_dict",
    "config_hash",
    "OUTPUT_ROOT_ENV",
]

OUTPUT_ROOT_ENV = "GREENRL_OUTPUT_ROOT"

SCENARIOS = ("rach", "compression", "transfer")
AGENTS = ("dqn",) + LOCAL_AGENTS

DEFAULT_MENU = (
    {"rach_channels": 1, "preambles_per_channel": 8, "repetition": 8},
    {"rach_channels": 2, "preambles_per_channel": 8, "repetition": 8},
    {"rach_channels": 4, "preambles_per_channel": 8, "repetition": 8},
    {"rach_channels": 6, "preambles_per_channel": 8, "repetition": 4},
)


def _checked_by(build, **renames) -> None:
    """Run ``build``, which makes the runtime object that holds a section's rules.

    A ``"<field>: ..."`` error about one of that object's fields is re-raised
    under the section's name for it, ``renames[field]``, where the two differ.
    """
    try:
        build()
    except ConfigError as exc:
        name, sep, rule = str(exc).partition(": ")
        raise ConfigError(f"{renames.get(name, name)}{sep}{rule}") from None


@dataclass(frozen=True)
class RachSection:
    num_devices: int = 50
    history_window: int = 4
    backoff_slots: int = 8
    traffic_p: float = 0.08
    menu: tuple = DEFAULT_MENU

    def __post_init__(self):
        _checked_by(self.to_env_config, p="traffic_p", action_menu="menu")

    def actions(self) -> tuple[RachAction, ...]:
        out = []
        for i, entry in enumerate(self.menu):
            if isinstance(entry, RachAction):
                out.append(entry)
                continue
            unknown = set(entry) - {"rach_channels", "preambles_per_channel", "repetition"}
            if unknown:
                raise ConfigError(f"rach.menu[{i}].{sorted(unknown)[0]}: unknown key")
            out.append(RachAction(**entry))
        return tuple(out)

    def to_env_config(self, seed: int = 0) -> RachConfig:
        return RachConfig(
            num_devices=self.num_devices,
            action_menu=self.actions(),
            history_window=self.history_window,
            traffic=BernoulliTraffic(self.traffic_p),
            backoff_slots=self.backoff_slots,
            seed=seed,
        )


@dataclass(frozen=True)
class CloudSection:
    inner_steps: int = 8
    mode: str = "lockstep"
    n_entities: int = 1
    batch_size: int = 32
    lr: float = 0.005
    discount: float = 0.9
    replay_capacity: int = 2000
    target_sync_every: int = 100
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 3000
    hidden: tuple = (32, 32)
    dtype: str = "float32"
    snapshot_bits: int | None = None
    batch_fp16: bool = False

    def __post_init__(self):
        if self.mode not in ("lockstep", "concurrent"):
            raise ConfigError(f"mode must be lockstep or concurrent, got {self.mode!r}")
        for name in ("n_entities", "inner_steps"):
            if not (_is_int(getattr(self, name)) and getattr(self, name) >= 1):
                raise ConfigError(f"{name}: must be an integer >= 1, got {getattr(self, name)!r}")
        self.dqn_config()
        CompressionPlan(snapshot_bits=self.snapshot_bits, batch_fp16=self.batch_fp16)

    def dqn_config(self) -> DqnConfig:
        return DqnConfig(
            hidden=tuple(self.hidden),
            lr=self.lr,
            batch_size=self.batch_size,
            discount=self.discount,
            replay_capacity=self.replay_capacity,
            target_sync_every=self.target_sync_every,
            eps_start=self.eps_start,
            eps_end=self.eps_end,
            eps_decay_steps=self.eps_decay_steps,
            dtype=self.dtype,
        )


@dataclass(frozen=True)
class CompressionSection:
    prune_quantile: float | None = None
    prune_at_round: int = 0
    quant_bits: int = 8
    sparsity_levels: tuple = (0.0, 0.25, 0.5, 0.75)

    def __post_init__(self):
        _checked_by(
            lambda: CompressionPlan(
                self.quant_bits, prune_quantile=self.prune_quantile, prune_at_round=self.prune_at_round
            ),
            snapshot_bits="quant_bits",
        )


def _real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive(x) -> bool:
    return _real(x) and math.isfinite(x) and x > 0


def _nonnegative(x) -> bool:
    return _real(x) and math.isfinite(x) and x >= 0


def _cells(cells, n_sites) -> bool:
    """Two nonempty lists of integer site indices in [0, n_sites)."""
    if not isinstance(cells, (list, tuple)) or len(cells) != 2 or not _is_int(n_sites):
        return False
    return all(
        isinstance(cell, (list, tuple)) and cell and all(_is_int(s) and 0 <= s < n_sites for s in cell)
        for cell in cells
    )


@dataclass(frozen=True)
class SpatialSection:
    """Shared-field traffic for the transfer scenario.

    Each base station serves a cell (a set of field sites) and sees the
    summed arrivals over it; the cells overlap on 14 of 16 sites, so the two
    demand series share most of their counts and stay strongly correlated
    (about 14/15 even when the field barely moves).  Kernel gain sits just
    below critical (a·sqrt(2π)·ℓ ≈ 0.98) so the field fluctuates without
    saturating, and noise_sigma is kept small so the offered load per cell
    stays near 15·mu ≈ 9 arrivals per slot, enough to separate the access
    menu's arms without drowning the learning curve in load wander.
    """

    n_sites: int = 16
    length: float = 16.0
    kernel_amplitude: float = 0.1955
    kernel_length_scale: float = 2.0
    noise_sigma: float = 0.12
    squash: str = "identity"
    mu: float = 0.6
    burn_in: int = 500
    bs_cells: tuple = (tuple(range(0, 15)), tuple(range(1, 16)))
    beta: float = 0.5
    transfer_every: int = 50

    def __post_init__(self):
        # Imported here, not with this module: loading spatial ahead of the
        # runner's other imports moved field-transfer's peak RSS up by 1 MiB.
        from .spatial import SQUASH_TAGS

        # (field, value is in range, the rule as reported)
        checks = (
            ("n_sites", _is_int(self.n_sites) and self.n_sites >= 1, "an integer >= 1"),
            ("length", _positive(self.length), "finite and > 0"),
            ("kernel_amplitude", _nonnegative(self.kernel_amplitude), "finite and >= 0"),
            ("kernel_length_scale", _positive(self.kernel_length_scale), "finite and > 0"),
            ("noise_sigma", _nonnegative(self.noise_sigma), "finite and >= 0"),
            ("squash", self.squash in SQUASH_TAGS, f"one of {list(SQUASH_TAGS)}"),
            ("mu", _positive(self.mu), "finite and > 0"),
            ("burn_in", _is_int(self.burn_in) and self.burn_in >= 0, "an integer >= 0"),
            ("bs_cells", _cells(self.bs_cells, self.n_sites), "two nonempty lists of integer sites < n_sites"),
            ("beta", _real(self.beta) and 0.0 <= self.beta <= 1.0, "a number in [0, 1]"),
            ("transfer_every", _is_int(self.transfer_every) and self.transfer_every >= 1, "an integer >= 1"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise ConfigError(f"{name}: must be {rule}, got {getattr(self, name)!r}")
        object.__setattr__(self, "bs_cells", tuple(tuple(int(s) for s in cell) for cell in self.bs_cells))


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "run"
    scenario: str = "rach"
    agent: str = "dqn"
    seeds: tuple = (1,)
    total_slots: int = 5000
    eval_slots: int = 1000
    reward_threshold: float | None = None
    threshold_window: int = 25
    tail_fraction: float = 0.2
    out_dir: str | None = None
    rach: RachSection = field(default_factory=RachSection)
    cloud: CloudSection = field(default_factory=CloudSection)
    agent_params: LocalAgentParams = field(default_factory=LocalAgentParams)
    compression: CompressionSection = field(default_factory=CompressionSection)
    spatial: SpatialSection = field(default_factory=SpatialSection)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.agent not in AGENTS:
            raise ConfigError(f"agent must be one of {AGENTS}, got {self.agent!r}")
        if len(self.seeds) == 0:
            raise ConfigError("seeds must be nonempty")
        if self.total_slots < 1 or self.eval_slots < 1:
            raise ConfigError("total_slots and eval_slots must be >= 1")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ConfigError("tail_fraction must lie in (0, 1]")
        if self.threshold_window < 1:
            raise ConfigError("threshold_window must be >= 1")
        if self.scenario != "rach" and self.agent != "dqn":
            raise ConfigError(f"agent: must be dqn, which the {self.scenario} scenario trains, got {self.agent!r}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    # -- derived objects ----------------------------------------------------

    def service_request(
        self,
        seed: int,
        compression: CompressionPlan | None = None,
        net_seed: int | None = None,
    ) -> ServiceRequest:
        plan = compression
        if plan is None:
            plan = CompressionPlan(
                snapshot_bits=self.cloud.snapshot_bits, batch_fp16=self.cloud.batch_fp16
            )
        return ServiceRequest(
            entity_ids=tuple(range(self.cloud.n_entities)),
            env_config=self.rach.to_env_config(),
            inner_steps=self.cloud.inner_steps,
            dqn=self.cloud.dqn_config(),
            compression=plan,
            seed=seed,
            net_seed=net_seed,
        )

    def rounds(self) -> int:
        return -(-self.total_slots // self.cloud.inner_steps)

    def output_root(self) -> str:
        if self.out_dir:
            return self.out_dir
        return os.environ.get(OUTPUT_ROOT_ENV, "results")

    def run_dir(self) -> str:
        return os.path.join(self.output_root(), self.name)

    def to_dict(self) -> dict:
        def clean(v):
            if dataclasses.is_dataclass(v) and not isinstance(v, type):
                return {f.name: clean(getattr(v, f.name)) for f in fields(v)}
            if isinstance(v, (tuple, list)):
                return [clean(x) for x in v]
            if isinstance(v, dict):
                return {k: clean(x) for k, x in v.items()}
            return v

        return clean(self)


_SECTIONS = {
    "rach": RachSection,
    "cloud": CloudSection,
    "agent_params": LocalAgentParams,
    "compression": CompressionSection,
    "spatial": SpatialSection,
}


def _build(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key")
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        sub = _SECTIONS.get(f.name) if cls is ExperimentConfig else None
        if sub is not None:
            kwargs[f.name] = _build(sub, value, f"{path}.{f.name}")
        elif isinstance(value, list):
            kwargs[f.name] = tuple(value)
        else:
            kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        name, sep, _ = str(exc).partition(": ")
        if sep and name in known:
            raise ConfigError(f"{path}.{exc}") from None
        raise ConfigError(f"{path}: {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data, "config")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def set_by_path(data: dict, dotted: str, value):
    """Set a nested config dict entry by dotted path, validating each hop."""
    parts = dotted.split(".")
    node = data
    for i, part in enumerate(parts[:-1]):
        if part not in node or not isinstance(node[part], dict):
            raise ConfigError(f"sweep path {dotted!r}: no section {'.'.join(parts[: i + 1])!r}")
        node = node[part]
    leaf = parts[-1]
    if leaf not in node:
        raise ConfigError(f"sweep path {dotted!r}: unknown field {leaf!r}")
    node[leaf] = value
    return data
