"""Experiment configuration: JSON in, validated dataclasses out.

Configs are plain JSON documents, and the dataclass annotations are their
schema.  Loading is strict: unknown keys anywhere raise a ConfigError naming
the full field path; a field annotated with a config dataclass, or a tuple
of one (``rach.menu``), is built from its own object; and every scalar is
checked against its declared type before any range rule runs, with null
accepted only where a field is optional.  A section check whose message
starts ``<field>: `` is reported under ``<section>.<field>``.  Where a
runtime type (``RachConfig``, ``DqnConfig``, ``CompressionPlan``) already
holds a rule, the section is or builds that type rather than repeating the
rule, so every error surfaces before a run writes anything.  The transfer
scenario's own rules are ``ExperimentConfig`` rules, so ``config_from_dict``,
``load_config`` and direct construction all apply them.
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
from .cloud_loop import MODES, CompressionPlan, DqnConfig, ServiceRequest
from .errors import ConfigError
from .rach_env import BernoulliTraffic, RachAction, RachConfig, _check_fields, _is_int, _real

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

DEFAULT_MENU = (RachAction(1, 8, 8), RachAction(2, 8, 8), RachAction(4, 8, 8), RachAction(6, 8, 4))

# The most bytes a dqn config's parameters, replay ring or learner activations may each take; checked by arithmetic.
MAX_ARRAY_BYTES = 2**28


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
    menu: tuple[RachAction, ...] = DEFAULT_MENU

    def __post_init__(self):
        _checked_by(self.to_env_config, p="traffic_p", action_menu="menu")
        object.__setattr__(self, "menu", tuple(self.menu))

    def to_env_config(self) -> RachConfig:
        return RachConfig(
            num_devices=self.num_devices,
            action_menu=self.menu,
            history_window=self.history_window,
            traffic=BernoulliTraffic(self.traffic_p),
            backoff_slots=self.backoff_slots,
        )


@dataclass(frozen=True)
class CloudSection(DqnConfig):
    """The coordinator's ``DqnConfig``, plus how its sessions run: slots
    per round, round mode, entity count and wire compression."""

    inner_steps: int = 8
    mode: str = "lockstep"
    n_entities: int = 1
    snapshot_bits: int | None = None
    batch_fp16: bool = False

    def __post_init__(self):
        super().__post_init__()
        _check_fields(
            self,
            lambda: [
                ("inner_steps", self.inner_steps >= 1, "an integer >= 1"),
                ("mode", self.mode in MODES, f"one of {list(MODES)}"),
                ("n_entities", self.n_entities >= 1, "an integer >= 1"),
            ],
        )
        CompressionPlan(snapshot_bits=self.snapshot_bits, batch_fp16=self.batch_fp16)

    def dqn_config(self) -> DqnConfig:
        return DqnConfig(**{f.name: getattr(self, f.name) for f in fields(DqnConfig)})


@dataclass(frozen=True)
class CompressionSection:
    """``prune_at_round`` null prunes after round ``rounds // 4``; any other
    value, less than the run's rounds, after that round."""

    prune_quantile: float | None = None
    prune_at_round: int | None = None
    quant_bits: int = 8
    sparsity_levels: tuple = (0.0, 0.25, 0.5, 0.75)

    def __post_init__(self):
        levels = self.sparsity_levels
        levels_ok = isinstance(levels, (tuple, list)) and all(_real(f) and 0.0 <= f < 1.0 for f in levels)
        _check_fields(self, lambda: [("sparsity_levels", levels_ok, "a list of numbers in [0, 1)")])
        _checked_by(
            lambda: CompressionPlan(
                self.quant_bits, prune_quantile=self.prune_quantile, prune_at_round=self.prune_at_round or 0
            ),
            snapshot_bits="quant_bits",
        )


def _cells(cells, n_sites) -> bool:
    """Two nonempty lists of integer site indices in [0, n_sites)."""
    if not isinstance(cells, (list, tuple)) or len(cells) != 2:
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
        from .spatial import _MAX_RATE, SQUASH_TAGS

        _check_fields(
            self,
            lambda: [
                ("n_sites", self.n_sites >= 1, "an integer >= 1"),
                ("length", 0 < self.length < math.inf, "finite and > 0"),
                ("kernel_amplitude", 0 <= self.kernel_amplitude < math.inf, "finite and >= 0"),
                ("kernel_length_scale", 0 < self.kernel_length_scale < math.inf, "finite and > 0"),
                ("noise_sigma", 0 <= self.noise_sigma < math.inf, "finite and >= 0"),
                ("squash", self.squash in SQUASH_TAGS, f"one of {list(SQUASH_TAGS)}"),
                ("mu", 0 < self.mu <= _MAX_RATE, f"> 0 and at most numpy's largest Poisson rate, {_MAX_RATE:.4g}"),
                ("burn_in", self.burn_in >= 0, "an integer >= 0"),
                ("bs_cells", _cells(self.bs_cells, self.n_sites), "two nonempty lists of integer sites < n_sites"),
                ("beta", 0 <= self.beta <= 1, "a number in [0, 1]"),
                ("transfer_every", self.transfer_every >= 1, "an integer >= 1"),
            ],
        )
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
        seeds, name, transfer = self.seeds, self.name, self.scenario == "transfer"
        cloud, width = self.cloud, 3 * self.rach.history_window
        dims, itemsize = (width, *cloud.hidden, len(self.rach.menu)), 4 if cloud.dtype == "float32" else 8
        net_bytes = itemsize * sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))
        ring_bytes = cloud.replay_capacity * (8 + itemsize * (2 * width + 2))  # two states, action, reward, live
        # a train step's (2, batch, d) pre-activations at every layer and activations at every hidden one
        act_bytes = 2 * min(cloud.batch_size, cloud.replay_capacity) * itemsize * (sum(dims[1:]) + sum(dims[1:-1]))
        seeds_ok = (
            isinstance(seeds, (tuple, list))
            and seeds
            and all(_is_int(s) or (isinstance(s, float) and s.is_integer()) for s in seeds)
        )
        _check_fields(
            self,
            lambda: [
                ("name", name != "" and "\0" not in name and not os.path.isabs(name) and ".." not in name.split(os.sep),
                 "a nonempty relative path with no '..' component and no NUL character"),
                # the file system refuses a NUL in a path with a bare ValueError
                ("out_dir", self.out_dir is None or "\0" not in self.out_dir, "a path with no NUL character, or null"),
                ("scenario", self.scenario in SCENARIOS, f"one of {list(SCENARIOS)}"),
                ("agent", self.agent in AGENTS, f"one of {list(AGENTS)}"),
                ("seeds", seeds_ok, "a nonempty list of integers"),
                ("total_slots", self.total_slots >= 1, "an integer >= 1"),
                ("eval_slots", self.eval_slots >= 1, "an integer >= 1"),
                ("threshold_window", self.threshold_window >= 1, "an integer >= 1"),
                ("tail_fraction", 0 < self.tail_fraction <= 1, "a number in (0, 1]"),
                ("agent", self.agent == "dqn" or self.scenario == "rach", f"dqn for the {self.scenario} scenario"),
                ("reward_threshold", not transfer or self.reward_threshold is not None,
                 "a number for the transfer scenario"),
                # the first transfer estimates a correlation, which needs 2 slots
                ("spatial.transfer_every",
                 not transfer or self.spatial.transfer_every * self.cloud.inner_steps >= 2
                 or self.spatial.transfer_every >= self.rounds(),
                 f">= 2 when cloud.inner_steps is {self.cloud.inner_steps}, as a correlation needs 2 slots"),
                ("cloud.n_entities", not transfer or self.cloud.n_entities == 1, "1 for the transfer scenario"),
                ("compression.prune_at_round",
                 self.scenario != "compression" or (self.compression.prune_at_round or 0) < self.rounds(),
                 f"less than the run's {self.rounds()} rounds, or null"),
                ("cloud.snapshot_bits", self.scenario != "compression" or self.cloud.snapshot_bits is None,
                 "null for the compression scenario, which quantises snapshots at compression.quant_bits"),
                ("cloud.hidden", self.agent != "dqn" or net_bytes <= MAX_ARRAY_BYTES,
                 f"widths that give the network {dims} at most {MAX_ARRAY_BYTES} parameter bytes, not {net_bytes}"),
                ("cloud.replay_capacity", self.agent != "dqn" or ring_bytes <= MAX_ARRAY_BYTES,
                 f"small enough for a replay ring of at most {MAX_ARRAY_BYTES} bytes, not {ring_bytes}"),
                ("cloud.batch_size", self.agent != "dqn" or act_bytes <= MAX_ARRAY_BYTES,
                 f"small enough for learner activations of at most {MAX_ARRAY_BYTES} bytes, not {act_bytes}"),
            ],
        )
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))

    # -- derived objects ----------------------------------------------------

    def service_request(
        self,
        seed: int,
        compression: CompressionPlan | None = None,
        net_seed: int | None = None,
        env_config: RachConfig | None = None,
    ) -> ServiceRequest:
        plan = compression
        if plan is None:
            plan = CompressionPlan(
                snapshot_bits=self.cloud.snapshot_bits, batch_fp16=self.cloud.batch_fp16
            )
        return ServiceRequest(
            entity_ids=tuple(range(self.cloud.n_entities)),
            env_config=self.rach.to_env_config() if env_config is None else env_config,
            inner_steps=self.cloud.inner_steps,
            mode=self.cloud.mode,
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


def _build(cls, data, path: str):
    """Build the config dataclass ``cls`` from the JSON object ``data``.

    A field annotated with a config dataclass is built from its object, one
    annotated ``tuple[<config dataclass>, ...]`` from a list of objects, and
    any other list becomes a tuple; ``cls`` then checks every value.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:  # shown escaped if it would break the one-line error
            raise ConfigError(f"{path}.{key if isinstance(key, str) and key.isprintable() else repr(key)}: unknown key")
    kwargs = {}
    for f in fields(cls):
        where = f"{path}.{f.name}"
        if f.name not in data:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{where}: missing required key")
            continue
        value = data[f.name]
        many = f.type.startswith("tuple[")  # "tuple[X, ...]", whose items are X
        sub = globals().get(f.type[6:-6] if many else f.type)
        if not dataclasses.is_dataclass(sub):
            kwargs[f.name] = tuple(value) if isinstance(value, list) else value
        elif not many:
            kwargs[f.name] = _build(sub, value, where)
        elif isinstance(value, list):
            kwargs[f.name] = tuple(_build(sub, v, f"{where}[{i}]") for i, v in enumerate(value))
        else:
            raise ConfigError(f"{where}: must be a list of objects, got {value!r}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        name, sep, _ = str(exc).partition(": ")
        if sep and name.split(".")[0] in known:
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
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep to parse
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
