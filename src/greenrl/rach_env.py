"""Slotted random-access channel with backlogged devices.

Each slot the agent picks an access configuration from a fixed menu: how
many access channels to open, preambles per channel, and a repetition level
that sets the devices' attempt probability.  Backlogged devices each attempt
with probability min(1, repetition / backoff_slots) and pick one of the
m = channels * preambles opportunities uniformly.  An opportunity chosen by
exactly one device serves it; two or more collide; reward is the number of
devices served in the slot.

With n devices attempting over m opportunities the expected number served
is n * (1 - 1/m)**(n-1).

The simulator is built for a cheap per-slot step.  The observation window
is a tuple of counts, most recent first, that each step replaces with the
new triple followed by all but the oldest, and each menu action's
opportunity count, attempt probability and contention probabilities, and
the Bernoulli arrival probability, are resolved once per environment, so a
step is a dict lookup, the arrival, attempt and contention draws, two
counts of the occupancy vector and one conversion of the window to an
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InvalidInputError

__all__ = [
    "RachAction",
    "RachConfig",
    "BernoulliTraffic",
    "ExternalTraffic",
    "SlotOutcome",
    "RachEnv",
    "simulate_contention",
    "expected_successes",
    "le_urc_counts",
    "le_urc_ranking",
    "le_urc_pick",
    "COLLISION_MULTIPLICITY",
]

# Mean multiplicity of a collided opportunity under Poisson(1) arrivals,
# E[X | X >= 2] = (1 - e^-1) / (1 - 2 e^-1), about 2.39.
COLLISION_MULTIPLICITY = (1.0 - math.exp(-1.0)) / (1.0 - 2.0 * math.exp(-1.0))


# Type predicates shared by the config checks of every module.
def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


# Each scalar type a config field may declare: the test its values pass
# (a float is no bool and no NaN), and its name in an error.
_SCALAR_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda x: _real(x) and x == x, "a number"),
    "bool": (lambda x: isinstance(x, bool), "a boolean"),
    "str": (lambda x: isinstance(x, str), "a string"),
}


def _check_fields(obj, rules) -> None:
    """Check each scalar field of the dataclass ``obj`` against its declared
    type, then each (field, value is in range, the rule as reported) that
    ``rules()`` returns.  ``rules`` is called only once every type holds, so
    a rule need not test its field's type.

    ``X | None`` also accepts None.  Errors read ``"<field>: must be ..."``.
    A rule's field may be dotted (``"spatial.mu"``), naming a field of a
    section of ``obj``.
    """
    for f in fields(obj):
        name, optional, _ = f.type.partition(" | None")
        if name in _SCALAR_TYPES:
            value = getattr(obj, f.name)
            ok, kind = _SCALAR_TYPES[name]
            if not (ok(value) or (optional and value is None)):
                raise ConfigError(f"{f.name}: must be {kind}{' or null' if optional else ''}, got {value!r}")
    for name, ok, rule in rules():
        if not ok:
            value = obj
            for part in name.split("."):
                value = getattr(value, part)
            raise ConfigError(f"{name}: must be {rule}, got {value!r}")


@dataclass(frozen=True)
class RachAction:
    """One menu entry: channel/preamble allocation plus repetition level."""

    rach_channels: int
    preambles_per_channel: int
    repetition: int

    def __post_init__(self):
        _check_fields(self, lambda: [(f.name, getattr(self, f.name) >= 1, "an integer >= 1") for f in fields(self)])

    @property
    def opportunities(self) -> int:
        return self.rach_channels * self.preambles_per_channel


@dataclass(frozen=True)
class BernoulliTraffic:
    """Each currently idle device activates with probability p per slot."""

    p: float

    def __post_init__(self):
        _check_fields(self, lambda: [("p", 0.0 <= self.p <= 1.0, "an activation probability in [0, 1]")])


@dataclass(frozen=True)
class ExternalTraffic:
    """Arrival counts supplied per slot by an outside process."""

    counts: Callable[[int], int]


@dataclass(frozen=True)
class RachConfig:
    num_devices: int
    action_menu: tuple[RachAction, ...]
    history_window: int = 4
    traffic: BernoulliTraffic | ExternalTraffic = BernoulliTraffic(0.05)
    backoff_slots: int = 8
    seed: int = 0

    def __post_init__(self):
        menu = self.action_menu
        menu_ok = isinstance(menu, (tuple, list)) and menu and all(isinstance(a, RachAction) for a in menu)
        counts = ("num_devices", "history_window", "backoff_slots")
        _check_fields(
            self,
            lambda: [(name, getattr(self, name) >= 1, "an integer >= 1") for name in counts]
            + [("action_menu", menu_ok, "a nonempty list of RachAction")],
        )
        object.__setattr__(self, "action_menu", tuple(menu))

    @property
    def max_opportunities(self) -> int:
        return max(a.opportunities for a in self.action_menu)


class SlotOutcome(NamedTuple):
    served: int
    backlog: int
    occupancy: np.ndarray


def simulate_contention(
    n_attempting: int, m: int, rng: np.random.Generator, pvals: np.ndarray | None = None
) -> np.ndarray:
    """Occupancy counts after each device picks one of m opportunities uniformly.

    ``pvals`` may pass in the uniform probabilities ``np.full(m, 1 / m)``,
    precomputed once, so a caller stepping many slots does not rebuild them.
    """
    if m < 1:
        raise InvalidInputError("need at least one opportunity")
    if n_attempting < 0:
        raise InvalidInputError("attempt count cannot be negative")
    return rng.multinomial(n_attempting, np.full(m, 1.0 / m) if pvals is None else pvals)


def expected_successes(n: int, m: int) -> float:
    """Closed form n (1 - 1/m)**(n-1) for n devices over m opportunities."""
    if n <= 0:
        return 0.0
    if m == 1:
        return 1.0 if n == 1 else 0.0
    return n * (1.0 - 1.0 / m) ** (n - 1)


class RachEnv:
    """Slotted random-access simulator; deterministic given its config seed.

    The observation is the last ``history_window`` slots' per-slot triples
    (idle, collided, successful), most recent first, flattened to a vector
    of length 3 * history_window.  Slots before the first step read as zeros.

    The window is an immutable tuple of those counts: each step makes a new
    one, the new triple followed by all but the oldest triple, and
    ``observation`` converts it to a fresh float array, so an observation
    held by the caller never changes under a later step.  ``__init__``
    resolves every menu action's opportunity count, attempt probability and
    uniform contention probabilities, and the Bernoulli arrival probability,
    once.  A step finds its action by identity in a table of the menu's own
    objects, and an equal copy by value in a second table, without hashing
    the action's fields on the common path; an action in neither table is
    off the menu.
    """

    def __init__(self, cfg: RachConfig):
        self.cfg = cfg
        self._actions = {
            a: (
                a.opportunities,
                min(1.0, a.repetition / cfg.backoff_slots),
                np.full(a.opportunities, 1.0 / a.opportunities),
            )
            for a in cfg.action_menu
        }
        # The menu's objects live as long as ``cfg``, so no other object
        # can share one's id while this table is in use.
        self._by_id = {id(a): self._actions[a] for a in cfg.action_menu}
        traffic = cfg.traffic
        self._arrival_p = traffic.p if isinstance(traffic, BernoulliTraffic) else None
        self.reset()

    def reset(self) -> np.ndarray:
        self.rng = np.random.default_rng(self.cfg.seed)
        self.backlog = 0
        self.slot = 0
        self._window = (0,) * (3 * self.cfg.history_window)
        return self.observation()

    def observation(self) -> np.ndarray:
        return np.array(self._window, float)

    def resume_from(self, other: RachEnv) -> None:
        """Take up ``other``'s position: the state ``reset`` sets, copied.

        ``other`` should be built from the same config; traffic is read
        through the config, so both then draw the same arrivals.
        """
        self.rng.bit_generator.state = other.rng.bit_generator.state
        self.backlog, self.slot = other.backlog, other.slot
        self._window = other._window

    def _external_arrivals(self) -> int:
        """This slot's count from ``ExternalTraffic``, checked and clamped.

        A count that is not an integer >= 0 (a bool, a float, a string,
        None, ...) raises InvalidInputError naming the slot.  A Python int
        is told by its class alone, before the full type test.
        """
        count = self.cfg.traffic.counts(self.slot)
        if not (count.__class__ is int or _is_int(count)) or count < 0:
            raise InvalidInputError(
                f"external traffic count for slot {self.slot} must be an integer >= 0, got {count!r}"
            )
        # Clamp to the device population: backlog never exceeds num_devices.
        return min(int(count), self.cfg.num_devices - self.backlog)

    def step(self, action: RachAction) -> tuple[np.ndarray, float, SlotOutcome]:
        """Play one slot of ``action``, which must be on the menu.

        The arrival, attempt and contention draws are made in that order;
        contention goes through ``simulate_contention`` with the action's
        precomputed probabilities.
        """
        entry = self._by_id.get(id(action))
        if entry is None:
            try:
                entry = self._actions[action]
            except (KeyError, TypeError):
                raise InvalidInputError(f"action {action} is not on the menu") from None
        m, p_attempt, pvals = entry
        rng, p = self.rng, self._arrival_p
        if p is None:
            backlog = self.backlog + self._external_arrivals()
        else:
            backlog = self.backlog + int(rng.binomial(max(0, self.cfg.num_devices - self.backlog), p))
        attempts = int(rng.binomial(backlog, p_attempt))
        occupancy = simulate_contention(attempts, m, rng, pvals)
        # Counted on a list: for menu-sized m this is several times cheaper
        # than numpy's compare-and-count.
        counts = occupancy.tolist()
        idle = counts.count(0)
        successful = counts.count(1)
        self.backlog = backlog = backlog - successful
        window = self._window = (idle, m - idle - successful, successful) + self._window[:-3]
        self.slot += 1
        return np.array(window, float), float(successful), SlotOutcome(successful, backlog, occupancy)


def le_urc_counts(obs) -> list[float]:
    """The observation as Python floats, checked for ``le_urc_pick``.

    It must hold at least one slot triple, and every count must be finite
    and non-negative.
    """
    v = np.asarray(obs, dtype=float).ravel().tolist()
    if len(v) < 3:
        raise InvalidInputError("observation must hold at least one slot triple")
    if not all(map(math.isfinite, v)):
        raise InvalidInputError("observation counts must be finite")
    if min(v) < 0:
        raise InvalidInputError("observation counts cannot be negative")
    return v


def le_urc_ranking(menu: Sequence[RachAction]) -> tuple[tuple[int, int], ...]:
    """(opportunities, index) of every menu action, in tie-break order."""
    if len(menu) == 0:
        raise InvalidInputError("menu must be nonempty")
    return tuple(sorted((action.opportunities, i) for i, action in enumerate(menu)))


def le_urc_pick(counts: Sequence[float], ranking: Sequence[tuple[int, int]]) -> int:
    """Menu index of the load-estimating pick for checked ``counts``.

    The backlog estimate from the most recent slot is
    N = max(successful + 2.39 * collided, 1), and the pick maximises
    N (1 - 1/m)**(N-1) over each action's opportunity count m, ignoring
    repetition.  The one scoring rule: the LE-URC agent calls it with
    ``le_urc_counts`` and ``le_urc_ranking``.  A later action in ``ranking``
    wins only with a strictly higher score, so ties go to the smallest m,
    then the lowest index.
    """
    _idle, collided, successful = counts[0], counts[1], counts[2]
    n_hat = max(successful + COLLISION_MULTIPLICITY * collided, 1.0)
    best_idx = best = None
    for m, i in ranking:
        score = n_hat * (1.0 - 1.0 / m) ** (n_hat - 1.0) if m > 1 else (1.0 if n_hat <= 1 else 0.0)
        if best_idx is None or score > best:
            best_idx, best = i, score
    return best_idx
