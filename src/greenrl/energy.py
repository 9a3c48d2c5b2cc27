"""Energy accounting for inference, training, and messaging.

All costs reduce to three integer counters: multiply-accumulates, memory
accesses, and wire bytes.  MAC counts honour sparsity by counting nonzero
weights only, so pruning shows up directly.  Every recorded event is kept
in an append-only log so the totals can be recomputed and reconciled.

An entity's network changes only when a snapshot overwrites it, so a cloud
session logs each round's K inference passes as one ``inference`` event
with ``count=K`` rather than K events of one pass each.  The count models
a deployed entity that runs its network on every slot: the simulation
skips the forward pass on slots where epsilon-greedy explores, since it
discards those values, but the ledger still credits K passes per round.

A caller that already knows a network's ``macs_forward`` may pass it as
``macs`` to save the count.  A cloud session counts each online parameter
vector once, for its train step and for the entities that load a dense
snapshot of it; an entity that loads a quantised snapshot is counted on its
own, since rounding can zero weights the online network keeps.  Either
way, each event records ``macs_forward`` of the network it describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = ["EnergyCoefficients", "EnergyLedger", "macs_forward", "compare"]

_BACKWARD_FACTOR = 3  # one forward plus roughly two forward-equivalents backward


@dataclass(frozen=True)
class EnergyCoefficients:
    """Weights of the scalar proxy alpha*macs + beta*mem + gamma*bytes."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0


def macs_forward(net) -> int:
    """Multiply-accumulates of one forward pass: nonzero weights only."""
    return int(sum(map(np.count_nonzero, net.weights)))  # numpy's counts are np.int64


@dataclass
class EnergyLedger:
    """Session-wide counters plus the event log they are derived from.

    Updates must be serialised by the session owner; the ledger itself does
    no locking.
    """

    coefficients: EnergyCoefficients = field(default_factory=EnergyCoefficients)
    macs_inference: int = 0
    macs_training: int = 0
    mem_accesses: int = 0
    bytes_wire: int = 0
    events: list[tuple] = field(default_factory=list)

    def record_inference(self, net, count: int = 1, macs: int | None = None) -> None:
        """Log ``count`` forward passes of ``net``, whose ``macs_forward`` is ``macs`` if given."""
        if count < 1:
            raise InvalidInputError("count must be >= 1")
        if macs is None:
            macs = macs_forward(net)
        self.macs_inference += macs * count
        self.mem_accesses += macs * count
        self.events.append(("inference", macs, count))

    def record_train_step(self, net, batch_size: int, macs: int | None = None) -> None:
        """Log one mini-batch update: 3x forward MACs per sample (``macs`` as above)."""
        if batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if macs is None:
            macs = macs_forward(net)
        self.macs_training += _BACKWARD_FACTOR * macs * batch_size
        self.mem_accesses += macs * batch_size
        self.events.append(("train_step", macs, batch_size))

    def record_message(self, byte_size: int, direction: str) -> None:
        """Log one message crossing the cloud boundary."""
        if direction not in ("down", "up"):
            raise InvalidInputError(f"direction must be 'down' or 'up', got {direction!r}")
        if byte_size < 0:
            raise InvalidInputError("byte_size must be >= 0")
        self.bytes_wire += int(byte_size)
        self.events.append(("message", int(byte_size), direction))

    @property
    def energy_proxy(self) -> float:
        c = self.coefficients
        return (
            c.alpha * (self.macs_inference + self.macs_training)
            + c.beta * self.mem_accesses
            + c.gamma * self.bytes_wire
        )

    def recompute_from_events(self) -> dict[str, int]:
        """Independent re-derivation of every counter from the event log."""
        macs_inf = macs_trn = mem = wire = 0
        for ev in self.events:
            kind = ev[0]
            if kind == "inference":
                _, macs, count = ev
                macs_inf += macs * count
                mem += macs * count
            elif kind == "train_step":
                _, macs, batch = ev
                macs_trn += _BACKWARD_FACTOR * macs * batch
                mem += macs * batch
            elif kind == "message":
                _, nbytes, _direction = ev
                wire += nbytes
            else:
                raise InvalidInputError(f"unknown event kind {kind!r}")
        return {
            "macs_inference": macs_inf,
            "macs_training": macs_trn,
            "mem_accesses": mem,
            "bytes_wire": wire,
        }

    def snapshot(self) -> dict[str, float]:
        return {
            "macs_inference": self.macs_inference,
            "macs_training": self.macs_training,
            "mem_accesses": self.mem_accesses,
            "bytes_wire": self.bytes_wire,
            "energy_proxy": self.energy_proxy,
        }


def compare(a: EnergyLedger, b: EnergyLedger) -> dict[str, dict[str, float]]:
    """Per-counter deltas (b - a) and ratios (b / a) for two ledgers.

    Both ledgers must use identical proxy coefficients.  A ratio against a
    zero counter reports inf (or nan when both sides are zero).
    """
    if a.coefficients != b.coefficients:
        raise InvalidInputError("ledgers use different proxy coefficients")
    out: dict[str, dict[str, float]] = {}
    av, bv = a.snapshot(), b.snapshot()
    for key in av:
        if av[key] != 0:
            ratio = bv[key] / av[key]
        else:
            ratio = float("nan") if bv[key] == 0 else float("inf")
        out[key] = {"a": av[key], "b": bv[key], "delta": bv[key] - av[key], "ratio": ratio}
    return out
