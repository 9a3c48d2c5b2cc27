import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenrl.compression import prune_by_magnitude, threshold_for_sparsity
from greenrl.energy import EnergyCoefficients, EnergyLedger, compare, macs_forward
from greenrl.errors import InvalidInputError
from greenrl.neural import glorot_init


def test_macs_forward_counts_nonzero_weights():
    net = glorot_init((4, 3, 2), seed=0)
    assert macs_forward(net) == 4 * 3 + 3 * 2
    net.weights[0][0, :] = 0.0
    assert macs_forward(net) == 4 * 3 + 3 * 2 - 3


def test_macs_forward_tracks_pruning():
    net = glorot_init((10, 8, 4), seed=1)
    pruned, report = prune_by_magnitude(net, threshold_for_sparsity(net, 0.75))
    assert macs_forward(pruned) == report.mac_count_pruned
    assert macs_forward(pruned) < macs_forward(net)


def test_inference_accounting():
    net = glorot_init((3, 2), seed=0)
    ledger = EnergyLedger()
    ledger.record_inference(net)
    ledger.record_inference(net, count=4)
    assert ledger.macs_inference == 6 * 5
    assert ledger.mem_accesses == 6 * 5
    assert ledger.macs_training == 0
    assert ledger.events == [("inference", 6, 1), ("inference", 6, 4)]


def test_train_step_accounting():
    # one backward pass costs roughly two extra forwards
    net = glorot_init((3, 2), seed=0)
    ledger = EnergyLedger()
    ledger.record_train_step(net, batch_size=8)
    assert ledger.macs_training == 3 * 6 * 8
    assert ledger.mem_accesses == 6 * 8
    assert ledger.macs_inference == 0


def test_a_given_mac_count_is_recorded_as_counted():
    """A caller that already counted a network's MACs passes the count; the
    ledger records the same events and totals as when it counts them."""
    net = glorot_init((4, 3, 2), seed=0)
    net.weights[0][0, :] = 0.0
    counted, given = EnergyLedger(), EnergyLedger()
    counted.record_inference(net, count=3)
    counted.record_train_step(net, batch_size=5)
    given.record_inference(net, 3, macs_forward(net))
    given.record_train_step(net, 5, macs=macs_forward(net))
    assert given.events == counted.events == [("inference", 15, 3), ("train_step", 15, 5)]
    assert given.snapshot() == counted.snapshot()


def test_message_accounting():
    ledger = EnergyLedger()
    ledger.record_message(100, "down")
    ledger.record_message(50, "up")
    ledger.record_message(0, "up")
    assert ledger.bytes_wire == 150
    assert [e[2] for e in ledger.events] == ["down", "up", "up"]


def test_validation():
    net = glorot_init((2, 2), seed=0)
    ledger = EnergyLedger()
    with pytest.raises(InvalidInputError):
        ledger.record_inference(net, count=0)
    with pytest.raises(InvalidInputError):
        ledger.record_train_step(net, batch_size=0)
    with pytest.raises(InvalidInputError):
        ledger.record_message(10, "sideways")
    with pytest.raises(InvalidInputError):
        ledger.record_message(-1, "up")


def test_energy_proxy_linear_in_coefficients():
    net = glorot_init((4, 4), seed=2)
    ledger = EnergyLedger(EnergyCoefficients(alpha=2.0, beta=0.5, gamma=0.1))
    ledger.record_inference(net, count=3)
    ledger.record_train_step(net, batch_size=2)
    ledger.record_message(200, "down")
    macs = 16
    expected = (
        2.0 * (macs * 3 + 3 * macs * 2) + 0.5 * (macs * 3 + macs * 2) + 0.1 * 200
    )
    assert ledger.energy_proxy == pytest.approx(expected)


def test_recompute_reconciles_exactly():
    net = glorot_init((5, 4, 3), seed=3)
    ledger = EnergyLedger()
    rng = np.random.default_rng(0)
    for _ in range(100):
        kind = rng.integers(3)
        if kind == 0:
            ledger.record_inference(net, count=int(rng.integers(1, 5)))
        elif kind == 1:
            ledger.record_train_step(net, batch_size=int(rng.integers(1, 9)))
        else:
            ledger.record_message(int(rng.integers(0, 500)), "up" if rng.integers(2) else "down")
    recomputed = ledger.recompute_from_events()
    assert recomputed == {
        "macs_inference": ledger.macs_inference,
        "macs_training": ledger.macs_training,
        "mem_accesses": ledger.mem_accesses,
        "bytes_wire": ledger.bytes_wire,
    }


def test_recompute_rejects_unknown_event():
    ledger = EnergyLedger()
    ledger.events.append(("teleport", 1, 2))
    with pytest.raises(InvalidInputError):
        ledger.recompute_from_events()


def test_snapshot_keys():
    ledger = EnergyLedger()
    snap = ledger.snapshot()
    assert set(snap) == {
        "macs_inference",
        "macs_training",
        "mem_accesses",
        "bytes_wire",
        "energy_proxy",
    }
    assert snap["energy_proxy"] == 0.0


def test_compare_delta_and_ratio():
    net = glorot_init((2, 2), seed=0)
    a, b = EnergyLedger(), EnergyLedger()
    a.record_message(100, "up")
    b.record_message(250, "up")
    b.record_inference(net)
    out = compare(a, b)
    assert out["bytes_wire"]["delta"] == 150
    assert out["bytes_wire"]["ratio"] == 2.5
    assert out["macs_inference"]["ratio"] == math.inf  # 0 -> 4
    assert math.isnan(out["macs_training"]["ratio"])  # 0 -> 0
    assert out["macs_training"]["delta"] == 0


def test_compare_requires_matching_coefficients():
    a = EnergyLedger(EnergyCoefficients(alpha=1.0))
    b = EnergyLedger(EnergyCoefficients(alpha=2.0))
    with pytest.raises(InvalidInputError):
        compare(a, b)


@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 6), st.integers(0, 300)),
        max_size=30,
    )
)
@settings(max_examples=50)
def test_counters_always_reconcile(ops):
    net = glorot_init((3, 3), seed=1)
    ledger = EnergyLedger()
    for kind, small, nbytes in ops:
        if kind == 0:
            ledger.record_inference(net, count=small)
        elif kind == 1:
            ledger.record_train_step(net, batch_size=small)
        else:
            ledger.record_message(nbytes, "down")
    assert ledger.recompute_from_events() == {
        "macs_inference": ledger.macs_inference,
        "macs_training": ledger.macs_training,
        "mem_accesses": ledger.mem_accesses,
        "bytes_wire": ledger.bytes_wire,
    }
