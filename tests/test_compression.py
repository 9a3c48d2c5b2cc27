import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenrl.compression import (
    DiscretizationScheme,
    aggregate_states,
    apply_partition,
    bin_indices,
    prune_by_magnitude,
    quantize_weights,
    threshold_for_sparsity,
)
from greenrl.errors import ConfigError, InvalidInputError
from greenrl.neural import glorot_init, pack
from greenrl.rl_core import QTable
from oracles import reference_discretize


def square_net(mask=None):
    return pack(
        (2, 2),
        [np.array([[0.1, -0.5], [0.9, 0.05]])],
        [np.array([0.0, 0.0])],
        mask,
    )


# ---------------------------------------------------------------------------
# magnitude pruning
# ---------------------------------------------------------------------------


def test_prune_hand_example():
    pruned, report = prune_by_magnitude(square_net(), 0.2)
    np.testing.assert_array_equal(pruned.weights[0], [[0.0, -0.5], [0.9, 0.0]])
    assert report.total_weights == 4
    assert report.nonzero_weights == 2
    assert report.sparsity == 0.5
    assert report.mac_count_dense == 4
    assert report.mac_count_pruned == 2


def test_prune_keeps_boundary_magnitude():
    # the cut is strict-less, so |w| == threshold survives
    pruned, _ = prune_by_magnitude(square_net(), 0.5)
    assert pruned.weights[0][0, 1] == -0.5


def test_prune_composes_with_existing_mask():
    net = square_net(mask=[np.array([[1.0, 0.0], [1.0, 1.0]])])
    pruned, report = prune_by_magnitude(net, 0.2)
    np.testing.assert_array_equal(pruned.weights[0], [[0.0, 0.0], [0.9, 0.0]])
    assert report.nonzero_weights == 1
    assert pruned.mask[0][0, 1] == 0.0


def test_prune_zero_threshold_is_identity():
    net = square_net()
    pruned, report = prune_by_magnitude(net, 0.0)
    np.testing.assert_array_equal(pruned.weights[0], net.weights[0])
    assert report.sparsity == 0.0


def test_prune_leaves_input_untouched_and_drops_quant():
    net = quantize_weights(glorot_init((3, 3), seed=0), 8)
    before = net.weights[0].copy()
    pruned, _ = prune_by_magnitude(net, 0.05)
    np.testing.assert_array_equal(net.weights[0], before)
    assert pruned.quant is None


@pytest.mark.parametrize("thr", [-0.1, float("nan"), float("inf")])
def test_prune_rejects_bad_threshold(thr):
    with pytest.raises(InvalidInputError):
        prune_by_magnitude(square_net(), thr)


def test_threshold_for_sparsity_median_cut():
    net = glorot_init((4, 5), seed=7)  # 20 weights, all magnitudes distinct
    thr = threshold_for_sparsity(net, 0.5)
    _, report = prune_by_magnitude(net, thr)
    assert report.nonzero_weights == 10


def test_threshold_for_sparsity_zero_keeps_everything():
    net = glorot_init((3, 4), seed=2)
    _, report = prune_by_magnitude(net, threshold_for_sparsity(net, 0.0))
    assert report.nonzero_weights == report.total_weights


@pytest.mark.parametrize("frac", [-0.01, 1.0, 1.5])
def test_threshold_fraction_range(frac):
    with pytest.raises(InvalidInputError):
        threshold_for_sparsity(glorot_init((2, 2), seed=0), frac)


@given(st.floats(min_value=0.0, max_value=0.95), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_threshold_hits_requested_sparsity(frac, seed):
    net = glorot_init((6, 8, 4), seed=seed)
    _, report = prune_by_magnitude(net, threshold_for_sparsity(net, frac))
    # quantile interpolation can land a hair off on small nets
    assert abs(report.sparsity - frac) <= 1.5 / report.total_weights


# ---------------------------------------------------------------------------
# weight quantisation
# ---------------------------------------------------------------------------


def test_quantize_weights_error_bound_per_layer():
    net = glorot_init((8, 6, 3), seed=21)
    q = quantize_weights(net, 8)
    for w, wq, scale in zip(net.weights, q.weights, q.quant.scales):
        assert np.max(np.abs(w - wq)) <= scale / 2 + 1e-12


def test_quantize_weights_idempotent():
    q1 = quantize_weights(glorot_init((5, 5), seed=3), 8)
    q2 = quantize_weights(q1, 8)
    assert all(np.array_equal(a, b) for a, b in zip(q1.weights, q2.weights))
    assert q2.quant.scales == q1.quant.scales


def test_quantize_weights_on_lattice_copies_the_vectors():
    """Re-quantising at the same width gives an equal network on its own
    vectors and tag, so writing one network cannot change the other."""
    q1 = quantize_weights(prune_by_magnitude(glorot_init((5, 5), seed=3), 0.2)[0], 8)
    q2 = quantize_weights(q1, 8)
    assert (q2.params.tobytes(), q2.param_mask.tobytes()) == (q1.params.tobytes(), q1.param_mask.tobytes())
    assert not np.shares_memory(q2.params, q1.params) and not np.shares_memory(q2.param_mask, q1.param_mask)
    assert q2.quant == q1.quant and q2.quant.scales is not q1.quant.scales


def test_quantize_weights_requantise_at_other_width():
    q8 = quantize_weights(glorot_init((5, 5), seed=3), 8)
    q4 = quantize_weights(q8, 4)
    assert q4.quant.bits == 4
    assert not all(np.array_equal(a, b) for a, b in zip(q8.weights, q4.weights))


def test_quantize_weights_keeps_mask_zeros():
    net, _ = prune_by_magnitude(glorot_init((6, 6), seed=5), 0.1)
    q = quantize_weights(net, 8)
    assert np.all(q.weights[0][net.mask[0] == 0] == 0)


def test_quantize_weights_biases_untouched():
    net = glorot_init((4, 3), seed=9)
    net.biases[0][:] = np.pi
    assert np.all(quantize_weights(net, 6).biases[0] == np.pi)


@pytest.mark.parametrize("bits", [1, 17])
def test_quantize_weights_bits_range(bits):
    with pytest.raises(ConfigError):
        quantize_weights(glorot_init((2, 2), seed=0), bits)


# ---------------------------------------------------------------------------
# discretisation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [(-1.0, 0), (0.0, 0), (1.9, 0), (2.0, 1), (5.99, 2), (6.0, 2), (100.0, 2)],
)
def test_discretize_bins_and_clamps(value, expected):
    assert bin_indices(DiscretizationScheme(0.0, 6.0, 3), (value,)) == (expected,)


def test_discretize_rejects_nan():
    with pytest.raises(InvalidInputError):
        bin_indices(DiscretizationScheme(0.0, 1.0, 2), (float("nan"),))
    for bad in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(InvalidInputError):
            bin_indices(DiscretizationScheme(0.0, 1.0, 2), [0.5, bad])


@pytest.mark.parametrize(
    "low,high,levels",
    [
        (1.0, 1.0, 2),
        (2.0, 1.0, 2),
        (0.0, 1.0, 1),
        (0.0, float("inf"), 2),
        (-float("inf"), 0.0, 2),
        (-1e308, 1e308, 2),  # the width overflows
    ],
)
def test_scheme_validation(low, high, levels):
    with pytest.raises(ConfigError):
        DiscretizationScheme(low, high, levels)


@given(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.integers(min_value=2, max_value=12),
)
def test_discretize_always_in_range(value, levels):
    scheme = DiscretizationScheme(-10.0, 10.0, levels)
    (idx,) = bin_indices(scheme, (value,))
    assert 0 <= idx < levels


@pytest.mark.parametrize("value,expected", [(1.7e308, 1), (-1.7e308, 0), (8.9e307, 1)])
def test_discretize_clamps_values_whose_quotient_overflows(value, expected):
    """The bin quotient of these overflows; they used to raise OverflowError
    or ValueError from ``int``."""
    assert bin_indices(DiscretizationScheme(0.0, 1.0, 2), (value,)) == (expected,)


@given(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=2, max_value=50),
)
@settings(max_examples=300)
def test_discretize_matches_reference(value, low, span, levels):
    scheme = DiscretizationScheme(low, low + span, levels)
    try:
        want = reference_discretize(scheme, value)
    except InvalidInputError:
        with pytest.raises(InvalidInputError):
            bin_indices(scheme, (value,))
        return
    except (OverflowError, ValueError):
        # the reference's quotient overflows far outside the range; the
        # value clamps to its edge instead
        want = 0 if value < low else levels - 1
    assert bin_indices(scheme, (value,)) == (want,)
    assert bin_indices(scheme, [value, value]) == (want, want)


# ---------------------------------------------------------------------------
# state aggregation
# ---------------------------------------------------------------------------


def test_aggregate_first_fit_hand_example():
    table = QTable(1, 0.5, {0: np.array([0.0]), 1: np.array([1.0]), 2: np.array([2.0])})
    part = aggregate_states(table, epsilon=1.0)
    assert part.mapping == {0: 0, 1: 0, 2: 1}
    assert part.n_clusters == 2
    assert part.members() == {0: [0, 1], 1: [2]}


def test_aggregate_zero_epsilon_merges_exact_duplicates_only():
    table = QTable(
        2,
        0.5,
        {0: np.array([1.0, 2.0]), 1: np.array([1.0, 2.0]), 2: np.array([1.0, 2.5])},
    )
    part = aggregate_states(table, epsilon=0.0)
    assert part.mapping == {0: 0, 1: 0, 2: 1}


def test_boltzmann_metric_shift_invariant():
    """A constant offset changes no action preference, so the soft policy
    distance is zero while the raw value gap is large."""
    table = QTable(2, 0.5, {0: np.array([0.0, 1.0]), 1: np.array([10.0, 11.0])})
    soft = aggregate_states(table, 1e-9, metric="boltzmann-divergence")
    assert soft.n_clusters == 1
    hard = aggregate_states(table, 1e-9, metric="max-q-gap")
    assert hard.n_clusters == 2


def test_aggregate_validation():
    table = QTable(1, 0.5, {0: np.array([0.0]), 1: np.array([1.0])})
    with pytest.raises(InvalidInputError):
        aggregate_states(table, -0.1)
    with pytest.raises(ConfigError):
        aggregate_states(table, 0.0, metric="cosine")
    with pytest.raises(ConfigError):
        aggregate_states(table, 0.0, metric="boltzmann-divergence", temperature=0.0)


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=20),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60)
def test_zero_epsilon_clusters_are_row_equality_classes(rows):
    table = QTable(2, 0.5, {k: np.array(v, dtype=float) for k, v in rows.items()})
    part = aggregate_states(table, 0.0)
    for a in rows:
        for b in rows:
            same_cluster = part.mapping[a] == part.mapping[b]
            assert same_cluster == (rows[a] == rows[b])


def test_apply_partition_member_mean():
    table = QTable(
        2,
        0.3,
        {0: np.array([1.0, 3.0]), 1: np.array([3.0, 5.0]), 2: np.array([10.0, 0.0])},
    )
    part = aggregate_states(table, epsilon=2.0)
    assert part.mapping == {0: 0, 1: 0, 2: 1}
    merged = apply_partition(table, part)
    np.testing.assert_array_equal(merged.values[0], [2.0, 4.0])
    np.testing.assert_array_equal(merged.values[1], [10.0, 0.0])
    assert merged.n_actions == 2
    assert merged.alpha == 0.3


def test_apply_partition_requires_cover():
    table = QTable(1, 0.5, {0: np.array([0.0]), 1: np.array([5.0])})
    part = aggregate_states(QTable(1, 0.5, {0: np.array([0.0])}), 0.0)
    with pytest.raises(InvalidInputError):
        apply_partition(table, part)


def test_duplicate_rows_survive_merge_unchanged():
    rows = {s: np.array([0.5, -1.0]) for s in range(4)}
    table = QTable(2, 0.5, dict(rows))
    merged = apply_partition(table, aggregate_states(table, 0.0))
    assert len(merged.values) == 1
    np.testing.assert_array_equal(merged.values[0], [0.5, -1.0])
