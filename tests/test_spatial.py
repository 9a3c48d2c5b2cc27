import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenrl.compression import prune_by_magnitude, threshold_for_sparsity
from greenrl.errors import ConfigError, InvalidInputError
from greenrl.neural import glorot_init, pack
from greenrl.spatial import (
    FieldNoise,
    FieldTrafficSource,
    Kernel,
    SpatialField,
    _rates,
    estimate_correlation,
    quadrature_matrix,
    side_step,
    transfer_weights,
)


def scalar_nets(*values, dtype=np.float64):
    """One-weight nets holding a single constant each."""
    return [
        pack(
            (1, 1),
            [np.array([[v]], dtype=dtype)],
            [np.array([v], dtype=dtype)],
        )
        for v in values
    ]


# ---------------------------------------------------------------------------
# kernel and field containers
# ---------------------------------------------------------------------------


def test_kernel_pinned_value():
    k = Kernel(2.0, 1.0)
    assert k(0.0) == pytest.approx(2.0)
    assert k(1.0) == pytest.approx(2.0 * math.exp(-0.5))
    np.testing.assert_allclose(k(np.array([0.0, 2.0])), [2.0, 2.0 * math.exp(-2.0)])


@pytest.mark.parametrize("a,ell", [(-0.1, 1.0), (1.0, 0.0), (1.0, -2.0), (float("nan"), 1.0)])
def test_kernel_validation(a, ell):
    with pytest.raises(ConfigError):
        Kernel(a, ell)


def test_line_field_midpoints():
    fld = SpatialField.line(4, 8.0)
    np.testing.assert_allclose(fld.sites.ravel(), [1.0, 3.0, 5.0, 7.0])
    assert fld.dx == 2.0
    assert fld.n_sites == 4
    assert np.all(fld.z == 0)


def test_field_validation():
    with pytest.raises(ConfigError):
        SpatialField.line(0, 1.0)
    with pytest.raises(ConfigError):
        SpatialField([0.0, 1.0], np.zeros(3), 1.0)
    with pytest.raises(ConfigError):
        SpatialField([0.0], np.zeros(1), 0.0)
    with pytest.raises(InvalidInputError):
        SpatialField([0.0], np.array([float("inf")]), 1.0)


def test_quadrature_matrix_symmetric_with_amplitude_diagonal():
    fld = SpatialField.line(5, 5.0, z0=0.0)
    k = quadrature_matrix(fld, Kernel(0.7, 1.3))
    assert k.shape == (5, 5)
    np.testing.assert_allclose(k, k.T)
    np.testing.assert_allclose(np.diag(k), 0.7)


# ---------------------------------------------------------------------------
# field dynamics
# ---------------------------------------------------------------------------


def test_side_step_single_site_hand_values():
    fld = SpatialField(np.array([0.0]), np.array([2.0]), 0.5)
    k = Kernel(3.0, 1.0)
    assert side_step(fld, k, f="identity").z[0] == pytest.approx(3.0)
    assert side_step(fld, k, f="squash").z[0] == pytest.approx(1.5 * math.tanh(2.0))
    assert side_step(fld, k, f=lambda z: z**2).z[0] == pytest.approx(6.0)


@pytest.mark.parametrize("tag", ["identity", "squash"])
def test_side_step_matches_double_loop(tag):
    from oracles import brute_force_side_step

    rng = np.random.default_rng(3)
    fld = SpatialField.line(9, 12.0, z0=rng.normal(size=9))
    fn = (lambda z: z) if tag == "identity" else np.tanh
    want = brute_force_side_step(fld.sites, fld.z, fld.dx, 0.4, 1.7, fn)
    got = side_step(fld, Kernel(0.4, 1.7), f=tag).z
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_side_step_unknown_tag():
    fld = SpatialField.line(2, 2.0)
    with pytest.raises(ConfigError):
        side_step(fld, Kernel(1.0, 1.0), f="linear")


def test_side_step_overflow_detected():
    fld = SpatialField(np.array([0.0]), np.array([1e308]), 1.0)
    with np.errstate(over="ignore"), pytest.raises(InvalidInputError):
        side_step(fld, Kernel(10.0, 1.0), f="identity")


def test_side_step_returns_new_field():
    fld = SpatialField.line(3, 3.0, z0=1.0)
    out = side_step(fld, Kernel(0.1, 1.0))
    assert out is not fld
    assert np.all(fld.z == 1.0)


def test_silent_noise_is_exact_and_consumes_nothing():
    quiet = FieldNoise(0.0, seed=42)
    assert np.all(quiet.draw(5) == 0.0)
    # the generator state never advances, so a later nonzero draw from the
    # same seed matches a fresh generator
    loud = FieldNoise(1.0, seed=42)
    np.testing.assert_array_equal(loud.draw(3), np.random.default_rng(42).normal(0, 1.0, 3))


def test_noise_reproducible_and_validated():
    a, b = FieldNoise(0.5, seed=7), FieldNoise(0.5, seed=7)
    np.testing.assert_array_equal(a.draw(4), b.draw(4))
    with pytest.raises(ConfigError):
        FieldNoise(-0.1)


def test_side_step_noise_matches_manual_addition():
    fld = SpatialField.line(4, 4.0, z0=0.3)
    k = Kernel(0.2, 1.0)
    drift = side_step(fld, k, f="identity").z
    noisy = side_step(fld, k, f="identity", noise=FieldNoise(0.5, seed=9)).z
    np.testing.assert_allclose(noisy - drift, FieldNoise(0.5, seed=9).draw(4))


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------


def test_intensity_log_link():
    np.testing.assert_allclose(_rates(2.0, np.array([0.0, math.log(3.0)])), [2.0, 6.0])


def test_intensity_validation():
    with pytest.raises(ConfigError):
        FieldTrafficSource(SpatialField.line(2, 2.0), Kernel(0.1, 1.0), "identity", FieldNoise(0.0), 0.0)
    with np.errstate(over="ignore"), pytest.raises(InvalidInputError):
        _rates(1.0, np.array([1000.0]))


def test_sample_traffic_matches_poisson_mean():
    """Two sites too far apart to interact hold z = 0 and z = log 3 under an
    identity step of unit gain, so their counts average mu and 3 mu."""
    field = SpatialField(np.array([0.0, 100.0]), np.array([0.0, math.log(3.0)]), 1.0)
    src = FieldTrafficSource(field, Kernel(1.0, 1.0), "identity", FieldNoise(0.0), 0.8, seed=1)
    src.counts_at(19999)
    assert src.field.z.tobytes() == field.z.tobytes()
    np.testing.assert_allclose(src.history().mean(axis=0), [0.8, 2.4], rtol=0.02)


def test_source_caches_one_realisation_per_slot():
    src = FieldTrafficSource(
        SpatialField.line(6, 6.0),
        Kernel(0.3, 1.5),
        "identity",
        FieldNoise(0.4, seed=2),
        base_rate=1.0,
        seed=5,
    )
    out_of_order = src.counts_at(3)
    np.testing.assert_array_equal(src.counts_at(3), out_of_order)
    assert src.history().shape == (4, 6)
    # two consumers of the same site see the same stream
    s_a, s_b = src.stream_region((2,)), src.stream_region((2,))
    assert [s_a(i) for i in range(4)] == [s_b(i) for i in range(4)]


def test_stream_region_sums_member_sites():
    src = FieldTrafficSource(
        SpatialField.line(5, 5.0),
        Kernel(0.3, 1.0),
        "squash",
        FieldNoise(0.3, seed=8),
        base_rate=1.2,
        seed=11,
    )
    region = src.stream_region([0, 2, 4])
    for slot in range(6):
        counts = src.counts_at(slot)
        assert region(slot) == counts[0] + counts[2] + counts[4]
    hist = src.region_history([[0, 2, 4], [1, 3]])
    assert hist.shape == (6, 2)
    np.testing.assert_array_equal(hist[:, 0], src.history()[:, [0, 2, 4]].sum(axis=1))


def test_stream_validation():
    src = FieldTrafficSource(
        SpatialField.line(3, 3.0), Kernel(0.1, 1.0), "identity", FieldNoise(0.0), 1.0
    )
    with pytest.raises(InvalidInputError):
        src.stream_region((3,))
    with pytest.raises(InvalidInputError):
        src.stream_region([])
    with pytest.raises(InvalidInputError):
        src.stream_region([0, 5])
    with pytest.raises(InvalidInputError):
        src.counts_at(-1)


def test_burn_in_advances_the_field():
    def make(burn):
        return FieldTrafficSource(
            SpatialField.line(4, 4.0, z0=0.5),
            Kernel(0.3, 1.0),
            "squash",
            FieldNoise(0.2, seed=3),
            base_rate=1.0,
            burn_in=burn,
        )

    manual = SpatialField.line(4, 4.0, z0=0.5)
    noise = FieldNoise(0.2, seed=3)
    for _ in range(2):
        manual = side_step(manual, Kernel(0.3, 1.0), "squash", noise)
    np.testing.assert_array_equal(make(2).field.z, manual.z)
    assert not np.array_equal(make(0).field.z, manual.z)


# ---------------------------------------------------------------------------
# correlation estimation and kernel recovery
# ---------------------------------------------------------------------------


def test_correlation_pinned_cases():
    t = np.arange(10.0)
    history = np.stack([t, 2 * t, -t, np.ones(10)], axis=1)
    cm = estimate_correlation(history)
    assert cm.values[0, 1] == pytest.approx(1.0)
    assert cm.values[0, 2] == pytest.approx(-1.0)
    assert cm.zero_variance_sites == (3,)
    assert np.all(cm.values[3] == 0) and np.all(cm.values[:, 3] == 0)
    assert cm.values[3, 3] == 0.0  # degenerate series zero even on the diagonal


def test_correlation_all_constant():
    cm = estimate_correlation(np.ones((5, 3)))
    assert cm.zero_variance_sites == (0, 1, 2)
    assert np.all(cm.values == 0)


def test_correlation_validation():
    with pytest.raises(InvalidInputError):
        estimate_correlation(np.ones((1, 4)))
    with pytest.raises(InvalidInputError):
        estimate_correlation(np.full((3, 2), np.nan))
    with pytest.raises(InvalidInputError):
        estimate_correlation(np.zeros(5))


# ---------------------------------------------------------------------------
# correlation-gated transfer
# ---------------------------------------------------------------------------


def test_transfer_pinned_two_agent_blend():
    """rho = 0.5 gives Z = 0.5, w = 1/3, so the peer share is beta * w / 1 = 1/6."""
    nets = scalar_nets(0.0, 1.0)
    corr = np.array([[1.0, 0.5], [0.5, 1.0]])
    out = transfer_weights(nets, corr, beta=0.5)
    assert out[0].weights[0][0, 0] == pytest.approx(1.0 / 6.0)
    assert out[1].weights[0][0, 0] == pytest.approx(5.0 / 6.0)
    assert out[0].biases[0][0] == pytest.approx(1.0 / 6.0)


def test_transfer_full_correlation_full_beta_averages():
    nets = scalar_nets(2.0, 4.0)
    corr = np.ones((2, 2))
    out = transfer_weights(nets, corr, beta=1.0)
    for net in out:
        assert net.weights[0][0, 0] == pytest.approx(3.0)


def test_transfer_zero_beta_and_negative_correlation_are_identity():
    nets = scalar_nets(1.0, 9.0)
    np.testing.assert_array_equal(
        transfer_weights(nets, np.ones((2, 2)), 0.0)[0].weights[0], nets[0].weights[0]
    )
    anti = np.array([[1.0, -0.9], [-0.9, 1.0]])
    np.testing.assert_array_equal(
        transfer_weights(nets, anti, 1.0)[1].weights[0], nets[1].weights[0]
    )


def test_transfer_outputs_are_copies():
    nets = scalar_nets(1.0, 1.0)
    out = transfer_weights(nets, np.ones((2, 2)), 0.0)
    out[0].weights[0][0, 0] = 99.0
    assert nets[0].weights[0][0, 0] == 1.0


def test_transfer_reapplies_own_mask_and_drops_quant():
    from greenrl.compression import quantize_weights

    a = quantize_weights(glorot_init((3, 2), seed=0), 8)
    a, _ = prune_by_magnitude(a, 0.2)
    b = glorot_init((3, 2), seed=1)
    out = transfer_weights([a, b], np.ones((2, 2)), beta=1.0)
    assert np.all(out[0].weights[0][a.mask[0] == 0] == 0)
    assert out[0].quant is None
    assert out[1].mask is None  # b never had one


def test_transfer_preserves_dtype():
    nets = scalar_nets(1.0, 2.0, dtype=np.float32)
    out = transfer_weights(nets, np.ones((2, 2)), beta=0.7)
    assert out[0].dtype == np.float32


@pytest.mark.parametrize("pruned", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_transfer_matches_reference(dtype, pruned):
    """Whole-vector blending against the per-layer reference, bit for bit,
    masks included, over random agent counts, correlations and beta."""
    from oracles import reference_transfer_weights

    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        nets = [glorot_init((5, 6, 3), seed=int(rng.integers(1000)), dtype=dtype) for _ in range(n)]
        nets = [
            pack(net.layer_dims, net.weights, [rng.normal(size=b.shape).astype(dtype) for b in net.biases])
            for net in nets
        ]
        if pruned:
            nets = [prune_by_magnitude(net, threshold_for_sparsity(net, 0.5))[0] for net in nets]
        corr = rng.uniform(-1.0, 1.0, (n, n))
        corr = (corr + corr.T) / 2
        np.fill_diagonal(corr, 1.0)
        beta = float(rng.choice([0.0, 0.3, 1.0]))
        got, want = transfer_weights(nets, corr, beta), reference_transfer_weights(nets, corr, beta)
        for g, w in zip(got, want):
            assert g.params.tobytes() == w.params.tobytes()
            # an unchanged agent (beta 0, or no positive correlation) is a copy too
            assert not any(np.shares_memory(g.params, net.params) for net in nets)
            assert not pruned or not any(np.shares_memory(g.param_mask, net.param_mask) for net in nets)
            assert (g.mask is None) == (w.mask is None) == (not pruned)
            if pruned:
                assert g.param_mask.tobytes() == w.param_mask.tobytes()


def test_transfer_validation():
    nets = scalar_nets(0.0, 1.0)
    with pytest.raises(InvalidInputError):
        transfer_weights(nets, np.ones((3, 3)), 0.5)
    with pytest.raises(InvalidInputError):
        transfer_weights(nets, np.ones((2, 2)), 1.5)
    odd = scalar_nets(0.0) + [glorot_init((2, 2), seed=0)]
    with pytest.raises(InvalidInputError):
        transfer_weights(odd, np.ones((2, 2)), 0.5)


@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=4),
    st.floats(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60)
def test_transfer_is_convex_combination(consts, beta, seed):
    """Blends of constant-parameter agents stay inside the constants' hull."""
    nets = scalar_nets(*consts)
    n = len(consts)
    rng = np.random.default_rng(seed)
    corr = rng.uniform(-1, 1, size=(n, n))
    corr = (corr + corr.T) / 2
    np.fill_diagonal(corr, 1.0)
    for net in transfer_weights(nets, corr, beta):
        v = net.weights[0][0, 0]
        assert min(consts) - 1e-9 <= v <= max(consts) + 1e-9


# ---------------------------------------------------------------------------
# the source's built-once propagator against the per-step reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dx", [float("nan"), float("inf")])
def test_field_rejects_non_finite_dx(dx):
    with pytest.raises(ConfigError):
        SpatialField([0.0], np.zeros(1), dx)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_noise_rejects_non_finite_sigma(sigma):
    with pytest.raises(ConfigError):
        FieldNoise(sigma)


def make_source(cls=FieldTrafficSource, **overrides):
    args = {
        "field": SpatialField.line(4, 4.0, z0=0.2),
        "kernel": Kernel(0.3, 1.0),
        "squash": "identity",
        "noise": FieldNoise(0.2, seed=3),
        "base_rate": 1.0,
        "seed": 5,
        "burn_in": 0,
    }
    args.update(overrides)
    return cls(**args)


def test_source_rejects_unknown_squash_at_construction():
    with pytest.raises(ConfigError, match="squash"):
        make_source(squash="linear")


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_source_rejects_bad_base_rate_at_construction(rate):
    with pytest.raises(ConfigError, match="base_rate"):
        make_source(base_rate=rate)


def test_cached_counts_are_read_only():
    src = make_source()
    first = src.counts_at(0)
    kept = first.copy()
    with pytest.raises(ValueError):
        src.counts_at(0)[:] = 99
    with pytest.raises(ValueError):
        first[0] = 99
    np.testing.assert_array_equal(src.counts_at(0), kept)
    np.testing.assert_array_equal(src.history()[0], kept)


def test_silent_noise_still_clears_negative_zero():
    """A field decaying into underflow reaches -0.0; adding sigma-0 noise makes it +0.0."""
    from oracles import ReferenceFieldTrafficSource

    kwargs = {
        "field": SpatialField(np.array([0.0]), np.array([-5e-324]), 0.5),
        "kernel": Kernel(1.0, 1.0),
        "noise": FieldNoise(0.0),
        "burn_in": 1,
    }
    src, ref = make_source(**kwargs), make_source(ReferenceFieldTrafficSource, **kwargs)
    assert ref.field.z.tobytes() == np.zeros(1).tobytes()
    assert src.field.z.tobytes() == ref.field.z.tobytes()
    np.testing.assert_array_equal(src.counts_at(2), ref.counts_at(2))
    assert src.field.z.tobytes() == ref.field.z.tobytes()


def test_quadrature_matrix_built_once_per_source(monkeypatch):
    import greenrl.spatial as spatial

    calls = []
    original = spatial.quadrature_matrix

    def counting(field, kernel):
        calls.append(1)
        return original(field, kernel)

    monkeypatch.setattr(spatial, "quadrature_matrix", counting)
    src = make_source(burn_in=7)
    for slot in (12, 3, 40):
        src.counts_at(slot)
    src.stream_region([0, 3])(55)
    assert len(calls) == 1


def _outcomes(fn, slots):
    """``fn(slot)`` per requested slot, up to and including the first that raised."""
    out = []
    for slot in slots:
        try:
            out.append(fn(slot))
        except ValueError as exc:
            out.append(exc)
            break
    return out


def _slot_outcomes(src, slots):
    """Counts per requested slot, up to and including the first that raised."""
    return _outcomes(lambda slot: src.counts_at(slot).tolist(), slots)


def assert_same_outcomes(got, want):
    """Equal counts and an error at the same slot; the source's is always typed.

    The reference lets numpy's bare ValueError through when a finite rate is
    too large for the Poisson sampler.
    """
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, ValueError):
            assert isinstance(g, InvalidInputError)
        else:
            assert g == w


@pytest.mark.parametrize(
    "z0,amplitude,want_slot",
    [
        (1.0, 10.0, 1),  # e**100 is finite but too large a Poisson rate
        (0.04, 1000.0, 1),  # e**40000 overflows
        (1e308, 10.0, 0),  # the matvec itself overflows
    ],
)
def test_overflow_raises_at_the_reference_slot(z0, amplitude, want_slot):
    from oracles import ReferenceFieldTrafficSource

    kwargs = {
        "field": SpatialField(np.array([0.0]), np.array([z0]), 1.0),
        "kernel": Kernel(amplitude, 1.0),
        "noise": FieldNoise(0.0),
    }
    with np.errstate(over="ignore", invalid="ignore"):
        got = _slot_outcomes(make_source(**kwargs), range(10))
        want = _slot_outcomes(make_source(ReferenceFieldTrafficSource, **kwargs), range(10))
    assert_same_outcomes(got, want)
    assert len(got) == want_slot + 1 and isinstance(got[-1], InvalidInputError)


@given(
    n_sites=st.integers(min_value=1, max_value=16),
    length=st.floats(min_value=0.5, max_value=40.0),
    amplitude=st.floats(min_value=0.0, max_value=0.3),
    length_scale=st.floats(min_value=0.1, max_value=3.0),
    squash=st.sampled_from(["identity", "squash", "sin"]),
    sigma=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
    burn_in=st.integers(min_value=0, max_value=50),
    base_rate=st.floats(min_value=0.05, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    slots=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_source_matches_reference_bit_for_bit(
    n_sites, length, amplitude, length_scale, squash, sigma, burn_in, base_rate, seed, slots
):
    from oracles import ReferenceFieldTrafficSource

    fn = np.sin if squash == "sin" else squash
    z0 = np.random.default_rng(seed).normal(0.0, 0.5, size=n_sites)

    def build(cls):
        return cls(
            SpatialField.line(n_sites, length, z0=z0),
            Kernel(amplitude, length_scale),
            fn,
            FieldNoise(sigma, seed=seed),
            base_rate,
            seed=seed + 1,
            burn_in=burn_in,
        )

    with np.errstate(over="ignore", invalid="ignore"):
        src, ref = build(FieldTrafficSource), build(ReferenceFieldTrafficSource)
        assert src.field.z.tobytes() == ref.field.z.tobytes()
        got, want = _slot_outcomes(src, slots), _slot_outcomes(ref, slots)
    assert_same_outcomes(got, want)
    assert src.field.z.tobytes() == ref.field.z.tobytes()
    assert src.history().tobytes() == ref.history().tobytes()
    assert src.history().shape == ref.history().shape
    cells = [list(range(0, n_sites, 2)), [n_sites - 1]]
    if len(src.history()):
        np.testing.assert_array_equal(src.region_history(cells), ref.region_history(cells))
        region, ref_region = src.stream_region(cells[0]), ref.stream_region(cells[0])
        # a slot whose intensity overflowed raises here too, as it did above
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_outcomes(_outcomes(region, slots), _outcomes(ref_region, slots))
