import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenrl.cloud_loop import (
    CompressionPlan,
    DqnConfig,
    ServiceRequest,
    Session,
    build_state,
    decode_sample_batch,
    decode_snapshot,
    derive_seeds,
    encode_sample_batch,
    encode_snapshot,
    epsilon_linear,
    instantiate,
    run_session,
)
from greenrl.energy import macs_forward
from greenrl.errors import ConfigError, InvalidInputError
from greenrl.neural import ReplayBatch, glorot_init, pack
from greenrl.rach_env import BernoulliTraffic, ExternalTraffic, RachAction, RachConfig
from oracles import (
    Transition,
    reference_decode_sample_batch,
    reference_encode_sample_batch,
    run_centralized_dqn,
)

MENU = (
    RachAction(1, 8, 8),
    RachAction(2, 8, 8),
    RachAction(4, 8, 8),
    RachAction(6, 8, 4),
)


def env_config(**overrides):
    kwargs = {
        "num_devices": 20,
        "action_menu": MENU,
        "history_window": 2,
        "traffic": BernoulliTraffic(0.1),
    }
    kwargs.update(overrides)
    return RachConfig(**kwargs)


def small_dqn(**overrides):
    kwargs = {
        "hidden": (8,),
        "lr": 0.01,
        "batch_size": 4,
        "replay_capacity": 64,
        "target_sync_every": 10,
        "eps_decay_steps": 50,
    }
    kwargs.update(overrides)
    return DqnConfig(**kwargs)


def make_request(**overrides):
    kwargs = {
        "entity_ids": (0,),
        "env_config": env_config(),
        "inner_steps": 4,
        "dqn": small_dqn(),
        "seed": 3,
    }
    kwargs.update(overrides)
    return ServiceRequest(**kwargs)


# ---------------------------------------------------------------------------
# schedule and seed plumbing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "step,expected",
    [(0, 1.0), (25, 0.525), (50, 0.05), (200, 0.05), (-3, 1.0)],
)
def test_epsilon_linear_pinned(step, expected):
    assert epsilon_linear(step, 1.0, 0.05, 50) == pytest.approx(expected)


def test_derive_seeds_structure_and_determinism():
    a = derive_seeds(7, 3)
    b = derive_seeds(7, 3)
    assert [e["env"] for e in a["entities"]] == [e["env"] for e in b["entities"]]
    assert len({e["env"] for e in a["entities"]}) == 3
    # entity streams must not collide with the net/sample streams
    net_a = glorot_init((4, 2), a["net"])
    net_b = glorot_init((4, 2), b["net"])
    assert np.array_equal(net_a.weights[0], net_b.weights[0])


def test_build_state_scales_and_casts():
    out = build_state(np.array([4.0, 8.0]), 8.0, np.float32)
    np.testing.assert_allclose(out, [0.5, 1.0])
    assert out.dtype == np.float32


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_build_state_into_row_rounds_once(dtype):
    """Writing into a preallocated row gives the float64 divide rounded once
    to ``dtype``, bit for bit, and fills only that row."""
    obs = np.random.default_rng(3).integers(0, 50, size=(4, 12)).astype(float)
    rows = np.zeros((5, 12), dtype)
    for i, o in enumerate(obs):
        got = build_state(o, 48.0, dtype, out=rows[i])
        assert np.shares_memory(got, rows[i])
        assert rows[i].tobytes() == (o / 48.0).astype(dtype).tobytes()
        assert build_state(o, 48.0, dtype).tobytes() == rows[i].tobytes()
    assert not rows[4].any()


# ---------------------------------------------------------------------------
# wire encodings
# ---------------------------------------------------------------------------


def test_snapshot_roundtrip():
    net = glorot_init((6, 5, 4), seed=1, dtype=np.float32)
    buf = encode_snapshot(12, 0.375, net, None)
    version, epsilon, decoded = decode_snapshot(buf)
    assert (version, epsilon) == (12, 0.375)
    assert all(np.array_equal(a, b) for a, b in zip(decoded.weights, net.weights))


def test_snapshot_header_is_18_bytes():
    from greenrl.neural import net_to_bytes

    net = glorot_init((3, 2), seed=0, dtype=np.float32)
    assert len(encode_snapshot(1, 0.5, net, None)) == 18 + len(net_to_bytes(net))


def test_snapshot_quantisation_shrinks_payload():
    net = glorot_init((12, 32, 4), seed=2, dtype=np.float32)
    dense = encode_snapshot(1, 0.1, net, None)
    quant = encode_snapshot(1, 0.1, net, 8)
    assert len(quant) < 0.5 * len(dense)
    _, _, decoded = decode_snapshot(quant)
    assert decoded.quant.bits == 8


def test_snapshot_bad_payload():
    net = glorot_init((2, 2), seed=0)
    buf = encode_snapshot(1, 0.5, net, None)
    with pytest.raises(InvalidInputError):
        decode_snapshot(b"NOPE" + buf[4:])
    with pytest.raises(InvalidInputError):
        decode_snapshot(buf[:4] + b"\xff\xff" + buf[6:])


def test_a_learner_session_builds_one_workspace(monkeypatch):
    """At the ``test_c01`` learner settings (batch 128, inner_steps 2, a ring
    of 8,000), a session used to build a fresh learner workspace on every
    step while its replay held fewer than 128 transitions: 64 in 500 rounds.
    It builds one, of 128 rows, and runs its early batches on its first rows."""
    import greenrl.neural as neural
    from greenrl.config import config_from_dict

    built, init = [], neural._Workspace.__init__

    def counted(self, net, n, depth=2):
        built.append(n)
        init(self, net, n, depth)

    monkeypatch.setattr(neural._Workspace, "__init__", counted)
    cloud = {
        "inner_steps": 2, "lr": 0.001, "batch_size": 128, "target_sync_every": 100, "eps_decay_steps": 2500,
        "replay_capacity": 8000,
    }
    cfg = config_from_dict({"agent": "dqn", "rach": {"traffic_p": 0.08}, "cloud": cloud})
    session = Session(cfg.service_request(seed=3))
    for _ in range(500):
        session.run_round()
    assert session.train_steps == 500 and built == [128]


_SNAP_NET = glorot_init((4, 3, 2), seed=5, dtype=np.float32)
_SNAP_DENSE = encode_snapshot(3, 0.25, _SNAP_NET, None)
_SNAP_Q8 = encode_snapshot(3, 0.25, _SNAP_NET, 8)
# Offsets past the 18-byte snapshot header: quant bits at 25, n_dims at 27,
# dims from 28, and a quantised payload's first layer scale at 40.


def _snap_byte(buf, offset, value):
    return buf[:offset] + bytes([value]) + buf[offset + 1 :]


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(_SNAP_DENSE[:10], id="ten-bytes"),
        pytest.param(_SNAP_DENSE[:-1], id="one-byte-short"),
        pytest.param(_snap_byte(_SNAP_Q8, 25, 1), id="quant-bits-1"),
        pytest.param(_snap_byte(_SNAP_Q8, 25, 20), id="quant-bits-20"),
        pytest.param(b"", id="no-bytes"),
        pytest.param(_SNAP_DENSE[:24], id="truncated-net-header"),
        pytest.param(_SNAP_DENSE[:34], id="truncated-dims"),
        pytest.param(_snap_byte(_SNAP_DENSE, 27, 0), id="no-dims"),
        pytest.param(_snap_byte(_SNAP_DENSE, 27, 1), id="one-dim"),
        pytest.param(_SNAP_DENSE[:28] + bytes(4) + _SNAP_DENSE[32:], id="zero-dim"),
        pytest.param(_SNAP_Q8[:40] + bytes(4) + _SNAP_Q8[44:], id="zero-scale"),
        pytest.param(_SNAP_DENSE + b"\x00", id="trailing-byte"),
    ],
)
def test_snapshot_decode_rejects_malformed_payload(payload):
    """After valid decodes of both headers have been kept, each malformed
    payload is still rejected on every call, and the resident network it
    would be decoded into is left as it was."""
    resident = decode_snapshot(_SNAP_DENSE)[2]
    decode_snapshot(_SNAP_Q8)
    before = resident.params.tobytes()
    for _ in range(2):
        with pytest.raises(InvalidInputError):
            decode_snapshot(payload, into=resident)
    assert resident.params.tobytes() == before and resident.quant is None


_VALID_SNAPSHOTS = [
    encode_snapshot(1, 0.5, glorot_init(dims, seed=1, dtype=dtype), bits)
    for dims in [(3, 2), (4, 3, 2)]
    for dtype in (np.float32, np.float64)
    for bits in (None, 2, 8, 9, 16)
]


@given(st.data())
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_snapshot_decode_raises_only_invalid_input(data):
    """Arbitrary bytes, and truncations or byte flips of valid payloads,
    either decode or raise InvalidInputError, never anything else."""
    kind = data.draw(st.sampled_from(["arbitrary", "truncated", "flipped"]))
    if kind == "arbitrary":
        prefix = data.draw(st.sampled_from([b"", _SNAP_DENSE[:4], _SNAP_DENSE[:22], _SNAP_DENSE[:28]]))
        buf = prefix + data.draw(st.binary(max_size=120))
    else:
        base = data.draw(st.sampled_from(_VALID_SNAPSHOTS))
        if kind == "truncated":
            buf = base[: data.draw(st.integers(min_value=0, max_value=len(base) - 1))]
        else:
            flipped = bytearray(base)
            for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
                at = data.draw(st.integers(min_value=0, max_value=len(base) - 1))
                flipped[at] ^= data.draw(st.integers(min_value=1, max_value=255))
            buf = bytes(flipped)
    try:
        decode_snapshot(buf)
    except InvalidInputError:
        pass


def _columns(dim, count, seed=0):
    rng = np.random.default_rng(seed)
    return ReplayBatch(
        rng.normal(size=(count, dim)).astype(np.float32),
        rng.integers(4, size=count),
        rng.normal(size=count).astype(np.float32).astype(np.float64),  # wire precision, so equality is exact
        rng.normal(size=(count, dim)).astype(np.float32),
        rng.integers(2, size=count).astype(np.float64),
    )


def test_batch_roundtrip_f32_exact():
    cols = _columns(6, 5)
    batch = decode_sample_batch(encode_sample_batch(9, 4, cols))
    assert batch.entity_id == 9
    assert batch.snapshot_version == 4
    back = batch.columns
    assert len(back.action) == 5
    for orig, dec in zip(cols, back):
        np.testing.assert_array_equal(dec, orig)
    assert [c.dtype for c in back] == [np.float32, np.uint16, np.float32, np.float32, np.bool_]
    assert not any(c.flags.writeable for c in back[:4])  # views of the payload


def test_batch_byte_budget():
    # header 23 bytes, then per record: 2*dim floats + 1 reward float + u16 + u8
    cols = _columns(6, 5)
    f32 = encode_sample_batch(0, 0, cols)
    assert len(f32) == 23 + 5 * (2 * 6 * 4 + 4 + 3)
    fp16 = encode_sample_batch(0, 0, cols, fp16=True)
    assert len(fp16) == 23 + 5 * (2 * 6 * 2 + 2 + 3)
    assert decode_sample_batch(fp16).byte_size == len(fp16)


def test_batch_fp16_quantisation_error_is_bounded():
    cols = _columns(4, 8, seed=3)
    back = decode_sample_batch(encode_sample_batch(0, 0, cols, fp16=True)).columns
    np.testing.assert_allclose(back.state, cols.state, rtol=1e-3, atol=1e-4)
    np.testing.assert_allclose(back.next_state, cols.next_state, rtol=1e-3, atol=1e-4)
    assert back.state.dtype == back.next_state.dtype == back.reward.dtype == np.float16


def test_batch_payload_validation():
    with pytest.raises(InvalidInputError):
        encode_sample_batch(0, 0, _columns(3, 0))
    ragged = _columns(3, 2)._replace(next_state=np.zeros((2, 4), np.float32))
    with pytest.raises(InvalidInputError):
        encode_sample_batch(0, 0, ragged)
    buf = encode_sample_batch(0, 0, _columns(3, 2))
    with pytest.raises(InvalidInputError):
        decode_sample_batch(buf + b"\x00")
    with pytest.raises(InvalidInputError):
        decode_sample_batch(b"XXXX" + buf[4:])


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8))
@settings(max_examples=30)
def test_batch_roundtrip_any_shape(dim, count):
    cols = _columns(dim, count, seed=dim * 31 + count)
    back = decode_sample_batch(encode_sample_batch(2, 7, cols)).columns
    assert len(back.action) == count
    assert back.state.shape == back.next_state.shape == (count, dim)
    assert back.reward.shape == back.live.shape == (count,)


def _with_count(buf, count):
    """The payload with its header's record count replaced."""
    return buf[:15] + int(count).to_bytes(4, "little") + buf[19:]


_GOOD = encode_sample_batch(1, 2, _columns(3, 4))


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(_GOOD[:-1], id="truncated-record"),
        pytest.param(_GOOD[:20], id="truncated-header"),
        pytest.param(b"", id="no-bytes"),
        pytest.param(_with_count(_GOOD, 5), id="count-past-payload"),
        pytest.param(_with_count(_GOOD, 2**32 - 1), id="count-huge"),
        pytest.param(_GOOD + b"\x00", id="trailing-byte"),
        pytest.param(b"GSNP" + _GOOD[4:], id="bad-magic"),
        pytest.param(_GOOD[:4] + b"\x02\x00" + _GOOD[6:], id="bad-version"),
        pytest.param(_GOOD[:6] + b"\x02" + _GOOD[7:], id="bad-precision-flag"),
        pytest.param(_with_count(_GOOD[:23], 0), id="empty-batch"),
    ],
)
def test_batch_decode_rejects_malformed_payload(payload):
    with pytest.raises(InvalidInputError):
        decode_sample_batch(payload)


@pytest.mark.parametrize(
    "change",
    [
        pytest.param({"state": np.zeros((0, 3)), "next_state": np.zeros((0, 3))}, id="empty-batch"),
        pytest.param({"next_state": np.zeros((4, 2), np.float32)}, id="next-state-width"),
        pytest.param({"state": np.zeros((4, 0)), "next_state": np.zeros((4, 0))}, id="zero-width"),
        pytest.param({"state": np.zeros(4, np.float32)}, id="state-not-2d"),
        pytest.param({"action": np.zeros(3, np.int64)}, id="action-rows"),
        pytest.param({"reward": np.zeros(5)}, id="reward-rows"),
        pytest.param({"live": np.ones(3)}, id="live-rows"),
        pytest.param({"next_state": np.zeros((5, 3), np.float32)}, id="next-state-rows"),
        pytest.param({"action": np.array([0, 1, 65536, 2])}, id="action-above-u16"),
        pytest.param({"action": np.array([0, -1, 2, 3])}, id="action-negative"),
        pytest.param({"action": np.array([0.0, 1.0, 2.0, 3.0])}, id="action-not-integer"),
    ],
)
def test_batch_encode_rejects_malformed_columns(change):
    with pytest.raises(InvalidInputError):
        encode_sample_batch(0, 0, _columns(3, 4)._replace(**change))


def test_batch_encode_rejects_header_out_of_range():
    with pytest.raises(InvalidInputError):
        encode_sample_batch(-1, 0, _columns(3, 4))
    with pytest.raises(InvalidInputError):
        encode_sample_batch(0, 2**32, _columns(3, 4))


def test_batch_encode_accepts_action_bounds():
    cols = _columns(2, 2)._replace(action=np.array([0, 65535], np.uint16))
    back = decode_sample_batch(encode_sample_batch(0, 0, cols)).columns
    assert back.action.tolist() == [0, 65535]


@given(
    data=st.data(),
    dim=st.integers(min_value=1, max_value=12),
    count=st.integers(min_value=1, max_value=64),
    fp16=st.booleans(),
    state_dtype=st.sampled_from([np.float32, np.float64]),
)
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
def test_batch_codec_matches_reference(data, dim, count, fp16, state_dtype):
    """Packed-dtype codec against the record-by-record reference codec.

    Wide-range floats cross float16's overflow and subnormal ranges, and
    rewards are float64 so both encoders must round them the same way.
    About one value in eight sits just above a float16 rounding tie, where
    rounding through float32 first would land on the other side.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    actions = data.draw(st.lists(st.integers(0, 65535), min_size=count, max_size=count), label="actions")
    terminals = data.draw(st.lists(st.booleans(), min_size=count, max_size=count), label="terminals")

    def wide(*shape):
        values = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 6, size=shape)
        near_tie = (1.0 + 2.0**-11 + 2.0**-40) * 2.0 ** rng.integers(-14, 15, size=shape)
        return np.where(rng.random(shape) < 0.125, near_tie * np.sign(values), values)

    states = wide(count + 1, dim).astype(state_dtype)
    rewards = wide(count)
    transitions = [
        Transition(states[i], actions[i], float(rewards[i]), states[i + 1], terminals[i])
        for i in range(count)
    ]
    cols = ReplayBatch(
        states[:-1],
        np.array(actions, dtype=np.int64),
        rewards,
        states[1:],
        1.0 - np.array(terminals, dtype=np.float64),
    )
    payload = encode_sample_batch(3, 17, cols, fp16)
    ref_payload = reference_encode_sample_batch(3, 17, transitions, fp16)
    assert payload == ref_payload

    batch = decode_sample_batch(payload)
    ref = reference_decode_sample_batch(ref_payload)
    assert (batch.entity_id, batch.snapshot_version, batch.byte_size) == (
        ref.entity_id,
        ref.snapshot_version,
        ref.byte_size,
    )
    got = batch.columns
    np.testing.assert_array_equal(got.state, np.stack([t.state for t in ref.transitions]))
    np.testing.assert_array_equal(got.next_state, np.stack([t.next_state for t in ref.transitions]))
    assert got.action.tolist() == [t.action for t in ref.transitions]
    np.testing.assert_array_equal(got.reward, [t.reward for t in ref.transitions])
    assert (got.live == 0).tolist() == [t.terminal for t in ref.transitions]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lr": 0.0},
        {"batch_size": 0},
        {"replay_capacity": 0},
        {"target_sync_every": 0},
        {"eps_start": 1.2},
        {"eps_end": -0.1},
        {"eps_decay_steps": 0},
        {"hidden": ()},
        {"hidden": (4, 0)},
        {"dtype": "float16"},
        {"discount": 1.5},
    ],
)
def test_dqn_config_validation(kwargs):
    with pytest.raises(ConfigError):
        DqnConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"snapshot_bits": 1},
        {"snapshot_bits": 17},
        {"prune_quantile": 1.0},
        {"prune_quantile": -0.1},
        {"prune_at_round": -1},
    ],
)
def test_compression_plan_validation(kwargs):
    with pytest.raises(ConfigError):
        CompressionPlan(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"entity_ids": ()},
        {"entity_ids": (1, 1)},
        {"entity_ids": (0, 1, 0)},
        {"inner_steps": -1},
        {"inner_steps": 0},
    ],
)
def test_service_request_validation(kwargs):
    with pytest.raises(ConfigError):
        make_request(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [
        ("inner_steps", 2.5),
        ("inner_steps", True),
        ("inner_steps", "3"),
        ("entity_ids", (0.5,)),
        ("entity_ids", (-1,)),
        ("entity_ids", (2**40,)),
        ("entity_ids", (True,)),
        ("entity_ids", 3),
        ("seed", "3"),
        ("seed", 1.5),
        ("seed", True),
        ("net_seed", 2.5),
        ("env_config", {"num_devices": 20}),
        ("dqn", {"lr": 1.0}),
        ("compression", None),
        ("mode", "batch"),
        ("mode", None),
    ],
)
def test_service_request_checks_name_the_field(field, value):
    """Each field is checked at construction and its error names it; these
    used to construct and then fail in the session (a raw TypeError or
    AttributeError) or at the first upload's header (an InvalidInputError),
    or, for ``(True,)``, to run."""
    with pytest.raises(ConfigError, match=f"^{field}: must be"):
        make_request(**{field: value})


def test_service_request_accepts_the_u32_edges():
    request = make_request(entity_ids=[0, 2**32 - 1], seed=np.int64(4))
    assert request.entity_ids == (0, 2**32 - 1)
    assert len(run_session(Session(request), rounds=1).rows) == 2


# ---------------------------------------------------------------------------
# session mechanics
# ---------------------------------------------------------------------------


def test_session_network_dimensions():
    session = instantiate(make_request())
    assert session.online.layer_dims == (6, 8, 4)
    assert session.current_epsilon() == 1.0
    assert session.train_steps == 0


def test_outer_round_accounting():
    session = Session(make_request(inner_steps=5))
    batch, (reward_mean, epsilon, snapshot_bytes) = session.outer_round(0)
    cols = batch.columns
    assert len(cols.action) == 5
    assert cols.state.shape == cols.next_state.shape == (5, 6)
    # each slot's next state is the following slot's state; no slot ends an episode
    np.testing.assert_array_equal(cols.next_state[:-1], cols.state[1:])
    np.testing.assert_array_equal(cols.live, np.ones(5))
    # a snapshot is versioned by the train steps taken before it was published
    assert batch.snapshot_version == 0
    assert reward_mean == pytest.approx(np.mean(cols.reward))
    assert snapshot_bytes == len(encode_snapshot(0, epsilon, session.online, None))
    macs = macs_forward(session.entities[0].net)
    inference = [e for e in session.energy.events if e[0] == "inference"]
    assert inference == [("inference", macs, 5)]
    assert session.energy.macs_inference == 5 * macs
    messages = [e for e in session.energy.events if e[0] == "message"]
    assert messages == [("message", snapshot_bytes, "down"), ("message", batch.byte_size, "up")]
    assert len(session.log) == 0  # a lone outer round is not a logged round


def test_upload_carries_the_version_in_the_snapshot_bytes(monkeypatch):
    """The entity reads the snapshot's version from its header, the only
    thing it receives, and stamps its upload with it."""
    import greenrl.cloud_loop as cloud_loop

    real_encode = cloud_loop.encode_snapshot
    monkeypatch.setattr(cloud_loop, "encode_snapshot", lambda version, *rest: real_encode(version + 7, *rest))
    session = Session(make_request())
    assert session.outer_round(0)[0].snapshot_version == 7
    session.train_on_batch(session.outer_round(0)[0])
    assert session.outer_round(0)[0].snapshot_version == 8


def test_session_upload_keeps_the_wire_columns():
    """A session's own upload is parsed, not widened: its columns hold the
    wire's dtypes, and re-encoding them gives back the payload it sent."""
    session = Session(make_request(compression=CompressionPlan(batch_fp16=True)))
    batch, _ = session.outer_round(0)
    cols = batch.columns
    assert [c.dtype for c in cols] == [np.float16, np.uint16, np.float16, np.float16, np.bool_]
    payload = encode_sample_batch(batch.entity_id, batch.snapshot_version, cols, fp16=True)
    assert session.energy.events[-1] == ("message", len(payload), "up") and len(payload) == batch.byte_size
    for sent, again in zip(cols, decode_sample_batch(payload).columns):
        assert sent.dtype == again.dtype and sent.tobytes() == again.tobytes()


@pytest.mark.parametrize("mode", ["lockstep", "concurrent"])
def test_session_uploads_are_parsed_by_decode_sample_batch(monkeypatch, mode):
    """Every upload goes through ``decode_sample_batch``, once per entity
    and round, and what it returns is written into the replay ring."""
    import greenrl.cloud_loop as cloud_loop

    real, parsed = cloud_loop.decode_sample_batch, []

    def counted(buf):
        batch = real(buf)
        parsed.append(batch.entity_id)
        return batch

    monkeypatch.setattr(cloud_loop, "decode_sample_batch", counted)
    session = instantiate(make_request(entity_ids=(0, 1, 2), mode=mode))
    run_session(session, 3)
    assert parsed == [0, 1, 2] * 3
    assert session.log.rounds == len(parsed)
    assert len(session.buffer) == len(parsed) * session.request.inner_steps


def test_outer_round_unknown_entity():
    session = Session(make_request())
    with pytest.raises(InvalidInputError):
        session.outer_round(5)


def test_train_on_batch_counts_and_staleness(monkeypatch):
    session = Session(make_request())
    session.run_round()
    assert session.train_steps == 1
    assert session.log["staleness"] == [0]
    batch, info = session.outer_round(0)
    session.train_on_batch(batch)
    assert session.train_steps == 2 and len(session.log) == 1  # train_on_batch logs nothing
    # replaying that batch in a round, one train step after its snapshot, records lag 1
    monkeypatch.setattr(session, "outer_round", lambda eid: (batch, info))
    session.run_round()
    assert session.train_steps == 3
    assert session.log["staleness"] == [0, 1]
    assert session.log.message_block()["staleness_histogram"] == {"0": 1, "1": 1}


@pytest.mark.parametrize("actions", [[7, 7, 7, 7], [0, 1, 2, 4]])
def test_train_on_batch_rejects_actions_outside_the_outputs(actions):
    """An upload whose action has no network output is refused before the
    ring or the energy ledger is written; it used to reach the learner and
    fail there with a raw IndexError."""
    session = Session(make_request())
    assert session.online.layer_dims[-1] == 4
    cols = _columns(6, 4)._replace(action=np.array(actions))
    batch = decode_sample_batch(encode_sample_batch(0, 0, cols))
    with pytest.raises(InvalidInputError, match="actions must lie in"):
        session.train_on_batch(batch)
    assert session.buffer._ring is None and len(session.buffer) == 0
    assert session.train_steps == 0 and session.energy.events == []


def test_target_sync_cadence():
    session = Session(make_request(dqn=small_dqn(target_sync_every=2)))
    initial_target = [w.copy() for w in session.target.weights]
    batch, _ = session.outer_round(0)
    session.train_on_batch(batch)
    assert all(np.array_equal(a, b) for a, b in zip(session.target.weights, initial_target))
    batch, _ = session.outer_round(0)
    session.train_on_batch(batch)
    assert all(np.array_equal(a, b) for a, b in zip(session.target.weights, session.online.weights))


def test_entity_epsilon_follows_published_schedule():
    session = Session(make_request(dqn=small_dqn(eps_decay_steps=4)))
    seen = []
    for _ in range(5):
        batch, (_reward_mean, epsilon, _snapshot_bytes) = session.outer_round(0)
        seen.append(epsilon)
        session.train_on_batch(batch)
    expected = [epsilon_linear(k, 1.0, 0.05, 4) for k in range(5)]
    assert seen == pytest.approx(expected)


# ---------------------------------------------------------------------------
# run_session
# ---------------------------------------------------------------------------


def _message_totals(energy, direction: str) -> list:
    """The running byte total after each message in one direction, from the energy events."""
    return np.cumsum([e[1] for e in energy.events if e[0] == "message" and e[2] == direction]).tolist()


def test_lockstep_rows_and_determinism():
    metrics_a = run_session(Session(make_request(entity_ids=(0, 1))), rounds=6)
    metrics_b = run_session(Session(make_request(entity_ids=(0, 1))), rounds=6)
    assert len(metrics_a.rows) == 12
    assert metrics_a.rows["round"] == [i // 2 for i in range(12)]
    assert all(s == 0 for s in metrics_a.rows["staleness"])
    # each record carries the byte totals through its own entity's two messages
    assert metrics_a.rows["bytes_down_total"] == _message_totals(metrics_a.energy, "down")
    assert metrics_a.rows["bytes_up_total"] == _message_totals(metrics_a.energy, "up")
    np.testing.assert_array_equal(metrics_a.reward_curve(), metrics_b.reward_curve())
    for a, b in zip(metrics_a.final_net.weights, metrics_b.final_net.weights):
        np.testing.assert_array_equal(a, b)


def test_single_entity_lockstep_matches_centralized_loop():
    """K = 1 with batch 1 over a 1-deep replay collapses the protocol to a
    plain training loop; weights must agree bit for bit."""
    dqn = small_dqn(batch_size=1, replay_capacity=1, target_sync_every=5)
    request = make_request(inner_steps=1, dqn=dqn, seed=11)
    steps = 120
    metrics = run_session(Session(request), rounds=steps)
    log = run_centralized_dqn(request.env_config, dqn, 11, steps)
    final = log[-1]
    n_layers = len(metrics.final_net.weights)
    for i in range(n_layers):
        np.testing.assert_array_equal(metrics.final_net.weights[i], final[i])
        np.testing.assert_array_equal(metrics.final_net.biases[i], final[n_layers + i])


def test_mid_session_pruning():
    plan = CompressionPlan(prune_quantile=0.5, prune_at_round=1)
    session = Session(make_request(compression=plan))
    metrics = run_session(session, rounds=4)
    assert len(metrics.sparsity_reports) == 1
    report = metrics.sparsity_reports[0]
    assert report.nonzero_weights < report.total_weights
    assert metrics.final_net.mask is not None
    # pruned weights stay zero through the remaining training rounds
    for w, m in zip(metrics.final_net.weights, metrics.final_net.mask):
        assert np.all(w[m == 0] == 0)


def _session_state(session):
    """Everything a session carries from one round to the next, as comparable values."""
    ring, mask = session.buffer._ring, session.online.param_mask
    entities = {
        eid: (
            e.env.rng.bit_generator.state, e.env.backlog, e.env.slot, e.env.observation().tobytes(),
            e.action_rng.bit_generator.state, e.obs.tobytes(),
            None if e.net is None else e.net.params.tobytes(),
        )
        for eid, e in session.entities.items()
    }
    return {
        "online": (session.online.params.tobytes(), None if mask is None else mask.tobytes()),
        "target": session.target.params.tobytes(),
        "ring": None if ring is None else [c[: len(session.buffer)].tobytes() for c in ring],
        "ring_position": (session.buffer._head, len(session.buffer)),
        "sample_rng": session.sample_rng.bit_generator.state,
        "train_steps": session.train_steps,
        "entities": entities,
        "energy": session.energy,
        "log": list(session.log),
        "sparsity_reports": session.sparsity_reports,
    }


@pytest.mark.parametrize("mode", ["lockstep", "concurrent"])
@pytest.mark.parametrize("fork_after,prune_at", [(0, 3), (2, 3), (4, 1)])
def test_fork_continues_as_the_parent(monkeypatch, mode, fork_after, prune_at):
    """A fork made after ``fork_after`` rounds and its parent play the same
    later rounds as a session that was never forked: the same round log,
    record by record, parameters, replay rows, ledgers and generator states.
    The fork is made through ``instantiate`` and owns its energy ledger and
    its round log, which start as copies of the parent's."""
    import greenrl.cloud_loop as cloud_loop

    plan = CompressionPlan(snapshot_bits=8, prune_quantile=0.5, prune_at_round=prune_at)
    request = make_request(entity_ids=(0, 1), compression=plan, mode=mode)
    parent, unforked = Session(request), Session(request)
    for _ in range(fork_after):
        parent.run_round()
        unforked.run_round()
        assert list(parent.log) == list(unforked.log)
    assert len(parent.log) == 2 * fork_after
    made = []
    monkeypatch.setattr(cloud_loop, "instantiate", lambda req: made.append(req) or Session(req))
    fork = parent.fork()
    assert made == [request]
    assert fork.energy is not parent.energy
    assert fork.energy.events is not parent.energy.events
    assert fork.buffer is not parent.buffer
    assert fork.log is not parent.log
    assert _session_state(fork) == _session_state(parent)
    for r in range(fork_after, 7):
        for session in (unforked, parent, fork):
            session.run_round()
        assert len(unforked.log) == 2 * (r + 1)
        assert _session_state(parent) == _session_state(unforked)
        assert _session_state(fork) == _session_state(unforked)
    assert len(fork.sparsity_reports) == 1


def test_fork_does_not_share_entity_networks():
    """The entity networks are resident and rewritten in place each round,
    so a fork takes copies: further rounds of the parent leave the fork's
    entity networks as they were at the fork."""
    plan = CompressionPlan(snapshot_bits=8)
    parent = Session(make_request(entity_ids=(0, 1), compression=plan))
    for _ in range(3):
        parent.run_round()
    fork = parent.fork()
    kept = {eid: (e.net.params.tobytes(), e.net.quant) for eid, e in fork.entities.items()}
    logged = list(fork.log)
    for _ in range(3):
        parent.run_round()
    assert list(fork.log) == logged and len(parent.log) == 12
    for eid, e in fork.entities.items():
        mine = parent.entities[eid]
        assert not np.shares_memory(e.net.params, mine.net.params)
        assert not np.shares_memory(e.states, mine.states)
        assert (e.net.params.tobytes(), e.net.quant) == kept[eid]
        assert e.net.params.tobytes() != mine.net.params.tobytes()


@pytest.mark.parametrize("bits", [None, 8])
def test_entity_network_is_resident(bits):
    """Each round decodes the snapshot into the entity's one network: the
    same object and vector every round, never the online one's, and equal
    to a fresh decode of the round's snapshot."""
    session = Session(make_request(compression=CompressionPlan(snapshot_bits=bits)))
    session.run_round()
    net = session.entities[0].net
    params = net.params
    for _ in range(3):
        expected = decode_snapshot(encode_snapshot(0, 0.0, session.online, bits))[2]
        session.run_round()
        assert session.entities[0].net is net and net.params is params
        assert net.params.tobytes() == expected.params.tobytes() and net.quant == expected.quant
        assert not np.shares_memory(params, session.online.params)


@pytest.mark.parametrize("bits", [8, 3])
@pytest.mark.parametrize("mode", ["lockstep", "concurrent"])
def test_every_mac_count_is_that_of_the_network_it_describes(monkeypatch, mode, bits):
    """On a pruned session with quantised snapshots, each inference event
    carries macs_forward of the entity's decoded network, and each train
    step event macs_forward of the online network it updates, although
    each count is taken once per network; the counters reconcile.  At 3
    bits rounding zeroes weights the online network keeps, so the two
    counts differ."""
    from greenrl.energy import EnergyLedger

    seen = []
    for name in ("record_inference", "record_train_step"):
        real = getattr(EnergyLedger, name)

        def spy(ledger, net, n, macs=None, real=real):
            seen.append(macs_forward(net))
            return real(ledger, net, n, macs)

        monkeypatch.setattr(EnergyLedger, name, spy)
    plan = CompressionPlan(snapshot_bits=bits, prune_quantile=0.5, prune_at_round=2)
    session = Session(make_request(entity_ids=(0, 1), compression=plan, mode=mode))
    run_session(session, rounds=8)
    events = [e for e in session.energy.events if e[0] != "message"]
    assert len(events) == len(seen) == 32
    assert [e[1] for e in events] == seen
    if mode == "lockstep":  # each inference is of a snapshot of the next train step's network
        pairs = list(zip(events[::2], events[1::2]))
        assert all((i[0], t[0]) == ("inference", "train_step") and i[1] <= t[1] for i, t in pairs)
        assert any(i[1] < t[1] for i, t in pairs) == (bits == 3)
    recomputed = session.energy.recompute_from_events()
    assert recomputed == {k: v for k, v in session.energy.snapshot().items() if k != "energy_proxy"}


def test_compressed_wire_is_smaller():
    base = run_session(Session(make_request(seed=21)), rounds=5)
    plan = CompressionPlan(snapshot_bits=8, batch_fp16=True)
    comp = run_session(Session(make_request(seed=21, compression=plan)), rounds=5)
    assert comp.rows.bytes_down < base.rows.bytes_down
    assert comp.rows.bytes_up < base.rows.bytes_up


def test_concurrent_mode_preserves_accounting():
    """Concurrent rounds keep every ledger identity, are deterministic, and
    are stale by exactly the entity's position in its round."""

    def run():
        session = Session(make_request(entity_ids=(0, 1, 2), mode="concurrent"))
        return session, run_session(session, rounds=4)

    session, metrics = run()
    assert len(metrics.rows) == 12
    assert session.train_steps == 12
    hist = metrics.rows.message_block()["staleness_histogram"]
    assert sum(hist.values()) == 12
    # every entity acts on one train step's snapshot; the i-th upload of a
    # round is trained on i steps later
    assert hist == {"0": 4, "1": 4, "2": 4}
    assert metrics.rows["staleness"] == [0, 1, 2] * 4
    assert metrics.rows["entity"] == [0, 1, 2] * 4
    assert metrics.rows["round"] == [i // 3 for i in range(12)]
    recomputed = session.energy.recompute_from_events()
    assert recomputed["bytes_wire"] == session.energy.bytes_wire
    assert metrics.rows.bytes_down + metrics.rows.bytes_up == session.energy.bytes_wire
    # every record of a round carries the totals after all of that round's messages
    for column, direction in (("bytes_down_total", "down"), ("bytes_up_total", "up")):
        totals = _message_totals(session.energy, direction)
        assert metrics.rows[column] == [totals[3 * (i // 3) + 2] for i in range(12)]
    _, again = run()
    assert len(again.rows) == 12
    assert list(again.rows) == list(metrics.rows)
    for a, b in zip(again.final_net.weights, metrics.final_net.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(again.final_net.biases, metrics.final_net.biases):
        np.testing.assert_array_equal(a, b)


def test_concurrent_failing_entity_raises():
    env = env_config(traffic=ExternalTraffic(lambda slot: -1))
    session = Session(make_request(entity_ids=(0, 1, 2), env_config=env, mode="concurrent"))
    with pytest.raises(InvalidInputError):
        run_session(session, rounds=3)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_outer_round_rejects_non_finite_snapshot():
    session = Session(make_request())
    weights = [w.copy() for w in session.online.weights]
    weights[0][0, 0] = np.inf
    session.online = pack(session.online.layer_dims, weights, session.online.biases)
    with pytest.raises(InvalidInputError):
        session.outer_round(0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", ["snapshot", "states"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_non_finite_values_raise_without_a_numpy_warning(dtype, where, bad):
    """Each finiteness check is one dot product with zeros, whose NaN marks a
    value that is not finite; it raises the typed error and no numpy warning."""
    session = Session(make_request(dqn=small_dqn(dtype=dtype, eps_start=1.0, eps_end=1.0)))
    if where == "snapshot":
        biases = [b.copy() for b in session.online.biases]
        biases[0][0] = bad
        session.online = pack(session.online.layer_dims, session.online.weights, biases)
    else:
        env = session.entities[0].env
        real_step = env.step

        def step(action):
            obs, reward, outcome = real_step(action)
            obs = obs.copy()
            obs[0] = bad
            return obs, reward, outcome

        env.step = step
    with pytest.raises(InvalidInputError, match=f"^{where}( parameters)? must be finite$"):
        session.outer_round(0)


@pytest.mark.parametrize("epsilon,forward_calls", [(1.0, 0), (0.0, 6)])
def test_exploring_slots_skip_the_forward_pass(monkeypatch, epsilon, forward_calls):
    """An exploring slot takes its action without running the network, but
    the ledger still credits the round's K inferences to the entity."""
    import greenrl.cloud_loop as cloud_loop

    calls, real_forward = [], cloud_loop.forward

    def counted(net, state):
        calls.append(1)
        return real_forward(net, state)

    monkeypatch.setattr(cloud_loop, "forward", counted)
    session = Session(make_request(inner_steps=6, dqn=small_dqn(eps_start=epsilon, eps_end=epsilon)))
    batch, (_reward_mean, acted_at, snapshot_bytes) = session.outer_round(0)
    assert acted_at == epsilon
    assert len(calls) == forward_calls
    macs = macs_forward(session.online)
    assert session.energy.events == [
        ("message", snapshot_bytes, "down"),
        ("inference", macs, 6),
        ("message", batch.byte_size, "up"),
    ]
    assert session.energy.macs_inference == 6 * macs


def test_run_session_validation():
    session = Session(make_request())
    with pytest.raises(InvalidInputError):
        run_session(session, rounds=0)
    assert len(session.log) == 0 and session.energy.events == []  # nothing ran


@pytest.mark.parametrize("mode", ["lockstep", "concurrent"])
def test_a_session_numbers_its_own_rounds(mode):
    """Rounds played one at a time through ``run_round`` equal one
    ``run_session`` call, numbered 0..R-1 by the session, and a fork
    continues the numbering of the rounds it inherits."""
    request = make_request(entity_ids=(0, 1), mode=mode)
    stepped, whole = Session(request), Session(request)
    for _ in range(5):
        stepped.run_round()
    run_session(whole, 5)
    assert _session_state(stepped) == _session_state(whole)
    assert stepped.log["round"] == [i // 2 for i in range(10)]
    fork = stepped.fork()
    run_session(fork, 2)
    assert fork.log["round"] == [i // 2 for i in range(14)]
    assert stepped.log["round"] == [i // 2 for i in range(10)]


def test_a_session_driven_in_pieces_prunes_once():
    """Pruning follows the session's own round count: 5 rounds and then 6
    more prune once, after round 10, as one 11-round call does.  It used
    to be skipped, without a word, in any call of fewer than 11 rounds."""
    plan = CompressionPlan(prune_quantile=0.5, prune_at_round=10)
    pieces, whole = Session(make_request(compression=plan)), Session(make_request(compression=plan))
    assert run_session(pieces, 5).sparsity_reports == []  # fewer rounds than prune_at_round + 1: dense
    assert pieces.online.param_mask is None
    metrics = run_session(pieces, 6)
    run_session(whole, 11)
    assert len(metrics.sparsity_reports) == 1 and metrics.final_net.param_mask is not None
    assert _session_state(pieces) == _session_state(whole)


def test_metrics_terminal_reward_tail():
    """The tail is of the records' rewards, not of the per-round curve: here
    one round of five entities, whose curve is the single value 2.4."""
    from greenrl.cloud_loop import RoundLog, SessionMetrics
    from greenrl.energy import EnergyLedger

    rows = RoundLog(5)
    for entity, reward in enumerate([0, 0, 0, 4, 8]):
        rows.append(0, entity, float(reward), 0.0, 0.0, 0, 0, 0)
    metrics = SessionMetrics(rows, EnergyLedger(), None, [])
    assert metrics.terminal_reward(0.4) == pytest.approx(6.0)
    assert metrics.terminal_reward(0.01) == pytest.approx(8.0)  # at least one row
