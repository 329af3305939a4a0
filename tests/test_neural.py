import math
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from bullyguard import neural
from bullyguard.corpus import load_corpus
from bullyguard.eval import prepare_neural_data
from bullyguard.neural import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    BLOCK_NAMES,
    PAD_ID,
    UNK_ID,
    EarlyStopper,
    NeuralError,
    NeuralNetParams,
    TrainConfig,
    adam_step,
    batch_loss,
    build_neural_vocab,
    encode_batch,
    encode_pad,
    forward_classify,
    init_adam_state,
    init_params,
    iter_batches,
    predict_batch,
    train,
)
from bullyguard.neural import (
    _attention_core,
    _backprop_lstm,
    _backward_from_cache,
    _embedding_grad,
    _encoder_states,
    _forward_batch,
    _lstm_gates,
    _pack,
    _run_lstm,
    _token_passes,
)
from bullyguard.preprocess import PipelineConfig, Preprocessor
from bullyguard.rng import Rng
from gradcheck import backward, gradient_check

TINY = TrainConfig(embedding_dim=4, hidden_dim=3, attention_dim=3, batch_size=2)
DEFAULT = TrainConfig()  # its min_freq and max_len_cap build each vocabulary


def tiny_params(seed=7, use_attention=True, vocab_size=10):
    return init_params(vocab_size, TINY, use_attention, Rng(seed))


def keyword_task(n=16, seq_len=4, seed=123):
    """Label 0 iff the keyword appears; trivially separable."""
    words = ["kamu", "dia", "foto", "lagu", "bagus", "suka", "halo", "oke"]
    rng = Rng(seed)
    token_lists, labels = [], []
    for i in range(n):
        toks = [words[rng.randbelow(len(words))] for _ in range(seq_len)]
        if i % 2 == 0:
            toks[rng.randbelow(seq_len)] = "jelek"
        token_lists.append(toks)
        labels.append(0 if i % 2 == 0 else 1)
    return token_lists, np.asarray(labels, dtype=np.int64)


# ----------------------------------------------------------------------------
# vocabulary and encoding
# ----------------------------------------------------------------------------

def test_vocab_frequency_order():
    vocab = build_neural_vocab([["a", "b", "a"]], DEFAULT.min_freq, DEFAULT.max_len_cap)
    assert vocab.token_to_id == {"a": 2, "b": 3}
    assert vocab.size == 4


def test_vocab_tie_breaks_lexicographic():
    vocab = build_neural_vocab([["zz", "aa"], ["zz", "aa"]], DEFAULT.min_freq, DEFAULT.max_len_cap)
    assert vocab.token_to_id == {"aa": 2, "zz": 3}


def test_vocab_min_freq_excludes_rare():
    vocab = build_neural_vocab([["a", "b", "a"]], min_freq=2, max_len_cap=DEFAULT.max_len_cap)
    assert "b" not in vocab.token_to_id
    ids, length = encode_pad(["a", "b"], vocab)
    assert ids[:2] == [2, UNK_ID] and length == 2


def test_vocab_percentile_rule():
    lists = [["x"] * n for n in (3, 5, 10, 12)]
    assert build_neural_vocab(lists, DEFAULT.min_freq, DEFAULT.max_len_cap).max_seq_len == 12
    long_lists = [["x"] * 50] * 5
    capped = build_neural_vocab(long_lists, DEFAULT.min_freq, DEFAULT.max_len_cap)
    assert capped.max_seq_len == 40


def test_vocab_rejects_empty():
    with pytest.raises(NeuralError):
        build_neural_vocab([], DEFAULT.min_freq, DEFAULT.max_len_cap)
    with pytest.raises(NeuralError):
        build_neural_vocab([[], []], DEFAULT.min_freq, DEFAULT.max_len_cap)


def test_vocab_rejects_min_freq_that_no_token_reaches():
    vocab = build_neural_vocab([["a", "b", "a"]], min_freq=2, max_len_cap=DEFAULT.max_len_cap)
    assert vocab.size == 3  # "a" alone is kept
    with pytest.raises(NeuralError, match=r"^no token reaches min_freq=3$"):
        build_neural_vocab([["a", "b", "a"]], min_freq=3, max_len_cap=DEFAULT.max_len_cap)


def test_encode_pad_spec_case():
    vocab = build_neural_vocab([["a", "c", "a", "b"]], DEFAULT.min_freq, DEFAULT.max_len_cap)
    vocab = vocab._replace(max_seq_len=4)
    ids, length = encode_pad(["a", "zzz"], vocab)
    assert ids == [2, UNK_ID, PAD_ID, PAD_ID]
    assert length == 2


def test_encode_pad_truncates():
    vocab = build_neural_vocab([["a"] * 50] * 20, DEFAULT.min_freq, DEFAULT.max_len_cap)
    assert vocab.max_seq_len == 40
    ids, length = encode_pad(["a"] * 50, vocab)
    assert length == 40 and len(ids) == 40


def test_encode_empty_is_all_pad():
    vocab = build_neural_vocab([["a", "b"]], DEFAULT.min_freq, DEFAULT.max_len_cap)
    ids, length = encode_pad([], vocab)
    assert length == 0 and all(i == PAD_ID for i in ids)


# ----------------------------------------------------------------------------
# parameter layout
# ----------------------------------------------------------------------------

def lstm_of(params, direction):
    """One direction's w, u and b blocks (the arrays themselves) as attributes."""
    return SimpleNamespace(**{kind: params.blocks[f"{direction}.{kind}"] for kind in "wub"})


def gate(arr, k, h):
    """Gate k's columns (0 i, 1 f, 2 o, 3 g) of a fused (..., 4H) array."""
    return arr[..., k * h:(k + 1) * h]


def test_init_gate_columns_replay_the_per_gate_draws():
    d, h, a, vocab_size = 5, 3, 2, 11
    config = TrainConfig(embedding_dim=d, hidden_dim=h, attention_dim=a)
    init_rng = Rng(9)
    params = init_params(vocab_size, config, True, init_rng)
    oracle = Rng(9)

    def xavier(fan_in, fan_out, shape):
        limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
        return oracle.uniform_array(shape, -limit, limit)

    np.testing.assert_array_equal(params.blocks["embedding"],
                                  oracle.uniform_array((vocab_size, d), -0.05, 0.05))
    for block in (lstm_of(params, "fwd"), lstm_of(params, "bwd")):
        for k in range(4):  # i, f, o, g, one draw each, all of w before u
            np.testing.assert_array_equal(gate(block.w, k, h), xavier(d, h, (d, h)))
        for k in range(4):
            np.testing.assert_array_equal(gate(block.u, k, h), xavier(h, h, (h, h)))
        np.testing.assert_array_equal(block.b, [0.0] * h + [1.0] * h + [0.0] * (2 * h))
    np.testing.assert_array_equal(params.blocks["att.w"], xavier(2 * h, a, (2 * h, a)))
    np.testing.assert_array_equal(params.blocks["att.v"], xavier(a, 1, (a,)))
    np.testing.assert_array_equal(params.blocks["head.w"], xavier(2 * h, 2, (2 * h, 2)))
    assert init_rng.next_u64() == oracle.next_u64()  # the same number of draws


def test_blocks_are_twelve_fused_arrays_keyed_by_block_names():
    params = tiny_params()
    d, h = TINY.embedding_dim, TINY.hidden_dim
    shapes = {name: arr.shape for name, arr in params.blocks.items()}
    assert list(shapes) == list(BLOCK_NAMES) and len(shapes) == 12
    for direction in ("fwd", "bwd"):
        assert shapes[f"{direction}.w"] == (d, 4 * h)
        assert shapes[f"{direction}.u"] == (h, 4 * h)
        assert shapes[f"{direction}.b"] == (4 * h,)
    rebuilt = NeuralNetParams(dict(params.blocks), params.use_attention)
    assert rebuilt.use_attention == params.use_attention
    for (name, a), (_, b) in zip(params.blocks.items(), rebuilt.blocks.items()):
        assert a is b, name
    copied = params.copy()
    for (name, a), (_, b) in zip(params.blocks.items(), copied.blocks.items()):
        assert a is not b and np.array_equal(a, b), name


def lstm_cell(x_t, h_prev, c_prev, block):
    """One step of the packed core's gate arithmetic, as (h_t, c_t)."""
    gates = x_t @ block.w + h_prev @ block.u + block.b
    c_t, h_t = (np.empty(gates.shape[:-1] + (block.u.shape[0],)) for _ in range(2))
    _lstm_gates(gates, c_prev, c_t, h_t)
    return h_t, c_t


def bilstm_forward(ids, valid_len, params):
    """The packed core's encoder states for one sequence: (T, 2H), zeros at
    padded positions. Without attention a zero valid_len is allowed."""
    ids = np.asarray(ids, dtype=np.int64).reshape(1, -1)
    cache = _forward_batch(ids, [valid_len], params._replace(use_attention=False))
    states = _encoder_states(cache.pack, cache.fwd, cache.bwd, 1)[0]
    return np.pad(states, ((0, ids.shape[1] - states.shape[0]), (0, 0)))


def test_lstm_cell_matches_per_gate_oracle():
    params = tiny_params(seed=4)
    block, h = lstm_of(params, "bwd"), TINY.hidden_dim
    rng = Rng(8)
    x = rng.uniform_array((6, TINY.embedding_dim), -1, 1)
    h_prev = rng.uniform_array((6, h), -1, 1)
    c_prev = rng.uniform_array((6, h), -1, 1)

    def pre(k):
        return x @ gate(block.w, k, h) + h_prev @ gate(block.u, k, h) + gate(block.b, k, h)

    def sigma(z):
        return 1.0 / (1.0 + np.exp(-z))

    i, f, o, g = sigma(pre(0)), sigma(pre(1)), sigma(pre(2)), np.tanh(pre(3))
    c_want = f * c_prev + i * g
    h_got, c_got = lstm_cell(x, h_prev, c_prev, block)
    # one fused GEMM and four per-gate ones may differ in the last ulp
    np.testing.assert_allclose(c_got, c_want, rtol=1e-13, atol=1e-16)
    np.testing.assert_allclose(h_got, o * np.tanh(c_want), rtol=1e-13, atol=1e-16)


# ----------------------------------------------------------------------------
# cells and forward passes
# ----------------------------------------------------------------------------

def _scalar_block(w=1.0, u=1.0, b=0.0):
    # H = D = 1: every gate's column of w, u and b holds the same value
    return SimpleNamespace(w=np.full((1, 4), w), u=np.full((1, 4), u), b=np.full(4, b))


def test_lstm_cell_zero_everything():
    block = _scalar_block(w=0.0, u=0.0, b=0.0)
    h, c = lstm_cell(np.zeros(1), np.zeros(1), np.zeros(1), block)
    assert h[0] == 0.0 and c[0] == 0.0


def test_lstm_cell_forget_saturation_carries_memory():
    block = _scalar_block(w=0.0, u=0.0, b=0.0)
    gate(block.b, 1, 1)[:] = 50.0  # forget gate saturated open, input gate at 1/2, g = 0
    c_prev = np.asarray([0.8])
    _, c = lstm_cell(np.zeros(1), np.zeros(1), c_prev, block)
    assert c[0] == pytest.approx(0.8, abs=1e-9)


def test_lstm_cell_scalar_hand_trace():
    # independent scalar arithmetic with unit weights
    def sigma(z):
        return 1.0 / (1.0 + math.exp(-z))

    block = _scalar_block(w=1.0, u=1.0, b=0.0)
    h1, c1 = lstm_cell(np.asarray([1.0]), np.zeros(1), np.zeros(1), block)
    i1 = f1 = o1 = sigma(1.0)
    g1 = math.tanh(1.0)
    c1_hand = i1 * g1
    h1_hand = o1 * math.tanh(c1_hand)
    assert c1[0] == pytest.approx(c1_hand, abs=1e-12)
    assert h1[0] == pytest.approx(h1_hand, abs=1e-12)
    # second step exercises the recurrent term and memory
    h2, c2 = lstm_cell(np.asarray([0.5]), h1, c1, block)
    pre = 0.5 + h1_hand
    i2 = f2 = o2 = sigma(pre)
    g2 = math.tanh(pre)
    c2_hand = f2 * c1_hand + i2 * g2
    assert c2[0] == pytest.approx(c2_hand, abs=1e-12)
    assert h2[0] == pytest.approx(o2 * math.tanh(c2_hand), abs=1e-12)


def test_lstm_cell_broadcasts_over_batch():
    params = tiny_params()
    x = Rng(1).uniform_array((5, 4), -1, 1)
    h = np.zeros((5, 3))
    c = np.zeros((5, 3))
    fwd = lstm_of(params, "fwd")
    h_all, c_all = lstm_cell(x, h, c, fwd)
    # batched GEMM and single-row matvec may differ in the last ulp
    for row in range(5):
        h_one, c_one = lstm_cell(x[row], h[row], c[row], fwd)
        np.testing.assert_allclose(h_all[row], h_one, rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(c_all[row], c_one, rtol=1e-13, atol=1e-16)


def test_bilstm_zero_valid_len_all_zero():
    params = tiny_params()
    states = bilstm_forward([2, 3, 4], 0, params)
    assert states.shape == (3, 6)
    np.testing.assert_array_equal(states, np.zeros((3, 6)))


def test_bilstm_padded_positions_zero():
    params = tiny_params()
    states = bilstm_forward([2, 3, 4, 0, 0], 3, params)
    np.testing.assert_array_equal(states[3:], np.zeros((2, 6)))
    assert np.abs(states[:3]).sum() > 0


def test_bilstm_length_one_single_step():
    params = tiny_params()
    states = bilstm_forward([5], 1, params)
    x = params.blocks["embedding"][5]
    h_f, c_f = lstm_cell(x, np.zeros(3), np.zeros(3), lstm_of(params, "fwd"))
    h_b, c_b = lstm_cell(x, np.zeros(3), np.zeros(3), lstm_of(params, "bwd"))
    np.testing.assert_allclose(states[0, :3], h_f, atol=1e-15)
    np.testing.assert_allclose(states[0, 3:], h_b, atol=1e-15)


def test_bilstm_mirrored_params_reverse_palindrome():
    params = tiny_params()
    for kind in ("w", "u", "b"):  # both directions share weights
        params.blocks[f"bwd.{kind}"][:] = params.blocks[f"fwd.{kind}"]
    ids = [2, 5, 7, 5, 2]  # palindrome
    states = bilstm_forward(ids, 5, params)
    fwd_half, bwd_half = states[:, :3], states[:, 3:]
    # backward outputs are the forward outputs at mirrored positions
    np.testing.assert_allclose(bwd_half, fwd_half[::-1], atol=1e-12)


def attention(states, valid_len, params):  # one row through the batched attention
    context, weights, _ = _attention_core(np.asarray(states)[None], [valid_len], params)
    return context[0], weights[0]


def test_attention_singleton_and_uniform():
    params = tiny_params()
    states = Rng(3).uniform_array((4, 6), -1, 1)
    _, weights = attention(states, 1, params)
    np.testing.assert_array_equal(weights, [1.0, 0.0, 0.0, 0.0])
    same = np.tile(states[0], (4, 1))
    _, weights_uniform = attention(same, 3, params)
    np.testing.assert_allclose(weights_uniform[:3], 1 / 3, atol=1e-12)
    assert weights_uniform[3] == 0.0


def test_attention_hand_case():
    params = tiny_params()
    params.blocks["att.w"] = np.asarray([[0.5], [1.0]])
    params.blocks["att.b"] = np.asarray([0.1])
    params.blocks["att.v"] = np.asarray([2.0])
    states = np.asarray([[1.0, 0.0], [0.0, 1.0]])
    context, weights = attention(states, 2, params)
    e1 = 2.0 * math.tanh(0.5 * 1.0 + 0.1)
    e2 = 2.0 * math.tanh(1.0 * 1.0 + 0.1)
    z = math.exp(e1) + math.exp(e2)
    a1, a2 = math.exp(e1) / z, math.exp(e2) / z
    np.testing.assert_allclose(weights, [a1, a2], atol=1e-12)
    np.testing.assert_allclose(context, [a1, a2], atol=1e-12)


def test_attention_empty_sequence_error():
    params = tiny_params()
    with pytest.raises(NeuralError, match="attention over empty sequence"):
        forward_classify([0, 0], 0, params)


def test_attention_invariants_random():
    params = tiny_params()
    rng = Rng(11)
    for _ in range(50):
        t = 2 + rng.randbelow(6)
        valid = 1 + rng.randbelow(t)
        states = rng.uniform_array((t, 6), -2, 2)
        _, weights = attention(states, valid, params)
        assert np.all(weights >= 0.0)
        assert weights[:valid].sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_array_equal(weights[valid:], np.zeros(t - valid))


def test_forward_zero_head_gives_even_logits():
    params = tiny_params()
    params.blocks["head.w"][:] = 0.0
    params.blocks["head.b"][:] = 0.0
    logits = forward_classify([2, 3], 2, params)
    np.testing.assert_array_equal(logits, [0.0, 0.0])


def test_forward_deterministic():
    params = tiny_params()
    a = forward_classify([2, 3, 4], 3, params)
    b = forward_classify([2, 3, 4], 3, params)
    np.testing.assert_array_equal(a, b)


def test_padding_invariance_bit_exact():
    for use_attention in (True, False):
        params = tiny_params(seed=5, use_attention=use_attention)
        rng = Rng(13)
        for _ in range(40):
            length = 1 + rng.randbelow(5)
            ids = [2 + rng.randbelow(8) for _ in range(length)]
            base = forward_classify(ids, length, params)
            for extra in (1, 3, 7):
                padded = ids + [PAD_ID] * extra
                np.testing.assert_array_equal(
                    forward_classify(padded, length, params), base)


def cross_entropy(logits, label):
    """batch_loss of a one-row batch."""
    return batch_loss(SimpleNamespace(logits=np.asarray([logits])), np.asarray([label]))


def test_cross_entropy_cases():
    assert cross_entropy(np.asarray([0.0, 0.0]), 0) == pytest.approx(math.log(2.0))
    assert cross_entropy(np.asarray([0.0, 0.0]), 1) == pytest.approx(math.log(2.0))
    assert cross_entropy(np.asarray([1000.0, -1000.0]), 0) == pytest.approx(0.0, abs=1e-12)
    assert cross_entropy(np.asarray([1.0, 2.0]), 1) == pytest.approx(math.log(1 + math.exp(-1.0)))


# ----------------------------------------------------------------------------
# gradients
# ----------------------------------------------------------------------------

def _tiny_batch(seed=21):
    rng = Rng(seed)
    ids = np.asarray([[2, 3, 4, 5, 0], [6, 7, 8, 0, 0]])
    lens = np.asarray([4, 3])
    labels = np.asarray([0, 1])
    return ids, lens, labels


def test_backward_mean_invariance_under_duplication():
    params = tiny_params()
    ids, lens, labels = _tiny_batch()
    grads_once = backward((ids, lens, labels), params)
    grads_twice = backward((
        np.concatenate([ids, ids]), np.concatenate([lens, lens]),
        np.concatenate([labels, labels]),
    ), params)
    for name in grads_once:
        np.testing.assert_allclose(grads_twice[name], grads_once[name],
                                   rtol=1e-12, atol=1e-15)


def test_backward_head_bias_is_mean_softmax_error():
    params = tiny_params()
    ids, lens, labels = _tiny_batch()
    grads = backward((ids, lens, labels), params)
    logits = np.vstack([
        forward_classify(ids[i], int(lens[i]), params) for i in range(2)
    ])
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(probs)
    onehot[np.arange(2), labels] = 1.0
    np.testing.assert_allclose(grads["head.b"], (probs - onehot).mean(axis=0), atol=1e-12)


def test_backward_pad_embedding_row_zero():
    params = tiny_params()
    ids, lens, labels = _tiny_batch()
    grads = backward((ids, lens, labels), params)
    np.testing.assert_array_equal(grads["embedding"][PAD_ID], np.zeros(4))
    # unused vocabulary rows also receive no gradient
    np.testing.assert_array_equal(grads["embedding"][9], np.zeros(4))


def test_gradient_check_head_only_linear():
    # zeroed recurrent weights leave the head as the only active path
    params = tiny_params(use_attention=False)
    h = TINY.hidden_dim
    for block in (lstm_of(params, "fwd"), lstm_of(params, "bwd")):
        block.w[:] = 0.0
        block.u[:] = 0.0
        gate(block.b, 3, h)[:] = 0.7
        gate(block.b, 2, h)[:] = 0.3
        gate(block.b, 1, h)[:] = 0.0
        gate(block.b, 0, h)[:] = 0.0
    # 48 is every coordinate of the fused LSTM blocks (w is 4 x 12)
    report = gradient_check(params, _tiny_batch(), n_per_block=48, seed=2)
    assert report.per_block["head.w"] < 1e-7
    assert report.per_block["head.b"] < 1e-7


def test_gradient_check_full_tiny_network():
    params = tiny_params(seed=11)
    params.blocks["embedding"] *= 20.0  # O(1) inputs keep gradients clear of fd noise
    params.blocks["att.w"] *= 3.0
    params.blocks["att.v"] *= 3.0
    params.blocks["head.w"] *= 3.0
    rng = Rng(12)
    params.blocks["att.b"][:] = [rng.uniform(-0.8, 0.8) for _ in range(3)]
    # 48 is every coordinate of the fused LSTM blocks (w is 4 x 12)
    report = gradient_check(params, _tiny_batch(), n_per_block=48, seed=3)
    assert report.max_rel_error < 1e-4


def test_gradient_check_larger_h_degrades():
    params = tiny_params(seed=11)
    params.blocks["embedding"] *= 20.0
    batch = _tiny_batch()
    fine = gradient_check(params, batch, h=1e-5, n_per_block=48, seed=3)
    coarse = gradient_check(params, batch, h=1e-1, n_per_block=48, seed=3)
    assert coarse.max_rel_error > fine.max_rel_error


def test_backward_rejects_empty_and_reports_block():
    params = tiny_params()
    params.blocks["head.w"][:] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NeuralError, match="non-finite gradient"):
            backward(_tiny_batch(), params)


# ----------------------------------------------------------------------------
# the masked recurrence: the reference for the packed core
# ----------------------------------------------------------------------------

@dataclass
class MaskedStep:
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray   # (B, 4H) activated i, f, o, g
    tanh_c: np.ndarray
    m: np.ndarray       # (B, 1) 0/1 mask


def masked_run_lstm(x, mask, block):
    """Every step over all B padded rows; masked steps carry the state through
    unchanged and emit zeros. (outputs (B,T,H), final h (B,H), steps)."""
    b, t_max, _ = x.shape
    h_dim = block.u.shape[0]
    h, c = np.zeros((b, h_dim)), np.zeros((b, h_dim))
    outputs = np.zeros((b, t_max, h_dim))
    steps = []
    for t in range(t_max):
        xt, m = x[:, t, :], mask[:, t][:, None]
        gates = xt @ block.w + h @ block.u + block.b
        gates[:, :3 * h_dim] = 1.0 / (1.0 + np.exp(-gates[:, :3 * h_dim]))
        gates[:, 3 * h_dim:] = np.tanh(gates[:, 3 * h_dim:])
        i, f, o, g = (gate(gates, k, h_dim) for k in range(4))
        c_cand = f * c + i * g
        tanh_c = np.tanh(c_cand)
        h_cand = o * tanh_c
        steps.append(MaskedStep(xt, h, c, gates, tanh_c, m))
        outputs[:, t, :] = m * h_cand
        h = m * h_cand + (1.0 - m) * h
        c = m * c_cand + (1.0 - m) * c
    return outputs, h, steps


def masked_backprop_lstm(steps, block, d_out, d_final):
    """(dx (B,T,D), {"w", "u", "b"}) of masked_run_lstm's steps."""
    b, h_dim = steps[0].h_prev.shape
    grads = {kind: np.zeros_like(getattr(block, kind)) for kind in ("w", "u", "b")}
    dh = d_final.copy() if d_final is not None else np.zeros((b, h_dim))
    dc = np.zeros((b, h_dim))
    dx = np.zeros((b, len(steps), block.w.shape[0]))
    for t in range(len(steps) - 1, -1, -1):
        st, m = steps[t], steps[t].m
        i, f, o, g = (gate(st.gates, k, h_dim) for k in range(4))
        g_hcand = m * (dh + d_out[:, t, :])
        dc_cand = m * dc + g_hcand * o * (1.0 - st.tanh_c ** 2)
        da = np.concatenate([dc_cand * g, dc_cand * st.c_prev, g_hcand * st.tanh_c,
                             dc_cand * i * (1.0 - g ** 2)], axis=1)
        sig = st.gates[:, :3 * h_dim]
        da[:, :3 * h_dim] = da[:, :3 * h_dim] * sig * (1.0 - sig)
        dc = dc_cand * f + (1.0 - m) * dc
        grads["w"] += st.x.T @ da
        grads["u"] += st.h_prev.T @ da
        grads["b"] += da.sum(axis=0)
        dx[:, t, :] = da @ block.w.T
        dh = (1.0 - m) * dh + da @ block.u.T
    return dx, grads


def masked_model(ids, lens, labels, params):
    """The whole network on the masked recurrence: (states, features, logits,
    gradients keyed by BLOCK_NAMES)."""
    h_dim = params.hidden_dim
    t_max = max(1, int(lens.max()))
    ids = ids[:, :t_max]
    mask = (np.arange(t_max)[None, :] < lens[:, None]).astype(np.float64)
    p = params.blocks
    fwd, bwd = lstm_of(params, "fwd"), lstm_of(params, "bwd")
    x = p["embedding"][ids]
    fwd_out, fwd_final, fwd_steps = masked_run_lstm(x, mask, fwd)
    bwd_rev, bwd_final, bwd_steps = masked_run_lstm(x[:, ::-1], mask[:, ::-1], bwd)
    states = np.concatenate([fwd_out, bwd_rev[:, ::-1]], axis=2)
    if params.use_attention:
        features, alpha, u = _attention_core(states, lens, params)
    else:
        features = np.concatenate([fwd_final, bwd_final], axis=1)
    logits = features @ p["head.w"] + p["head.b"]

    b = len(labels)
    d_logits = np.exp(logits - logits.max(axis=1, keepdims=True))
    d_logits /= d_logits.sum(axis=1, keepdims=True)
    d_logits[np.arange(b), labels] -= 1.0
    d_logits /= b
    d_features = d_logits @ p["head.w"].T
    grads = {"att.w": np.zeros_like(p["att.w"]), "att.v": np.zeros_like(p["att.v"]),
             "att.b": np.zeros_like(p["att.b"])}
    d_states = np.zeros_like(states)
    d_fwd_final = d_bwd_final = None
    if params.use_attention:
        d_alpha = np.einsum("bh,bth->bt", d_features, states)
        d_scores = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True))
        d_z = d_scores[:, :, None] * p["att.v"][None, None, :] * (1.0 - u ** 2)
        grads["att.v"] = np.einsum("bta,bt->a", u, d_scores)
        grads["att.w"] = np.einsum("bth,bta->ha", states, d_z)
        grads["att.b"] = d_z.sum(axis=(0, 1))
        d_states = alpha[:, :, None] * d_features[:, None, :] + d_z @ p["att.w"].T
    else:
        d_fwd_final, d_bwd_final = d_features[:, :h_dim], d_features[:, h_dim:]
    dx_fwd, g_fwd = masked_backprop_lstm(fwd_steps, fwd, d_states[:, :, :h_dim], d_fwd_final)
    dx_bwd, g_bwd = masked_backprop_lstm(bwd_steps, bwd, d_states[:, ::-1, h_dim:], d_bwd_final)
    dx = dx_fwd + dx_bwd[:, ::-1]
    d_embedding = np.zeros_like(p["embedding"])
    np.add.at(d_embedding, ids.reshape(-1), dx.reshape(-1, params.embedding_dim))
    grads.update({"embedding": d_embedding, "head.w": features.T @ d_logits,
                  "head.b": d_logits.sum(axis=0)})
    for direction, g in (("fwd", g_fwd), ("bwd", g_bwd)):
        grads.update({f"{direction}.{kind}": g[kind] for kind in ("w", "u", "b")})
    return states, features, logits, grads


PACK_CASES = {
    "mixed_with_ones": ([5, 3, 1, 4, 1, 2], 7),
    "all_equal": ([4, 4, 4], 4),
    "one_row": ([3], 5),
    "zero_length_row": ([3, 0, 2], 4),
}


@pytest.mark.parametrize("case, use_attention", [
    (case, use_attention) for case in sorted(PACK_CASES) for use_attention in (False, True)
    if not (use_attention and 0 in PACK_CASES[case][0])  # attention rejects empty rows
])
def test_packed_core_matches_masked_oracle(case, use_attention):
    lens, width = PACK_CASES[case]
    params = tiny_params(seed=8, use_attention=use_attention)
    params.blocks["embedding"] *= 10.0  # O(1) inputs, so no state is near zero
    rng = Rng(31)
    lens = np.asarray(lens)
    ids = np.zeros((len(lens), width), dtype=np.int64)
    for row, n in enumerate(lens):
        ids[row, :n] = [2 + rng.randbelow(8) for _ in range(n)]
    labels = np.asarray([row % 2 for row in range(len(lens))])
    states, features, logits, grads_want = masked_model(ids, lens, labels, params)

    cache = _forward_batch(ids, lens, params)
    states_got = _encoder_states(cache.pack, cache.fwd, cache.bwd, len(lens))
    width_got = states_got.shape[1]
    np.testing.assert_array_equal(states[:, width_got:], 0.0)
    np.testing.assert_allclose(states_got, states[:, :width_got], rtol=1e-12, atol=0)
    np.testing.assert_allclose(cache.features, features, rtol=1e-12, atol=0)
    np.testing.assert_allclose(cache.logits, logits, rtol=1e-12, atol=0)
    grads = _backward_from_cache(cache, labels, params)
    for name in BLOCK_NAMES:
        np.testing.assert_allclose(grads[name], grads_want[name], rtol=1e-12, atol=0,
                                   err_msg=name)


def per_gate_backprop(steps, block, d_out, d_final):
    """Reference LSTM backward, one gate at a time: (dx, {"w", "u", "b"})."""
    b, h = steps[0].h_prev.shape
    grads = {kind: np.zeros_like(getattr(block, kind)) for kind in ("w", "u", "b")}
    dh = d_final.copy()
    dc = np.zeros((b, h))
    dx = np.zeros((b, len(steps), block.w.shape[0]))
    for t in range(len(steps) - 1, -1, -1):
        st = steps[t]
        i, f, o, g = (gate(st.gates, k, h) for k in range(4))
        g_hcand = st.m * (dh + d_out[:, t, :])
        dc_cand = st.m * dc + g_hcand * o * (1.0 - st.tanh_c ** 2)
        da = [dc_cand * g * i * (1.0 - i), dc_cand * st.c_prev * f * (1.0 - f),
              g_hcand * st.tanh_c * o * (1.0 - o), dc_cand * i * (1.0 - g ** 2)]
        dc = dc_cand * f + (1.0 - st.m) * dc
        dh = (1.0 - st.m) * dh
        for k, a in enumerate(da):
            gate(grads["w"], k, h)[:] += st.x.T @ a
            gate(grads["u"], k, h)[:] += st.h_prev.T @ a
            gate(grads["b"], k, h)[:] += a.sum(axis=0)
            dx[:, t, :] += a @ gate(block.w, k, h).T
            dh += a @ gate(block.u, k, h).T
    return dx, grads


def test_backprop_matches_per_gate_oracle():
    params = tiny_params(seed=6)
    rng = Rng(17)
    b, t_max, h = 3, 5, TINY.hidden_dim
    lens = np.asarray([5, 3, 1])
    x = rng.uniform_array((b, t_max, TINY.embedding_dim), -1, 1)
    mask = (np.arange(t_max)[None, :] < lens[:, None]).astype(np.float64)
    d_out = rng.uniform_array((b, t_max, h), -1, 1)
    d_final = rng.uniform_array((b, h), -1, 1)
    fwd = lstm_of(params, "fwd")
    _, _, steps = masked_run_lstm(x, mask, fwd)
    dx_want, want = per_gate_backprop(steps, fwd, d_out, d_final)
    # the packed core takes the final-state gradient on each row's last output
    pack = _pack(lens)
    d_h = d_out[pack.rows, pack.cols]
    d_h[pack.rev[:pack.first]] += d_final[pack.rows[:pack.first]]
    x_packed = x[pack.rows, pack.cols]
    run = _run_lstm(x_packed @ fwd.w + fwd.b, pack, fwd.u)
    dx_packed, *grad = _backprop_lstm(run, x_packed, pack, fwd.w, fwd.u, d_h)
    dx = np.zeros_like(dx_want)
    dx[pack.rows, pack.cols] = dx_packed
    # one fused GEMM sums over all four gates at once, so the last ulps may differ
    np.testing.assert_allclose(dx, dx_want, rtol=1e-12, atol=1e-15)
    for kind, got in zip(("w", "u", "b"), grad):
        np.testing.assert_allclose(got, want[kind], rtol=1e-12, atol=1e-15, err_msg=kind)


# ----------------------------------------------------------------------------
# Adam
# ----------------------------------------------------------------------------

def test_adam_zero_gradient_no_change():
    params = tiny_params()
    before = {name: arr.copy() for name, arr in params.blocks.items()}
    state = init_adam_state(params)
    grads = {name: np.zeros_like(arr) for name, arr in params.blocks.items()}
    adam_step(params, grads, state, TINY)
    for name, arr in params.blocks.items():
        np.testing.assert_array_equal(arr, before[name])
    assert state.t == 1


def test_adam_first_step_is_signed_lr():
    params = tiny_params()
    state = init_adam_state(params)
    grads = {name: np.zeros_like(arr) for name, arr in params.blocks.items()}
    grads["head.b"] = np.asarray([3.0, -0.5])
    before = params.blocks["head.b"].copy()
    adam_step(params, grads, state, TINY)
    delta = params.blocks["head.b"] - before
    np.testing.assert_allclose(delta, [-TINY.learning_rate, TINY.learning_rate], rtol=1e-6)


def test_adam_in_place_is_bit_identical_to_the_plain_formula():
    cfg = TrainConfig(embedding_dim=4, hidden_dim=3, attention_dim=3, learning_rate=0.01)
    params = tiny_params(seed=9)
    want = {name: arr.copy() for name, arr in params.blocks.items()}
    m = {name: np.zeros_like(arr) for name, arr in want.items()}
    v = {name: np.zeros_like(arr) for name, arr in want.items()}
    state = init_adam_state(params)
    rng = Rng(10)
    for t in range(1, 6):
        grads = {name: rng.uniform_array(arr.shape, -2, 2) for name, arr in want.items()}
        adam_step(params, grads, state, cfg)
        for name, g in grads.items():
            m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
            v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m[name] / (1.0 - ADAM_BETA1 ** t)
            v_hat = v[name] / (1.0 - ADAM_BETA2 ** t)
            want[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    assert state.t == 5
    for name, arr in params.blocks.items():
        np.testing.assert_array_equal(arr, want[name], err_msg=name)
        np.testing.assert_array_equal(state.m[name], m[name], err_msg=name)
        np.testing.assert_array_equal(state.v[name], v[name], err_msg=name)


def test_adam_statefulness():
    # two unit steps differ from one double step
    def run(grad_values):
        params = tiny_params(seed=3)
        state = init_adam_state(params)
        for g in grad_values:
            grads = {name: np.zeros_like(arr) for name, arr in params.blocks.items()}
            grads["head.b"] = np.asarray([g, g])
            adam_step(params, grads, state, TINY)
        return params.blocks["head.b"].copy()

    assert not np.allclose(run([1.0, 1.0]), run([2.0]))


# ----------------------------------------------------------------------------
# early stopping and training
# ----------------------------------------------------------------------------

def drive_stopper(losses, patience=3, threshold=1e-4, max_epochs=None):
    stopper = EarlyStopper(patience, threshold)
    stopped = 0
    for epoch, loss in enumerate(losses, start=1):
        stopped = epoch
        _, stop = stopper.update(epoch, loss)
        if stop:
            break
        if max_epochs is not None and epoch >= max_epochs:
            break
    return stopped, stopper.best_epoch


def test_early_stopping_spec_trace():
    assert drive_stopper([0.9, 0.8, 0.81, 0.82, 0.83]) == (5, 2)


def test_early_stopping_more_cases():
    assert drive_stopper([0.5, 0.5, 0.5, 0.5]) == (4, 1)
    assert drive_stopper([0.9, 0.8, 0.7, 0.6, 0.5], max_epochs=5) == (5, 5)
    # strict argmin still tracked when improvement is below the threshold
    assert drive_stopper([0.9, 0.89995, 0.89994, 0.89993]) == (4, 4)


def test_iter_batches_counts():
    assert [len(c) for c in iter_batches(64, 32)] == [32, 32]
    assert [len(c) for c in iter_batches(65, 32)] == [32, 32, 1]
    assert [len(c) for c in iter_batches(5, 32)] == [5]


def test_train_determinism_and_trace_shape():
    token_lists, labels = keyword_task()
    vocab = build_neural_vocab(token_lists, DEFAULT.min_freq, DEFAULT.max_len_cap)
    ids, lens = encode_batch(token_lists, vocab)
    cfg = TrainConfig(batch_size=4, embedding_dim=8, hidden_dim=4, attention_dim=4,
                      learning_rate=0.01, max_epochs=3, patience=3, seed=42)
    p1, t1 = train(True, (ids, lens, labels), (ids, lens, labels), cfg, vocab.size)
    p2, t2 = train(True, (ids, lens, labels), (ids, lens, labels), cfg, vocab.size)
    assert t1.train_losses == t2.train_losses
    assert t1.val_losses == t2.val_losses
    for (name, a), (_, b) in zip(p1.blocks.items(), p2.blocks.items()):
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert len(t1.train_losses) == t1.stopped_epoch <= cfg.max_epochs
    assert t1.best_epoch >= 1


def test_train_early_stop_bound():
    token_lists, labels = keyword_task()
    vocab = build_neural_vocab(token_lists, DEFAULT.min_freq, DEFAULT.max_len_cap)
    ids, lens = encode_batch(token_lists, vocab)
    noise = np.asarray([i % 2 for i in range(len(labels))])[::-1]
    cfg = TrainConfig(batch_size=8, embedding_dim=4, hidden_dim=2, attention_dim=2,
                      learning_rate=0.05, max_epochs=15, patience=2, seed=1)
    _, trace = train(False, (ids, lens, labels), (ids, lens, noise), cfg, vocab.size)
    assert trace.stopped_epoch - trace.best_epoch <= cfg.patience
    assert trace.best_epoch == int(np.argmin(trace.val_losses)) + 1


def test_train_single_epoch():
    token_lists, labels = keyword_task()
    vocab = build_neural_vocab(token_lists, DEFAULT.min_freq, DEFAULT.max_len_cap)
    ids, lens = encode_batch(token_lists, vocab)
    cfg = TrainConfig(batch_size=32, embedding_dim=4, hidden_dim=2, attention_dim=2,
                      max_epochs=1, patience=1, seed=1)
    _, trace = train(True, (ids, lens, labels), (ids, lens, labels), cfg, vocab.size)
    assert trace.stopped_epoch == 1 and trace.best_epoch == 1
    assert len(trace.train_losses) == 1


def test_train_rejects_empty_and_zero_lengths():
    token_lists, labels = keyword_task()
    vocab = build_neural_vocab(token_lists, DEFAULT.min_freq, DEFAULT.max_len_cap)
    ids, lens = encode_batch(token_lists, vocab)
    cfg = TrainConfig(max_epochs=1, patience=1)
    with pytest.raises(NeuralError, match="empty training set"):
        train(True, (ids[:0], lens[:0], labels[:0]), (ids, lens, labels), cfg, vocab.size)
    bad_lens = lens.copy()
    bad_lens[0] = 0
    with pytest.raises(NeuralError, match="empty sequences"):
        train(True, (ids, bad_lens, labels), (ids, lens, labels), cfg, vocab.size)


def test_overfit_keyword_task_within_15_epochs():
    token_lists, labels = keyword_task()
    vocab = build_neural_vocab(token_lists, DEFAULT.min_freq, DEFAULT.max_len_cap)
    ids, lens = encode_batch(token_lists, vocab)
    cfg = TrainConfig(batch_size=4, embedding_dim=16, hidden_dim=8, attention_dim=8,
                      learning_rate=0.01, max_epochs=15, patience=15, seed=42)
    params, trace = train(True, (ids, lens, labels), (ids, lens, labels), cfg, vocab.size)
    preds, _ = predict_batch(params, ids, lens)
    assert (preds == labels).all()
    assert trace.stopped_epoch <= 15


def test_predict_batch_rejects_empty_sequences():
    params = tiny_params()
    with pytest.raises(NeuralError, match="majority fallback"):
        predict_batch(params, np.asarray([[2, 0]]), np.asarray([0]))


# ----------------------------------------------------------------------------
# workspaces and predict passes
# ----------------------------------------------------------------------------

def test_embedding_grad_is_add_at_bit_for_bit():
    rng = Rng(5)
    tokens = np.asarray([3, 0, 3, 7, 3, 0, 9, 7])
    dx = rng.uniform_array((tokens.size, 6), -1.0, 1.0)
    dx[1] = -0.0                    # a token whose only other row is finite
    dx[6] = -0.0                    # a token seen once, all negative zeros
    dx[::3, 2] = -0.0
    dx[4, 5] = -dx[0, 5]            # a sum that cancels to zero
    want = np.zeros((10, 6))
    np.add.at(want, tokens, dx)
    got = _embedding_grad(tokens, dx, want.shape)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.fixture(scope="module")
def corpus_data(synthetic_corpus_path, default_lexicon, default_rules):
    """The bundled corpus's neural data at the default settings: its first
    160 comments train, the next 20 validate."""
    records = load_corpus(synthetic_corpus_path)
    prep = Preprocessor(PipelineConfig(), default_lexicon, default_rules)
    return prepare_neural_data(records[:160], records[160:180], prep, DEFAULT)


@pytest.mark.parametrize("use_attention", [False, True], ids=["bilstm", "bilstm_attention"])
def test_training_in_a_workspace_matches_fresh_arrays(monkeypatch, corpus_data, use_attention):
    cfg = DEFAULT._replace(max_epochs=2, patience=2)
    args = (use_attention, corpus_data.train, corpus_data.val, cfg, corpus_data.vocab.size)
    reused, trace = train(*args)
    monkeypatch.setattr(neural, "_Workspace", lambda *aliases: neural._FRESH)
    fresh, fresh_trace = train(*args)
    assert trace == fresh_trace
    for name in BLOCK_NAMES:
        assert reused.blocks[name].tobytes() == fresh.blocks[name].tobytes(), name


def test_a_training_step_never_holds_two_batches_arrays(monkeypatch):
    token_lists, labels = keyword_task(n=20)
    vocab = build_neural_vocab(token_lists, DEFAULT.min_freq, DEFAULT.max_len_cap)
    ids, lens = encode_batch(token_lists, vocab)
    cfg = TrainConfig(batch_size=4, embedding_dim=8, hidden_dim=4, attention_dim=4,
                      max_epochs=2, patience=2)
    earlier = []  # weak references to every cache and gradient a batch made
    forward, backward_from_cache = neural._forward_batch, neural._backward_from_cache

    def watched_forward(*args):
        assert all(ref() is None for ref in earlier), "an earlier batch is still alive"
        cache = forward(*args)
        earlier.append(weakref.ref(cache.logits))  # a named tuple takes none; it holds these
        return cache

    def watched_backward(*args):
        grads = backward_from_cache(*args)
        earlier.extend(weakref.ref(grad) for grad in grads.values())
        return grads

    monkeypatch.setattr(neural, "_forward_batch", watched_forward)
    monkeypatch.setattr(neural, "_backward_from_cache", watched_backward)
    train(True, (ids, lens, labels), (ids, lens, labels), cfg, vocab.size)
    # per epoch, 5 training batches of a cache and 12 gradients, and 5 validation caches
    assert len(earlier) == 2 * (5 * 13 + 5)


def test_token_passes_keep_to_the_budget():
    assert list(_token_passes([], 4)) == []
    lens = [1, 1, 2, 3, 3, 5, 9]
    for budget, want in [(1, [1, 1, 1, 1, 1, 1, 1]), (4, [3, 1, 1, 1, 1]),
                         (6, [3, 2, 1, 1]), (100, [7])]:
        parts = list(_token_passes(lens, budget))
        assert [p.stop - p.start for p in parts] == want, budget
        assert parts[0].start == 0 and parts[-1].stop == len(lens)
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
        assert all(sum(lens[p]) <= budget or p.stop - p.start == 1 for p in parts)


@pytest.mark.parametrize("use_attention", [False, True])
def test_predict_batch_scores_rows_alike_at_any_budget(use_attention):
    params = tiny_params(seed=12, use_attention=use_attention, vocab_size=12)
    rng = Rng(3)
    lens = np.asarray([1 + rng.randbelow(6) for _ in range(23)])
    ids = np.zeros((lens.size, 6), dtype=np.int64)
    for row, n in enumerate(lens):
        ids[row, :n] = [2 + rng.randbelow(10) for _ in range(n)]
    one_by_one = np.stack([_softmax_logits(forward_classify(ids[i], lens[i], params))
                           for i in range(lens.size)])
    for budget in (1, 7, neural.PREDICT_TOKEN_BUDGET, 10**9):
        classes, probs = predict_batch(params, ids, lens, budget)
        np.testing.assert_allclose(probs, one_by_one, rtol=1e-12, atol=0, err_msg=str(budget))
        np.testing.assert_array_equal(classes, one_by_one.argmax(axis=1))


def _softmax_logits(logits):
    e = np.exp(logits - logits.max())
    return e / e.sum()
