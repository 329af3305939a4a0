"""BiLSTM classifier with optional additive attention, trained from scratch.

The network is token ids -> embedding -> bidirectional LSTM -> either an
additive-attention pooled context (score v.tanh(Ws + b) with a learned global
query folded into the parameters) or the concatenation of the last valid
forward state and the position-0 backward state -> linear head -> softmax.

Everything runs in float64 numpy with hand-written reverse-mode gradients,
full unrolling over the padded length, and strict masking: padded positions
produce zero outputs, contribute zero gradient, and never perturb logits
(appending extra padding is bit-exact invariant). Training is deterministic
under the pinned PRNG seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .rng import Rng

PAD_ID = 0
UNK_ID = 1


class NeuralError(Exception):
    """Invalid neural-network request or diverged training."""


# ----------------------------------------------------------------------------
# vocabulary and encoding
# ----------------------------------------------------------------------------

@dataclass
class NeuralVocab:
    token_to_id: dict[str, int]  # real tokens only; ids start at 2
    max_seq_len: int

    @property
    def size(self) -> int:
        """Embedding rows: PAD + UNK + vocabulary."""
        return len(self.token_to_id) + 2


def build_neural_vocab(
    token_lists: list[list[str]],
    min_freq: int = 1,
    max_len_cap: int = 40,
) -> NeuralVocab:
    """Vocabulary from training token lists only.

    Ids are assigned in descending-frequency order (ties lexicographic),
    starting at 2 after the reserved PAD=0 and UNK=1. max_seq_len is the
    nearest-rank 95th percentile of training lengths, capped at max_len_cap.
    """
    if not token_lists or all(not toks for toks in token_lists):
        raise NeuralError("cannot build a vocabulary from empty input")
    freq: dict[str, int] = {}
    for tokens in token_lists:
        for tok in tokens:
            freq[tok] = freq.get(tok, 0) + 1
    kept = sorted(
        (tok for tok, n in freq.items() if n >= min_freq),
        key=lambda tok: (-freq[tok], tok),
    )
    token_to_id = {tok: i + 2 for i, tok in enumerate(kept)}
    lengths = sorted(len(toks) for toks in token_lists)
    rank = max(1, int(np.ceil(0.95 * len(lengths))))
    p95 = lengths[rank - 1]
    return NeuralVocab(token_to_id=token_to_id, max_seq_len=max(1, min(max_len_cap, p95)))


def encode_pad(tokens: list[str], vocab: NeuralVocab) -> tuple[list[int], int]:
    """Map tokens to ids (UNK for OOV), truncate, post-pad with PAD.

    Returns the padded id sequence of length max_seq_len and the true length
    before padding.
    """
    ids = [vocab.token_to_id.get(tok, UNK_ID) for tok in tokens[: vocab.max_seq_len]]
    length = len(ids)
    ids.extend([PAD_ID] * (vocab.max_seq_len - length))
    return ids, length


def encode_batch(token_lists: list[list[str]], vocab: NeuralVocab) -> tuple[np.ndarray, np.ndarray]:
    ids = np.empty((len(token_lists), vocab.max_seq_len), dtype=np.int64)
    lens = np.empty(len(token_lists), dtype=np.int64)
    for row, tokens in enumerate(token_lists):
        seq, length = encode_pad(tokens, vocab)
        ids[row] = seq
        lens[row] = length
    return ids, lens


# ----------------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------------

@dataclass
class LstmBlock:
    """One direction's LSTM, gate columns in the order i, f, o, g."""
    w: np.ndarray  # (D, 4H) input weights
    u: np.ndarray  # (H, 4H) recurrent weights
    b: np.ndarray  # (4H,)


# Parameter block names in the fixed serialization order of blocks().
BLOCK_NAMES = (
    "embedding", "fwd.w", "fwd.u", "fwd.b", "bwd.w", "bwd.u", "bwd.b",
    "att.w", "att.v", "att.b", "head.w", "head.b",
)


@dataclass
class NeuralNetParams:
    embedding: np.ndarray   # (V, D)
    fwd: LstmBlock
    bwd: LstmBlock
    w_att: np.ndarray       # (2H, A)
    b_att: np.ndarray       # (A,)
    v_att: np.ndarray       # (A,)
    w_head: np.ndarray      # (2H, 2)
    b_head: np.ndarray      # (2,)
    use_attention: bool

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def embedding_dim(self) -> int:
        return self.embedding.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.fwd.u.shape[0]

    @property
    def attention_dim(self) -> int:
        return self.b_att.shape[0]

    def blocks(self) -> list[tuple[str, np.ndarray]]:
        """All parameter arrays, named by BLOCK_NAMES in that order."""
        return list(zip(BLOCK_NAMES, (
            self.embedding, self.fwd.w, self.fwd.u, self.fwd.b,
            self.bwd.w, self.bwd.u, self.bwd.b,
            self.w_att, self.v_att, self.b_att, self.w_head, self.b_head,
        )))

    @classmethod
    def from_blocks(cls, arrays: dict[str, np.ndarray], use_attention: bool) -> "NeuralNetParams":
        """The inverse of blocks(): parameters from arrays keyed by BLOCK_NAMES."""
        (embedding, fwd_w, fwd_u, fwd_b, bwd_w, bwd_u, bwd_b,
         w_att, v_att, b_att, w_head, b_head) = (arrays[name] for name in BLOCK_NAMES)
        return cls(
            embedding=embedding,
            fwd=LstmBlock(fwd_w, fwd_u, fwd_b),
            bwd=LstmBlock(bwd_w, bwd_u, bwd_b),
            w_att=w_att, b_att=b_att, v_att=v_att,
            w_head=w_head, b_head=b_head,
            use_attention=use_attention,
        )

    def copy(self) -> "NeuralNetParams":
        return NeuralNetParams.from_blocks(
            {name: arr.copy() for name, arr in self.blocks()}, self.use_attention)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    embedding_dim: int = 128
    hidden_dim: int = 64          # per direction
    attention_dim: int = 64
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_epochs: int = 15
    patience: int = 3
    min_improvement: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        positive = {
            "batch_size": self.batch_size,
            "embedding_dim": self.embedding_dim,
            "hidden_dim": self.hidden_dim,
            "attention_dim": self.attention_dim,
            "learning_rate": self.learning_rate,
            "max_epochs": self.max_epochs,
            "patience": self.patience,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")


def _xavier(rng: Rng, fan_in: int, fan_out: int, shape: tuple[int, ...]) -> np.ndarray:
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform_array(shape, -limit, limit)


def _init_lstm_block(rng: Rng, d: int, h: int) -> LstmBlock:
    # one Xavier draw per gate in the order i, f, o, g, all of w before u
    w = np.concatenate([_xavier(rng, d, h, (d, h)) for _ in range(4)], axis=1)
    u = np.concatenate([_xavier(rng, h, h, (h, h)) for _ in range(4)], axis=1)
    b = np.zeros(4 * h)
    b[h:2 * h] = 1.0  # forget-gate bias 1.0 eases early memory carry
    return LstmBlock(w, u, b)


def init_params(
    vocab_size: int,
    config: TrainConfig,
    use_attention: bool,
    rng: Rng,
) -> NeuralNetParams:
    """Seeded initialization, drawing in blocks() order.

    Embedding rows ~ U(-0.05, 0.05); every weight matrix Xavier-uniform;
    biases zero except the forget gate at 1.0. Attention parameters are drawn
    even for the plain model so both variants share the draw sequence.
    """
    d, h, a = config.embedding_dim, config.hidden_dim, config.attention_dim
    embedding = rng.uniform_array((vocab_size, d), -0.05, 0.05)
    fwd = _init_lstm_block(rng, d, h)
    bwd = _init_lstm_block(rng, d, h)
    w_att = _xavier(rng, 2 * h, a, (2 * h, a))
    v_att = _xavier(rng, a, 1, (a,))
    b_att = np.zeros(a)
    w_head = _xavier(rng, 2 * h, 2, (2 * h, 2))
    b_head = np.zeros(2)
    return NeuralNetParams(
        embedding=embedding, fwd=fwd, bwd=bwd,
        w_att=w_att, b_att=b_att, v_att=v_att,
        w_head=w_head, b_head=b_head,
        use_attention=use_attention,
    )


# ----------------------------------------------------------------------------
# forward pass
# ----------------------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _lstm_step(x_t, h_prev, c_prev, block: LstmBlock) -> tuple[np.ndarray, ...]:
    """One LSTM step as (gates, c_t, tanh(c_t), h_t). gates holds the
    activated i, f, o, g columns; it and tanh(c_t) are what the backward pass
    caches. Works on single vectors or batched rows.
    """
    gates = x_t @ block.w + h_prev @ block.u + block.b
    h = gates.shape[-1] // 4
    gates[..., :3 * h] = _sigmoid(gates[..., :3 * h])
    np.tanh(gates[..., 3 * h:], out=gates[..., 3 * h:])
    # plain slices: np.split costs more than the gate arithmetic at these sizes
    i, f, o, g = (gates[..., k * h:(k + 1) * h] for k in range(4))
    c_t = f * c_prev + i * g
    tanh_c = np.tanh(c_t)
    return gates, c_t, tanh_c, o * tanh_c


def lstm_cell(
    x_t: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    block: LstmBlock,
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step as (h_t, c_t); works on single vectors or batched rows."""
    _, c_t, _, h_t = _lstm_step(x_t, h_prev, c_prev, block)
    return h_t, c_t


@dataclass
class _StepCache:
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    gates: np.ndarray   # (B, 4H) activated i, f, o, g
    tanh_c: np.ndarray
    m: np.ndarray  # (B, 1) 0/1 mask


def _run_lstm(
    x: np.ndarray,      # (B, T, D)
    mask: np.ndarray,   # (B, T) float64 in {0, 1}
    block: LstmBlock,
    keep_steps: bool = True,
) -> tuple[np.ndarray, np.ndarray, list[_StepCache]]:
    """Masked unidirectional pass. Masked steps carry state through unchanged
    and emit exact zeros, so trailing padding cannot perturb anything.
    Returns (outputs (B,T,H), final carried h (B,H), per-step caches); the
    caches, needed only by the backward pass, are empty unless keep_steps.
    """
    b, t_max, _ = x.shape
    h_dim = block.u.shape[0]
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    outputs = np.zeros((b, t_max, h_dim))
    steps: list[_StepCache] = []
    for t in range(t_max):
        xt = x[:, t, :]
        m = mask[:, t][:, None]
        gates, c_cand, tanh_c, h_cand = _lstm_step(xt, h, c, block)
        if keep_steps:
            steps.append(_StepCache(xt, h, c, gates, tanh_c, m))
        outputs[:, t, :] = m * h_cand
        h = m * h_cand + (1.0 - m) * h
        c = m * c_cand + (1.0 - m) * c
    return outputs, h, steps


def _attention_core(
    states: np.ndarray,  # (B, T, 2H)
    mask: np.ndarray,    # (B, T)
    params: NeuralNetParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Additive attention over valid positions.

    Returns (context (B,2H), weights (B,T), pre-activation u (B,T,A)).
    """
    u = np.tanh(states @ params.w_att + params.b_att)
    scores = u @ params.v_att
    masked = np.where(mask > 0.0, scores, -np.inf)
    peak = masked.max(axis=1, keepdims=True)
    expd = np.exp(masked - peak)
    expd = np.where(mask > 0.0, expd, 0.0)
    weights = expd / expd.sum(axis=1, keepdims=True)
    context = np.einsum("bt,bth->bh", weights, states)
    return context, weights, u


@dataclass
class _ForwardCache:
    ids: np.ndarray
    mask: np.ndarray
    x: np.ndarray
    fwd_out: np.ndarray
    fwd_final: np.ndarray
    fwd_steps: list[_StepCache]
    bwd_out_rev: np.ndarray
    bwd_final: np.ndarray
    bwd_steps: list[_StepCache]
    states: np.ndarray
    features: np.ndarray
    att_weights: np.ndarray | None
    att_u: np.ndarray | None
    logits: np.ndarray


def _forward_batch(
    ids: np.ndarray,
    valid_lens: np.ndarray,
    params: NeuralNetParams,
    keep_steps: bool = True,
) -> _ForwardCache:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise NeuralError("ids must be a (batch, time) array")
    valid_lens = np.asarray(valid_lens, dtype=np.int64)
    if params.use_attention and np.any(valid_lens == 0):
        raise NeuralError("attention over empty sequence")
    # Truncate to the longest valid length: trailing padding would only add
    # masked no-op steps, and keeping the reduction extents fixed makes
    # logits bit-exactly invariant to extra padding.
    t_eff = max(1, int(valid_lens.max(initial=0)))
    ids = ids[:, :t_eff]
    b, t_max = ids.shape
    mask = (np.arange(t_max)[None, :] < valid_lens[:, None]).astype(np.float64)
    x = params.embedding[ids]
    fwd_out, fwd_final, fwd_steps = _run_lstm(x, mask, params.fwd, keep_steps)
    bwd_out_rev, bwd_final, bwd_steps = _run_lstm(
        x[:, ::-1, :], mask[:, ::-1], params.bwd, keep_steps)
    states = np.concatenate([fwd_out, bwd_out_rev[:, ::-1, :]], axis=2)
    att_weights = att_u = None
    if params.use_attention:
        features, att_weights, att_u = _attention_core(states, mask, params)
    else:
        features = np.concatenate([fwd_final, bwd_final], axis=1)
    logits = features @ params.w_head + params.b_head
    return _ForwardCache(
        ids=ids, mask=mask, x=x,
        fwd_out=fwd_out, fwd_final=fwd_final, fwd_steps=fwd_steps,
        bwd_out_rev=bwd_out_rev, bwd_final=bwd_final, bwd_steps=bwd_steps,
        states=states, features=features,
        att_weights=att_weights, att_u=att_u, logits=logits,
    )


def bilstm_forward(ids, valid_len: int, params: NeuralNetParams) -> np.ndarray:
    """Encoder states for one sequence: (T, 2H), zeros at padded positions."""
    ids = np.asarray(ids, dtype=np.int64).reshape(1, -1)
    # the encoder alone: without attention a zero valid_len is allowed
    encoder = replace(params, use_attention=False)
    states = _forward_batch(ids, [valid_len], encoder, keep_steps=False).states[0]
    return np.pad(states, ((0, ids.shape[1] - states.shape[0]), (0, 0)))


def attention(
    states: np.ndarray,
    valid_len: int,
    params: NeuralNetParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Context vector and weights over the first valid_len encoder states."""
    if valid_len <= 0:
        raise NeuralError("attention over empty sequence")
    states = np.asarray(states, dtype=np.float64)[None]
    mask = (np.arange(states.shape[1])[None, :] < valid_len).astype(np.float64)
    context, weights, _ = _attention_core(states, mask, params)
    return context[0], weights[0]


def forward_classify(ids, valid_len: int, params: NeuralNetParams) -> np.ndarray:
    """Logits (2,) for one encoded sequence."""
    cache = _forward_batch(
        np.asarray(ids, dtype=np.int64).reshape(1, -1),
        np.asarray([valid_len], dtype=np.int64),
        params,
    )
    return cache.logits[0]


def cross_entropy(logits: np.ndarray, label: int) -> float:
    """-log softmax(logits)[label] with max-subtraction stabilization."""
    logits = np.asarray(logits, dtype=np.float64)
    peak = logits.max()
    return float(np.log(np.exp(logits - peak).sum()) + peak - logits[label])


def _softmax(logits: np.ndarray) -> np.ndarray:
    peak = logits.max(axis=-1, keepdims=True)
    expd = np.exp(logits - peak)
    return expd / expd.sum(axis=-1, keepdims=True)


def batch_loss(cache: _ForwardCache, labels: np.ndarray) -> float:
    peak = cache.logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(cache.logits - peak).sum(axis=1)) + peak[:, 0]
    picked = cache.logits[np.arange(len(labels)), labels]
    return float((lse - picked).mean())


# ----------------------------------------------------------------------------
# backward pass
# ----------------------------------------------------------------------------

def _backprop_lstm(
    steps: list[_StepCache],
    block: LstmBlock,
    d_out: np.ndarray,          # (B, T, H) gradient on masked outputs
    d_final: np.ndarray | None,  # (B, H) gradient on the final carried state
) -> tuple[np.ndarray, LstmBlock]:
    """(dx (B,T,D), the gradient of every block array as an LstmBlock)."""
    t_max = len(steps)
    b, h_dim = steps[0].h_prev.shape
    grad = LstmBlock(np.zeros_like(block.w), np.zeros_like(block.u), np.zeros_like(block.b))
    dh = d_final.copy() if d_final is not None else np.zeros((b, h_dim))
    dc = np.zeros((b, h_dim))
    dx = np.zeros((b, t_max, block.w.shape[0]))
    for t in range(t_max - 1, -1, -1):
        st = steps[t]
        m = st.m
        i, f, o, g = (st.gates[:, k * h_dim:(k + 1) * h_dim] for k in range(4))
        g_hcand = m * (dh + d_out[:, t, :])
        dc_cand = m * dc + g_hcand * o * (1.0 - st.tanh_c ** 2)
        # da: the gradient on the gate pre-activations, columns i, f, o, g
        da = np.concatenate([dc_cand * g, dc_cand * st.c_prev, g_hcand * st.tanh_c,
                             dc_cand * i * (1.0 - g ** 2)], axis=1)
        sig = st.gates[:, :3 * h_dim]
        da[:, :3 * h_dim] = da[:, :3 * h_dim] * sig * (1.0 - sig)
        dc = dc_cand * f + (1.0 - m) * dc
        grad.w += st.x.T @ da
        grad.u += st.h_prev.T @ da
        grad.b += da.sum(axis=0)
        dx[:, t, :] = da @ block.w.T
        dh = (1.0 - m) * dh + da @ block.u.T
    return dx, grad


def _backward_from_cache(
    cache: _ForwardCache,
    labels: np.ndarray,
    params: NeuralNetParams,
) -> dict[str, np.ndarray]:
    """Gradients keyed by BLOCK_NAMES; raises on any non-finite one, naming
    the offending parameter block."""
    b = cache.logits.shape[0]
    h_dim = params.hidden_dim
    probs = _softmax(cache.logits)
    d_logits = probs.copy()
    d_logits[np.arange(b), labels] -= 1.0
    d_logits /= b
    d_features = d_logits @ params.w_head.T

    if params.use_attention:
        s = cache.states
        alpha = cache.att_weights
        u = cache.att_u
        d_ctx = d_features
        d_alpha = np.einsum("bh,bth->bt", d_ctx, s)
        d_states = alpha[:, :, None] * d_ctx[:, None, :]
        d_scores = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True))
        d_v_att = np.einsum("bta,bt->a", u, d_scores)
        d_u = d_scores[:, :, None] * params.v_att[None, None, :]
        d_z = d_u * (1.0 - u ** 2)
        d_w_att = np.einsum("bth,bta->ha", s, d_z)
        d_b_att = d_z.sum(axis=(0, 1))
        d_states = d_states + d_z @ params.w_att.T
        d_fwd_out = d_states[:, :, :h_dim]
        d_bwd_out = d_states[:, :, h_dim:]
        d_fwd_final = None
        d_bwd_final = None
    else:
        d_w_att = np.zeros_like(params.w_att)
        d_v_att = np.zeros_like(params.v_att)
        d_b_att = np.zeros_like(params.b_att)
        t_max = cache.ids.shape[1]
        d_fwd_out = np.zeros((b, t_max, h_dim))
        d_bwd_out = np.zeros((b, t_max, h_dim))
        d_fwd_final = d_features[:, :h_dim]
        d_bwd_final = d_features[:, h_dim:]

    dx_fwd, d_fwd = _backprop_lstm(cache.fwd_steps, params.fwd, d_fwd_out, d_fwd_final)
    dx_bwd_rev, d_bwd = _backprop_lstm(
        cache.bwd_steps, params.bwd, d_bwd_out[:, ::-1, :], d_bwd_final,
    )
    dx = dx_fwd + dx_bwd_rev[:, ::-1, :]

    d_embedding = np.zeros_like(params.embedding)
    flat_ids = cache.ids.reshape(-1)
    np.add.at(d_embedding, flat_ids, dx.reshape(-1, params.embedding_dim))
    grads = NeuralNetParams(
        embedding=d_embedding, fwd=d_fwd, bwd=d_bwd,
        w_att=d_w_att, b_att=d_b_att, v_att=d_v_att,
        w_head=cache.features.T @ d_logits, b_head=d_logits.sum(axis=0),
        use_attention=params.use_attention,
    ).blocks()
    for name, grad in grads:
        if not np.all(np.isfinite(grad)):
            raise NeuralError(f"non-finite gradient in block {name}")
    return dict(grads)


def backward(
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    params: NeuralNetParams,
) -> dict[str, np.ndarray]:
    """Exact gradients of the mean batch cross-entropy w.r.t. every block.

    ``batch`` is (ids (B,T), valid_lens (B,), labels (B,)). Raises on any
    non-finite gradient, naming the offending parameter block.
    """
    ids, valid_lens, labels = batch
    cache = _forward_batch(ids, valid_lens, params)
    return _backward_from_cache(cache, np.asarray(labels, dtype=np.int64), params)


# ----------------------------------------------------------------------------
# Adam
# ----------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam_state(params: NeuralNetParams) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(arr) for name, arr in params.blocks()},
        v={name: np.zeros_like(arr) for name, arr in params.blocks()},
        t=0,
    )


def adam_step(
    params: NeuralNetParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[NeuralNetParams, AdamState]:
    """Standard bias-corrected Adam update, applied in place."""
    state.t += 1
    bc1 = 1.0 - config.beta1 ** state.t
    bc2 = 1.0 - config.beta2 ** state.t
    for name, arr in params.blocks():
        g = grads[name]
        state.m[name] = config.beta1 * state.m[name] + (1.0 - config.beta1) * g
        state.v[name] = config.beta2 * state.v[name] + (1.0 - config.beta2) * (g * g)
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        arr -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return params, state


# ----------------------------------------------------------------------------
# training loop with early stopping
# ----------------------------------------------------------------------------

@dataclass
class TrainTrace:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0


class EarlyStopper:
    """Patience-based stopping on validation loss.

    An epoch counts as improving only when it beats the best previous loss by
    more than min_improvement; `best_epoch` tracks the strict argmin (first
    occurrence on ties), which is also the snapshot epoch.
    """

    def __init__(self, patience: int, min_improvement: float = 1e-4):
        self.patience = patience
        self.min_improvement = min_improvement
        self.best_loss = float("inf")
        self.best_epoch = 0
        self.stale_epochs = 0

    def update(self, epoch: int, val_loss: float) -> tuple[bool, bool]:
        """Returns (is new strict best, should stop now)."""
        significant = val_loss < self.best_loss - self.min_improvement
        strict = val_loss < self.best_loss
        if strict:
            self.best_loss = val_loss
            self.best_epoch = epoch
        if significant:
            self.stale_epochs = 0
        else:
            self.stale_epochs += 1
        return strict, self.stale_epochs >= self.patience


def iter_batches(n: int, batch_size: int, order: list[int] | None = None):
    """Yield index chunks; the final partial batch is kept."""
    if order is None:
        order = list(range(n))
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def evaluate_loss(
    params: NeuralNetParams,
    ids: np.ndarray,
    valid_lens: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
) -> tuple[float, float]:
    """(mean loss, accuracy) over a dataset in fixed evaluation order."""
    total_loss = 0.0
    correct = 0
    n = ids.shape[0]
    for chunk in iter_batches(n, batch_size):
        cache = _forward_batch(ids[chunk], valid_lens[chunk], params)
        total_loss += batch_loss(cache, labels[chunk]) * len(chunk)
        correct += int((cache.logits.argmax(axis=1) == labels[chunk]).sum())
    return total_loss / n, correct / n


def train(
    use_attention: bool,
    train_data: tuple[np.ndarray, np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray, np.ndarray],
    config: TrainConfig,
    vocab_size: int,
) -> tuple[NeuralNetParams, TrainTrace]:
    """Mini-batch Adam with early stopping; returns best-epoch parameters.

    Batches are reshuffled each epoch with the pinned PRNG seeded from the
    config, validation loss is computed after every epoch, and training stops
    once `patience` consecutive epochs fail to improve the best validation
    loss by more than min_improvement (or at max_epochs).
    """
    train_ids, train_lens, train_labels = (np.asarray(a) for a in train_data)
    val_ids, val_lens, val_labels = (np.asarray(a) for a in val_data)
    n = train_ids.shape[0]
    if n == 0:
        raise NeuralError("empty training set")
    if np.any(train_lens == 0) or np.any(val_lens == 0):
        raise NeuralError("empty sequences must be dropped before training")

    rng = Rng(config.seed)
    params = init_params(vocab_size, config, use_attention, rng)
    state = init_adam_state(params)
    stopper = EarlyStopper(config.patience, config.min_improvement)
    trace = TrainTrace()
    best_params = params.copy()

    order = list(range(n))
    for epoch in range(1, config.max_epochs + 1):
        rng.shuffle(order)
        loss_sum = 0.0
        for chunk in iter_batches(n, config.batch_size, order):
            cache = _forward_batch(train_ids[chunk], train_lens[chunk], params)
            loss = batch_loss(cache, train_labels[chunk])
            grads = _backward_from_cache(cache, train_labels[chunk], params)
            adam_step(params, grads, state, config)
            loss_sum += loss * len(chunk)
        val_loss, val_acc = evaluate_loss(
            params, val_ids, val_lens, val_labels, config.batch_size,
        )
        trace.train_losses.append(loss_sum / n)
        trace.val_losses.append(val_loss)
        trace.val_accuracies.append(val_acc)
        improved, stop = stopper.update(epoch, val_loss)
        if improved:
            best_params = params.copy()
        trace.stopped_epoch = epoch
        if stop:
            break
    trace.best_epoch = stopper.best_epoch
    return best_params, trace


def predict_batch(
    params: NeuralNetParams,
    ids: np.ndarray,
    valid_lens: np.ndarray,
    batch_size: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """(predicted class ids, class probabilities) in input order."""
    ids = np.asarray(ids, dtype=np.int64)
    valid_lens = np.asarray(valid_lens, dtype=np.int64)
    if np.any(valid_lens == 0):
        raise NeuralError("cannot classify empty sequences; use the majority fallback")
    outputs = []
    for chunk in iter_batches(ids.shape[0], batch_size):
        # no backward pass follows, so skip the step caches and their memory
        cache = _forward_batch(ids[chunk], valid_lens[chunk], params, keep_steps=False)
        outputs.append(_softmax(cache.logits))
    probs = np.concatenate(outputs, axis=0) if outputs else np.zeros((0, 2))
    return probs.argmax(axis=1), probs


# ----------------------------------------------------------------------------
# gradient checking
# ----------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    per_block: dict[str, float]
    n_checked: int
    tolerance: float

    @property
    def max_rel_error(self) -> float:
        return max(self.per_block.values())

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def render_text(self) -> str:
        lines = [f"gradient check over {self.n_checked} coordinates"]
        for name, err in self.per_block.items():
            lines.append(f"  {name}: max rel err {err:.3e}")
        verdict = "pass" if self.passed else "FAIL"
        lines.append(f"  overall: {self.max_rel_error:.3e} "
                     f"({verdict} at tolerance {self.tolerance:.0e})")
        return "\n".join(lines)


def gradient_check(
    params: NeuralNetParams,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    h: float = 1e-5,
    tolerance: float = 1e-4,
    n_per_block: int = 20,
    seed: int = 0,
) -> GradCheckReport:
    """Central finite differences vs analytic gradients, per parameter block.

    Samples up to n_per_block coordinates per block (all of them for small
    blocks) with the pinned PRNG. Relative error uses the symmetric form
    |a - n| / max(|a|, |n|, 1e-12).
    """
    ids, valid_lens, labels = batch
    ids = np.asarray(ids, dtype=np.int64)
    valid_lens = np.asarray(valid_lens, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    analytic = backward((ids, valid_lens, labels), params)
    rng = Rng(seed)
    per_block: dict[str, float] = {}
    n_checked = 0

    def loss_now() -> float:
        return batch_loss(_forward_batch(ids, valid_lens, params), labels)

    for name, arr in params.blocks():
        flat = arr.reshape(-1)
        k = min(n_per_block, flat.size)
        coords = rng.sample_indices(flat.size, k)
        worst = 0.0
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + h
            loss_plus = loss_now()
            flat[idx] = original - h
            loss_minus = loss_now()
            flat[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * h)
            a = float(analytic[name].reshape(-1)[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-12)
            worst = max(worst, rel)
            n_checked += 1
        per_block[name] = worst
    return GradCheckReport(per_block=per_block, n_checked=n_checked, tolerance=tolerance)
