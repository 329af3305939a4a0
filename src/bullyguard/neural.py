"""BiLSTM classifier with optional additive attention, trained from scratch.

The network is token ids -> embedding -> bidirectional LSTM -> either an
additive-attention pooled context (score v.tanh(Ws + b) with a learned global
query folded into the parameters) or the concatenation of the last valid
forward state and the position-0 backward state -> linear head -> softmax.

Everything runs in float64 numpy with hand-written reverse-mode gradients.
The LSTMs run on a packed batch: rows sorted by length, real tokens only,
step-major; one GEMM over the distinct token ids gives every input x @ w,
and each step then touches only the rows still running. Padding is never
read, so padded positions have zero states and gradients, and extra padding
leaves the logits bit-exactly unchanged. Training is deterministic under
the pinned PRNG seed.

`train` and `predict_batch` each give their passes one workspace: the arrays
that grow with the batch, but for the embedding gradient, are written into its
buffers, so the passes after the largest allocate little and only one pass's
arrays exist at a time. The same code without a workspace allocates fresh
arrays.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .base import TrainConfig
from .linear_models import TrainingError

if TYPE_CHECKING:  # only training draws, so predict never loads the PRNG
    from .rng import Rng

PAD_ID = 0
UNK_ID = 1


class NeuralError(TrainingError):
    """Invalid neural-network request or diverged training. A TrainingError,
    so the CLI maps it to exit 3 without loading this module."""


# ----------------------------------------------------------------------------
# vocabulary and encoding
# ----------------------------------------------------------------------------

class NeuralVocab(NamedTuple):
    token_to_id: dict[str, int]  # real tokens only; ids start at 2
    max_seq_len: int

    @property
    def size(self) -> int:
        """Embedding rows: PAD + UNK + vocabulary."""
        return len(self.token_to_id) + 2


def build_neural_vocab(
    token_lists: list[list[str]],
    min_freq: int,
    max_len_cap: int,
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
    if not kept:  # every input would be UNK, leaving the model only lengths to learn
        raise NeuralError(f"no token reaches min_freq={min_freq}")
    token_to_id = {tok: i + 2 for i, tok in enumerate(kept)}
    lengths = sorted(len(toks) for toks in token_lists)
    rank = max(1, int(np.ceil(0.95 * len(lengths))))
    p95 = lengths[rank - 1]
    return NeuralVocab(token_to_id=token_to_id, max_seq_len=max(1, min(max_len_cap, p95)))


def encode_pad(tokens: list[str], vocab: NeuralVocab,
               width: int | None = None) -> tuple[list[int], int]:
    """Map tokens to ids (UNK for OOV), truncate to max_seq_len, post-pad
    with PAD to width (default max_seq_len).

    Returns the padded id sequence and the true length before padding.
    """
    ids = [vocab.token_to_id.get(tok, UNK_ID) for tok in tokens[: vocab.max_seq_len]]
    length = len(ids)
    ids.extend([PAD_ID] * ((vocab.max_seq_len if width is None else width) - length))
    return ids, length


def encode_batch(token_lists: list[list[str]], vocab: NeuralVocab) -> tuple[np.ndarray, np.ndarray]:
    """The encode_pad rows and lengths, padded only to the longest row:
    padding is never read, and max_seq_len may far exceed any row."""
    width = min(vocab.max_seq_len, max(map(len, token_lists), default=0))
    ids = np.empty((len(token_lists), width), dtype=np.int64)
    lens = np.empty(len(token_lists), dtype=np.int64)
    for row, tokens in enumerate(token_lists):
        seq, length = encode_pad(tokens, vocab, width)
        ids[row] = seq
        lens[row] = length
    return ids, lens


# ----------------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------------

# Parameter block names in their fixed serialization order. One direction's
# LSTM is w (D, 4H) input weights, u (H, 4H) recurrent weights and b (4H,),
# gate columns in the order i, f, o, g.
BLOCK_NAMES = (
    "embedding", "fwd.w", "fwd.u", "fwd.b", "bwd.w", "bwd.u", "bwd.b",
    "att.w", "att.v", "att.b", "head.w", "head.b",
)


def block_shapes(vocab_size: int, d: int, h: int, a: int) -> dict[str, tuple[int, ...]]:
    """Each block's shape, by BLOCK_NAMES: embedding dim d, hidden h, attention a."""
    lstm = ((d, 4 * h), (h, 4 * h), (4 * h,))
    return dict(zip(BLOCK_NAMES, ((vocab_size, d), *lstm, *lstm,
                                  (2 * h, a), (a,), (a,), (2 * h, 2), (2,))))


class NeuralNetParams(NamedTuple):
    blocks: dict[str, np.ndarray]  # keyed by BLOCK_NAMES, in that order
    use_attention: bool

    @property
    def embedding_dim(self) -> int:
        return self.blocks["embedding"].shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.blocks["fwd.u"].shape[0]

    @property
    def attention_dim(self) -> int:
        return self.blocks["att.b"].shape[0]

    def copy(self) -> "NeuralNetParams":
        return NeuralNetParams({name: arr.copy() for name, arr in self.blocks.items()},
                               self.use_attention)


# Adam's moment decay rates and the guard added to its denominator
# (Kingma & Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


def _xavier(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_params(
    vocab_size: int,
    config: TrainConfig,
    use_attention: bool,
    rng: Rng,
) -> NeuralNetParams:
    """Seeded initialization, drawing in BLOCK_NAMES order.

    Embedding rows ~ U(-0.05, 0.05); every weight matrix Xavier-uniform;
    biases zero except the forget gate at 1.0. Attention parameters are drawn
    even for the plain model so both variants share the draw sequence. Every
    weight block is a view of one bulk U(0, 1) draw, scaled as `uniform_array`.
    """
    d, h, a = config.embedding_dim, config.hidden_dim, config.attention_dim
    # an LSTM's w and u are one draw per gate in the order i, f, o, g
    lstm = [(f"{direction}.{kind}", (4, rows, h), _xavier(rows, h))
            for direction in ("fwd", "bwd") for kind, rows in (("w", d), ("u", h))]
    draws = [("embedding", (vocab_size, d), 0.05), *lstm, ("att.w", (2 * h, a), _xavier(2 * h, a)),
             ("att.v", (a,), _xavier(a, 1)), ("head.w", (2 * h, 2), _xavier(2 * h, 2))]
    sizes = [math.prod(shape) for _, shape, _ in draws]
    u = rng.uniform_array((sum(sizes),), 0.0, 1.0)
    blocks = {}
    for (name, shape, bound), seg in zip(draws, np.split(u, np.cumsum(sizes)[:-1])):
        seg *= bound - -bound  # -bound + (bound - -bound) * u, as uniform_array(shape, -bound, bound)
        seg -= bound
        if len(shape) == 3:  # gate k becomes columns k*h:(k+1)*h of a (rows, 4h) block
            seg[:] = seg.reshape(shape).transpose(1, 0, 2).reshape(-1)
            shape = (shape[1], 4 * h)
        blocks[name] = seg.reshape(shape)
    for direction in ("fwd", "bwd"):
        b = blocks[f"{direction}.b"] = np.zeros(4 * h)
        b[h:2 * h] = 1.0  # forget-gate bias 1.0 eases early memory carry
    blocks["att.b"], blocks["head.b"] = np.zeros(a), np.zeros(2)
    return NeuralNetParams({name: blocks[name] for name in BLOCK_NAMES}, use_attention)


# ----------------------------------------------------------------------------
# workspaces
# ----------------------------------------------------------------------------

class _Fresh:
    """Hands out new arrays: the passes' memory without a workspace."""

    def take(self, name: str, *shape: int, dtype=np.float64) -> np.ndarray:
        return np.empty(shape, dtype)

    def zeros(self, name: str, *shape: int) -> np.ndarray:
        return np.zeros(shape)


class _Workspace(_Fresh):
    """One buffer per array name, grown to the largest shape taken under that
    name and shared by every pass of one call; a pass's arrays are views of
    it, overwritten by the next pass. aliases maps a name to the name whose
    buffer it shares. Arrays that die before the next take of their name
    share one: "tmp" for the short-lived ones, "da" for both directions'
    gate gradients."""

    def __init__(self, aliases: dict[str, str] | None = None):
        self._buffers: dict[str, np.ndarray] = {}
        self._aliases = aliases or {}

    def take(self, name: str, *shape: int, dtype=np.float64) -> np.ndarray:
        name = self._aliases.get(name, name)
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def zeros(self, name: str, *shape: int) -> np.ndarray:
        arr = self.take(name, *shape)
        arr.fill(0.0)
        return arr


# Without a backward pass nothing reads a direction's gates and cell states
# once its h is computed: the backward direction and then attention reuse
# the forward direction's buffers (the runs in the cache are then stale).
_FORWARD_ONLY = {
    **{f"bwd.{part}": f"fwd.{part}" for part in ("gates", "c")},
    "states": "fwd.gates", "att.u": "fwd.c",
}


_FRESH = _Fresh()


# ----------------------------------------------------------------------------
# forward pass
# ----------------------------------------------------------------------------

def _lstm_gates(gates, c_prev, c_t, h_t) -> None:
    """The gate arithmetic of one LSTM step. gates holds the pre-activations
    with columns i, f, o, g and is activated in place; c_t and h_t are
    written to the arrays given. tanh(c_t) is kept nowhere: the backward
    pass recomputes it from c_t, to the same bits.
    """
    h = gates.shape[-1] // 4
    sig = gates[..., :3 * h]  # 1 / (1 + exp(-sig)), one step at a time in place
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    np.tanh(gates[..., 3 * h:], out=gates[..., 3 * h:])
    # plain slices: np.split costs more than the gate arithmetic at these sizes
    i, f, o, g = (gates[..., k * h:(k + 1) * h] for k in range(4))
    np.multiply(f, c_prev, out=c_t)
    c_t += i * g
    np.tanh(c_t, out=h_t)
    h_t *= o


class _Pack(NamedTuple):
    """Where a batch's real tokens sit in the packed layout of both directions.

    Rows are sorted by length, longest first and stable, so the rows still
    running at step t are a prefix of that order: packed row start_t + j is
    sorted row j at step t. Padding takes no packed row.
    """
    steps: list[tuple[slice, slice | None]]  # a step's rows, the same rows a step before
    first: int        # rows at step 0 (all non-empty rows); rev[:first] is their last step
    rows: np.ndarray  # (N,) batch row of each forward packed row
    cols: np.ndarray  # (N,) its position in that row
    prev: np.ndarray  # packed row one step earlier, for the rows after step 0
    rev: np.ndarray   # (N,) backward packed row <-> forward row of the same token


def _pack(valid_lens: np.ndarray) -> _Pack:
    order = np.argsort(-valid_lens, kind="stable")
    lens = valid_lens[order]
    t_max = int(lens[0]) if lens.size else 0
    step, j = np.nonzero(np.arange(t_max)[:, None] < lens[None, :])  # step-major
    starts = np.searchsorted(step, np.arange(t_max + 1))  # and N at the end
    edges = starts.tolist()
    now = [slice(a, b) for a, b in zip(edges, edges[1:])]
    before = [slice(p.start, p.start + t.stop - t.start) for p, t in zip(now, now[1:])]
    first = edges[1] if t_max else 0
    return _Pack(
        steps=list(zip(now, [None] + before)),
        first=first,
        rows=order[j],
        cols=step,
        prev=starts[step[first:] - 1] + j[first:],
        # the backward direction's step t reads position lens[j] - 1 - t
        rev=starts[lens[j] - 1 - step] + j,
    )


def _input_gates(tokens: np.ndarray, params: NeuralNetParams):
    """(slot, {direction: x @ w + b once per distinct id of tokens}), id's row slot[id]."""
    p = params.blocks
    # a mask, not np.unique, whose first call in a process allocates ~1.2 MB
    seen = np.zeros(p["embedding"].shape[0], dtype=bool)
    seen[tokens] = True
    distinct = seen.nonzero()[0]
    # one row would take numpy's gemv, which rounds unlike gemm: a lone id gets two
    x = p["embedding"][distinct.repeat(2) if distinct.size == 1 < tokens.size else distinct]
    tables = {d: x @ p[f"{d}.w"] for d in ("fwd", "bwd")}
    for d, table in tables.items():
        table += p[f"{d}.b"]
    return seen.cumsum(dtype=np.intp) - 1, tables


class _LstmRun(NamedTuple):
    """One direction's forward pass, in packed (N, .) arrays."""
    gates: np.ndarray   # activated i, f, o, g
    c: np.ndarray
    h: np.ndarray


def _run_lstm(gates: np.ndarray, pack: _Pack, u: np.ndarray,
              ws: _Fresh = _FRESH, name: str = "fwd") -> _LstmRun:
    """Unidirectional pass from the packed input gates (N, 4H) with one
    direction's u, into ws under that direction's name. The gates become
    the activated gates: per step only the recurrent GEMM and the gate
    arithmetic run, on the rows still running.
    """
    n, h_dim = gates.shape[0], u.shape[0]
    c, h = ws.take(f"{name}.c", n, h_dim), ws.take(f"{name}.h", n, h_dim)
    for now, before in pack.steps:
        if before is not None:
            gates[now] += h[before] @ u
        c_prev = 0.0 if before is None else c[before]
        _lstm_gates(gates[now], c_prev, c[now], h[now])
    return _LstmRun(gates, c, h)


def _encoder_states(pack: _Pack, fwd: _LstmRun, bwd: _LstmRun, batch: int,
                    ws: _Fresh = _FRESH) -> np.ndarray:
    """(B, T, 2H) encoder states in batch order, exact zeros at padding."""
    h_dim = fwd.h.shape[1]
    states = ws.zeros("states", batch, len(pack.steps), 2 * h_dim)
    states[pack.rows, pack.cols, :h_dim] = fwd.h
    # rev pairs the two directions' rows of a token both ways
    states[pack.rows[pack.rev], pack.cols[pack.rev], h_dim:] = bwd.h
    return states


def _attention_core(
    states: np.ndarray,      # (B, T, 2H)
    valid_lens: np.ndarray,  # (B,)
    params: NeuralNetParams,
    ws: _Fresh = _FRESH,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Additive attention over the first valid_lens positions of each row.

    Returns (context (B,2H), weights (B,T), pre-activation u (B,T,A)).
    """
    mask = np.arange(states.shape[1])[None, :] < np.asarray(valid_lens)[:, None]
    p = params.blocks
    u = np.matmul(states, p["att.w"], out=ws.take("att.u", *states.shape[:2], params.attention_dim))
    u += p["att.b"]
    np.tanh(u, out=u)
    scores = u @ p["att.v"]
    masked = np.where(mask, scores, -np.inf)
    peak = masked.max(axis=1, keepdims=True)
    expd = np.exp(masked - peak)
    expd = np.where(mask, expd, 0.0)
    weights = expd / expd.sum(axis=1, keepdims=True)
    context = np.einsum("bt,bth->bh", weights, states)
    return context, weights, u


class _ForwardCache(NamedTuple):
    pack: _Pack
    tokens: np.ndarray   # (N,) token id of each forward packed row
    fwd: _LstmRun
    bwd: _LstmRun        # its packed rows read each batch row reversed
    states: np.ndarray | None      # (B, T, 2H); attention only
    features: np.ndarray
    att_weights: np.ndarray | None
    att_u: np.ndarray | None
    logits: np.ndarray


def _forward_batch(
    ids: np.ndarray,
    valid_lens: np.ndarray,
    params: NeuralNetParams,
    ws: _Fresh = _FRESH,
    gates: tuple | None = None,  # _input_gates's; by default, the batch's own
) -> _ForwardCache:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise NeuralError("ids must be a (batch, time) array")
    valid_lens = np.asarray(valid_lens, dtype=np.int64)
    if params.use_attention and np.any(valid_lens == 0):
        raise NeuralError("attention over empty sequence")
    # Padded positions are never read, so extra padding leaves every
    # reduction, and so the logits, bit-exactly unchanged.
    p = params.blocks
    pack = _pack(valid_lens)
    tokens = ids[pack.rows, pack.cols]
    slot, tables = gates or _input_gates(tokens, params)
    # mode="clip" skips the bounds check that would make take copy through a
    # temporary; every slot is a row of its table
    fwd, bwd = (_run_lstm(np.take(tables[d], rows, axis=0, mode="clip",
                                  out=ws.take(f"{d}.gates", tokens.size, tables[d].shape[1])),
                          pack, p[f"{d}.u"], ws, d)
                for d, rows in (("fwd", slot[tokens]), ("bwd", slot[tokens[pack.rev]])))
    states = att_weights = att_u = None
    if params.use_attention:
        states = _encoder_states(pack, fwd, bwd, ids.shape[0], ws)
        features, att_weights, att_u = _attention_core(states, valid_lens, params, ws)
    else:
        last = pack.rev[:pack.first]
        features = np.zeros((ids.shape[0], 2 * params.hidden_dim))
        features[pack.rows[:pack.first]] = np.concatenate([fwd.h[last], bwd.h[last]], axis=1)
    logits = features @ p["head.w"] + p["head.b"]
    return _ForwardCache(
        pack=pack, tokens=tokens, fwd=fwd, bwd=bwd, states=states, features=features,
        att_weights=att_weights, att_u=att_u, logits=logits,
    )


def forward_classify(ids, valid_len: int, params: NeuralNetParams) -> np.ndarray:
    """Logits (2,) for one encoded sequence."""
    cache = _forward_batch(
        np.asarray(ids, dtype=np.int64).reshape(1, -1),
        np.asarray([valid_len], dtype=np.int64),
        params,
    )
    return cache.logits[0]


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
    run: _LstmRun,
    x: np.ndarray,    # (N, D) the packed inputs
    pack: _Pack,
    w: np.ndarray,
    u: np.ndarray,
    d_h: np.ndarray,  # (N, H) gradient on each packed output; overwritten
    ws: _Fresh = _FRESH,
    name: str = "fwd",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(dx (N, D), dw, du, db) for the direction whose w and u are given,
    into ws under that direction's name.

    Only the recurrence runs per step; the gradients of w, u and b and of
    the inputs are one GEMM or sum each over all packed rows.
    """
    (n_rows, d), h_dim = x.shape, u.shape[0]
    da = ws.take("da", n_rows, 4 * h_dim)  # gradient on the gate pre-activations
    # a row that ends at step t was not touched by later steps: its dh, dc are 0
    dh = np.zeros((pack.first, h_dim))
    dc = np.zeros((pack.first, h_dim))
    for now, before in reversed(pack.steps):
        n = now.stop - now.start
        i, f, o, g = (run.gates[now, k * h_dim:(k + 1) * h_dim] for k in range(4))
        tanh_c = np.tanh(run.c[now])
        g_h = d_h[now]
        g_h += dh[:n]
        dc_t = dc[:n] + g_h * o * (1.0 - tanh_c ** 2)
        c_prev = 0.0 if before is None else run.c[before]
        da_t = da[now]
        np.multiply(dc_t, g, out=da_t[:, :h_dim])
        np.multiply(dc_t, c_prev, out=da_t[:, h_dim:2 * h_dim])
        np.multiply(g_h, tanh_c, out=da_t[:, 2 * h_dim:3 * h_dim])
        np.multiply(dc_t * i, 1.0 - g ** 2, out=da_t[:, 3 * h_dim:])
        sig = run.gates[now, :3 * h_dim]
        da_t[:, :3 * h_dim] *= sig
        da_t[:, :3 * h_dim] *= 1.0 - sig
        np.multiply(dc_t, f, out=dc[:n])
        if before is not None:
            np.matmul(da_t, u.T, out=dh[:n])
    h_prev = np.take(run.h, pack.prev, axis=0, mode="clip",
                     out=ws.take("tmp", n_rows - pack.first, h_dim))
    return (np.matmul(da, w.T, out=ws.take(f"{name}.dx", n_rows, d)),
            np.matmul(x.T, da, out=ws.take(f"d.{name}.w", d, 4 * h_dim)),
            np.matmul(h_prev.T, da[pack.first:], out=ws.take(f"d.{name}.u", h_dim, 4 * h_dim)),
            np.sum(da, axis=0, out=ws.take(f"d.{name}.b", 4 * h_dim)))


def _backward_from_cache(
    cache: _ForwardCache,
    labels: np.ndarray,
    params: NeuralNetParams,
    ws: _Fresh = _FRESH,
) -> dict[str, np.ndarray]:
    """Gradients keyed by BLOCK_NAMES; raises on any non-finite one, naming
    the offending parameter block."""
    p = params.blocks
    b = cache.logits.shape[0]
    h_dim = params.hidden_dim
    pack = cache.pack
    n = pack.rows.size
    probs = _softmax(cache.logits)
    d_logits = probs.copy()
    d_logits[np.arange(b), labels] -= 1.0
    d_logits /= b
    d_features = d_logits @ p["head.w"].T

    if params.use_attention:
        s = cache.states
        alpha = cache.att_weights
        u = cache.att_u
        d_ctx = d_features
        d_alpha = np.einsum("bh,bth->bt", d_ctx, s)
        d_states = np.multiply(alpha[:, :, None], d_ctx[:, None, :],
                               out=ws.take("d_states", *s.shape))
        d_scores = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True))
        d_att_v = np.einsum("bta,bt->a", u, d_scores, out=ws.take("d.att.v", u.shape[2]))
        # d_z = d_u * (1 - u ** 2), with d_u the gradient on u
        d_z = np.multiply(d_scores[:, :, None], p["att.v"][None, None, :],
                          out=ws.take("d_z", *u.shape))
        tmp = np.square(u, out=ws.take("tmp", *u.shape))
        d_z *= np.subtract(1.0, tmp, out=tmp)
        # one GEMM over the (B * T, 2H) and (B * T, A) rows; padding rows are zero
        d_att_w = np.matmul(s.reshape(-1, 2 * h_dim).T, d_z.reshape(-1, u.shape[2]),
                            out=ws.take("d.att.w", *p["att.w"].shape))
        d_att_b = np.sum(d_z, axis=(0, 1), out=ws.take("d.att.b", u.shape[2]))
        d_states += np.matmul(d_z, p["att.w"].T, out=ws.take("tmp", *s.shape))
        # each packed row's gradient, read through the (B * T, 2H) layout
        d_flat = d_states.reshape(-1, 2 * h_dim)
        at = pack.rows * s.shape[1] + pack.cols
        d_fwd_h = np.take(d_flat[:, :h_dim], at, axis=0, mode="clip",
                          out=ws.take("fwd.d_h", n, h_dim))
        d_bwd_h = np.take(d_flat[:, h_dim:], at[pack.rev], axis=0, mode="clip",
                          out=ws.take("bwd.d_h", n, h_dim))
    else:
        d_att_w, d_att_v, d_att_b = (ws.zeros(f"d.{name}", *p[name].shape)
                                     for name in ("att.w", "att.v", "att.b"))
        last, first = pack.rev[:pack.first], pack.rows[:pack.first]
        d_fwd_h, d_bwd_h = (ws.zeros(f"{name}.d_h", n, h_dim) for name in ("fwd", "bwd"))
        d_fwd_h[last] = d_features[first, :h_dim]
        d_bwd_h[last] = d_features[first, h_dim:]

    def inputs(tokens):  # one buffer: a direction's x is dead after its backprop
        return np.take(p["embedding"], tokens, axis=0, mode="clip",
                       out=ws.take("x", n, params.embedding_dim))

    dx, d_fwd_w, d_fwd_u, d_fwd_b = _backprop_lstm(
        cache.fwd, inputs(cache.tokens), pack, p["fwd.w"], p["fwd.u"], d_fwd_h, ws, "fwd")
    dx_bwd, d_bwd_w, d_bwd_u, d_bwd_b = _backprop_lstm(
        cache.bwd, inputs(cache.tokens[pack.rev]), pack, p["bwd.w"], p["bwd.u"], d_bwd_h,
        ws, "bwd")
    dx += np.take(dx_bwd, pack.rev, axis=0, mode="clip", out=ws.take("tmp", *dx.shape))

    grads = {
        "embedding": _embedding_grad(cache.tokens, dx, p["embedding"].shape, ws),
        "fwd.w": d_fwd_w, "fwd.u": d_fwd_u, "fwd.b": d_fwd_b,
        "bwd.w": d_bwd_w, "bwd.u": d_bwd_u, "bwd.b": d_bwd_b,
        "att.w": d_att_w, "att.v": d_att_v, "att.b": d_att_b,
        "head.w": cache.features.T @ d_logits, "head.b": d_logits.sum(axis=0),
    }
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise NeuralError(f"non-finite gradient in block {name}")
    return grads


def _embedding_grad(tokens: np.ndarray, dx: np.ndarray, shape: tuple[int, int],
                    ws: _Fresh = _FRESH) -> np.ndarray:
    """(V, D) array whose row t sums the dx rows of token t in row order from
    0.0, as np.add.at would: one bincount over the flat (token, column) slots."""
    v, d = shape
    slots = np.add(np.multiply(tokens, d)[:, None], np.arange(d),
                   out=ws.take("slots", tokens.size, d, dtype=np.int64))
    return np.bincount(slots.ravel(), weights=dx.ravel(), minlength=v * d).reshape(v, d)


# ----------------------------------------------------------------------------
# Adam
# ----------------------------------------------------------------------------

class AdamState:
    """Adam's moments per block, its step count t, and scratch: an array of
    the largest block's size, the update's temporary."""

    def __init__(self, m: dict[str, np.ndarray], v: dict[str, np.ndarray],
                 scratch: np.ndarray, t: int = 0):
        self.m, self.v, self.scratch, self.t = m, v, scratch, t


def init_adam_state(params: NeuralNetParams) -> AdamState:
    return AdamState(
        m={name: np.zeros_like(arr) for name, arr in params.blocks.items()},
        v={name: np.zeros_like(arr) for name, arr in params.blocks.items()},
        scratch=np.empty(max(arr.size for arr in params.blocks.values())),
        t=0,
    )


def adam_step(
    params: NeuralNetParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[NeuralNetParams, AdamState]:
    """Bias-corrected Adam, applied in place through the state's scratch in
    Kingma & Ba's (2015, section 2) cheaper order: the corrections fold
    into the step size lr_t = lr*sqrt(bc2)/bc1 and the guard
    eps_hat = eps*sqrt(bc2), and each weight moves by
    lr_t * (m / (sqrt(v) + eps_hat)), with m = b1*m + (1-b1)*g. In real
    arithmetic this is lr*(m/bc1) / (sqrt(v/bc2) + eps).
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1, bc2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    lr_t = config.learning_rate * math.sqrt(bc2) / bc1
    eps_hat = ADAM_EPSILON * math.sqrt(bc2)
    for name, arr in params.blocks.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        step = state.scratch[:arr.size].reshape(arr.shape)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=step)
        v *= b2
        v += np.multiply(np.square(g, out=step), 1.0 - b2, out=step)
        np.sqrt(v, out=step)
        step += eps_hat
        np.divide(m, step, out=step)
        step *= lr_t
        arr -= step
    return params, state


# ----------------------------------------------------------------------------
# training loop with early stopping
# ----------------------------------------------------------------------------

class TrainTrace:
    """Per-epoch losses and validation accuracies, and the epochs training
    stopped at and took its parameters from."""

    def __init__(self):
        self.train_losses: list[float] = []
        self.val_losses: list[float] = []
        self.val_accuracies: list[float] = []
        self.stopped_epoch = self.best_epoch = 0

    def __eq__(self, other) -> bool:
        return isinstance(other, TrainTrace) and vars(self) == vars(other)


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
    ws: _Fresh = _FRESH,
) -> tuple[float, float]:
    """(mean loss, accuracy) over a dataset in fixed evaluation order."""
    total_loss = 0.0
    correct = 0
    n = ids.shape[0]
    for chunk in iter_batches(n, batch_size):
        cache = _forward_batch(ids[chunk], valid_lens[chunk], params, ws)
        total_loss += batch_loss(cache, labels[chunk]) * len(chunk)
        correct += int((cache.logits.argmax(axis=1) == labels[chunk]).sum())
        del cache  # before the next batch's pass, which may grow a buffer it views
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

    from .rng import Rng
    rng = Rng(config.seed)
    params = init_params(vocab_size, config, use_attention, rng)
    state = init_adam_state(params)
    ws = _Workspace()
    stopper = EarlyStopper(config.patience, config.min_improvement)
    trace = TrainTrace()
    best_params = params.copy()

    for epoch, order in enumerate(rng.iter_permutations(n, config.max_epochs), 1):
        loss_sum = 0.0
        for chunk in iter_batches(n, config.batch_size, order):
            cache = _forward_batch(train_ids[chunk], train_lens[chunk], params, ws)
            loss = batch_loss(cache, train_labels[chunk])
            grads = _backward_from_cache(cache, train_labels[chunk], params, ws)
            adam_step(params, grads, state, config)
            loss_sum += loss * len(chunk)
            del cache, grads  # so no two batches' arrays are alive at once
        val_loss, val_acc = evaluate_loss(
            params, val_ids, val_lens, val_labels, config.batch_size, ws,
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


# Real tokens per predict pass. One pass of 256 tokens runs faster than
# several smaller ones; a larger pass only adds peak memory.
PREDICT_TOKEN_BUDGET = 256


def _token_passes(lens: list[int], budget: int):
    """Slices of consecutive rows with at most budget tokens between them;
    a row longer than budget runs alone."""
    start = total = 0
    for row, n in enumerate(lens):
        if total + n > budget and row > start:
            yield slice(start, row)
            start, total = row, 0
        total += n
    if start < len(lens):
        yield slice(start, len(lens))


def predict_batch(
    params: NeuralNetParams,
    ids: np.ndarray,
    valid_lens: np.ndarray,
    token_budget: int = PREDICT_TOKEN_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """(predicted class ids, class probabilities) in input order.

    The rows run sorted by length, shortest first, in passes of at most
    token_budget real tokens, so short rows share a pass and a pass carries
    little padding; the passes share one workspace and one input-gate table.
    """
    ids = np.asarray(ids, dtype=np.int64)
    valid_lens = np.asarray(valid_lens, dtype=np.int64)
    if np.any(valid_lens == 0):
        raise NeuralError("cannot classify empty sequences; use the majority fallback")
    order = np.argsort(valid_lens, kind="stable")
    probs = np.empty((ids.shape[0], 2))
    ws = _Workspace(_FORWARD_ONLY)
    gates = _input_gates(ids[np.arange(ids.shape[1]) < valid_lens[:, None]], params)
    for part in _token_passes(valid_lens[order].tolist(), token_budget):
        rows = order[part]
        probs[rows] = _softmax(
            _forward_batch(ids[rows], valid_lens[rows], params, ws, gates).logits)
    return probs.argmax(axis=1), probs
