"""Network model, exact gradients, Adam, and training loops.

The network is a stack of affine layers with ReLU between them whose
final layer width depends on the method: 2K for gmlr (means then
log-variances), 2K for lsep (scores then thresholds), (K+1)K/2 for crpc
(one logit per item pair including the virtual label).  Backpropagation
is written out explicitly so every loss gradient is exact and checkable
against finite differences.

Feature-space data feeds the affine stack directly (a plain MLP).
Image data (flattened images of an ``image_shape``) gets a weight-shared
front end ahead of it: an 8x8 stride-4 convolution with 8 channels, a
3x3 stride-2 convolution with 16 channels and a 3x3 convolution with 32
channels, each unpadded and followed by ReLU, then per-channel global
max and mean pooling.  A plain MLP on raw pixels has no weight sharing
and memorizes its training canvases; the front end sees every position
through the same kernels, and its last layer's 32-pixel receptive field
spans most of a scaled digit, so it can tell which digit is how large.
``train_arrays`` builds the front end from its ``image_shape`` argument
alone, which a JSONL dataset declares in its header.

The API is arrays.  ``train`` stacks ``RankedInstance`` records for
``train_arrays`` only because the benchmark's checkpoint script calls
it.  Every pass takes a batch, an (n, d) matrix of flat feature vectors:
``_forward_batch`` returns the (n, width) head output and a cache,
``backward`` reads that cache, and ``predict_batch`` is the one
inference path.  One instance is the n = 1 case.

Training is seeded and single-threaded: given the same dataset and
config it reproduces bit-identical parameters.  LSEP trains in two
stages; stage 2 fits only the final layer's threshold slice on the frozen
last hidden layer, so every other parameter keeps its stage-1 bits.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .baselines import crpc_loss, lsep_class_loss, lsep_rank_loss
from .buckets import MODES, checked_ranks
from .gmlr import gmlr_objective
from .predict import Prediction, decide
from .settings import integer, number

METHODS = ("gmlr", "lsep", "crpc")
# Rows per forward pass at inference.  Small enough that a chunk of
# canvases stays a few MB through the front end's patch matrices.
PREDICT_CHUNK = 64
# Adam's moment decays and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Version 1 is the plain MLP layout; version 2 adds the image front end.
MLP_CHECKPOINT_VERSION = 1
FRONT_END_CHECKPOINT_VERSION = 2
# (kernel size, stride, output channels) of each front-end convolution.
CANVAS_CONVS = ((8, 4, 8), (3, 2, 16), (3, 1, 32))


class TrainingDiverged(RuntimeError):
    """Raised when a batch loss turns non-finite; ``cause`` names what
    blew up ("variance head overflow", "non-finite network output", or
    "non-finite loss" when only the loss itself did)."""

    def __init__(self, epoch: int, batch: int, param_norm: float, cause: str):
        self.epoch = epoch
        self.batch = batch
        self.param_norm = param_norm
        self.cause = cause
        super().__init__(
            f"{cause} at epoch {epoch}, batch {batch} (parameter norm {param_norm:.6g})"
        )


def head_width(method: str, num_classes: int) -> int:
    if method in ("gmlr", "lsep"):
        return 2 * num_classes
    if method == "crpc":
        return (num_classes + 1) * num_classes // 2
    raise ValueError(f"method must be one of {METHODS}")


@dataclass(frozen=True)
class FrontEnd:
    """Weight-shared image front end ahead of the affine stack.

    The ``CANVAS_CONVS`` unpadded square convolutions, each followed by
    ReLU, then global max and mean pooling per channel (max values
    first).  Convolution ``j`` stores its kernel as a
    (k * k * in_channels, out_channels) matrix in
    ``ModelParams.weights[j]``, patch entries ordered (row, column,
    channel).
    """

    image_shape: tuple[int, int, int]

    def __post_init__(self):
        if not isinstance(self.image_shape, (tuple, list)) or len(self.image_shape) != 3:
            raise ValueError(f"'image_shape' must be (height, width, channels), got {self.image_shape!r}")
        shape = tuple(integer(v, "image_shape", 1) for v in self.image_shape)
        object.__setattr__(self, "image_shape", shape)
        side = self.min_side
        if min(shape[:2]) < side:
            raise ValueError(
                f"image {shape[0]}x{shape[1]} is too small for the image front end: "
                f"the minimum canvas size is {side}x{side}"
            )

    @property
    def convs(self) -> tuple[tuple[int, int, int], ...]:
        return CANVAS_CONVS

    @property
    def min_side(self) -> int:
        """Smallest image side that leaves every convolution one output."""
        side = 1
        for kernel, stride, _ in reversed(self.convs):
            side = (side - 1) * stride + kernel
        return side

    @property
    def input_dim(self) -> int:
        h, w, c = self.image_shape
        return h * w * c

    @property
    def out_dim(self) -> int:
        return 2 * self.convs[-1][2]

    def kernel_shapes(self) -> list[tuple[int, int]]:
        shapes, channels = [], self.image_shape[2]
        for kernel, _, out in self.convs:
            shapes.append((kernel * kernel * channels, out))
            channels = out
        return shapes

    def to_dict(self) -> dict:
        return {"image_shape": list(self.image_shape), "convs": [list(c) for c in self.convs]}


@dataclass
class ModelParams:
    """Layer parameters; weights[i] has shape (in, out).

    With a front end, the first ``len(front_end.convs)`` entries are its
    convolution kernels and the rest are the affine stack.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head: str
    num_classes: int
    front_end: FrontEnd | None = None

    @property
    def n_convs(self) -> int:
        return 0 if self.front_end is None else len(self.front_end.convs)

    @property
    def input_dim(self) -> int:
        if self.front_end is not None:
            return self.front_end.input_dim
        return int(self.weights[0].shape[0])

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(int(w.shape[1]) for w in self.weights[self.n_convs : -1])

    def value_list(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


@dataclass
class TrainConfig:
    method: str = "gmlr"
    mode: str = "strong"
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-4
    weight_decay: float = 1e-5
    lr_decay_per_epoch: float = 0.9
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)
    stage2_epochs: int | None = None

    def __post_init__(self):
        for name, choices in (("method", METHODS), ("mode", MODES)):
            if getattr(self, name) not in choices:
                raise ValueError(f"'{name}' must be one of {choices}, got {getattr(self, name)!r}")
        for name, minimum in (("seed", 0), ("epochs", 0), ("batch_size", 1), ("stage2_epochs", 0)):
            if name != "stage2_epochs" or self.stage2_epochs is not None:
                setattr(self, name, integer(getattr(self, name), name, minimum))
        if not isinstance(self.hidden, (tuple, list)):
            raise ValueError(f"'hidden' must be a list of layer widths, got {self.hidden!r}")
        self.hidden = tuple(integer(width, "hidden", 1) for width in self.hidden)
        for name, ok, rule in (
            ("learning_rate", lambda v: v > 0, "> 0"),
            ("weight_decay", lambda v: v >= 0, ">= 0"),
            ("lr_decay_per_epoch", lambda v: 0 < v <= 1, "in (0, 1]"),
        ):
            if not ok(number(getattr(self, name), name)):
                raise ValueError(f"'{name}' must be a finite number {rule}, got {getattr(self, name)!r}")


def init_model(
    input_dim: int, num_classes: int, method: str, hidden=(64, 64), seed: int = 0,
    front_end: FrontEnd | None = None,
) -> ModelParams:
    """Fan-in-scaled uniform weights, zero biases, from a dedicated stream.

    With a front end its kernels are drawn first, then the affine stack
    on the pooled features.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0])))
    shapes = []
    if front_end is not None:
        if input_dim != front_end.input_dim:
            raise ValueError("input_dim does not match the front end's image shape")
        shapes = front_end.kernel_shapes()
        input_dim = front_end.out_dim
    dims = [input_dim, *hidden, head_width(method, num_classes)]
    shapes += list(zip(dims[:-1], dims[1:]))
    weights, biases = [], []
    for fan_in, fan_out in shapes:
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(
        weights=weights, biases=biases, head=method, num_classes=num_classes, front_end=front_end
    )


def _patches(h: np.ndarray, kernel: int, stride: int, out: np.ndarray | None = None) -> np.ndarray:
    """(n, H, W, C) maps -> (n, Ho, Wo, kernel * kernel * C) unpadded
    patches, entries ordered (row, column, channel), copied into ``out``
    when that is an array of this shape (made by this function), else
    into a new array."""
    win = np.lib.stride_tricks.sliding_window_view(h, (kernel, kernel), axis=(1, 2))
    win = win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    shape = (*win.shape[:3], kernel * kernel * h.shape[-1])
    if out is None or out.shape != shape:
        out = np.empty(shape)
    np.copyto(out.reshape(win.shape), win)
    return out


def _input_grad(dz: np.ndarray, w: np.ndarray, in_shape, kernel: int, stride: int) -> np.ndarray:
    """Gradient w.r.t. a convolution's input map from dz, the (n, Ho, Wo,
    out) gradient of its pre-activation: the adjoint of ``_patches``
    applied one kernel offset at a time."""
    n, ho, wo, out = dz.shape
    channels = in_shape[-1]
    taps = w.reshape(kernel, kernel, channels, out)
    flat = dz.reshape(-1, out)
    grad = np.zeros(in_shape)
    rows = stride * (ho - 1) + 1
    cols = stride * (wo - 1) + 1
    for a in range(kernel):
        for b in range(kernel):
            tap = (flat @ taps[a, b].T).reshape(n, ho, wo, channels)
            grad[:, a : a + rows : stride, b : b + cols : stride, :] += tap
    return grad


def _front_end_forward(params: ModelParams, x: np.ndarray, inputs, pre, work: dict):
    """Convolutions and pooling; appends per-conv caches, returns the
    pooled features and the max positions.  Each convolution's patch
    matrix is kept in ``work``, and the next batch of the same size
    writes into it."""
    fe = params.front_end
    n = x.shape[0]
    h = x.reshape(n, *fe.image_shape)
    for j, ((kernel, stride, out), w, b) in enumerate(zip(fe.convs, params.weights, params.biases)):
        cols = work[j] = _patches(h, kernel, stride, work.get(j))
        spatial = cols.shape[1:3]
        cols = cols.reshape(-1, cols.shape[-1])
        z = (cols @ w + b).reshape(n, *spatial, out)
        inputs.append(cols)
        pre.append(z)
        h = np.maximum(z, 0.0)
    flat = h.reshape(n, -1, h.shape[-1])
    argmax = flat.argmax(axis=1)
    peak = np.take_along_axis(flat, argmax[:, None, :], axis=1)[:, 0]
    return np.concatenate([peak, flat.mean(axis=1)], axis=1), argmax


def _front_end_backward(params: ModelParams, d_pooled, pre, inputs, argmax, grads):
    """Fills the convolution gradients from the pooled-feature gradient."""
    fe = params.front_end
    z = pre[params.n_convs - 1]
    n, channels = z.shape[0], z.shape[-1]
    positions = z.shape[1] * z.shape[2]
    d_max, d_mean = d_pooled[:, :channels], d_pooled[:, channels:]
    dh = np.repeat(d_mean[:, None, :] / positions, positions, axis=1)
    rows = np.arange(n)[:, None]
    dh[rows, argmax, np.arange(channels)[None, :]] += d_max
    dh = dh.reshape(z.shape)
    for j in range(params.n_convs - 1, -1, -1):
        kernel, stride, out = fe.convs[j]
        dz = dh * (pre[j] > 0)
        flat = dz.reshape(-1, out)
        grads[j] = (inputs[j].T @ flat, flat.sum(axis=0))
        if j > 0:
            dh = _input_grad(dz, params.weights[j], pre[j - 1].shape, kernel, stride)


def _forward_batch(params: ModelParams, x: np.ndarray, work: dict | None = None):
    """Returns (head output, cache for ``backward``).

    The cache holds, per weight matrix, the 2-D input it multiplied and
    its pre-activation, plus the front end's max-pool positions.  A
    ``work`` dict kept across a training run's batches lets each batch
    reuse the front end's patch buffers instead of allocating them; a
    cache is then only good until the next pass with the same ``work``.
    """
    if x.shape[-1] != params.input_dim:
        raise ValueError("feature length does not match first layer")
    h = x
    inputs, pre = [], []
    argmax = None
    if params.front_end is not None:
        h, argmax = _front_end_forward(params, x, inputs, pre, {} if work is None else work)
    last = len(params.weights) - 1
    for i in range(params.n_convs, last + 1):
        inputs.append(h)
        z = h @ params.weights[i] + params.biases[i]
        pre.append(z)
        h = z if i == last else np.maximum(z, 0.0)
    return h, (pre, inputs, argmax)


def backward(params: ModelParams, head_grads, cache):
    """Gradients of sum_i <head_grads[i], out_i> w.r.t. every parameter,
    for the (n, width) head gradients of the batch whose
    ``_forward_batch`` returned ``cache``.

    Returns [(dW, db), ...] aligned with the layers.
    """
    pre, inputs, argmax = cache
    first = params.n_convs
    grads = [None] * len(params.weights)
    dz = head_grads
    for i in range(len(params.weights) - 1, first - 1, -1):
        grads[i] = (inputs[i].T @ dz, dz.sum(axis=0))
        if i > first:
            dh = dz @ params.weights[i].T
            dz = dh * (pre[i - 1] > 0)
    if params.front_end is not None:
        d_pooled = dz @ params.weights[first].T
        _front_end_backward(params, d_pooled, pre, inputs, argmax, grads)
    return grads


def batch_objective(params: ModelParams, x, ranks_matrix, mode, work: dict | None = None):
    """Mean per-instance loss of the head's method (``params.head``) over
    the batch plus parameter gradients; ``work`` as in ``_forward_batch``."""
    x = np.asarray(x, dtype=float)
    out, cache = _forward_batch(params, x, work)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite network output")
    if params.head == "gmlr":
        # An overflow to inf is caught right below, so it need not warn.
        with np.errstate(over="ignore"):
            sigma = np.exp(0.5 * out[:, params.num_classes :])
        if not np.all(np.isfinite(sigma)) or not np.all(sigma > 0):
            raise FloatingPointError("variance head overflow")
        losses, head_grads = gmlr_objective(out, ranks_matrix, mode)
    elif params.head == "crpc":
        losses, head_grads = crpc_loss(out, ranks_matrix, mode)
    else:
        losses, head_grads = lsep_rank_loss(out, ranks_matrix, mode)
    n = x.shape[0]
    grads = backward(params, head_grads / n, cache)
    return float(np.sum(losses)) / n, grads


def lsep_threshold_objective(params: ModelParams, x, ranks_matrix):
    """LSEP's second stage: the mean classification loss and the gradients
    of the final layer's threshold columns and biases, which are affine in
    the frozen last hidden layer, so no backward pass is needed."""
    x = np.asarray(x, dtype=float)
    out, (_, inputs, _) = _forward_batch(params, x)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite network output")
    losses, head_grads = lsep_class_loss(out, ranks_matrix)
    n = x.shape[0]
    g = head_grads[:, params.num_classes :] / n
    return float(np.sum(losses)) / n, [inputs[-1].T @ g, g.sum(axis=0)]


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_values(cls, values) -> "AdamState":
        return cls(m=[np.zeros_like(v) for v in values], v=[np.zeros_like(v) for v in values])


def adam_step(values, grads, state: AdamState, lr, weight_decay=0.0):
    """One in-place Adam update with bias correction and coupled L2 decay."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for val, g, m, v in zip(values, grads, state.m, state.v):
        g = g + weight_decay * val
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        val -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return values, state


def _run_stage(params, values, objective, n, cfg: TrainConfig, stage, epochs, rng, log, epoch_offset):
    """Adam over ``values`` for ``epochs`` shuffled passes over n rows;
    ``objective(idx)`` gives a batch's mean loss and the grads of ``values``."""
    state = AdamState.for_values(values)
    for epoch in range(epochs):
        lr = cfg.learning_rate * cfg.lr_decay_per_epoch ** epoch
        perm = rng.permutation(n)
        epoch_sum = 0.0
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            cause = "non-finite loss"
            try:
                loss, grads = objective(idx)
            except FloatingPointError as exc:  # raised with the name of what blew up
                loss, cause = float("nan"), str(exc)
            if not np.isfinite(loss):
                norm = float(np.sqrt(sum(float(np.sum(v * v)) for v in params.value_list())))
                raise TrainingDiverged(epoch=epoch_offset + epoch, batch=b, param_norm=norm, cause=cause)
            adam_step(values, grads, state, lr, cfg.weight_decay)
            epoch_sum += loss * len(idx)
        log.append((epoch_offset + epoch, stage, epoch_sum / n, lr))


def _packed(params: ModelParams) -> np.ndarray:
    """Copies every weight and bias, in ``value_list`` order, into one
    flat vector and rebinds ``params.weights`` and ``params.biases`` as
    views into it, so one elementwise Adam update covers them all."""
    values = params.value_list()
    flat = np.concatenate([v.ravel() for v in values])
    parts = np.split(flat, np.cumsum([v.size for v in values])[:-1])
    views = [part.reshape(v.shape) for part, v in zip(parts, values)]
    params.weights, params.biases = views[0::2], views[1::2]
    return flat


def train_arrays(x, ranks, cfg: TrainConfig, image_shape=None):
    """Train a model on the (n, d) features and (n, K) ranks; returns
    (params, log).  The ranks must be non-negative integers
    (``checked_ranks``); a float or negative rank is refused before any
    work, never cast.

    Features that are flattened images of ``image_shape`` train behind
    the image front end, all others as a plain MLP.  The log holds
    (epoch, stage, mean per-instance loss, learning rate) rows.  GMLR
    and CRPC train in a single stage; LSEP trains the ranking loss
    first, then only the threshold head on the classification loss.
    """
    x = np.asarray(x, dtype=float)
    ranks_matrix = checked_ranks(ranks)
    if x.ndim != 2 or ranks_matrix.ndim != 2 or len(x) != len(ranks_matrix) or not len(x):
        raise ValueError("dataset must be non-empty (n, d) features with (n, K) ranks")
    front_end = None if image_shape is None else FrontEnd(image_shape)
    num_classes = ranks_matrix.shape[1]
    params = init_model(x.shape[1], num_classes, cfg.method, cfg.hidden, cfg.seed, front_end)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, 1])))
    log: list[tuple[int, int, float, float]] = []

    flat = _packed(params)
    work: dict = {}

    def ranking(idx):
        loss, grads = batch_objective(params, x[idx], ranks_matrix[idx], cfg.mode, work)
        return loss, [np.concatenate([g.ravel() for dw_db in grads for g in dw_db])]

    _run_stage(params, [flat], ranking, len(x), cfg, 1, cfg.epochs, rng, log, 0)
    if cfg.method == "lsep":
        # Views into the final layer: only the threshold slice trains.
        thresholds = [params.weights[-1][:, num_classes:], params.biases[-1][num_classes:]]
        stage2 = cfg.epochs if cfg.stage2_epochs is None else cfg.stage2_epochs
        _run_stage(
            params, thresholds, lambda idx: lsep_threshold_objective(params, x[idx], ranks_matrix[idx]),
            len(x), cfg, 2, stage2, rng, log, cfg.epochs,
        )
    return params, log


def train(dataset, cfg: TrainConfig):
    """``train_arrays`` on ``synthgen.RankedInstance`` records, which must
    share one ``image_shape`` (None for feature records)."""
    data = list(dataset)
    shapes = {inst.image_shape for inst in data}
    if len(shapes) != 1:
        raise ValueError("dataset is empty or mixes image shapes or image and feature instances")
    x = np.stack([inst.features for inst in data])
    ranks = np.stack([inst.ranks for inst in data])
    return train_arrays(x, ranks, cfg, shapes.pop())


def predict_batch(params: ModelParams, x) -> tuple[np.ndarray, Prediction]:
    """Forward passes over ``PREDICT_CHUNK``-row chunks of the (n, d)
    feature matrix, then the method's scores and bipartition rule.

    Returns the (n, width) head output and a ``Prediction`` of (n, K)
    scores and positive masks.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be an (n, d) matrix")
    out = np.empty((x.shape[0], head_width(params.head, params.num_classes)))
    for start in range(0, x.shape[0], PREDICT_CHUNK):
        out[start : start + PREDICT_CHUNK] = _forward_batch(params, x[start : start + PREDICT_CHUNK])[0]
    return out, decide(params.head, out, params.num_classes)


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, params: ModelParams, meta: dict | None = None) -> None:
    """Plain MLPs keep the version-1 layout byte for byte; models with a
    front end are written as version 2 with a ``front_end`` record."""
    doc = {
        "version": MLP_CHECKPOINT_VERSION,
        "head": params.head,
        "num_classes": params.num_classes,
        "input_dim": params.input_dim,
        "hidden": list(params.hidden),
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
        "meta": meta or {},
    }
    if params.front_end is not None:
        doc["version"] = FRONT_END_CHECKPOINT_VERSION
        doc["front_end"] = params.front_end.to_dict()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        # json.dumps, unlike json.dump, encodes with the C encoder.
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """(params, meta) of a ``save_checkpoint`` file.  A file that is not
    JSON, or nests it too deeply, is a ValueError naming the file; a
    checkpoint that breaks the layout is one naming the key, or the
    layer (``_check_layers``).  Its ``hidden`` must list the widths of
    the affine layers before the head, as JSON integers."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"checkpoint {path} is not readable JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint {path} must hold a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if type(version) is not int or version not in (MLP_CHECKPOINT_VERSION, FRONT_END_CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version!r}")
    front_end = None
    if version == FRONT_END_CHECKPOINT_VERSION:
        fe = doc.get("front_end")
        if not isinstance(fe, dict):
            raise ValueError(f"checkpoint 'front_end' must be a JSON object, got {type(fe).__name__}")
        shape = fe.get("image_shape")
        # As in the dataset header: only positive JSON integers count.
        if not (isinstance(shape, list) and len(shape) == 3 and all(type(v) is int and v > 0 for v in shape)):
            raise ValueError(f"checkpoint 'image_shape' must be 3 positive JSON integers, got {shape!r}")
        front_end = FrontEnd(shape)
        want = front_end.to_dict()["convs"]
        if fe.get("convs") != want:
            raise ValueError(
                f"checkpoint front end convolutions {fe.get('convs')!r} are not the "
                f"canvas front end's {want!r}"
            )
    num_classes = doc.get("num_classes")
    # Only a true JSON integer counts, as for every other count.
    if type(num_classes) is not int or num_classes < 1:
        raise ValueError(f"checkpoint 'num_classes' must be a positive JSON integer, got {num_classes!r}")
    if doc.get("head") not in METHODS:
        raise ValueError(f"checkpoint 'head' must be one of {METHODS}, got {doc.get('head')!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint 'meta' must be a JSON object, got {type(meta).__name__}")
    n_convs = 0 if front_end is None else len(front_end.convs)
    params = ModelParams(
        weights=_checkpoint_arrays(doc, "weights", n_convs),
        biases=_checkpoint_arrays(doc, "biases", n_convs),
        head=doc["head"],
        num_classes=num_classes,
        front_end=front_end,
    )
    _check_layers(params, doc.get("input_dim"))
    hidden = doc.get("hidden")
    if not (isinstance(hidden, list) and all(type(v) is int for v in hidden) and hidden == list(params.hidden)):
        raise ValueError(
            f"checkpoint 'hidden' must list its hidden affine layers' widths {list(params.hidden)}, got {hidden!r}"
        )
    return params, meta


def _layer_name(i: int, n_convs: int) -> str:
    """How a refusal names the layer of weight or bias ``i``."""
    return f"convolution {i + 1}" if i < n_convs else f"affine layer {i - n_convs + 1}"


def _checkpoint_arrays(doc: dict, key: str, n_convs: int) -> list[np.ndarray]:
    """The float arrays of the JSON list ``doc[key]``; a ValueError names
    the key when it is no list or an entry is not a numeric array, and
    the key and the layer when an entry holds a string, a boolean or
    null.  As for dataset features, nothing is cast: ``"0.5"`` and
    ``true`` are refused, not read as 0.5 and 1.0."""
    values = doc.get(key)
    try:
        if not isinstance(values, list):
            raise TypeError
        arrays = [np.asarray(v, dtype=float) for v in values]
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"checkpoint '{key}' must be a list of numeric arrays") from None
    for i, (value, array) in enumerate(zip(values, arrays)):
        # The array is regular, so its leaves sit ndim lists deep.
        leaves = value if array.ndim else [value]
        for _ in range(array.ndim - 1):
            leaves = list(itertools.chain.from_iterable(leaves))
        if not set(map(type, leaves)) <= {int, float}:
            bad = next(v for v in leaves if type(v) not in (int, float))
            raise ValueError(
                f"checkpoint '{key}' of {_layer_name(i, n_convs)} must hold JSON numbers, got {json.dumps(bad)}"
            )
    return arrays


def _check_layers(params: ModelParams, input_dim) -> None:
    """Refuses, naming the layer, a loaded checkpoint whose layers do not
    chain: every weight a matrix with one bias of its width, the front
    end's kernels in its shapes, each affine layer taking the width
    before it (the checkpoint's ``input_dim``, or the front end's pooled
    width, for the first), the last one the method's head width, and
    every value finite."""
    n_convs, front_end = params.n_convs, params.front_end
    if len(params.weights) != len(params.biases):
        raise ValueError(
            f"checkpoint holds {len(params.weights)} weight matrices but {len(params.biases)} biases"
        )
    if len(params.weights) <= n_convs:
        raise ValueError("checkpoint has no affine layer")
    kernels, width, before = [], input_dim, "its input_dim"
    if front_end is not None:
        kernels, width, before = front_end.kernel_shapes(), front_end.out_dim, "the front end's out_dim"
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        layer = _layer_name(i, n_convs)
        if w.ndim != 2:
            raise ValueError(f"checkpoint {layer} weight has shape {w.shape}, not a matrix's")
        if i < n_convs and w.shape != kernels[i]:
            raise ValueError(f"checkpoint {layer} has kernels of shape {w.shape}, not its front end's {kernels[i]}")
        if i >= n_convs:
            # The input_dim counts only as a JSON integer, as in the dataset header.
            if type(width) is not int or w.shape[0] != width:
                raise ValueError(f"checkpoint {layer} takes {w.shape[0]} inputs, not {before} {width!r}")
            width, before = w.shape[1], f"{layer}'s width"
        if b.shape != (w.shape[1],):
            raise ValueError(f"checkpoint {layer} bias has shape {b.shape}, not its width ({w.shape[1]},)")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"checkpoint {layer} holds a non-finite weight or bias")
    if width != head_width(params.head, params.num_classes):
        raise ValueError(f"checkpoint head width {width} does not match its method {params.head!r}")
