"""Recursive spectrum detector with per-layer analytic gradients.

Architecture (per image):

1. high-pass block: two spatial 3x3 convolutions (instance norm + leaky
   ReLU after each), then a per-channel magnitude spectrum, normalized as
   log(1 + m) followed by per-channel standardization, then two spectral
   3x3 convolutions (same norm/activation pattern);
2. a stack of fractal units: the feature spectrum is split into its four
   quadrants, each passes through its own 3x3 convolution, the four branch
   maps are fused by elementwise multiplication, a final convolution plus
   global average pooling turns the fused map into a level vector, and the
   *pre-convolution* quadrants are averaged into the next-level spectrum;
3. head: level vectors from every unit plus the pooled final spectrum are
   concatenated and passed through one hidden linear layer to a scalar logit.

With ``n_units = 0`` the pooled feature spectrum feeds the head directly,
which is the direct-spectrum baseline the fractal variants are compared
against.

Activations are kept channel-last (B, H, W, C), the layout of the
convolutions' im2col rows; the spectrum stage transposes to channel-first
for the trailing-axes transform and back.  For the backward pass each
convolution caches its input (a quadrant view for the branch convolutions),
not its im2col matrix, which is nine times larger.  The backward pass
consumes that cache from the head down, popping each layer's entry so its
activations are freed as soon as its gradients are done; a cache serves one
backward pass.  Inference keeps no cache and runs steps 1-2 one image at a
time (see ``FractalCNN.forward``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .fft import dft2, magnitude_backward
from .ops import (
    conv3x3_nhwc,
    conv3x3_nhwc_backward,
    elementwise_mul,
    elementwise_mul_backward,
    instance_norm_nhwc,
    instance_norm_nhwc_backward,
    leaky_relu,
    leaky_relu_backward,
)
from .spectral import quadrant_average, quadrant_split

BRANCH_NAMES = ("q00", "q01", "q10", "q11")
LEAKY_SLOPE = 0.2  # every leaky ReLU, and the gain of the Kaiming init
NORM_EPS = 1e-5  # variance floor of instance norm and of the spectrum standardization
MAG_EPS = 1e-12  # magnitude floor of the spectrum's backward pass


@dataclass
class ModelConfig:
    """The whole detector (defaults match the reference setup): it sees the
    noise residual, with median window ``residual_kernel``, of an
    ``input_size`` crop of a graymap."""

    channels: int = 32
    n_units: int = 2
    input_size: int = 64
    residual_kernel: int = 7
    head_hidden: int = 64
    dtype: str = "float32"

    def __post_init__(self):
        if min(self.channels, self.head_hidden) < 1:
            raise ParameterError("channels and head_hidden must be >= 1")
        if not 0 <= self.n_units <= 4:
            raise ParameterError(f"n_units must be in 0..4, got {self.n_units}")
        if self.input_size < 2:
            raise ParameterError(f"input_size must be >= 2, got {self.input_size}")
        if self.input_size % (1 << self.n_units):
            raise ParameterError(
                f"input_size {self.input_size} not divisible by 2^{self.n_units}"
            )
        if not (1 <= self.residual_kernel <= self.input_size and self.residual_kernel % 2):
            raise ParameterError(
                f"residual_kernel must be odd, >= 1 and <= input_size {self.input_size}, "
                f"got {self.residual_kernel}"
            )
        if self.dtype not in ("float32", "float64"):
            raise ParameterError(f"dtype must be float32 or float64, got {self.dtype}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    @property
    def feature_width(self) -> int:
        return self.channels * (self.n_units + 1)

    def param_shapes(self) -> dict:
        """Name -> shape of every detector parameter, in initialization order."""
        c = self.channels
        shapes: dict = {}

        def conv(name, c_in, with_norm):
            shapes[f"{name}_w"] = (3, 3, c_in, c)
            if with_norm:
                # no conv bias: the following instance norm would cancel it
                shapes[f"{name}_g"] = shapes[f"{name}_beta"] = (c,)
            else:
                shapes[f"{name}_b"] = (c,)

        for name, c_in in (("sp1", 1), ("sp2", c), ("fq1", c), ("fq2", c)):
            conv(name, c_in, True)
        for n in range(self.n_units):
            for q in BRANCH_NAMES + ("fuse",):
                conv(f"u{n}_{q}", c, False)
        shapes["head1_w"] = (self.feature_width, self.head_hidden)
        shapes["head1_b"] = (self.head_hidden,)
        shapes["head2_w"] = (self.head_hidden, 1)
        shapes["head2_b"] = (1,)
        return shapes


class FractalCNN:
    """Parameter container plus hand-written forward/backward passes."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict = {}
        self._init_params(np.random.default_rng(seed))

    # -- construction -----------------------------------------------------

    def _init_params(self, rng: np.random.Generator):
        cfg = self.config
        gain = np.sqrt(2.0 / (1.0 + LEAKY_SLOPE ** 2))
        dt = cfg.np_dtype

        def kaiming(shape, fan_in):
            bound = gain * np.sqrt(6.0 / fan_in)
            return rng.uniform(-bound, bound, size=shape).astype(dt)

        for name, shape in cfg.param_shapes().items():
            if name.endswith("_w"):  # fan-in: all but the output axis
                self.params[name] = kaiming(shape, math.prod(shape[:-1]))
            elif name.endswith("_g"):
                self.params[name] = np.ones(shape, dtype=dt)
            else:
                self.params[name] = np.zeros(shape, dtype=dt)

    def param_names(self):
        return sorted(self.params)

    def copy_params(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}

    def load_params(self, params: dict) -> None:
        if sorted(params) != self.param_names():
            raise DimensionError("parameter sets do not match model configuration")
        for name, value in params.items():
            if value.shape != self.params[name].shape:
                raise DimensionError(f"parameter {name} shape {value.shape} unexpected")
            self.params[name] = np.asarray(value, dtype=self.config.np_dtype)

    # -- layer helpers ----------------------------------------------------

    def _conv_norm_act(self, x, name, cache, keep):
        """conv -> instance norm -> leaky ReLU.

        The activation comes last so pooled statistics of the block output
        stay input-dependent (a pooled normalized map would be constant).
        """
        p = self.params
        z = conv3x3_nhwc(x, p[f"{name}_w"], None)
        n, norm_cache = instance_norm_nhwc(z, p[f"{name}_g"], p[f"{name}_beta"], NORM_EPS)
        y = leaky_relu(n, LEAKY_SLOPE)
        if keep:
            cache[name] = (x, n, norm_cache)
        return y

    def _conv_norm_act_backward(self, upstream, name, cache, grads, need_input=True):
        x, n, norm_cache = cache.pop(name)
        dn = leaky_relu_backward(n, upstream, LEAKY_SLOPE)
        dz, dg, dbeta = instance_norm_nhwc_backward(norm_cache, dn)
        dx, dw, _ = conv3x3_nhwc_backward(
            x, self.params[f"{name}_w"], dz, need_input_grad=need_input
        )
        grads[f"{name}_w"] = dw
        grads[f"{name}_g"] = dg
        grads[f"{name}_beta"] = dbeta
        return dx

    def _plain_conv(self, x, name, cache, keep):
        z = conv3x3_nhwc(x, self.params[f"{name}_w"], self.params[f"{name}_b"])
        if keep:
            cache[name] = x
        return z

    def _plain_conv_backward(self, upstream, name, cache, grads):
        dx, dw, db = conv3x3_nhwc_backward(cache.pop(name), self.params[f"{name}_w"], upstream)
        grads[f"{name}_w"] = dw
        grads[f"{name}_b"] = db
        return dx

    # -- spectrum stage ---------------------------------------------------

    def _spectrum_normalize(self, x, cache, keep):
        """Channel-wise |DFT|, log scaling, and standardization.

        Input and output are channel-last.  The transform reads a
        channel-first view, and the output is a channel-last view of
        ``shat``: the next conv pads (copies) its input anyway.
        """
        z = dft2(x.transpose(0, 3, 1, 2))  # (B,C,H,W)
        mag = np.abs(z)
        lg = np.log1p(mag)
        mu = lg.mean(axis=(2, 3), keepdims=True)
        var = lg.var(axis=(2, 3), keepdims=True)
        inv = 1.0 / np.sqrt(var + NORM_EPS)
        shat = (lg - mu) * inv
        out = shat.transpose(0, 2, 3, 1).astype(x.dtype, copy=False)
        if keep:
            cache["spectrum"] = (z, mag, shat, inv)
        return out

    def _spectrum_normalize_backward(self, upstream, cache):
        z, mag, shat, inv = cache.pop("spectrum")
        ds = np.ascontiguousarray(upstream.transpose(0, 3, 1, 2))
        mean_d = ds.mean(axis=(2, 3), keepdims=True)
        mean_ds = (ds * shat).mean(axis=(2, 3), keepdims=True)
        dlg = inv * (ds - mean_d - shat * mean_ds)
        dmag = dlg / (1.0 + mag)
        dt = magnitude_backward(z, mag, dmag, MAG_EPS)
        return np.ascontiguousarray(dt.transpose(0, 2, 3, 1)).astype(upstream.dtype, copy=False)

    # -- stages -----------------------------------------------------------

    def _highpass(self, x, cache, keep):
        h = self._conv_norm_act(x, "sp1", cache, keep)
        h = self._conv_norm_act(h, "sp2", cache, keep)
        h = self._spectrum_normalize(h, cache, keep)
        h = self._conv_norm_act(h, "fq1", cache, keep)
        return self._conv_norm_act(h, "fq2", cache, keep)

    def _fractal_unit(self, h, n, cache, keep):
        # quadrant views of the channel-last map
        blocks = [np.moveaxis(b, 1, 3) for b in quadrant_split(np.moveaxis(h, 3, 1))]
        branches = [
            self._plain_conv(block, f"u{n}_{q}", cache, keep)
            for block, q in zip(blocks, BRANCH_NAMES)
        ]
        fc = self._plain_conv(elementwise_mul(*branches), f"u{n}_fuse", cache, keep)
        if keep:
            cache[f"u{n}"] = branches
        return fc.mean(axis=(1, 2)), quadrant_average(*blocks)

    def _fractal_unit_backward(self, dh, dvector, n, cache, grads):
        """Unit n's gradient wrt its input map, from those of its level
        vector and of the next-level spectrum ``dh``.  Its temporaries are
        freed on return, before the high-pass block's backward pass."""
        branches = cache.pop(f"u{n}")
        fc_shape = branches[0].shape  # the fuse conv keeps the branch shape
        dfc = np.broadcast_to(
            dvector[:, None, None, :] / (fc_shape[1] * fc_shape[2]), fc_shape
        ).astype(self.config.np_dtype)
        dfused = self._plain_conv_backward(dfc, f"u{n}_fuse", cache, grads)
        dbranches = elementwise_mul_backward(branches, dfused)
        # next-level average routes dh/4 back into each pre-conv quadrant
        dquarter = dh / 4.0
        d00, d01, d10, d11 = [
            self._plain_conv_backward(db, f"u{n}_{q}", cache, grads) + dquarter
            for db, q in zip(dbranches, BRANCH_NAMES)
        ]
        return np.concatenate(
            [np.concatenate([d00, d01], axis=2), np.concatenate([d10, d11], axis=2)], axis=1
        )

    # -- full passes ------------------------------------------------------

    def _trunk(self, x, cache, keep):
        """High-pass block, fractal units and pooled levels: (B, feature_width) vectors."""
        h = self._highpass(x, cache, keep)
        level_vectors = []
        for n in range(self.config.n_units):
            vector, h = self._fractal_unit(h, n, cache, keep)
            level_vectors.append(vector)
        level_vectors.append(h.mean(axis=(1, 2)))
        if keep:
            cache["final_shape"] = h.shape
        return np.concatenate(level_vectors, axis=1)

    def forward(self, x: np.ndarray, keep_cache: bool = True):
        """Forward pass (B, H, W, 1) -> logits (B,) plus cache.

        With ``keep_cache`` (a training step) the trunk runs on the whole
        batch, since the backward pass sums gradients over it.  Without, the
        trunk runs on one image at a time, so inference holds one image's
        feature maps whatever B is; every trunk op works per image, so the
        level vectors are those of the batched trunk.  The head's two GEMMs
        still run once on the stacked (B, feature_width) vectors: at one row
        numpy takes a GEMV path that sums in another order.
        """
        cfg = self.config
        x = np.asarray(x, dtype=cfg.np_dtype)
        if x.ndim != 4 or x.shape[3] != 1:
            raise DimensionError(f"expected (B, H, W, 1) input, got {x.shape}")
        if x.shape[1] != cfg.input_size or x.shape[2] != cfg.input_size:
            raise DimensionError(
                f"model wants {cfg.input_size}x{cfg.input_size} input, got "
                f"{x.shape[1]}x{x.shape[2]}"
            )
        cache: dict = {}
        if keep_cache:
            feats = self._trunk(x, cache, True)
        else:
            feats = np.empty((x.shape[0], cfg.feature_width), dtype=cfg.np_dtype)
            for i in range(x.shape[0]):
                feats[i] = self._trunk(x[i:i + 1], cache, False)[0]
        pre = feats @ self.params["head1_w"] + self.params["head1_b"]
        act = leaky_relu(pre, LEAKY_SLOPE)
        logits = (act @ self.params["head2_w"] + self.params["head2_b"])[:, 0]
        if keep_cache:
            cache["head"] = (feats, pre, act)
        cache["features"] = feats
        return logits, cache

    def features(self, x: np.ndarray) -> np.ndarray:
        """Concatenated level vectors (B, channels * (n_units + 1)), no caching.

        Computed one image at a time (see ``forward``), so each row is that
        image's own and does not depend on the rest of the batch."""
        _, cache = self.forward(x, keep_cache=False)
        return cache["features"]

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict:
        """Parameter gradients for the cached forward pass.

        Consumes the cache: each layer pops its entry, so its activations
        are freed once its gradients are done, and only ``"features"`` is
        left.  A cache can be used for backward only once.
        """
        cfg = self.config
        grads: dict = {}
        feats, pre, act = cache.pop("head")

        dact = dlogits[:, None] @ self.params["head2_w"].T
        grads["head2_w"] = act.T @ dlogits[:, None]
        grads["head2_b"] = np.array([dlogits.sum()], dtype=cfg.np_dtype)
        dpre = leaky_relu_backward(pre, dact, LEAKY_SLOPE)
        grads["head1_w"] = feats.T @ dpre
        grads["head1_b"] = dpre.sum(axis=0)
        dfeats = dpre @ self.params["head1_w"].T

        c = cfg.channels
        dvectors = [
            dfeats[:, i * c:(i + 1) * c] for i in range(cfg.n_units + 1)
        ]

        # pooled final level
        final_shape = cache.pop("final_shape")
        _, fh, fw, _ = final_shape
        dh = np.broadcast_to(
            dvectors[-1][:, None, None, :] / (fh * fw), final_shape
        ).astype(cfg.np_dtype)

        for n in range(cfg.n_units - 1, -1, -1):
            dh = self._fractal_unit_backward(dh, dvectors[n], n, cache, grads)

        dh = self._conv_norm_act_backward(dh, "fq2", cache, grads)
        dh = self._conv_norm_act_backward(dh, "fq1", cache, grads)
        dh = self._spectrum_normalize_backward(dh, cache)
        dh = self._conv_norm_act_backward(dh, "sp2", cache, grads)
        self._conv_norm_act_backward(dh, "sp1", cache, grads, need_input=False)
        return grads

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Logits without gradient bookkeeping."""
        logits, _ = self.forward(x, keep_cache=False)
        return logits


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def bce_with_logits(logits: np.ndarray, labels: np.ndarray):
    """Numerically stable binary cross-entropy on sigmoid logits.

    Returns (mean loss, dloss/dlogits).
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    sig = 1.0 / (1.0 + np.exp(-z))
    grad = (sig - y) / z.size
    return float(loss.mean()), grad.astype(logits.dtype, copy=False)
