"""Recursive spectrum detector with per-layer analytic gradients.

Architecture (per image):

1. high-pass block: two spatial 3x3 convolutions (instance norm + leaky
   ReLU after each), then a per-channel magnitude spectrum, normalized as
   log(1 + m) followed by per-channel standardization (instance norm's
   kernel), then two spectral 3x3 convolutions (same norm/activation);
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
for the trailing-axes transform and back.  Every channel's spectrum and
statistics are independent of the others', so the stage runs
``SPECTRUM_GROUP`` channels at a time, forward and backward, and holds one
group's complex transform and work buffers instead of every channel's.
For the backward pass each convolution caches its input (a quadrant view
for the branch convolutions), not its im2col matrix, which is nine times
larger.  The cache keeps only what backward cannot recompute bitwise: a
conv-norm-act block keeps its input and its norm's ``xhat``, not the norm
output, which backward rebuilds as ``xhat * gain + beta`` with the
forward's own operations; the spectrum stage keeps, for each channel
group, the complex transform ``z``, the group's slice of the standardized
``shat`` (whose channel-last view is ``fq1``'s cached input) and the
per-plane scale ``inv``, not ``|z|``, which backward takes again.  The
backward pass consumes that cache from the head down, popping each layer's
entry (and each spectrum group's) so its activations are freed as soon as
its gradients are done; a cache serves one backward pass.  Inference
(``predict``, ``features``) keeps no cache and runs steps 1-2 one image at a
time, step by step: each step (a conv, a norm, an activation, the
spectrum stage, a unit) rebinds the map it consumes, so without a cache a
map is freed once the next step has read it.  The norm and the spectrum
stage write over their input, since nothing reads it again, so no step
holds more than two and a half maps: the first unit's input, its four
quarter-size branch maps and two of their products.
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
    standardize,
    standardize_backward,
)
from .spectral import quadrant_average, quadrant_split

# Branch names follow ``quadrant_split`` order.  The numeric floors are the
# kernels' own: ``ops.standardize``'s variance floor and ``fft.MAG_EPS``.
BRANCH_NAMES = ("q00", "q01", "q10", "q11")
LEAKY_SLOPE = 0.2  # every leaky ReLU of the detector, and the gain of the Kaiming init
SPECTRUM_GROUP = 8  # channels per pass of the spectrum stage


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


def _quadrants(h: np.ndarray) -> list:
    """Views of the four quadrants of a channel-last map (B, H, W, C), in
    ``quadrant_split`` order."""
    return [np.moveaxis(b, 1, 3) for b in quadrant_split(np.moveaxis(h, 3, 1))]


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

    def _conv_norm_act_backward(self, upstream, name, cache, grads, need_input=True):
        x, norm_cache = cache.pop(name)
        xhat, _, gain = norm_cache
        n = xhat * gain  # the norm output, bitwise as instance_norm_nhwc builds it
        n += self.params[f"{name}_beta"]
        dn = leaky_relu_backward(n, upstream, LEAKY_SLOPE)
        del n, xhat
        dz, dg, dbeta = instance_norm_nhwc_backward(norm_cache, dn)
        del dn, norm_cache  # before the conv backward allocates its blocks
        dx, dw, _ = conv3x3_nhwc_backward(
            x, self.params[f"{name}_w"], dz, need_input_grad=need_input
        )
        grads[f"{name}_w"] = dw
        grads[f"{name}_g"] = dg
        grads[f"{name}_beta"] = dbeta
        return dx

    def _plain_conv(self, x, name, cache):
        """conv ``name``, with its bias if it has one (a normed conv has none)."""
        z = conv3x3_nhwc(x, self.params[f"{name}_w"], self.params.get(f"{name}_b"))
        if cache is not None:
            cache[name] = x
        return z

    def _norm(self, z, name, cache):
        """Instance norm of block ``name``'s conv output.  The training cache
        pairs the block input, cached by ``_plain_conv``, with the norm's
        cache.  Without a cache nothing reads ``z`` again, so the norm runs
        in place in ``z`` with ``instance_norm_nhwc``'s own operations and
        returns it."""
        gain, beta = self.params[f"{name}_g"], self.params[f"{name}_beta"]
        if cache is None:
            z -= z.mean(axis=(1, 2), keepdims=True)
            standardize(z, (1, 2))
            z *= gain
            z += beta
            return z
        n, norm_cache = instance_norm_nhwc(z, gain, beta)
        cache[name] = (cache[name], norm_cache)
        return n

    def _plain_conv_backward(self, upstream, name, cache, grads):
        dx, dw, db = conv3x3_nhwc_backward(cache.pop(name), self.params[f"{name}_w"], upstream)
        grads[f"{name}_w"] = dw
        grads[f"{name}_b"] = db
        return dx

    # -- spectrum stage ---------------------------------------------------

    def _spectrum_normalize(self, x, cache):
        """Channel-wise |DFT|, log scaling, and standardization.

        Input and output are channel-last.  Each channel is independent, so
        the stage runs ``SPECTRUM_GROUP`` channels at a time: ``dft2`` of the
        group's channel-first view, then ``|z|``, ``log1p``, centring and
        ``ops.standardize`` in place in a buffer with the layout ``dft2``
        returns, so each plane's mean and variance sum in the order of an
        ungrouped pass.  With a training cache that buffer is the group's
        slice of one ``shat`` and the output is a channel-last view of
        ``shat``.  Without a cache nothing reads ``x`` again: each group's
        buffer is its own and is copied into ``x``'s channels, and the
        stage returns ``x``.
        """
        xt = x.transpose(0, 3, 1, 2)  # (B,C,H,W)
        groups = []
        for c0 in range(0, xt.shape[1], SPECTRUM_GROUP):
            group = slice(c0, c0 + SPECTRUM_GROUP)
            z = dft2(xt[:, group])
            if cache is None:
                s = np.empty_like(z.real)
            else:
                if not c0:
                    shat = np.empty_like(z.real, shape=xt.shape)
                s = shat[:, group]
            np.log1p(np.abs(z, out=s), out=s)
            s -= s.mean(axis=(2, 3), keepdims=True)
            inv = standardize(s, (2, 3))
            if cache is None:
                xt[:, group] = s
            else:
                groups.append((z, s, inv))
            del z, s  # before the next group's transform
        if cache is None:
            return x
        cache["spectrum"] = groups
        return shat.transpose(0, 2, 3, 1).astype(x.dtype, copy=False)

    def _spectrum_normalize_backward(self, upstream, cache):
        """Input gradient of the spectrum stage, one channel group at a time.
        ``|z|`` is recomputed, not cached, and ``standardize_backward``'s
        ``dlg`` and ``dmag = dlg / (1 + |z|)`` are built in the buffer of the
        group's channel-first copy of ``ds``.  Each group's ``z`` is dropped
        once its gradient is written."""
        groups = cache.pop("spectrum")
        dx = np.empty(upstream.shape, upstream.dtype)
        for c0 in range(0, upstream.shape[3], SPECTRUM_GROUP):
            z, shat, inv = groups.pop(0)
            group = slice(c0, c0 + SPECTRUM_GROUP)
            d = np.ascontiguousarray(upstream[..., group].transpose(0, 3, 1, 2))  # ds, dlg, dmag
            standardize_backward(d, shat, inv, (2, 3))
            mag = np.abs(z)
            d /= 1.0 + mag
            dx[..., group] = magnitude_backward(z, mag, d).transpose(0, 2, 3, 1)
            del z, mag, d
        return dx

    # -- stages -----------------------------------------------------------

    def _highpass(self, h, cache):
        """sp1, sp2, the spectrum stage, fq1, fq2.  Each conv-norm-act block
        runs as three steps that rebind ``h``: conv, instance norm, leaky
        ReLU.  The activation comes last so pooled statistics of the block
        output stay input-dependent (a pooled normalized map would be
        constant).  Without a cache, a block's input is freed once it is
        convolved, and the norm and the spectrum stage write over their
        input, so no step here holds more than two maps."""
        for name in ("sp1", "sp2", "fq1", "fq2"):
            if name == "fq1":
                h = self._spectrum_normalize(h, cache)
            h = self._plain_conv(h, name, cache)
            h = self._norm(h, name, cache)
            h = leaky_relu(h, LEAKY_SLOPE)
        return h

    def _fractal_unit(self, h, n, cache):
        """Level vector and next-level spectrum of unit n.  The four branch
        maps are freed once fused, unless the training cache keeps them."""
        blocks = _quadrants(h)
        branches = [
            self._plain_conv(block, f"u{n}_{q}", cache)
            for block, q in zip(blocks, BRANCH_NAMES)
        ]
        fused = elementwise_mul(*branches)
        if cache is not None:
            cache[f"u{n}"] = branches
        del branches
        fc = self._plain_conv(fused, f"u{n}_fuse", cache)
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
        del dfc
        # all four at once: one at a time would hold the factors and dfused longer
        dbranches = elementwise_mul_backward(branches, dfused)
        del branches, dfused
        b, h, w, c = dh.shape
        dx = np.empty((b, 2 * h, 2 * w, c), dtype=dh.dtype)
        for i, (q, quadrant) in enumerate(zip(BRANCH_NAMES, _quadrants(dx))):
            dq = self._plain_conv_backward(dbranches[i], f"u{n}_{q}", cache, grads)
            dbranches[i] = None
            # next-level average routes dh/4 back into each pre-conv quadrant
            np.divide(dh, 4.0, out=quadrant)
            quadrant += dq
            del dq  # before the next branch's conv backward
        return dx

    # -- full passes ------------------------------------------------------

    def _trunk(self, x, cache):
        """High-pass block, fractal units and pooled levels: (B, feature_width) vectors."""
        h = self._highpass(x, cache)
        level_vectors = []
        for n in range(self.config.n_units):
            vector, h = self._fractal_unit(h, n, cache)
            level_vectors.append(vector)
        level_vectors.append(h.mean(axis=(1, 2)))
        if cache is not None:
            cache["final_shape"] = h.shape
        return np.concatenate(level_vectors, axis=1)

    def _head(self, feats):
        """(B, feature_width) vectors -> (logits (B,), hidden pre-activation, activation)."""
        pre = feats @ self.params["head1_w"] + self.params["head1_b"]
        act = leaky_relu(pre, LEAKY_SLOPE)
        return (act @ self.params["head2_w"] + self.params["head2_b"])[:, 0], pre, act

    def _input(self, x):
        """``x`` in the model's dtype, checked to be (B, input_size, input_size, 1)."""
        cfg = self.config
        x = np.asarray(x, dtype=cfg.np_dtype)
        if x.ndim != 4 or x.shape[3] != 1:
            raise DimensionError(f"expected (B, H, W, 1) input, got {x.shape}")
        if x.shape[1] != cfg.input_size or x.shape[2] != cfg.input_size:
            raise DimensionError(
                f"model wants {cfg.input_size}x{cfg.input_size} input, got "
                f"{x.shape[1]}x{x.shape[2]}"
            )
        return x

    def forward(self, x: np.ndarray):
        """Training forward pass (B, H, W, 1) -> logits (B,) plus cache, with
        the trunk on the whole batch, since the backward pass sums over it."""
        cache: dict = {}
        feats = self._trunk(self._input(x), cache)
        logits, pre, act = self._head(feats)
        cache["head"] = (feats, pre, act)
        return logits, cache

    def features(self, x: np.ndarray) -> np.ndarray:
        """Level vectors (B, feature_width), no cache, the trunk run on one image
        at a time: inference holds one image's maps whatever B is, and a row
        does not depend on the rest of the batch."""
        x = self._input(x)
        feats = np.empty((x.shape[0], self.config.feature_width), dtype=x.dtype)
        for i in range(x.shape[0]):
            feats[i] = self._trunk(x[i:i + 1], None)[0]
        return feats

    def backward(self, cache: dict, dlogits: np.ndarray) -> dict:
        """Parameter gradients for the cached forward pass.

        Consumes the cache: each layer pops its entry, so its activations
        are freed once its gradients are done, and the cache is left empty.
        A cache can be used for backward only once.
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
        """Logits without a cache: the head runs once on the stacked ``features``
        (at one row numpy takes a GEMV path that sums in another order)."""
        return self._head(self.features(x))[0]


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
