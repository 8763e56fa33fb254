"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Criteria 7 and 8 train full-size detectors and are marked ``slow`` (tens of
minutes on a laptop CPU); everything else finishes in well under two
minutes.  Run just this module with ``pytest tests/test_acceptance.py -v``.
"""

import time

import numpy as np
import pytest

from fsf.checkpoint import ModelCheckpoint, load_checkpoint, save_checkpoint
from fsf.errors import FormatError
from fsf.fft import dft2
from fsf.figures import formation_grid
from fsf.forensics import AugmentPolicy, DistortionConfig, apply_augment_plan, draw_augment_plan
from fsf.model import FractalCNN, ModelConfig
from fsf.ops import conv3x3_nhwc, median_filter
from fsf.simulate import (
    CorpusSpec,
    PipelineConfig,
    build_corpus,
    embed_spectral_watermark,
    generate_fake,
    letter_a_glyph,
    synth_real,
    upsample_nearest,
    upsample_zero,
)
from fsf.spectral import quadrant_split, self_similarity, spectrum_of
from fsf.training import TrainConfig, auc_score, evaluate, train

from oracles import naive_conv2d, naive_dft2, rel_err, sort_median_filter
from test_model import check_param_gradients, jittered_model, toy_config


def report(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number:>2}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


# -- 1: tiling identity ------------------------------------------------------

def test_criterion_1_tiling_identity(capsys):
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        h, w = rng.integers(4, 25, size=2) * 2
        image = rng.random((h, w))
        base = spectrum_of(image)
        for block in quadrant_split(spectrum_of(upsample_zero(image))):
            worst = max(worst, rel_err(block, base))
    elapsed = time.perf_counter() - start
    report(
        capsys, 1, worst <= 1e-9 and elapsed < 10.0,
        f"zero-insertion quadrants equal base spectrum: worst rel err {worst:.2e} "
        f"(limit 1e-9), {elapsed:.1f}s (limit 10s)",
    )


# -- 2: nearest-neighbour factorization --------------------------------------

def test_criterion_2_nearest_factorization(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        h, w = rng.integers(4, 33, size=2)
        image = rng.random((h, w))
        measured = spectrum_of(upsample_nearest(image))
        base = spectrum_of(image)
        u = np.arange(2 * h)[:, None]
        v = np.arange(2 * w)[None, :]
        envelope = 4 * np.abs(np.cos(np.pi * u / (2 * h)) * np.cos(np.pi * v / (2 * w)))
        tiled = base[np.arange(2 * h) % h][:, np.arange(2 * w) % w]
        worst = max(worst, rel_err(measured, tiled * envelope))
    report(
        capsys, 2, worst <= 1e-9,
        f"nearest spectrum = tiling x cosine envelope: worst rel err {worst:.2e} (limit 1e-9)",
    )


# -- 3: DFT oracle equivalence + Parseval -------------------------------------

def test_criterion_3_dft_oracle_and_parseval(capsys):
    rng = np.random.default_rng(3)
    worst_oracle = 0.0
    worst_parseval = 0.0
    for n in (5, 7, 8, 12, 64, 224):
        x = rng.standard_normal((n, n))
        spec = dft2(x)
        worst_oracle = max(worst_oracle, rel_err(spec, naive_dft2(x)))
        energy = np.sum(np.abs(spec) ** 2) / (n * n)
        worst_parseval = max(worst_parseval, abs(energy - np.sum(x ** 2)) / np.sum(x ** 2))
    report(
        capsys, 3, worst_oracle <= 1e-9 and worst_parseval <= 1e-9,
        f"fast DFT vs naive double-sum at sizes 5,7,8,12,64,224: worst rel err "
        f"{worst_oracle:.2e}; Parseval worst {worst_parseval:.2e} (limits 1e-9)",
    )


# -- 4: gradient suite ---------------------------------------------------------

def test_criterion_4_gradient_suite(capsys):
    from oracles import fd_gradient
    from fsf.fft import magnitude_backward
    from fsf.ops import (
        conv3x3_nhwc,
        conv3x3_nhwc_backward,
        elementwise_mul,
        elementwise_mul_backward,
        instance_norm_nhwc,
        instance_norm_nhwc_backward,
        leaky_relu,
        leaky_relu_backward,
    )

    rng = np.random.default_rng(4)
    failures = []

    def nhwc(a):  # one channel-first image -> the model's (1, H, W, C) batch
        return np.ascontiguousarray(a.transpose(1, 2, 0)[None])

    x = nhwc(rng.standard_normal((2, 5, 5)))
    k = np.ascontiguousarray(rng.standard_normal((2, 2, 3, 3)).transpose(2, 3, 1, 0))
    up = nhwc(rng.standard_normal((2, 5, 5)))
    gx, gk, _ = conv3x3_nhwc_backward(x, k, up)
    fd = fd_gradient(lambda a: float(np.sum(up * conv3x3_nhwc(a, k))), x.copy())
    if rel_err(gx, fd) > 1e-4:
        failures.append("conv3x3_nhwc input grad")
    fd = fd_gradient(lambda a: float(np.sum(up * conv3x3_nhwc(x, a))), k.copy())
    if rel_err(gk, fd) > 1e-4:
        failures.append("conv3x3_nhwc kernel grad")

    g = rng.standard_normal(2)
    b = rng.standard_normal(2)
    gi, _, _ = instance_norm_nhwc_backward(instance_norm_nhwc(x, g, b)[1], up)
    fd = fd_gradient(lambda a: float(np.sum(up * instance_norm_nhwc(a, g, b)[0])), x.copy())
    if rel_err(gi, fd) > 1e-4:
        failures.append("instance_norm_nhwc input grad")

    v = rng.standard_normal(64)
    v = v[np.abs(v) > 1e-3]
    uv = rng.standard_normal(v.size)
    if rel_err(
        leaky_relu_backward(v, uv, 0.2),
        fd_gradient(lambda a: float(np.sum(uv * leaky_relu(a, 0.2))), v.copy()),
    ) > 1e-4:
        failures.append("leaky_relu grad")

    arrays = [rng.standard_normal((4, 4)) for _ in range(4)]
    um = rng.standard_normal((4, 4))
    grads = elementwise_mul_backward(arrays, um)
    for i in range(4):
        def loss(a, i=i):
            args = list(arrays)
            args[i] = a
            return float(np.sum(um * elementwise_mul(*args)))
        if rel_err(grads[i], fd_gradient(loss, arrays[i].copy())) > 1e-4:
            failures.append(f"elementwise_mul grad {i}")

    plane = rng.standard_normal((6, 6))
    us = rng.standard_normal((6, 6))
    z = dft2(plane)
    if rel_err(
        magnitude_backward(z, np.abs(z), us),
        fd_gradient(lambda a: float(np.sum(us * spectrum_of(a))), plane.copy()),
    ) > 1e-4:
        failures.append("magnitude grad")

    for n_units in (1, 2):
        model = jittered_model(toy_config(n_units), seed=40 + n_units)
        xb = 0.2 * rng.standard_normal((2, 16, 16, 1))
        labels = np.array([0.0, 1.0])
        try:
            check_param_gradients(model, xb, labels)
        except AssertionError:
            failures.append(f"end-to-end toy model N={n_units}")

    report(
        capsys, 4, not failures,
        "all layer and end-to-end finite-difference checks within 1e-4"
        + ("" if not failures else f"; failed: {failures}"),
    )


# -- 5: brute-force oracles ----------------------------------------------------

def test_criterion_5_median_and_conv_oracles(capsys):
    rng = np.random.default_rng(5)
    median_exact = True
    for k in (1, 3, 5, 7):
        x = rng.standard_normal((11, 11))
        median_exact &= bool(np.array_equal(median_filter(x, k), sort_median_filter(x, k)))
    x = rng.standard_normal((2, 6, 6))
    kern = rng.standard_normal((3, 2, 3, 3))
    bias = rng.standard_normal(3)
    # the multi-channel conv with bias is the detector's, on channel-last copies
    out = conv3x3_nhwc(np.ascontiguousarray(x.transpose(1, 2, 0)[None]),
                       np.ascontiguousarray(kern.transpose(2, 3, 1, 0)), bias)
    conv_err = rel_err(out[0].transpose(2, 0, 1), naive_conv2d(x, kern, bias))
    report(
        capsys, 5, median_exact and conv_err <= 1e-12,
        f"median bit-exact for k in {{1,3,5,7}}: {median_exact}; "
        f"conv vs 6-loop oracle rel err {conv_err:.2e} (limit 1e-12)",
    )


# -- 6: hand-crafted feature separation ----------------------------------------

def test_criterion_6_statistic_auc(capsys):
    start = time.perf_counter()
    pipe = PipelineConfig("zero_insert", 1, 61, 32)
    fake = [self_similarity(spectrum_of(generate_fake(s, pipe))) for s in range(200)]
    real = [self_similarity(spectrum_of(synth_real(50_000 + s, 64))) for s in range(200)]
    auc = auc_score(fake, real)
    elapsed = time.perf_counter() - start
    report(
        capsys, 6, auc >= 0.95 and elapsed < 120.0,
        f"fused-quadrant statistic AUC {auc:.4f} on 200 zero-insert vs 200 plain "
        f"64x64 images (limit 0.95), {elapsed:.1f}s (limit 120s)",
    )


# -- 7 & 8: trained-detector criteria (slow) ------------------------------------

ACCEPT_PIPELINES = [
    # training population: transposed-conv generators at three scales, a
    # fresh filter bank per image
    PipelineConfig("tconv_conv", 3, 201, 8, name="tconv_d3", kernel_scope="image"),
    PipelineConfig("tconv_conv", 2, 202, 16, name="tconv_d2", kernel_scope="image"),
    PipelineConfig("tconv_conv", 1, 203, 32, name="tconv_d1", kernel_scope="image"),
    # held-out kinds, never trained on
    PipelineConfig("nearest", 2, 212, 16, name="near_d2"),
    PipelineConfig("nearest", 3, 213, 8, name="near_d3"),
    PipelineConfig("zero_insert", 2, 222, 16, name="zero_d2"),
]
UNSEEN = ("near_d2", "near_d3", "zero_d2")
SEEN = ("tconv_d1", "tconv_d2", "tconv_d3")


@pytest.fixture(scope="session")
def trained_detectors(tmp_path_factory):
    """Corpus plus N=2 and N=0 detectors trained on transposed-conv fakes only."""
    root = tmp_path_factory.mktemp("acceptance_corpus")
    spec = CorpusSpec(
        size=64,
        seed=88,
        pipelines=ACCEPT_PIPELINES,
        n_train_real=250,
        n_train_fake=250,
        n_test_real=100,
        n_test_fake=40,
        holdout=UNSEEN,
        spectral_exponent=(0.75, 1.3),
        sensor_noise=0.02,
    )
    manifests = build_corpus(spec, root)
    checkpoints = {}
    for n_units in (2, 0):
        model_cfg = ModelConfig(channels=32, n_units=n_units, input_size=64)
        train_cfg = TrainConfig(
            seed=5, batch_size=32, max_epochs=12, patience=2,
            augment=AugmentPolicy(crop=64),
        )
        checkpoints[n_units], _ = train(manifests["train"], model_cfg, train_cfg)
    return manifests, checkpoints


@pytest.mark.slow
def test_criterion_7_cross_pipeline_generalization(capsys, trained_detectors):
    manifests, checkpoints = trained_detectors
    start = time.perf_counter()
    res2 = evaluate(checkpoints[2], manifests["test"])
    res0 = evaluate(checkpoints[0], manifests["test"])
    acc2 = {p: res2.per_pipeline[p] for p in UNSEEN}
    acc0 = {p: res0.per_pipeline[p] for p in UNSEEN}
    floor = min(acc2.values())
    # the reference comparison is between unit-count averages, so the margin
    # is taken on the mean unseen-pipeline accuracy
    margin = np.mean(list(acc2.values())) - np.mean(list(acc0.values()))
    elapsed = time.perf_counter() - start
    report(
        capsys, 7, floor >= 0.85 and margin >= 0.05,
        f"unseen-pipeline accuracy N=2 { {k: round(v, 3) for k, v in acc2.items()} } "
        f"(floor {floor:.3f}, limit 0.85); N=0 baseline "
        f"{ {k: round(v, 3) for k, v in acc0.items()} }; mean margin "
        f"{margin * 100:.1f} pts (limit 5); eval {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_8_robustness_under_distortion(capsys, trained_detectors):
    manifests, checkpoints = trained_detectors
    seen = SEEN
    clean = evaluate(checkpoints[2], manifests["test"])
    clean_acc = np.mean([clean.per_pipeline[p] for p in seen])
    drops = {}
    for dist in (
        DistortionConfig("jpeg", jpeg_quality=95),
        DistortionConfig("downsample"),
        DistortionConfig("gaussian_blur", blur_sigma=1.0),
    ):
        res = evaluate(checkpoints[2], manifests["test"], dist)
        acc = np.mean([res.per_pipeline[p] for p in seen])
        drops[dist.label] = (clean_acc - acc) * 100
    worst = max(drops.values())
    report(
        capsys, 8, worst <= 25.0,
        f"seen-pipeline accuracy {clean_acc:.3f} clean; drops (pts): "
        + ", ".join(f"{k} {v:.1f}" for k, v in drops.items())
        + " (limit 25)",
    )


# -- 9: augmentation statistics --------------------------------------------------

def test_criterion_9_augment_gate_statistics(capsys):
    policy = AugmentPolicy()
    rng = np.random.default_rng(9)
    counts = np.zeros(3)
    n = 10_000
    for _ in range(n):
        kinds = [d.kind for d in draw_augment_plan(policy, rng)]
        counts += [k in kinds for k in ("jpeg", "gaussian_blur", "downsample")]
    rates = counts / n
    in_band = bool(np.all((rates >= 0.08) & (rates <= 0.12)))
    image = synth_real(90, 80)
    policy64 = AugmentPolicy(p_jpeg=0.5, p_blur=0.5, p_down=0.5, crop=64)

    def augment(seed):
        return apply_augment_plan(image, draw_augment_plan(policy64, np.random.default_rng(seed)), 64)

    repro = np.array_equal(augment(77), augment(77))
    report(
        capsys, 9, in_band and repro,
        f"gate rates over 10000 draws: jpeg {rates[0]:.3f}, blur {rates[1]:.3f}, "
        f"down {rates[2]:.3f} (band 0.08..0.12); seeded pipeline reproducible: {repro}",
    )


# -- 10: checkpoint round trip ----------------------------------------------------

def test_criterion_10_checkpoint_round_trip(capsys, tmp_path):
    cfg = ModelConfig(channels=8, n_units=2, input_size=32, head_hidden=16)
    model = FractalCNN(cfg, seed=10)
    ckpt = ModelCheckpoint(cfg, model.copy_params(), {"epoch": 3, "seed": 10, "val_loss": 0.2})
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, ckpt)
    reloaded = load_checkpoint(path)
    params_equal = all(
        np.array_equal(reloaded.params[name], ckpt.params[name]) for name in ckpt.params
    )
    x = np.random.default_rng(0).standard_normal((2, 32, 32, 1)).astype(np.float32)
    logits_equal = np.array_equal(model.predict(x), reloaded.build_model().predict(x))
    resaved = tmp_path / "model2.ckpt"
    save_checkpoint(resaved, reloaded)
    bytes_equal = path.read_bytes() == resaved.read_bytes()
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 3] ^= 0x40
    corrupt = tmp_path / "corrupt.ckpt"
    corrupt.write_bytes(bytes(blob))
    try:
        load_checkpoint(corrupt)
        rejected = False
    except FormatError:
        rejected = True
    report(
        capsys, 10, params_equal and logits_equal and bytes_equal and rejected,
        f"params bit-equal: {params_equal}; logits bit-equal: {logits_equal}; "
        f"save-load-save byte-identical: {bytes_equal}; corruption rejected: {rejected}",
    )


# -- 11: formation grid reproduction ----------------------------------------------

def test_criterion_11_formation_grid(capsys, tmp_path):
    rows = formation_grid(tmp_path / "grid", seed=11, base_size=28, stages=3)
    files = {r[0] for r in rows}
    grid_complete = len(files) == 12  # 3 kinds x (origin + 3 stages)
    zero_corrs = [float(r[3]) for r in rows if r[1] == "zero_insert" and r[2] != 0]
    corr_ok = all(c >= 0.9 for c in zero_corrs)

    # glyph replication: the watermark bins reappear on the 2x2 grid after
    # one zero-insertion stage, with visibly higher magnitude than the same
    # image without the watermark.
    base = synth_real(11, 28)
    glyph = letter_a_glyph(28, 15)
    marked = embed_spectral_watermark(base, glyph)
    spec_plain = spectrum_of(upsample_zero(base))
    spec_marked = spectrum_of(upsample_zero(marked))
    ys, xs = np.nonzero(glyph)
    visible = 0
    for dy in (0, 28):
        for dx in (0, 28):
            ratio = spec_marked[ys + dy, xs + dx] / np.maximum(spec_plain[ys + dy, xs + dx], 1e-12)
            visible += int(np.median(ratio) > 2.0)
    report(
        capsys, 11, grid_complete and corr_ok and visible == 4,
        f"grid files: {len(files)}/12; zero-insert quadrant correlations "
        f"{['%.3f' % c for c in zero_corrs]} (limit 0.9); glyph visible in "
        f"{visible}/4 replicas after one stage",
    )
