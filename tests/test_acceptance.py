"""Acceptance suite: every criterion asserted at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s; always
visible on failure).  The MNIST and CIFAR-10 reproductions require
user-supplied dataset files and skip cleanly when absent; see README.
"""

import json
import os
import time

import numpy as np
import pytest

import sigclass as sc
from sigclass.calibration import _objective, closed_form_lambda, optimize_lambda
from sigclass.classifier import ModelConfig, calibrate, evaluate, fit
from sigclass.cli import main
from sigclass.data_io import ShapeJitter, gen_four_shapes, load_cifar10, load_mnist_idx
from sigclass.embedding import tsne_exact
from sigclass.path_signature import StreamConvention, signature_many, signature_oracle
from sigclass.scoring import score_rows
from sigclass.signal_analysis import savgol_coefficients, savgol_filter
from sigclass.tensor_algebra import exp_levels, log_levels, mul_levels

# configuration of the desk-scale Four Shapes reproduction (criterion 3):
# rows-as-steps keeps grayscale streams informative, and the off-axis
# rotation band keeps every polygon away from its mirror-symmetric
# orientations where row-stream signatures vanish identically.
DESK_JITTER = ShapeJitter(
    center_frac=0.03, scale_range=(0.72, 0.82), rotation=(np.deg2rad(7), np.deg2rad(13))
)
DESK_CONV = StreamConvention("rows", basepoint=True)


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _relerr(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-30)


# ---------------------------------------------------------------------------
# 1. signature vs quadrature oracle
# ---------------------------------------------------------------------------


def test_criterion_1_signature_matches_quadrature_oracle():
    rng = np.random.default_rng(2024)
    start = time.time()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        order = int(rng.integers(1, 5))
        p = rng.normal(size=(n, d))
        worst = max(worst, _relerr(signature_many(p[None], order)[0],
                                   signature_oracle(p, order)))
    # streams with still coordinates (+0.0, -0.0 and a nonzero constant),
    # which the fold skips, and a repeated point
    for _ in range(10):
        n = int(rng.integers(3, 7))
        order = int(rng.integers(1, 4))
        p = rng.normal(size=(n, 5))
        p[:, 2:] = [0.0, -0.0, rng.normal()]
        p[2] = p[1]
        worst = max(worst, _relerr(signature_many(p[None], order)[0],
                                   signature_oracle(p, order)))
    elapsed = time.time() - start
    _report(
        "criterion 1: Chen signature vs iterated-integral oracle",
        worst <= 1e-8 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. algebraic invariants at 1e-12
# ---------------------------------------------------------------------------


def test_criterion_2_algebraic_invariants(split_levels):
    rng = np.random.default_rng(7)
    worst = {"translation": 0.0, "collinear": 0.0, "concatenation": 0.0, "roundtrip": 0.0}
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        order = int(rng.integers(1, 5))
        pts = rng.normal(size=(n, d))
        base = signature_many(pts[None], order)[0]
        scale = max(np.abs(base).max(), 1.0)

        shifted = signature_many((pts + rng.normal(size=d))[None], order)[0]
        worst["translation"] = max(worst["translation"],
                                   np.abs(base - shifted).max() / scale)

        seg = int(rng.integers(0, n - 1))
        ratio = rng.uniform(0.05, 0.95)
        mid = pts[seg] + ratio * (pts[seg + 1] - pts[seg])
        split = signature_many(np.insert(pts, seg + 1, mid, axis=0)[None], order)[0]
        worst["collinear"] = max(worst["collinear"], np.abs(base - split).max() / scale)

        tail = np.vstack([pts[-1], rng.normal(size=(int(rng.integers(1, 4)), d))])
        joined = signature_many(np.vstack([pts, tail[1:]])[None], order)[0]
        tail_sig = signature_many(tail[None], order)[0]
        prod = np.concatenate(mul_levels(split_levels(base, d, order),
                                          split_levels(tail_sig, d, order))[1:])
        worst["concatenation"] = max(
            worst["concatenation"],
            np.abs(joined - prod).max() / max(np.abs(prod).max(), 1.0),
        )

        lie = [np.zeros(())] + [rng.normal(size=d**k) for k in range(1, order + 1)]
        back = log_levels(exp_levels(lie))
        lie_flat = np.concatenate([lv.reshape(-1) for lv in lie])
        back_flat = np.concatenate([lv.reshape(-1) for lv in back])
        worst["roundtrip"] = max(
            worst["roundtrip"],
            np.abs(lie_flat - back_flat).max() / max(np.abs(lie_flat).max(), 1.0),
        )

    ok = all(v <= 1e-12 for v in worst.values())
    _report(
        "criterion 2: translation/collinear/concatenation/log-exp invariants",
        ok,
        ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


# ---------------------------------------------------------------------------
# 3. Four Shapes desk-scale reproduction
# ---------------------------------------------------------------------------


def test_criterion_3_four_shapes_oracle_reproduction():
    start = time.time()
    images = gen_four_shapes(per_class=310, size=16, jitter=DESK_JITTER, seed=12345)
    by = {}
    for im in images:
        by.setdefault(im.label, []).append(im)
    train, val, test = [], [], []
    for items in by.values():
        train += items[:10]
        val += items[10:110]
        test += items[110:310]

    config = ModelConfig(
        kind="signature", order=2, metric="rmse",
        convention=DESK_CONV, image_size=(16, 16), channels=None,
    )
    model = calibrate(fit(train, config), val, method="closed_form", epsilon=1e-3)

    val_oracle = evaluate(model, val, "oracle").accuracy
    test_oracle = evaluate(model, test, "oracle").accuracy
    test_fixed = evaluate(model, test, "fixed").accuracy
    elapsed = time.time() - start

    print(f"    honest fixed-protocol accuracy (reported): {test_fixed:.4f}")
    _report(
        "criterion 3: Four Shapes desk-scale oracle reproduction",
        val_oracle == 1.0 and test_oracle >= 0.99 and test_oracle >= test_fixed
        and elapsed < 60.0,
        f"val oracle {val_oracle:.4f}, test oracle {test_oracle:.4f},"
        f" fixed {test_fixed:.4f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. MNIST / CIFAR-10 (conditional on user-supplied files)
# ---------------------------------------------------------------------------


def _mnist_paths():
    root = os.environ.get("SIGCLASS_MNIST_DIR", os.path.join("data", "mnist"))
    names = {
        "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
        "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
        "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
        "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
    }
    out = {}
    for key, candidates in names.items():
        for name in candidates:
            path = os.path.join(root, name)
            if os.path.exists(path):
                out[key] = path
                break
        else:
            return None
    return out


def _subset_per_class(images, per_class, rng):
    by = {}
    for im in images:
        by.setdefault(im.label, []).append(im)
    out = []
    for label in sorted(by):
        items = by[label]
        idx = rng.permutation(len(items))[:per_class]
        out.extend(items[i] for i in idx)
    return out


def test_criterion_4_mnist_oracle_floor():
    paths = _mnist_paths()
    if paths is None:
        pytest.skip("MNIST IDX files not supplied (set SIGCLASS_MNIST_DIR)")
    start = time.time()
    rng = np.random.default_rng(0)
    train_pool = load_mnist_idx(paths["train_images"], paths["train_labels"])
    test_pool = load_mnist_idx(paths["test_images"], paths["test_labels"])

    by = {}
    for im in train_pool:
        by.setdefault(im.label, []).append(im)
    train, val = [], []
    for label in sorted(by):
        idx = rng.permutation(len(by[label]))
        train.extend(by[label][i] for i in idx[:10])
        val.extend(by[label][i] for i in idx[10:110])
    test = _subset_per_class(test_pool, 100, rng)

    config = ModelConfig(
        kind="signature", order=3, metric="rmse",
        convention=StreamConvention("rows", True), image_size=(28, 28), channels=None,
    )
    model = calibrate(fit(train, config), val, method="closed_form", epsilon=1e-3)
    oracle = evaluate(model, test, "oracle").accuracy
    fixed = evaluate(model, test, "fixed").accuracy
    elapsed = time.time() - start
    print(f"    honest fixed-protocol accuracy (reported): {fixed:.4f}")
    _report(
        "criterion 4: MNIST oracle-protocol floor",
        oracle >= 0.95 and elapsed < 300.0,
        f"oracle {oracle:.4f} on {len(test)} samples, fixed {fixed:.4f}, {elapsed:.0f}s",
    )


def _cifar_paths():
    root = os.environ.get("SIGCLASS_CIFAR10_DIR", os.path.join("data", "cifar10"))
    train = [os.path.join(root, f"data_batch_{i}.bin") for i in range(1, 6)]
    test = os.path.join(root, "test_batch.bin")
    if all(os.path.exists(p) for p in train) and os.path.exists(test):
        return train, test
    return None


def test_cifar10_reported_floor():
    paths = _cifar_paths()
    if paths is None:
        pytest.skip("CIFAR-10 binaries not supplied (set SIGCLASS_CIFAR10_DIR)")
    train_batches, test_batch = paths
    rng = np.random.default_rng(0)
    train_pool = load_cifar10(train_batches)
    test_pool = load_cifar10([test_batch])

    by = {}
    for im in train_pool:
        by.setdefault(im.label, []).append(im)
    train, val = [], []
    for label in sorted(by):
        idx = rng.permutation(len(by[label]))
        train.extend(by[label][i] for i in idx[:10])
        val.extend(by[label][i] for i in idx[10:110])
    test = _subset_per_class(test_pool, 100, rng)

    config = ModelConfig(
        kind="signature", order=2, metric="rmse",
        convention=StreamConvention("rows", True), image_size=(32, 32), channels=None,
    )
    model = calibrate(fit(train, config), val, method="closed_form", epsilon=1e-3)
    oracle = evaluate(model, test, "oracle").accuracy
    _report(
        "CIFAR-10 oracle floor (reported; paper's 100% not desk-reproducible)",
        oracle >= 0.5,
        f"oracle {oracle:.4f} on {len(test)} samples",
    )


# ---------------------------------------------------------------------------
# 5. closed-form identity
# ---------------------------------------------------------------------------


def test_criterion_5_closed_form_identity():
    rng = np.random.default_rng(5)
    # generic features from a random stream: no vanishing components
    feats = signature_many(rng.normal(size=(1, 5, 2)) + 2.0, 2)
    assert np.abs(feats).min() > 1e-8

    cal = sc.CalibrationSet(representatives=feats, validation={"a": np.repeat(feats, 3, axis=0)})
    lam = closed_form_lambda(cal)[0]
    ones_exact = np.array_equal(lam, np.ones(feats.shape[1]))

    x = signature_many(rng.normal(size=(1, 5, 2)) + 2.0, 2)
    cal1 = sc.CalibrationSet(representatives=feats, validation={"a": x})
    lam1 = closed_form_lambda(cal1)[0]
    residual = float(score_rows(feats[0], lam1 * x[0], "rmse"))
    _report(
        "criterion 5: closed-form identity and single-instance inversion",
        ones_exact and residual <= 1e-12,
        f"ones exact: {ones_exact}, single-instance RMSE {residual:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. optimizer sanity
# ---------------------------------------------------------------------------


def test_criterion_6_optimizer_sanity():
    rng = np.random.default_rng(6)
    rep = rng.uniform(0.5, 3.0, size=10)
    x = rng.uniform(0.5, 3.0, size=10)
    cal = sc.CalibrationSet(representatives=rep[None, :], validation={"a": x[None, :]})
    lam = optimize_lambda(cal, gamma=0.0, box=np.inf, iters=2000)[0]
    ratio_err = np.abs(lam - rep / x).max()

    never_worse = True
    worst_gap = -np.inf
    for _ in range(20):
        n = int(rng.integers(4, 16))
        rep_t = rng.uniform(0.5, 3.0, size=n)
        xs_t = rep_t[None, :] * rng.uniform(0.7, 1.3, size=(5, n))
        cal_t = sc.CalibrationSet(representatives=rep_t[None, :], validation={"a": xs_t})
        out = optimize_lambda(cal_t, gamma=0.0, box=5.0, iters=300)[0]
        v_ones, _ = _objective(xs_t, rep_t, [], 0.0)(np.ones(n))
        v_out, _ = _objective(xs_t, rep_t, [], 0.0)(out)
        worst_gap = max(worst_gap, v_out - v_ones)
        never_worse = never_worse and v_out <= v_ones + 1e-12

    _report(
        "criterion 6: optimizer convergence and never-worse-than-ones",
        ratio_err <= 1e-3 and never_worse,
        f"ratio err {ratio_err:.2e}, worst objective gap {worst_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# 7. Savitzky-Golay
# ---------------------------------------------------------------------------


def test_criterion_7_savgol():
    kernel = savgol_coefficients(5, 2)
    expected = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    kernel_err = np.abs(kernel - expected).max()

    t = np.linspace(-2, 2, 201)
    series = 0.3 * t**3 - 1.2 * t**2 + t + 0.25
    smoothed = savgol_filter(series, 11, 3)
    h = 5
    cubic_err = np.abs(smoothed[h:-h] - series[h:-h]).max()
    _report(
        "criterion 7: Savitzky-Golay kernel and cubic reproduction",
        kernel_err <= 1e-12 and cubic_err <= 1e-9,
        f"kernel err {kernel_err:.2e}, cubic err {cubic_err:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. embedding
# ---------------------------------------------------------------------------


def test_criterion_8_embedding_clusters():
    start = time.time()
    rng = np.random.default_rng(8)
    centers = 12.0 * np.eye(3, 10)
    points = np.concatenate(
        [c + rng.normal(0, 1.0, size=(34, 10)) for c in centers]
    )[:100]
    labels = np.repeat(["a", "b", "c"], 34)[:100]

    result = tsne_exact(points, perplexity=12.0, iterations=400, seed=1, labels=labels)
    repeat = tsne_exact(points, perplexity=12.0, iterations=400, seed=1, labels=labels)

    kl_ok = result.kl_trace[-1] < result.kl_trace[0]
    deterministic = result.coords.tobytes() == repeat.coords.tobytes()

    intra, inter = [], []
    for i in range(100):
        for j in range(i + 1, 100):
            d = np.linalg.norm(result.coords[i] - result.coords[j])
            (intra if labels[i] == labels[j] else inter).append(d)
    sep_ok = np.mean(intra) < np.mean(inter)
    elapsed = time.time() - start
    _report(
        "criterion 8: t-SNE cluster embedding",
        kl_ok and sep_ok and deterministic and elapsed < 60.0,
        f"KL {result.kl_trace[0]:.3f}->{result.kl_trace[-1]:.3f},"
        f" intra {np.mean(intra):.2f} < inter {np.mean(inter):.2f},"
        f" deterministic={deterministic}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_9_end_to_end_determinism(tmp_path):
    def run(out_dir):
        config = {
            "seed": 11,
            "out_dir": str(out_dir),
            "dataset": {
                "kind": "four_shapes",
                "size": 16,
                "jitter": {
                    "center_frac": 0.03,
                    "scale_range": [0.72, 0.82],
                    "rotation_deg": [7, 13],
                },
            },
            "stream": {"mode": "rows", "basepoint": True},
            "feature": {"kind": "signature", "order": 2},
            "budgets": {"train": 5, "val": 8, "test": 8},
            "calibration": {"method": "closed_form", "epsilon": 1e-3},
        }
        path = tmp_path / f"{out_dir.name}.json"
        path.write_text(json.dumps(config))
        assert main(["fit", "--config", str(path)]) == 0
        assert main(["eval", "--config", str(path), "--protocol", "oracle,fixed"]) == 0
        return {
            p.name: p.read_bytes()
            for p in sorted(out_dir.iterdir())
            if p.suffix in (".json", ".csv")
        }

    first = run(tmp_path / "run1")
    second = run(tmp_path / "run2")
    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    _report(
        "criterion 9: byte-identical fit+eval reruns",
        same,
        f"{len(first)} artifacts compared",
    )
