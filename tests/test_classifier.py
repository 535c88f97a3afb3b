import copy
import hashlib
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigclass import classifier
from sigclass.classifier import (
    PROTOCOLS,
    ClassModel,
    ModelConfig,
    calibrate,
    confusion_csv,
    evaluate,
    features_for_images,
    fit,
    load_model,
    model_from_dict,
    model_to_dict,
    ova_thresholds,
    predict,
    predict_oracle,
    predict_ova,
    save_model,
)
from sigclass.data_io import AugmentSpec, LabeledImage, ShapeJitter, augment, gen_four_shapes
from sigclass.path_signature import StreamConvention

ROWS = StreamConvention("rows", True)
DESK_JITTER = ShapeJitter(0.03, (0.72, 0.82), (np.deg2rad(7), np.deg2rad(13)))


def tiny_images(rng, labels, size=6):
    return [
        LabeledImage(rng.random((size, size, 1)), label, f"{label}:{i}")
        for i, label in enumerate(labels)
    ]


def cfg(size=6, **kw):
    kw.setdefault("convention", ROWS)
    kw.setdefault("image_size", (size, size))
    return ModelConfig(**kw)


def shapes_split(per_class=30, train=5, val=10, seed=0, size=16, jitter=DESK_JITTER):
    images = gen_four_shapes(per_class, size=size, jitter=jitter, seed=seed)
    by = {}
    for im in images:
        by.setdefault(im.label, []).append(im)
    tr, va, te = [], [], []
    for items in by.values():
        tr += items[:train]
        va += items[train : train + val]
        te += items[train + val :]
    return tr, va, te


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_single_image_representative_equals_its_features():
    rng = np.random.default_rng(0)
    images = tiny_images(rng, ["a", "b"])
    config = cfg()
    model = fit(images, config)
    for zi, im in enumerate(images):
        assert model.classes[zi] == im.label
        assert np.array_equal(model.representatives[zi], features_for_images([im], config)[0])


def test_identical_images_mean_is_single_feature():
    rng = np.random.default_rng(1)
    im = tiny_images(rng, ["a"])[0]
    model = fit([im, im, im], cfg())
    assert np.allclose(
        model.representatives[0], features_for_images([im], cfg())[0]
    )
    assert model.train_counts["a"] == 3


def test_four_shapes_pixelstream_feature_length():
    # paper-style config: pixel steps, grayscale replicated to RGB, order 2
    tr, _, _ = shapes_split(per_class=10, train=10, val=0)
    config = ModelConfig(
        kind="signature", order=2,
        convention=StreamConvention("pixels", True),
        image_size=(16, 16), channels=3,
    )
    model = fit(tr, config)
    assert len(model.classes) == 4
    assert model.feature_length == 3 + 9


def test_fit_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit([], cfg())


def test_wrong_size_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError, match="resize upstream"):
        fit(tiny_images(rng, ["a"], size=5), cfg(size=6))


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_exact_match_predicts_with_zero_score():
    rng = np.random.default_rng(3)
    images = tiny_images(rng, ["a", "b", "c"])
    model = fit(images, cfg())
    label, scores = predict(model, images[1], "plain")
    assert label == "b"
    assert scores["b"] == 0.0


def test_tie_breaks_to_lowest_class_index():
    rng = np.random.default_rng(4)
    im = tiny_images(rng, ["z"])[0]
    duplicated = [
        LabeledImage(im.pixels, "a", "0"),
        LabeledImage(im.pixels, "b", "1"),
    ]
    model = fit(duplicated, cfg())
    label, scores = predict(model, im.pixels, "plain")
    assert scores["a"] == scores["b"]
    assert label == "a"


def test_argmin_invariant_under_joint_positive_scaling():
    # a scalar factor c on every class makes "fixed" score c*x against the
    # representatives; scaling those by c too must not move the argmin
    rng = np.random.default_rng(5)
    images = tiny_images(rng, ["a", "b", "c"])
    model = fit(images, cfg())
    probe = tiny_images(rng, ["q"])[0]
    base_label, _ = predict(model, probe, "plain")
    for c in (0.25, 7.0):
        scaled_model = ClassModel(
            config=model.config,
            classes=model.classes,
            stream_dim=model.stream_dim,
            representatives=c * model.representatives,
            train_counts=dict(model.train_counts),
            factors=np.full(model.representatives.shape, c),
        )
        scaled_label, _ = predict(scaled_model, probe, "fixed")
        assert scaled_label == base_label


def test_oracle_with_identity_lambda_equals_plain():
    tr, va, te = shapes_split()
    model = fit(tr, cfg(size=16))
    for im in te[:20]:
        plain_label, _ = predict(model, im, "plain")
        _, oracle_label, _ = predict_oracle(model, im, im.label)
        assert oracle_label == plain_label


def test_oracle_near_zero_score_when_calibrated():
    tr, va, _ = shapes_split()
    model = calibrate(fit(tr, cfg(size=16)), va, method="closed_form", epsilon=1e-3)
    im = va[0]
    correct, _, scores = predict_oracle(model, im, im.label)
    assert correct
    assert scores[im.label] == min(scores.values())


def test_oracle_unknown_label_rejected():
    rng = np.random.default_rng(6)
    model = fit(tiny_images(rng, ["a"]), cfg())
    with pytest.raises(ValueError, match="unknown label"):
        predict_oracle(model, tiny_images(rng, ["a"])[0], "nope")


def test_predict_protocol_validation():
    rng = np.random.default_rng(7)
    model = fit(tiny_images(rng, ["a"]), cfg())
    with pytest.raises(ValueError, match="predict supports"):
        predict(model, tiny_images(rng, ["a"])[0], "oracle")


# ---------------------------------------------------------------------------
# one-vs-all
# ---------------------------------------------------------------------------


def test_ova_accepts_zero_score_class():
    rng = np.random.default_rng(8)
    images = tiny_images(rng, ["a", "b"])
    model = fit(images, cfg())
    thresholds = {"a": 0.5, "b": 0.5}
    label, _ = predict_ova(model, images[0], thresholds)
    assert label == "a"


def test_ova_fallback_when_nothing_accepted():
    rng = np.random.default_rng(9)
    images = tiny_images(rng, ["a", "b"])
    model = fit(images, cfg())
    thresholds = {"a": 1e-9, "b": 1e-9}
    probe = tiny_images(rng, ["q"])[0]
    label, scores = predict_ova(model, probe, thresholds)
    assert label == min(scores, key=scores.get)


def test_ova_thresholds_cover_validation():
    tr, va, _ = shapes_split()
    model = calibrate(fit(tr, cfg(size=16)), va, method="closed_form", epsilon=1e-3)
    thresholds = ova_thresholds(model, slack=1.1)
    assert set(thresholds) == set(model.classes)
    # with 1.1 slack every validation sample is accepted by its own class
    for im in va:
        _, scores = predict_ova(model, im, thresholds)
        assert scores[im.label] <= 1.0 + 1e-12


@pytest.mark.parametrize("slack", [0, -2.0, np.nan, np.inf, True, "1.1"])
def test_ova_thresholds_reject_bad_slack(slack):
    tr, va, _ = shapes_split()
    with pytest.raises(ValueError, match="^slack must be"):
        ova_thresholds(calibrate(fit(tr, cfg(size=16)), va, method="none"), slack=slack)


@pytest.mark.parametrize("method", ["closed_form", "none"])
@pytest.mark.parametrize("budget", ["block", "one row"])
@pytest.mark.parametrize("metric", ["rmse", "mae"])
@pytest.mark.parametrize("size, order", [(6, 2), (28, 3)], ids=["6x6-o2", "mnist-rows-o3"])
def test_stored_ova_scores_are_the_worst_own_class_scores(monkeypatch, size, order, metric, budget,
                                                          method):
    # calibrate scores the validation rows a block at a time; the stored
    # score, and slack times it, keep the bits of one whole-class score
    rng = np.random.default_rng(24)
    config = cfg(size=size, order=order, metric=metric)  # 28x28: (29, 28) streams, 22,764 features
    train, val = tiny_images(rng, list("abab"), size), tiny_images(rng, list("abbababaabbaba"), size)
    if budget == "one row":
        monkeypatch.setattr(classifier, "BLOCK_BYTES", 1)
    model = calibrate(fit(train, config), val, method=method)
    thresholds = ova_thresholds(model, slack=1.1)
    for zi, z in enumerate(model.classes):
        x = features_for_images([im for im in val if im.label == z], config) * model.factors[zi]
        worst = classifier.score_rows(x, model.representatives[zi], metric).max()
        assert model.ova_scores[zi] == worst
        assert thresholds[z] == float(1.1 * worst)


def test_ova_scores_are_unknown_without_validation_images():
    tr, va, _ = shapes_split(per_class=6, train=3, val=3)
    model = calibrate(fit(tr, cfg(size=16)), va)
    assert model.ova_scores.shape == (4,)
    reset = calibrate(model, [], method="none")
    assert reset.ova_scores is None and np.array_equal(reset.factors, np.ones(model.factors.shape))
    with pytest.raises(ValueError, match=r"^the model holds no ova scores: refit it"):
        ova_thresholds(reset)
    with pytest.raises(ValueError, match=r"^validation set lacks classes: \['circle', "):
        calibrate(model, [])


def test_ova_vs_fixed_accuracy_recorded():
    # recorded for inspection, not asserted: the two deployable protocols
    # typically land close together on the desk-scale shapes
    tr, va, te = shapes_split(per_class=40, train=10, val=15)
    model = calibrate(fit(tr, cfg(size=16)), va, method="closed_form", epsilon=1e-3)
    thresholds = ova_thresholds(model)
    fixed = evaluate(model, te, "fixed").accuracy
    ova = evaluate(model, te, "ova", thresholds=thresholds).accuracy
    print(f"fixed={fixed:.4f} ova={ova:.4f} gap={abs(ova - fixed):.4f}")


def test_labelled_sets_fold_once_and_match_per_class_features(monkeypatch):
    # fit and calibration each fold a whole split in one call, and the ova
    # thresholds fold nothing; every class's rows equal that class folded on its own
    rng = np.random.default_rng(20)
    config = cfg(metric="mae")
    train = tiny_images(rng, list("bacabccab"))
    val = tiny_images(rng, list("cabbcaab"))
    own = {
        name: {z: features_for_images([im for im in images if im.label == z], config)
               for z in "abc"}
        for name, images in (("train", train), ("val", val))
    }
    calls = []
    fold = classifier.signature_many

    def counted(points, order):
        calls.append(len(points))
        return fold(points, order)

    monkeypatch.setattr(classifier, "signature_many", counted)
    model = fit(train, config)
    assert calls == [len(train)]
    assert model.classes == ("a", "b", "c")
    assert model.train_counts == {"a": 3, "b": 3, "c": 3}
    for zi, z in enumerate(model.classes):
        assert np.array_equal(model.representatives[zi], own["train"][z].mean(axis=0))

    calls.clear()
    cal = classifier.calibration_set(model, val)
    assert calls == [len(val)]
    assert list(cal.validation) == list(model.classes)
    for z in model.classes:
        assert np.array_equal(cal.validation[z], own["val"][z])

    calls.clear()
    model = calibrate(model, val)
    thresholds = ova_thresholds(model, slack=1.3)
    assert calls == [len(val)]
    for zi, z in enumerate(model.classes):
        x = own["val"][z] * model.factors[zi]
        expected = 1.3 * classifier.score_rows(x, model.representatives[zi], "mae").max()
        assert thresholds[z] == float(expected)

    calls.clear()
    partial = [im for im in val if im.label != "b"]
    for solver in (classifier.calibration_set, calibrate, lambda m, v: calibrate(m, v, "none")):
        with pytest.raises(ValueError, match=r"validation set lacks classes: \['b'\]"):
            solver(model, partial)
    assert calls == []


# "10" sorts before "9", and "a\x00" is not "a": labels are compared as they are
RUN_LABELS = st.lists(st.sampled_from(["9", "10", "a", "a\x00", "b"]), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(train_labels=RUN_LABELS, data=st.data())
def test_class_runs_fold_each_split_once_in_input_order(train_labels, data):
    # every class's rows, from any interleaving of labels, equal that class's
    # images folded on their own in input order
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    config = cfg(size=3, metric="mae")
    classes = sorted(set(train_labels))
    val_labels = data.draw(st.lists(st.sampled_from(classes), max_size=8))
    val_labels = data.draw(st.permutations(val_labels + [z for z in classes if z not in val_labels]))
    train, val = tiny_images(rng, train_labels, 3), tiny_images(rng, val_labels, 3)

    def own(images, z):
        return features_for_images([im for im in images if im.label == z], config)

    calls = []
    fold = classifier.signature_many

    def counted(points, order):
        calls.append(len(points))
        return fold(points, order)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classifier, "signature_many", counted)
        model = fit(train, config)
        cal = classifier.calibration_set(model, val)
        model = calibrate(model, val)
        thresholds = ova_thresholds(model, slack=1.2)
    assert calls == [len(train), len(val), len(val)]
    assert model.classes == tuple(classes)
    assert model.train_counts == {z: train_labels.count(z) for z in classes}
    assert list(cal.validation) == classes
    for zi, z in enumerate(classes):
        assert np.array_equal(model.representatives[zi], own(train, z).mean(axis=0))
        assert np.array_equal(cal.validation[z], own(val, z))
        x = own(val, z) * model.factors[zi]
        expected = 1.2 * classifier.score_rows(x, model.representatives[zi], "mae").max()
        assert thresholds[z] == float(expected)


@pytest.mark.parametrize("entry", ["calibrate", "calibrate-optimize", "calibrate-none", "evaluate"])
def test_images_of_a_class_the_model_lacks_are_a_named_error(monkeypatch, entry):
    rng = np.random.default_rng(21)
    model = fit(tiny_images(rng, list("abab")), cfg())
    split = tiny_images(rng, list("abzzz")) + tiny_images(rng, ["y"])
    calls = []
    monkeypatch.setattr(classifier, "signature_many", lambda *args: calls.append(args))
    run = {
        "calibrate": lambda: calibrate(model, split),
        "calibrate-optimize": lambda: calibrate(model, split, method="optimize", iters=2),
        "calibrate-none": lambda: calibrate(model, split, method="none"),
        "evaluate": lambda: evaluate(model, split, "plain"),
    }[entry]
    what = "test" if entry == "evaluate" else "validation"
    with pytest.raises(ValueError, match=rf"^{what} set contains unknown classes: \['y', 'z'\]$"):
        run()
    assert calls == []


def test_features_of_no_images_are_a_named_error():
    with pytest.raises(ValueError, match="^no images to extract features from$"):
        features_for_images([], cfg())


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_train_as_test_is_perfect():
    rng = np.random.default_rng(10)
    images = tiny_images(rng, ["a", "b", "c"])
    model = fit(images, cfg())
    report = evaluate(model, images, "plain")
    assert report.accuracy == 1.0
    assert np.trace(report.confusion) == 3


def test_confusion_bookkeeping():
    rng = np.random.default_rng(11)
    images = tiny_images(rng, ["a", "b"])
    model = fit(images, cfg())
    # adversarially swap the labels: every prediction is now wrong
    swapped = [
        LabeledImage(images[0].pixels, "b", "s0"),
        LabeledImage(images[1].pixels, "a", "s1"),
    ]
    report = evaluate(model, swapped, "plain")
    assert report.accuracy == 0.0
    assert report.accuracy + (1.0 - report.accuracy) == 1.0
    assert report.confusion.sum(axis=1).tolist() == [1, 1]
    assert report.total == 2
    assert report.mean_margin >= 0.0


def test_evaluate_deterministic_with_augmentation():
    tr, va, te = shapes_split(per_class=12, train=4, val=4)
    spec = AugmentSpec(contrast=(0.9, 1.1), brightness=(-0.05, 0.05), copies=3, seed=0)
    model = fit(tr, cfg(size=16, augment=spec))
    a = evaluate(model, te, "plain", seed=5)
    b = evaluate(model, te, "plain", seed=5)
    assert a.accuracy == b.accuracy
    assert np.array_equal(a.confusion, b.confusion)
    assert a.mean_margin == b.mean_margin


AUG = AugmentSpec(
    contrast=(0.8, 1.2), brightness=(-0.1, 0.1), noise="speckle", noise_level=0.05,
    copies=3, seed=0,
)


def calibrated_aug_model(metric):
    tr, va, te = shapes_split(per_class=13, train=4, val=4)
    model = fit(tr, cfg(size=16, metric=metric, augment=AUG))
    model = calibrate(model, va, method="closed_form", epsilon=1e-3)
    return model, ova_thresholds(model), te


@pytest.mark.parametrize("metric", ["rmse", "mae"])
def test_evaluate_matches_per_image_predictions(monkeypatch, metric):
    model, thresholds, te = calibrated_aug_model(metric)
    # five images per block: 20 test images span four blocks
    per_image = 8 * AUG.copies * (model.feature_length + 17 * 16)
    monkeypatch.setattr(classifier, "BLOCK_BYTES", 5 * per_image)
    reports = evaluate(model, te, PROTOCOLS, thresholds=thresholds, seed=9)
    index = {z: i for i, z in enumerate(model.classes)}
    for protocol, report in zip(PROTOCOLS, reports):
        assert report.protocol == protocol
        confusion = np.zeros_like(report.confusion)
        margins = []
        for i, im in enumerate(te):
            seed = [9, i]
            if protocol == "oracle":
                _, label, scores = predict_oracle(model, im, im.label, augment_seed=seed)
            elif protocol == "ova":
                label, scores = predict_ova(model, im, thresholds, augment_seed=seed)
            else:
                label, scores = predict(model, im, protocol, augment_seed=seed)
            confusion[index[im.label], index[label]] += 1
            ordered = np.sort([scores[z] for z in model.classes])
            margins.append(float(ordered[1] - ordered[0]))
        assert np.array_equal(report.confusion, confusion)
        assert report.mean_margin == float(np.mean(margins))
        single = evaluate(model, te, protocol, thresholds=thresholds, seed=9)
        assert np.array_equal(single.confusion, report.confusion)
        assert single.mean_margin == report.mean_margin


def test_fixed_and_ova_score_each_block_once(monkeypatch):
    model, thresholds, te = calibrated_aug_model("rmse")
    per_image = 8 * AUG.copies * (model.feature_length + 17 * 16)
    monkeypatch.setattr(classifier, "BLOCK_BYTES", 5 * per_image)
    calls = []
    score = classifier.score_rows

    def counted(*args):
        calls.append(1)
        return score(*args)

    monkeypatch.setattr(classifier, "score_rows", counted)
    counts = []
    for protocols in (("fixed",), ("fixed", "ova"), ("ova",)):
        calls.clear()
        evaluate(model, te, protocols, thresholds=thresholds, seed=9)
        counts.append(len(calls))
    assert counts == [4 * len(model.classes)] * 3


@pytest.mark.parametrize("metric", ["rmse", "mae"])
def test_predict_scores_match_reference_kernel(metric):
    # reference: mean of the augmented copies' features, scored one class at
    # a time by RMSE/MAE written out here rather than by sigclass.scoring
    def reference(u, v):
        d = u - v
        return np.sqrt(np.mean(d * d)) if metric == "rmse" else np.mean(np.abs(d))

    model, _, te = calibrated_aug_model(metric)
    im = te[0]
    copies = augment(im.pixels, AUG, seed=[3, 1])
    x = features_for_images(copies, model.config).mean(axis=0)
    reps, lams = model.representatives, model.factors
    true = model.classes.index(im.label)
    _, plain = predict(model, im, "plain", augment_seed=[3, 1])
    _, fixed = predict(model, im, "fixed", augment_seed=[3, 1])
    _, _, oracle = predict_oracle(model, im, im.label, augment_seed=[3, 1])
    for zi, z in enumerate(model.classes):
        assert plain[z] == reference(x, reps[zi])
        assert fixed[z] == reference(lams[zi] * x, reps[zi])
        assert oracle[z] == reference(lams[true] * x, reps[zi])


def test_evaluate_memory_does_not_grow_with_the_test_set():
    # test pixels are stacked one evaluation block at a time: ten times the
    # images adds their labels and scores, not a stack of all their pixels
    rng = np.random.default_rng(22)
    labels = [f"c{i % 4}" for i in range(2000)]
    images = LabeledImage.stack(rng.random((2000, 16, 16, 1)), labels, labels)
    model = fit(images[:40], cfg(size=16))
    peaks = []
    for n in (200, 2000):
        tracemalloc.start()
        try:
            evaluate(model, images[:n], ("plain", "fixed", "oracle"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2e6, peaks


def test_evaluate_error_paths():
    rng = np.random.default_rng(12)
    images = tiny_images(rng, ["a", "b"])
    model = fit(images, cfg())
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, [], "plain")
    with pytest.raises(ValueError, match="unknown protocol"):
        evaluate(model, images, "magic")
    with pytest.raises(ValueError, match="requires thresholds"):
        evaluate(model, images, "ova")
    with pytest.raises(ValueError, match="unknown classes"):
        evaluate(model, [LabeledImage(images[0].pixels, "zz", "x")], "plain")
    with pytest.raises(ValueError, match=r"thresholds lack classes: \['b'\]"):
        evaluate(model, images, "ova", thresholds={"a": 0.5})
    with pytest.raises(ValueError, match=r"thresholds lack classes: \['a', 'b'\]"):
        evaluate(model, images, ("plain", "ova"), thresholds={})
    with pytest.raises(ValueError, match=r"thresholds lack classes: \['b'\]"):
        predict_ova(model, images[0], {"a": 0.5})


@pytest.mark.parametrize("value, match", [
    (np.nan, "must be finite and >= 0, got nan"),
    (np.inf, "must be finite and >= 0, got inf"),
    (-1.0, "must be finite and >= 0, got -1.0"),
    ("x", "must be a real number, got 'x'"),
    (None, "must be a real number, got None"),
    (True, "must be a real number, got True"),
])
def test_bad_threshold_values_are_named(value, match):
    rng = np.random.default_rng(12)
    images = tiny_images(rng, ["a", "b"])
    model = fit(images, cfg())
    thresholds = {"a": 0.0, "b": value}
    for run in (lambda: evaluate(model, images, ("plain", "ova"), thresholds=thresholds),
                lambda: predict_ova(model, images[0], thresholds)):
        with pytest.raises(ValueError, match=f"^threshold of class 'b' {re.escape(match)}$"):
            run()


@pytest.mark.parametrize("entry", ["evaluate", "predict", "evaluate-later-block"])
def test_test_images_of_another_channel_count_are_a_named_error(monkeypatch, entry):
    # a model fit on grey images with channels unset, given an RGB image
    rng = np.random.default_rng(31)
    grey = tiny_images(rng, ["a", "b"])
    model = fit(grey, cfg())
    rgb = LabeledImage(rng.random((6, 6, 3)), "a", "rgb")
    calls = []
    fold = classifier.signature_many

    def counted(points, order):
        calls.append(len(points))
        return fold(points, order)

    monkeypatch.setattr(classifier, "signature_many", counted)
    run = {
        "evaluate": lambda: evaluate(model, [rgb], "plain"),
        "predict": lambda: predict(model, rgb),
        "evaluate-later-block": lambda: evaluate(model, [grey[0], rgb], ("plain", "fixed")),
    }[entry]
    # one image a block: in the later-block case the grey block folds, the RGB one is refused
    monkeypatch.setattr(classifier, "BLOCK_BYTES", 1)
    with pytest.raises(ValueError, match=r'^test images have 3 channels but the model was fit on 1;'
                       r' set "channels" in the config to convert them$'):
        run()
    assert calls == ([1] if entry == "evaluate-later-block" else [])


def test_model_file_stream_dim_must_fit_its_config():
    # the channel count a model was fit on is its stream dim over one channel's
    doc = model_to_dict(fit(tiny_images(np.random.default_rng(13), ["a"]), cfg()))
    doc["stream_dim"], doc["feature_length"] = 7, 56
    doc["per_class"]["a"]["representative"] = [0.5] * 56
    with pytest.raises(ValueError, match=r"^model file stream_dim 7 does not match rows streams"
                       r" of \(6, 6\) images with 1 or 3 channels$"):
        model_from_dict(doc)
    doc["config"]["channels"] = 3
    doc["stream_dim"], doc["feature_length"] = 6, 42
    doc["per_class"]["a"]["representative"] = [0.5] * 42
    with pytest.raises(ValueError, match=r"^model file stream_dim 6 .* with 3 channels$"):
        model_from_dict(doc)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _rebuilt(model, **changes):
    fields = dict(config=model.config, classes=model.classes, stream_dim=model.stream_dim,
                  representatives=model.representatives, train_counts=model.train_counts)
    return ClassModel(**(fields | changes))


def test_class_model_leaves_caller_factor_arrays_alone():
    rng = np.random.default_rng(18)
    model = fit(tiny_images(rng, ["a", "b"]), cfg())
    assert model.stream_dim == 6 and model.representatives.shape == (2, 6 + 36)
    assert np.array_equal(model.factors, np.ones((2, 42)))
    given = np.full((2, 42), 2.0)
    built = _rebuilt(model, factors=given)
    assert np.array_equal(built.factors, given)
    assert given.flags.writeable and not built.factors.flags.writeable
    assert not built.representatives.flags.writeable
    for changes, match in (
        # order-2 representatives under an order-3 config
        ({"config": cfg(order=3)}, r"representatives must have shape \(2, 258\)"),
        ({"stream_dim": 5}, r"representatives must have shape \(2, 30\) .* got \(2, 42\)"),
        ({"classes": ("a",)}, r"representatives must have shape \(1, 42\)"),
        ({"classes": ()}, "no classes"),
        ({"representatives": np.full((2, 42), np.nan)}, "representatives contain non-finite"),
        ({"train_counts": {"a": 1}}, r"train_counts \['a'\] must name each class once"),
        ({"ova_scores": [0.5]}, r"ova_scores must have shape \(2,\) .* got \(1,\)"),
        ({"ova_scores": [0.5, np.inf]}, "ova_scores contain non-finite"),
        ({"ova_scores": [0.0, -1e-300]}, r"^ova_scores must be >= 0, got \[0.0, -1e-300\]$"),
    ):
        with pytest.raises(ValueError, match=match):
            _rebuilt(model, **changes)


def test_scale_factor_validation():
    model = fit(tiny_images(np.random.default_rng(19), ["a", "b"]), cfg())
    for factors, match in (
        (np.ones((2, 41)), r"factors must have shape \(2, 42\) .* got \(2, 41\)"),
        (np.ones(42), r"factors must have shape \(2, 42\) .* got \(42,\)"),
        (np.ones((3, 42)), r"factors must have shape \(2, 42\) .* got \(3, 42\)"),
        (np.array([[1.0] * 41 + [np.inf]] * 2), "factors contain non-finite"),
        (np.full((2, 42), np.nan), "factors contain non-finite"),
    ):
        with pytest.raises(ValueError, match=match):
            _rebuilt(model, factors=factors)
    assert np.array_equal(_rebuilt(model).factors, np.ones((2, 42)))


def test_model_json_roundtrip_exact(tmp_path):
    tr, va, _ = shapes_split(per_class=8, train=4, val=4)
    model = calibrate(fit(tr, cfg(size=16, metric="mae")), va, method="closed_form")
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.classes == model.classes
    assert back.config == model.config
    assert back.stream_dim == model.stream_dim
    assert np.array_equal(back.representatives, model.representatives)
    assert np.array_equal(back.factors, model.factors)
    # byte-identical re-serialization
    second = tmp_path / "model2.json"
    save_model(back, second)
    assert path.read_bytes() == second.read_bytes()


# Labels that a row marker of the writer could be mistaken for, or that
# json must escape.
AWKWARD_LABELS = ("plain", 'quo"te', "back\\slash", "ünï©ødé", "\x00", ': "\x00"',
                  '"lambda_rmse": "\\u0000"', "representative")


def awkward_model(factors: str, scores: bool = False) -> ClassModel:
    """A model of AWKWARD_LABELS whose rows hold -0.0, subnormals and values
    near the float range; factors "none" writes every factor row as 1.0, and
    "mixed" the even classes' rows only."""
    rng = np.random.default_rng(22)
    shape = (len(AWKWARD_LABELS), 42)
    reps = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    reps[0, :9] = [-0.0, 0.0, 5e-324, -1e-310, 1e300, -1e-300, 1.7976931348623157e308, 1.0, 1e308]
    lam = {"random": rng.uniform(0.01, 100.0, size=shape),
           "none": np.ones(shape),  # calibration.method none: rows written as 1.0
           "mixed": np.where(np.arange(shape[0])[:, None] % 2, reps, 1.0)}[factors]
    return ClassModel(config=cfg(), classes=AWKWARD_LABELS, stream_dim=6,
                      representatives=reps, factors=lam,
                      train_counts={z: i + 1 for i, z in enumerate(AWKWARD_LABELS)},
                      ova_scores=np.abs(reps[:, 0]) if scores else None)


@pytest.mark.parametrize("factors", ["random", "none", "mixed"])
def test_save_model_bytes_equal_json_dump(tmp_path, factors):
    model = awkward_model(factors)
    path = tmp_path / "model.json"
    save_model(model, path)
    expected = json.dumps(model_to_dict(model), indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    back = load_model(path)
    assert back.classes == AWKWARD_LABELS
    assert np.array_equal(back.representatives, model.representatives)
    assert np.array_equal(back.factors, model.factors)


def _parsed(path) -> ClassModel:
    """The model that path's JSON text gives, without its twin."""
    return model_from_dict(json.loads(path.read_text(encoding="utf-8")))


def assert_same_model(a: ClassModel, b: ClassModel):
    assert (a.config, a.classes, a.stream_dim, a.train_counts) == (
        b.config, b.classes, b.stream_dim, b.train_counts)
    for name in ("representatives", "factors", "ova_scores"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def spy_json_loads(monkeypatch) -> list:
    """The list of every text that json.loads is given from now on."""
    seen = []
    loads = json.loads

    def spy(text, *args, **kwargs):
        seen.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(classifier.json, "loads", spy)
    return seen


@pytest.mark.parametrize("scores", [True, False], ids=["ova_scores", "no ova_scores"])
@pytest.mark.parametrize("factors", ["random", "none", "mixed"])
def test_twin_and_json_load_the_same_model_bit_for_bit(tmp_path, monkeypatch, factors, scores):
    model = awkward_model(factors, scores)
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    seen = spy_json_loads(monkeypatch)
    from_twin = load_model(path)
    assert seen and all(s not in (text, text.encode("utf-8")) for s in seen)
    monkeypatch.undo()
    assert_same_model(from_twin, model)
    assert_same_model(from_twin, _parsed(path))
    with pytest.raises(ValueError, match="read-only"):
        from_twin.representatives[0, 0] = 1.0


def test_twin_is_a_pure_function_of_the_model(tmp_path):
    model = awkward_model("mixed", True)
    for name in ("first.json", "second.json"):
        save_model(model, tmp_path / name)
    twins = [(tmp_path / f"{name}.rows").read_bytes() for name in ("first.json", "second.json")]
    assert twins[0] == twins[1]
    head, _, payload = twins[0].partition(b"\n")
    head = json.loads(head)
    assert sorted(head) == ["sha256", "shape", "skeleton"]
    assert head["sha256"] == hashlib.sha256((tmp_path / "first.json").read_bytes()).hexdigest()
    # eight representative rows and the four odd classes' factor rows; even classes' are 1.0
    assert head["shape"] == [12, 42] and len(payload) == 8 * 12 * 42
    assert head["skeleton"]["per_class"]["plain"]["lambda_rmse"] == 1.0


# how a twin goes wrong: each of these loads the model by parsing the file
TWIN_FAULTS = {
    "missing": lambda twin: twin.unlink(),
    "empty": lambda twin: twin.write_bytes(b""),
    "header not JSON": lambda twin: twin.write_bytes(b"{not json\n" + twin.read_bytes()),
    "header not UTF-8": lambda twin: twin.write_bytes(b"\xff\xfe\n"),
    "header a list": lambda twin: twin.write_bytes(b'["sha256", "shape", "skeleton"]\n'),
    "header lacks shape": lambda twin: _rewrite_head(twin, lambda head: head.pop("shape")),
    "header has an extra key": lambda twin: _rewrite_head(twin, lambda head: head.update(x=1)),
    "shape of strings": lambda twin: _rewrite_head(twin, lambda head: head.update(shape="ab")),
    "shape too long": lambda twin: _rewrite_head(
        twin, lambda head: head.update(shape=head["shape"] + [2])),
    "stale digest": lambda twin: _rewrite_head(twin, lambda head: head.update(sha256="0" * 64)),
    "digest not a string": lambda twin: _rewrite_head(twin, lambda head: head.update(sha256=[1])),
    "truncated payload": lambda twin: twin.write_bytes(twin.read_bytes()[:-8]),
    "payload cut mid-value": lambda twin: twin.write_bytes(twin.read_bytes()[:-3]),
    "payload too long": lambda twin: twin.write_bytes(twin.read_bytes() + bytes(8)),
    "directory": lambda twin: (twin.unlink(), twin.mkdir()),
    # the digest matches, but the skeleton is not shaped like a model
    "skeleton empty": lambda twin: _rewrite_head(twin, lambda head: head.update(skeleton={})),
    "skeleton a list": lambda twin: _rewrite_head(twin, lambda head: head.update(skeleton=[])),
    "per_class a list": lambda twin: _rewrite_head(
        twin, lambda head: head["skeleton"].update(per_class=[])),
    "class entry a number": lambda twin: _rewrite_head(
        twin, lambda head: head["skeleton"].update(per_class={"0": 5})),
    "marker out of range": lambda twin: _rewrite_head(  # the twin holds rows 0..11
        twin, lambda head: head["skeleton"]["per_class"]["plain"].update(representative="\x0012")),
}


def _rewrite_head(twin, change):
    head, _, payload = twin.read_bytes().partition(b"\n")
    head = json.loads(head)
    change(head)
    twin.write_bytes(json.dumps(head).encode() + b"\n" + payload)


@pytest.mark.parametrize("fault", TWIN_FAULTS)
def test_faulty_twin_falls_back_to_parsing_the_file(tmp_path, monkeypatch, fault):
    model = awkward_model("mixed", True)
    path = tmp_path / "model.json"
    save_model(model, path)
    TWIN_FAULTS[fault](tmp_path / "model.json.rows")
    seen = spy_json_loads(monkeypatch)
    back = load_model(path)
    assert seen[-1] == path.read_text(encoding="utf-8")
    assert_same_model(back, model)


def assert_load_error(tmp_path, model: ClassModel, doc, match: str):
    """model_from_dict(doc) raises match, and so does load_model of doc's JSON
    written over a saved model, whose twin is then stale."""
    with pytest.raises(ValueError, match=match):
        model_from_dict(doc)
    path = tmp_path / "model.json"
    save_model(model, path)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        load_model(path)


def test_model_schema_version_checked(tmp_path):
    model = fit(tiny_images(np.random.default_rng(13), ["a"]), cfg())
    good = model_to_dict(model)
    for path, value, match in (
        (("schema_version",), 99, "schema_version"),
        (("per_class",), None, "top level lacks field 'per_class'"),
        (("classes",), [], "no classes"),
        (("classes",), ["a", "c"], "field 'per_class' lacks field 'c'"),
        (("config",), None, "lacks field 'config'"),
        (("stream_dim",), None, "lacks field 'stream_dim'"),
        (("feature_length",), None, "lacks field 'feature_length'"),
        (("feature_length",), 5, "feature_length 5 does not match 42 for stream_dim=6, order=2"),
        (("config", "kind"), None, "'config' lacks field 'kind'"),
        (("config", "convention", "mode"), None, "'config' lacks field 'mode'"),
        (("config", "image_size"), [0, 8], r"image_size must be two integers >= 1, got \(0, 8\)"),
        (("config", "image_size"), [True, 8],
         r"image_size must be two integers >= 1, got \(True, 8\)"),
        (("config", "order"), "2", "order must be an integer >= 1, got '2'"),
        (("config", "order"), 2.5, "order must be an integer >= 1, got 2.5"),
        (("config", "order"), True, "order must be an integer >= 1, got True"),
        (("per_class", "a", "train_count"), None, "class 'a' lacks field 'train_count'"),
        (("per_class", "a", "representative"), None, "class 'a' lacks field 'representative'"),
        (("per_class", "a", "lambda_rmse"), None, "class 'a' lacks field 'lambda_rmse'"),
        (("per_class", "a", "lambda_mae"), None, "class 'a' lacks field 'lambda_mae'"),
        (("per_class", "a", "lambda_mae"), 2.0, "class 'a' has lambda_rmse != lambda_mae"),
        (("per_class", "a", "representative"), [0.5] * 5,
         r"class 'a' field 'representative' has shape \(5,\), expected \(42,\)"),
        (("per_class", "a", "representative"), 0.5,
         r"class 'a' field 'representative' has shape \(\), expected \(42,\)"),
        (("per_class", "a", "representative"), ["x"] * 42,
         "class 'a' field 'representative' holds non-numbers"),
        (("per_class", "a", "lambda_rmse"), [1.5] * 5,
         r"class 'a' field 'lambda_rmse' has shape \(5,\), expected \(42,\)"),
        (("per_class", "a", "lambda_rmse"), [1.5] + ["x"] * 41,
         "class 'a' field 'lambda_rmse' holds non-numbers"),
        (("per_class", "a", "lambda_rmse"), "x", "class 'a' field 'lambda_rmse' holds non-numbers"),
        (("per_class", "a", "lambda_rmse"), [[1.0] * 42],
         r"class 'a' field 'lambda_rmse' has shape \(1, 42\)"),
        # numpy reads a JSON boolean among numbers as 0 or 1
        (("per_class", "a", "representative"), [True] + [0.11] * 41,
         "class 'a' field 'representative' holds non-numbers"),
        (("per_class", "a", "representative"), [True] * 42,
         "class 'a' field 'representative' holds non-numbers"),
        (("per_class", "a", "lambda_rmse"), [0.5] * 41 + [False],
         "class 'a' field 'lambda_rmse' holds non-numbers"),
        (("per_class", "a", "lambda_rmse"), True, "class 'a' field 'lambda_rmse' holds non-numbers"),
    ):
        doc = copy.deepcopy(good)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
            if path[-1] == "lambda_rmse":
                parent["lambda_mae"] = value
        assert_load_error(tmp_path, model, doc, match)
    # a factor row equal to lambda_rmse under == but for a boolean
    doc = copy.deepcopy(good)
    doc["per_class"]["a"]["lambda_rmse"] = [1.0] * 42
    doc["per_class"]["a"]["lambda_mae"] = [True] + [1.0] * 41
    assert_load_error(tmp_path, model, doc, "class 'a' field 'lambda_mae' holds non-numbers")


# (where in the model document, value; () for the whole document, which
# becomes a one-item list), error match
MALFORMED_MODELS = {
    "null stream_dim": (("stream_dim",), None, "'stream_dim' must be an integer >= 1, got None"),
    "float stream_dim": (("stream_dim",), 16.7, "'stream_dim' must be an integer >= 1, got 16.7"),
    "bool stream_dim": (("stream_dim",), True, "'stream_dim' must be an integer >= 1, got True"),
    "zero stream_dim": (("stream_dim",), 0, "'stream_dim' must be an integer >= 1, got 0"),
    "null train_count": (("per_class", "a", "train_count"), None,
                         "class 'a' field 'train_count' must be an integer >= 1, got None"),
    "float train_count": (("per_class", "a", "train_count"), 2.5,
                          "class 'a' field 'train_count' must be an integer >= 1, got 2.5"),
    "negative train_count": (("per_class", "a", "train_count"), -3,
                             "class 'a' field 'train_count' must be an integer >= 1, got -3"),
    "bool train_count": (("per_class", "a", "train_count"), True,
                         "class 'a' field 'train_count' must be an integer >= 1, got True"),
    "top-level array": ((), None, "top level must be a JSON object, got list"),
    "per_class entry not an object": (("per_class", "a"), [1.0],
                                      "class 'a' must be a JSON object, got list"),
    "per_class not an object": (("per_class",), ["a"],
                                "field 'per_class' must be a JSON object, got list"),
    "config not an object": (("config",), 2, "'config' must be a JSON object, got int"),
    "string classes": (("classes",), "ab", "'classes' must be a JSON list of strings, got 'ab'"),
    "object classes": (("classes",), {"a": 1, "b": 2}, "'classes' must be a JSON list of strings"),
    "nested classes": (("classes",), [["a"], "b"], "'classes' must be a JSON list of strings"),
    "number class": (("classes",), ["a", 1], "'classes' must be a JSON list of strings"),
    "null classes": (("classes",), None, "'classes' must be a JSON list of strings, got None"),
    "repeated class": (("classes",), ["a", "b", "a"], "'classes' repeats a class"),
    "per_class beyond classes": (("per_class", "c"), {},
                                 "field 'per_class' has unknown field 'c'"),
    "string basepoint": (("config", "convention", "basepoint"), "no",
                         "stream basepoint must be true or false, got 'no'"),
    "two channels": (("config", "channels"), 2, "channels must be None, 1 or 3, got 2"),
    "bool channels": (("config", "channels"), True, "channels must be an integer, got True"),
    "unknown top-level field": (("extra",), 1, "top level has unknown field 'extra'"),
    "unknown config field": (("config", "extra"), 1, "'config' has unknown field 'extra'"),
    "unknown convention field": (("config", "convention", "extra"), 1,
                                 "'config' has unknown field 'extra'"),
    "unknown class field": (("per_class", "a", "extra"), 1, "class 'a' has unknown field 'extra'"),
    "null convention": (("config", "convention"), None,
                        "'config' must be a JSON object, got NoneType"),
    "string feature_length": (("feature_length",), "42",
                              "'feature_length' must be an integer >= 1, got '42'"),
    "ragged representative": (("per_class", "a", "representative"), [[1, 2], [3]],
                              "class 'a' field 'representative' is a ragged list"),
    "ragged lambda_rmse": (("per_class", "b", "lambda_rmse"), [1.0, [2.0, 3.0]],
                           "class 'b' field 'lambda_rmse' is a ragged list"),
    "bool ova_score": (("per_class", "a", "ova_score"), True,
                       "class 'a' field 'ova_score' must be a real number, got True"),
    "string ova_score": (("per_class", "a", "ova_score"), "0.5",
                         "class 'a' field 'ova_score' must be a real number, got '0.5'"),
    "null ova_score": (("per_class", "a", "ova_score"), None,
                       "class 'a' field 'ova_score' must be a real number, got None"),
    "negative ova_score": (("per_class", "a", "ova_score"), -0.5,
                           "class 'a' field 'ova_score' must be finite and >= 0, got -0.5"),
    "overflowing ova_score": (("per_class", "a", "ova_score"), json.loads("1e400"),
                              "class 'a' field 'ova_score' must be finite and >= 0, got inf"),
    "huge integer ova_score": (("per_class", "a", "ova_score"), 10 ** 400,
                               "class 'a' field 'ova_score' must be finite and >= 0, got 1000"),
    "nan ova_score": (("per_class", "a", "ova_score"), json.loads("NaN"),
                      "class 'a' field 'ova_score' must be finite and >= 0, got nan"),
    "ova_score on some classes": (("per_class", "a", "ova_score"), 0.5,
                                  r"classes \['b'\] lack field 'ova_score', which other classes have"),
}


@pytest.mark.parametrize("case", MALFORMED_MODELS)
def test_malformed_model_file_is_a_named_error(tmp_path, case):
    path, value, match = MALFORMED_MODELS[case]
    model = fit(tiny_images(np.random.default_rng(13), ["a", "b"]), cfg())
    doc = model_to_dict(model)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = [doc]
    assert_load_error(tmp_path, model, doc, match)


# augment field, its value as model-file JSON text, error
BAD_AUGMENT_FIELDS = {
    "float copies": ("copies", "2.5", "AugmentSpec copies must be an integer >= 1, got 2.5"),
    "bool copies": ("copies", "true", "AugmentSpec copies must be an integer >= 1, got True"),
    "three contrasts": ("contrast", "[0.5, 1, 1]", "AugmentSpec contrast must be two finite real"
                        r" numbers low <= high, got \(0.5, 1, 1\)"),
    "string contrast": ("contrast", '"ab"', "AugmentSpec contrast must be two finite real"
                        " numbers low <= high, got 'ab'"),
    "string noise_level": ("noise_level", '"x"',
                           "AugmentSpec noise_level must be a real number, got 'x'"),
    "overflowing noise_level": ("noise_level", "1e400",
                                "AugmentSpec noise_level must be finite and >= 0, got inf"),
    "negative seed": ("seed", "-1", "AugmentSpec seed must be an integer >= 0, got -1"),
}


@pytest.mark.parametrize("case", BAD_AUGMENT_FIELDS)
def test_bad_augment_field_in_model_file_is_a_named_error(case):
    key, text, match = BAD_AUGMENT_FIELDS[case]
    spec = AugmentSpec(noise="speckle", noise_level=0.05, copies=2)
    doc = model_to_dict(fit(tiny_images(np.random.default_rng(13), ["a", "b"]), cfg(augment=spec)))
    doc["config"]["augment"][key] = "@"
    with pytest.raises(ValueError, match=f"^{match}$"):
        model_from_dict(json.loads(json.dumps(doc).replace('"@"', text)))


def test_model_file_without_ova_scores_loads_without_them():
    tr, va, _ = shapes_split(per_class=6, train=3, val=3)
    doc = model_to_dict(calibrate(fit(tr, cfg(size=16)), va))
    for entry in doc["per_class"].values():
        del entry["ova_score"]
    model = model_from_dict(doc)  # a file written before the scores were stored
    assert model.ova_scores is None
    with pytest.raises(ValueError, match="^the model holds no ova scores"):
        ova_thresholds(model)


def test_ova_scores_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(25)
    model = fit(tiny_images(rng, list("abcdef")), cfg())
    scores = np.array([0.0, 5e-324, 0.1 + 0.2, 1.7976931348623157e308, 2.0 ** -1074 * 3, 1 / 3])
    model = replace(model, ova_scores=scores)
    path = tmp_path / "model.json"
    save_model(model, path)
    assert path.read_text() == json.dumps(model_to_dict(model), indent=2) + "\n"
    back = load_model(path)
    assert back.ova_scores.tobytes() == scores.tobytes()
    assert ova_thresholds(back, 0.5) == ova_thresholds(model, 0.5)


def test_ova_threshold_past_the_float_range_is_named():
    rng = np.random.default_rng(25)
    model = replace(fit(tiny_images(rng, list("ab")), cfg()),
                    ova_scores=np.array([0.25, 1.5e308]))
    assert ova_thresholds(model, 1.1) == {"a": float(1.1 * np.float64(0.25)),
                                          "b": float(1.1 * np.float64(1.5e308))}
    with pytest.raises(ValueError, match=r"^class 'b' ova threshold 1\.3 x 1\.5e\+308 must be"
                                         r" finite and >= 0, got inf$"):
        ova_thresholds(model, 1.3)


def test_save_load_save_is_byte_identical(tmp_path):
    tr, va, _ = shapes_split(per_class=6, train=3, val=3)
    for method in ("none", "closed_form"):
        model = calibrate(fit(tr, cfg(size=16)), va, method=method)
        first, second = tmp_path / f"{method}-1.json", tmp_path / f"{method}-2.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_scalar_lambda_serialization():
    rng = np.random.default_rng(14)
    model = fit(tiny_images(rng, ["a", "b"]), cfg())
    doc = model_to_dict(model)
    assert doc["per_class"]["a"]["lambda_rmse"] == 1.0
    assert np.array_equal(model_from_dict(doc).factors, np.ones((2, 42)))
    # a row of exact ones is written as 1.0, any other row as a list
    factors = np.ones((2, 42))
    factors[1, 3] = 0.5
    doc = model_to_dict(replace(model, factors=factors))
    assert doc["per_class"]["a"]["lambda_mae"] == 1.0
    assert doc["per_class"]["b"]["lambda_mae"] == factors[1].tolist()
    assert np.array_equal(model_from_dict(doc).factors, factors)
    # a number read from a file fills its class's row
    doc["per_class"]["b"]["lambda_rmse"] = doc["per_class"]["b"]["lambda_mae"] = 2
    assert np.array_equal(model_from_dict(doc).factors[1], np.full(42, 2.0))


def test_confusion_csv_format():
    rng = np.random.default_rng(15)
    images = tiny_images(rng, ["a", "b"])
    model = fit(images, cfg())
    report = evaluate(model, images, "plain")
    text = confusion_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "true\\predicted,a,b"
    assert lines[1] == "a,1,0"
    assert lines[2] == "b,0,1"


def test_calibrate_none_resets_identity():
    tr, va, _ = shapes_split(per_class=6, train=3, val=3)
    model = calibrate(fit(tr, cfg(size=16)), va, method="closed_form")
    assert not np.all(model.factors == 1.0)
    reset = calibrate(model, va, method="none")
    assert np.array_equal(reset.factors, np.ones(model.factors.shape))
    assert np.array_equal(reset.representatives, model.representatives)


def test_calibrate_unknown_method():
    rng = np.random.default_rng(16)
    model = fit(tiny_images(rng, ["a"]), cfg())
    with pytest.raises(ValueError, match="calibration method"):
        calibrate(model, tiny_images(rng, ["a"]), method="bayes")


def test_augmented_test_feature_is_mean_of_copies():
    rng = np.random.default_rng(17)
    base = tiny_images(rng, ["a", "b"])
    spec = AugmentSpec(contrast=(1.0, 1.0), brightness=(0.0, 0.0), copies=4, seed=1)
    plain_model = fit(base, cfg())
    aug_model = fit(base, cfg(augment=spec))
    probe = base[0]
    # identity augmentation: averaged copies equal the single feature
    label_a, scores_a = predict(plain_model, probe, "plain")
    label_b, scores_b = predict(aug_model, probe, "plain")
    assert label_a == label_b
    assert np.allclose(
        [scores_a[z] for z in plain_model.classes],
        [scores_b[z] for z in aug_model.classes],
    )
