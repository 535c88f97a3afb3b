from dataclasses import replace

import numpy as np
import pytest
import scipy.signal

from sigclass.classifier import ModelConfig, fit
from sigclass.data_io import gen_four_shapes
from sigclass.path_signature import StreamConvention
from sigclass.signal_analysis import (
    export_spectrum,
    savgol_coefficients,
    savgol_filter,
)


def test_window3_order1_is_moving_average():
    assert np.allclose(savgol_coefficients(3, 1), np.ones(3) / 3.0, atol=1e-15)


def test_window5_order2_reference_kernel():
    expected = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    assert np.abs(savgol_coefficients(5, 2) - expected).max() < 1e-12


def test_full_order_kernel_is_delta():
    for window in (3, 5, 7):
        kernel = savgol_coefficients(window, window - 1)
        delta = np.zeros(window)
        delta[window // 2] = 1.0
        assert np.allclose(kernel, delta, atol=1e-9)


def test_kernel_sums_to_one_and_palindromic():
    for window, polyorder in [(5, 2), (5, 3), (7, 2), (9, 4), (11, 3), (21, 5)]:
        kernel = savgol_coefficients(window, polyorder)
        assert abs(kernel.sum() - 1.0) < 1e-12
        assert np.allclose(kernel, kernel[::-1], atol=1e-12)


def test_kernel_matches_scipy():
    for window, polyorder in [(5, 2), (7, 3), (9, 2), (31, 3)]:
        ours = savgol_coefficients(window, polyorder)
        reference = scipy.signal.savgol_coeffs(window, polyorder)
        assert np.abs(ours - reference[::-1]).max() < 1e-12


def test_coefficient_contracts():
    with pytest.raises(ValueError, match="odd"):
        savgol_coefficients(4, 1)
    with pytest.raises(ValueError, match="polyorder"):
        savgol_coefficients(5, 5)
    for window, polyorder, match in ((5.5, 2, "window must be an integer >= 1, got 5.5"),
                                     (True, 0, "window must be an integer >= 1, got True"),
                                     (0, 0, "window must be an integer >= 1, got 0"),
                                     (5, 2.0, "polyorder must be an integer, got 2.0"),
                                     (5, np.True_, "polyorder must be an integer, got np.True_")):
        with pytest.raises(ValueError, match=match):
            savgol_coefficients(window, polyorder)


def test_filter_preserves_constants():
    series = np.full(20, 2.5)
    out = savgol_filter(series, 7, 3)
    assert out.shape == series.shape
    assert np.allclose(out, 2.5, atol=1e-12)


def test_filter_reproduces_cubics_in_interior():
    t = np.linspace(-1, 1, 101)
    series = 2.0 * t**3 - t**2 + 0.5 * t - 3.0
    out = savgol_filter(series, 11, 3)
    h = 5
    assert np.abs(out[h:-h] - series[h:-h]).max() < 1e-9


def test_filter_linearity():
    rng = np.random.default_rng(0)
    s1, s2 = rng.normal(size=40), rng.normal(size=40)
    a, b = 2.0, -0.7
    left = savgol_filter(a * s1 + b * s2, 9, 2)
    right = a * savgol_filter(s1, 9, 2) + b * savgol_filter(s2, 9, 2)
    assert np.abs(left - right).max() < 1e-12


def test_filter_matches_scipy_mirror_mode():
    # a lone sample, and series shorter than the padding, reflected more than once
    rng = np.random.default_rng(1)
    for length in (50, 1, 2, 3, 5):
        series = rng.normal(size=length)
        ours = savgol_filter(series, 9, 3)
        reference = scipy.signal.savgol_filter(series, 9, 3, mode="mirror")
        assert np.abs(ours - reference).max() < 1e-10


def shapes_model(per_class=4):
    images = gen_four_shapes(per_class, size=16, seed=0)
    config = ModelConfig(
        order=2, convention=StreamConvention("rows", True), image_size=(16, 16)
    )
    return fit(images, config)


def test_export_single_class(tmp_path):
    model = shapes_model()
    single = type(model)(
        config=model.config,
        classes=model.classes[:1],
        stream_dim=model.stream_dim,
        representatives=model.representatives[:1],
        train_counts={model.classes[0]: model.train_counts[model.classes[0]]},
    )
    series = export_spectrum(single, 3, 1, out_dir=tmp_path)
    assert len(series) == 1
    assert series[0].values.size == model.feature_length
    csv = (tmp_path / f"spectrum_{model.classes[0]}.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "index,raw_abs,smoothed"
    assert len(lines) == 1 + model.feature_length


def test_export_window_clamped_with_warning(tmp_path):
    model = shapes_model()
    with pytest.warns(UserWarning, match="clamped"):
        series = export_spectrum(model, 100001, 3, out_dir=tmp_path)
    length = model.feature_length
    expected = length if length % 2 == 1 else length - 1
    assert all(s.window == expected for s in series)


def test_export_four_files(tmp_path):
    model = shapes_model()
    series = export_spectrum(model, 5, 2, out_dir=tmp_path)
    assert len(series) == 4
    files = sorted(p.name for p in tmp_path.glob("spectrum_*.csv"))
    assert files == [f"spectrum_{z}.csv" for z in sorted(model.classes)]


def test_labels_sharing_a_file_name_are_named_before_any_file_is_written(tmp_path):
    model = shapes_model()
    clash = type(model)(
        config=model.config,
        classes=("cat dog", "cat_dog"),
        stream_dim=model.stream_dim,
        representatives=model.representatives[:2],
        train_counts={"cat dog": 1, "cat_dog": 1},
    )
    with pytest.raises(ValueError, match="class labels 'cat dog' and 'cat_dog' both map to "
                                         "spectrum_cat_dog.csv"):
        export_spectrum(clash, 5, 2, out_dir=tmp_path / "spectra")
    assert not (tmp_path / "spectra").exists()
    assert [s.label for s in export_spectrum(clash, 5, 2)] == ["cat dog", "cat_dog"]


def test_spectrum_csv_is_each_value_repr(tmp_path):
    # rows that repeat a few values, with zeros of both signs, subnormals and 1e308
    model = shapes_model()
    pool = np.array([0.0, -0.0, 5e-324, -1e-310, 2.5, -2.5, 1e-300, 0.1])
    reps = pool[np.random.default_rng(5).integers(0, len(pool), size=model.representatives.shape)]
    reps[1, reps.shape[1] // 2] = 1e308
    series = export_spectrum(replace(model, representatives=reps), 5, 2, out_dir=tmp_path)
    for s in series:
        rows = enumerate(zip(s.raw_abs.tolist(), s.values.tolist()))
        expected = "index,raw_abs,smoothed\n" + "".join(f"{i},{r!r},{v!r}\n" for i, (r, v) in rows)
        assert (tmp_path / f"spectrum_{s.label}.csv").read_bytes() == expected.encode("utf-8")
    assert 1e308 in series[1].raw_abs and 5e-324 in series[0].raw_abs
    assert all(len(np.unique(s.raw_abs)) < len(s.raw_abs) / 4 for s in series)
