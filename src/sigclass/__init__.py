"""sigclass: few-shot image classification with truncated path signatures.

Images become streams of points, streams become truncated signature or
log-signature features, classes are represented by element-wise mean
feature vectors, and test samples are scored with (optionally scaled)
RMSE/MAE against those representatives.  Includes scale-factor
calibration (closed form and projected subgradient), Savitzky-Golay
spectrum diagnostics, and PCA + exact t-SNE embedding.
"""

from .calibration import CalibrationSet, closed_form_lambda, optimize_lambda
from .classifier import (
    ClassModel,
    EvalReport,
    ModelConfig,
    calibrate,
    evaluate,
    features_for_images,
    fit,
    load_model,
    ova_thresholds,
    predict,
    predict_oracle,
    predict_ova,
    save_model,
)
from .data_io import (
    AugmentSpec,
    LabeledImage,
    ShapeJitter,
    augment,
    ensure_channels,
    gen_four_shapes,
    load_cifar10,
    load_image_dir,
    load_mnist_idx,
    read_pnm,
    resize,
    write_pnm,
)
from .embedding import EmbeddingResult, pca_reduce, tsne_exact
from .path_signature import (
    PIXELS_AS_STEPS,
    ROWS_AS_STEPS,
    StreamConvention,
    log_signature_many,
    signature_many,
    signature_oracle,
)
from .signal_analysis import (
    SpectrumSeries,
    export_spectrum,
    savgol_coefficients,
    savgol_filter,
)
from .tensor_algebra import feature_length

__version__ = "0.1.0"
