"""Few-shot shape classification, honest and dishonest protocols side by side.

Reproduces the headline phenomenon at desk scale: with scale factors
calibrated per class on validation data, the *oracle* protocol (which picks
each test sample's scale factor using its TRUE label) reaches perfect
accuracy, while every protocol that could actually be deployed lands far
lower.  The oracle column is an audit of that evaluation choice, not a
usable classifier.
"""

import numpy as np

from sigclass import ModelConfig, StreamConvention, calibrate, evaluate, fit, ova_thresholds
from sigclass.data_io import ShapeJitter, gen_four_shapes

SEED = 12345
JITTER = ShapeJitter(center_frac=0.03, scale_range=(0.72, 0.82),
                     rotation=(np.deg2rad(7), np.deg2rad(13)))

print("generating 310 images per class (16x16, jittered shapes)...")
images = gen_four_shapes(per_class=310, size=16, jitter=JITTER, seed=SEED)
by_class = {}
for im in images:
    by_class.setdefault(im.label, []).append(im)

train, val, test = [], [], []
for items in by_class.values():
    train += items[:10]        # 10 train per class, as in the few-shot setup
    val += items[10:110]       # 100 validation per class for calibration
    test += items[110:310]     # 200 held-out test per class

config = ModelConfig(
    kind="signature", order=2, metric="rmse",
    convention=StreamConvention("rows", basepoint=True),
    image_size=(16, 16),
)
print(f"fitting representatives from {len(train)} images "
      f"({config.order=}, rows-as-steps)...")
model = fit(train, config)
print("feature length:", model.feature_length)

model = calibrate(model, val, method="closed_form", epsilon=1e-3)
thresholds = ova_thresholds(model)

print("\nprotocol                     accuracy  (on {} test samples)".format(len(test)))
for protocol in ("plain", "fixed", "ova", "oracle"):
    kwargs = {"thresholds": thresholds} if protocol == "ova" else {}
    report = evaluate(model, test, protocol, **kwargs)
    note = "  <- uses the TRUE test label to pick the scale factor" if protocol == "oracle" else ""
    print(f"  {protocol:8s}                   {report.accuracy:.4f}{note}")

val_oracle = evaluate(model, val, "oracle")
print(f"\nvalidation-set oracle accuracy: {val_oracle.accuracy:.4f}")
print("\nRead the table carefully: the ratio-calibrated factors actively hurt")
print("when deployed honestly ('fixed' collapses to near chance, and 'plain'")
print("without any factors is perfect on this easy data) -- yet 'oracle'")
print("reports a perfect score with the very same factors, because choosing")
print("the factor by the true label makes the evaluation circular.")
