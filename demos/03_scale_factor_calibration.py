"""Scale-factor calibration: the closed form and the subgradient solver.

The closed form averages element-wise ratios representative/instance.  The
optimizer minimizes the scaled own-class MAE minus gamma times the scaled
MAE against the other representatives, under a box constraint, starting
from the clipped closed form.
"""

import numpy as np

from sigclass import CalibrationSet, closed_form_lambda, optimize_lambda
from sigclass.calibration import _objective_and_subgrad

rng = np.random.default_rng(42)
n = 12

print("== closed form on a single validation instance ==")
rep = rng.uniform(1.0, 3.0, size=n)
x = rep * rng.uniform(0.8, 1.25, size=n)  # multiplicative perturbation of the rep
cal = CalibrationSet(
    representatives=rep[None, :],  # (Z, F): one row per class
    validation={"a": x[None, :]},  # one (n_z, F) matrix per class
)
lam = closed_form_lambda(cal)[0]  # (Z, F) factors, row 0 for class "a"
print("lambda = rep / x:", np.round(lam, 4))
print("residual |lambda*x - rep|:", np.abs(lam * x - rep).max(), "\n")

print("== two classes, separation-aware optimization ==")
rep_b = rng.uniform(4.0, 7.0, size=n)
val_a = rep * (1 + rng.uniform(-0.1, 0.1, (8, n)))
val_b = rep_b * (1 + rng.uniform(-0.1, 0.1, (8, n)))
cal2 = CalibrationSet(
    representatives=np.stack([rep, rep_b]),
    validation={"a": val_a, "b": val_b},
)

for gamma in (0.0, 0.1, 0.3):
    out = optimize_lambda(cal2, gamma=gamma, box=5.0, iters=500)
    own, other = rep, [rep_b]
    v_start, _ = _objective_and_subgrad(
        np.clip(closed_form_lambda(cal2)[0], -5, 5), val_a, own, other, gamma)
    v_final, _ = _objective_and_subgrad(out[0], val_a, own, other, gamma)
    print(f"gamma={gamma:3.1f}: class-a objective start {v_start:9.4f} -> final {v_final:9.4f}"
          f"   ||lambda||_inf = {np.abs(out[0]).max():.3f}")

print("\nlarger gamma trades own-class fit for distance to the other class;")
print("the box keeps the factors bounded, and the best iterate is returned.")
