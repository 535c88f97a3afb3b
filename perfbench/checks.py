"""Output checks: a digest of each command's output files, compared with
the stored reference for the workload seed.

Integers, labels, accuracies and confusion matrices must match exactly.
Float vectors (representatives, scale factors, spectra) are compared
through a digest (L1 and L2 norms, max and three fixed random
projections), each within RTOL times the vector's L1 norm.  RTOL sits
far above float reassociation (a fused Chen fold moved results by at most
1.2e-15) and far below the error of wrong arithmetic.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re

import numpy as np

RTOL = 1e-9
# The final t-SNE KL is chaotic in its input: perturbing the features by
# 1e-15 (relative) moved it by up to 10% on the desk workload, so only a
# loose match is meaningful.  The initial KL is smooth in the input; the
# CLI prints it with four decimals.
KL_FINAL_RTOL = 0.25
KL_FIRST_ATOL = 1.5e-4

_KL = re.compile(r"KL (\S+) -> (\S+);")


class CheckError(Exception):
    """An output file is missing, malformed or internally inconsistent."""


def _weights(n: int) -> np.ndarray:
    return np.random.default_rng(np.random.SeedSequence([20240, n])).uniform(-1.0, 1.0, (3, n))


def vector_digest(values) -> dict:
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise CheckError("non-finite values in a float output")
    return {
        "n": int(v.size),
        "l1": float(np.abs(v).sum()),
        "l2": float(np.sqrt(v @ v)),
        "max_abs": float(np.abs(v).max()) if v.size else 0.0,
        "proj": [float(x) for x in _weights(v.size) @ v],
    }


def _factor_digest(values):
    return {"scalar": values} if isinstance(values, (int, float)) else vector_digest(values)


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: {exc}") from exc


def fit_digest(out_dir: str) -> dict:
    model = _read_json(os.path.join(out_dir, "model.json"))
    per_class = model["per_class"]
    if sorted(per_class) != model["classes"]:
        raise CheckError("model.json per_class keys differ from classes")
    return {
        "config": model["config"],
        "classes": model["classes"],
        "feature_length": model["feature_length"],
        "stream_dim": model["stream_dim"],
        "train_counts": {z: per_class[z]["train_count"] for z in model["classes"]},
        "representative": {z: vector_digest(per_class[z]["representative"]) for z in model["classes"]},
        "lambda_rmse": {z: _factor_digest(per_class[z]["lambda_rmse"]) for z in model["classes"]},
        "lambda_mae": {z: _factor_digest(per_class[z]["lambda_mae"]) for z in model["classes"]},
    }


def eval_digest(out_dir: str, protocols: str) -> dict:
    out = {}
    for protocol in protocols.split(","):
        report = _read_json(os.path.join(out_dir, f"report_{protocol}.json"))
        confusion = np.array(report["confusion"], dtype=np.int64)
        with open(os.path.join(out_dir, f"confusion_{protocol}.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0][1:] != report["classes"] or [r[0] for r in rows[1:]] != report["classes"]:
            raise CheckError(f"confusion_{protocol}.csv labels differ from the report")
        if not np.array_equal(np.array([r[1:] for r in rows[1:]], dtype=np.int64), confusion):
            raise CheckError(f"confusion_{protocol}.csv differs from report_{protocol}.json")
        total = int(confusion.sum())
        if total != report["total"] or np.trace(confusion) / total != report["accuracy"]:
            raise CheckError(f"report_{protocol}.json accuracy disagrees with its confusion matrix")
        out[protocol] = {
            key: report[key] for key in ("accuracy", "per_class_accuracy", "confusion", "total")
        }
        out[protocol]["mean_margin"] = report["mean_margin"]
    return out


def embed_digest(out_dir: str, stdout: str) -> dict:
    with open(os.path.join(out_dir, "embedding.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["x", "y", "label"]:
        raise CheckError("embedding.csv header is not x,y,label")
    coords = np.array([r[:2] for r in rows[1:]], dtype=np.float64)
    if not np.all(np.isfinite(coords)):
        raise CheckError("embedding.csv holds non-finite coordinates")
    labels = [r[2] for r in rows[1:]]
    match = _KL.search(stdout)
    if match is None:
        raise CheckError("embed did not report its KL trace")
    return {
        "n": len(labels),
        "labels": hashlib.sha256("\n".join(labels).encode()).hexdigest(),
        "kl_first": float(match.group(1)),
        "kl_final": float(match.group(2)),
    }


def spectra_digest(out_dir: str) -> dict:
    spectra_dir = os.path.join(out_dir, "spectra")
    out = {}
    for name in sorted(os.listdir(spectra_dir)):
        with open(os.path.join(spectra_dir, name), newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["index", "raw_abs", "smoothed"]:
            raise CheckError(f"{name}: unexpected header")
        table = np.array(rows[1:], dtype=np.float64)
        if not np.array_equal(table[:, 0], np.arange(len(table))):
            raise CheckError(f"{name}: index column is not 0..n-1")
        out[name] = {"raw_abs": vector_digest(table[:, 1]), "smoothed": vector_digest(table[:, 2])}
    return out


def _vector_mismatch(got: dict, ref: dict) -> str | None:
    if got["n"] != ref["n"]:
        return f"length {got['n']} != {ref['n']}"
    tol = RTOL * ref["l1"]
    pairs = [(got[k], ref[k]) for k in ("l1", "l2", "max_abs")]
    pairs += list(zip(got["proj"], ref["proj"]))
    worst = max((abs(a - b) for a, b in pairs), default=0.0)
    return None if worst <= tol else f"deviation {worst:.3g} > {tol:.3g}"


def compare(got, ref, path: str = "") -> list[str]:
    """Mismatches between a digest and its reference, one line each."""
    if isinstance(ref, dict) and "proj" in ref:
        bad = _vector_mismatch(got, ref) if isinstance(got, dict) and "proj" in got else "not a vector"
        return [] if bad is None else [f"{path}: {bad}"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        return [line for k in sorted(ref) for line in compare(got[k], ref[k], f"{path}/{k}")]
    key = path.rsplit("/", 1)[-1]
    if key == "mean_margin":
        ok = abs(got - ref) <= RTOL * abs(ref)
    elif key == "kl_first":
        ok = abs(got - ref) <= KL_FIRST_ATOL
    elif key == "kl_final":
        ok = abs(got - ref) <= KL_FINAL_RTOL * abs(ref)
    else:
        ok = got == ref
    return [] if ok else [f"{path}: {got!r} != {ref!r}"]


def tree_hash(root: str) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(root):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()
