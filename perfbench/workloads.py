"""The benchmark's workloads: input files, CLI configs and command lists.

Every workload writes its inputs into a working directory from the
workload seed alone and refers to them by relative path, so the same seed
gives byte-identical inputs wherever the benchmark runs.  Commands are
argument lists for ``sigclass.cli.main`` and are run from that directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import synth

# The README's desk configuration (ROADMAP criterion 3).  Run at seed 12345
# it is the audit whose four accuracies the ROADMAP records.
DESK = {
    "dataset": {
        "kind": "four_shapes",
        "size": 16,
        "jitter": {"center_frac": 0.03, "scale_range": [0.72, 0.82], "rotation_deg": [7, 13]},
    },
    "stream": {"mode": "rows", "basepoint": True},
    "feature": {"kind": "signature", "order": 2},
    "metric": "rmse",
    "budgets": {"train": 10, "val": 100, "test": 200},
    "calibration": {"method": "closed_form", "epsilon": 1e-3},
    "embed": {"samples": 300, "perplexity": 30, "iterations": 500},
}
AUDIT_SEED = 12345
AUDIT_ACCURACY = {"plain": 1.000, "fixed": 0.294, "ova": 0.194, "oracle": 1.000}

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
MNIST = {
    "dataset": {"kind": "mnist", **MNIST_FILES},
    "stream": {"mode": "rows", "basepoint": True},
    "feature": {"kind": "signature", "order": 3},
    "metric": "mae",
    "budgets": {"train": 10, "val": 20, "test": 20},
    "calibration": {"method": "closed_form", "epsilon": 1e-3},
    "spectra": {"window": 21, "polyorder": 3},
}

CIFAR_TRAIN, CIFAR_TEST = "data_batch_1.bin", "test_batch.bin"
CIFAR = {
    "dataset": {"kind": "cifar10", "train_batches": [CIFAR_TRAIN], "test_batches": [CIFAR_TEST]},
    "image_size": [16, 16],
    "channels": 3,
    "stream": {"mode": "pixels", "basepoint": True},
    "feature": {"kind": "log-signature", "order": 3},
    "metric": "rmse",
    "budgets": {"train": 10, "val": 40, "test": 20},
    "calibration": {"method": "optimize", "iters": 500, "gamma": 0.1, "box": 50.0},
    "augment": {"noise": "speckle", "noise_level": 0.1, "copies": 4},
}

# Images per class in each written file: more than the budgets take, so
# the seeded split chooses among them.
FILE_PER_CLASS = 60

# Warm-up runs every command of a workload once on a small budget, so lazy
# imports, first-call allocation and BLAS start-up are paid in set-up.
WARM_BUDGETS = {"train": 2, "val": 4, "test": 4}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: dict
    protocols: str
    post: str | None  # "embed", "spectra" or None: the command after eval
    write_data: Callable[[int], list[str]]
    warm: dict
    audit: bool = False  # also run the desk audit after the timed cycles

    def config(self, seed: int, out_dir: str = "out") -> dict:
        return {"seed": seed, "out_dir": out_dir, **self.base}

    def warm_config(self, seed: int) -> dict:
        doc = self.config(seed, "warm")
        doc["budgets"] = dict(WARM_BUDGETS)
        doc.update(self.warm)
        return doc

    def write_inputs(self, seed: int) -> list[str]:
        """Write data files and configs into the working directory."""
        files = self.write_data(seed)
        for name, doc in (("config.json", self.config(seed)), ("warm.json", self.warm_config(seed))):
            with open(name, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            files.append(name)
        return files

    def commands(self, config: str = "config.json", out_dir: str = "out") -> list[tuple[str, list[str]]]:
        """(command name, argv) in closed-loop order: each uses the last's output."""
        cmds = [
            ("fit", ["fit", "--config", config]),
            ("eval", ["eval", "--config", config, "--protocol", self.protocols]),
        ]
        if self.post == "embed":
            cmds.append(("embed", ["embed", "--config", config]))
        elif self.post == "spectra":
            spectra = self.base["spectra"]
            cmds.append(
                (
                    "spectra",
                    [
                        "spectra",
                        "--model", f"{out_dir}/model.json",
                        "--window", str(spectra["window"]),
                        "--polyorder", str(spectra["polyorder"]),
                        "--out", f"{out_dir}/spectra",
                    ],
                )
            )
        return cmds


def _no_data(seed: int) -> list[str]:
    return []


def _write_mnist(seed: int) -> list[str]:
    for part, prefix in ((0, "train"), (1, "test")):
        cover, labels = synth.shapes(FILE_PER_CLASS, 28, seed, part)
        synth.write_idx_pair(
            MNIST_FILES[f"{prefix}_images"],
            MNIST_FILES[f"{prefix}_labels"],
            synth.to_bytes(cover),
            labels,
        )
    return list(MNIST_FILES.values())


def _write_cifar(seed: int) -> list[str]:
    for part, path in ((0, CIFAR_TRAIN), (1, CIFAR_TEST)):
        cover, labels = synth.shapes(FILE_PER_CLASS, 32, seed, part)
        synth.write_cifar_batch(path, synth.to_bytes(synth.colourise(cover)), labels)
    return [CIFAR_TRAIN, CIFAR_TEST]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-shapes",
            why="README desk config: per-image eval over 4 protocols, shape rendering and t-SNE dominate",
            base=DESK,
            protocols="plain,fixed,ova,oracle",
            post="embed",
            write_data=_no_data,
            warm={"embed": {"samples": 30, "perplexity": 5, "iterations": 60}},
            audit=True,
        ),
        Workload(
            name="mnist-rows-o3",
            why="IDX files, short wide 29x28 order-3 streams: memory-bound fold, 4.8 MB model, MAE, spectra",
            base=MNIST,
            protocols="plain,fixed",
            post="spectra",
            write_data=_write_mnist,
            warm={},
        ),
        Workload(
            name="cifar-pixels-logsig",
            why="CIFAR batch, long narrow 257x3 pixel streams: log-signature, resize, augmentation, optimizer",
            base=CIFAR,
            protocols="fixed,ova",
            post=None,
            write_data=_write_cifar,
            warm={"calibration": dict(CIFAR["calibration"], iters=20)},
        ),
    )
}
