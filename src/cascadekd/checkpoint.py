"""Checkpoint directories: `manifest.json` plus `weights.bin`.

The weights file is the concatenation of every parameter as raw
little-endian float64, in `parameters()` order (embeddings first, then
layers bottom to top, then any classifier head). The manifest records the
model configuration, cascade position, and per-tensor name, shape, byte
offset, length, and SHA-256 digest. Manifests are serialized with sorted
keys and fixed indentation, so saving an unchanged model twice produces
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .encoder import ClassifierHead, EncoderModel, ModelConfig
from .errors import NumericError, ValidationError
from .tensor import Tensor

FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"


@dataclass
class CheckpointBundle:
    """A loaded checkpoint: the model, optional head, and cascade position."""

    model: EncoderModel
    head: Optional[ClassifierHead]
    stage_index: int
    step_count: int


def _named_tensors(model: EncoderModel,
                   head: Optional[ClassifierHead]) -> list[tuple[str, Tensor]]:
    named = list(model.parameters())
    if head is not None:
        named.extend((f"head.{name}", p) for name, p in head.parameters())
    return named


def _tensor_blob(t: Tensor) -> bytes:
    return np.ascontiguousarray(t.data, dtype="<f8").tobytes()


def save_checkpoint(path, model: EncoderModel, head: Optional[ClassifierHead] = None,
                    stage_index: int = 0, step_count: int = 0) -> None:
    """Write (or overwrite) a checkpoint directory."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    blobs = []
    offset = 0
    for name, tensor in _named_tensors(model, head):
        blob = _tensor_blob(tensor)
        records.append({
            "name": name,
            "shape": list(tensor.shape),
            "offset": offset,
            "nbytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        })
        blobs.append(blob)
        offset += len(blob)
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": model.config.to_dict(),
        "head": None if head is None else {
            "hidden_dim": head.hidden_dim, "num_classes": head.num_classes},
        "stage_index": stage_index,
        "step_count": step_count,
        "tensors": records,
    }
    (directory / WEIGHTS_NAME).write_bytes(b"".join(blobs))
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _count(value, what: str) -> int:
    """A manifest field that must be a non-negative int (a bool is not one)."""
    if type(value) is not int or value < 0:
        raise ValidationError(f"manifest {what} must be a non-negative integer, got {value!r}")
    return value


def load_checkpoint(path) -> CheckpointBundle:
    """Load and digest-verify a checkpoint directory."""
    directory = Path(path)
    try:
        manifest = json.loads((directory / MANIFEST_NAME).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"no checkpoint manifest in {directory}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"unreadable manifest: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValidationError(f"manifest in {directory} is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"checkpoint format {version!r}, expected {FORMAT_VERSION}")

    try:
        config = ModelConfig.from_dict(manifest["model_config"])
        head_spec = manifest.get("head")
        head = None if head_spec is None else ClassifierHead(
            head_spec["hidden_dim"], head_spec["num_classes"], seed=None)
        records = [(r["name"], _count(r["offset"], f"offset of {r['name']!r}"),
                    _count(r["nbytes"], f"nbytes of {r['name']!r}"), r["sha256"],
                    tuple(r["shape"]))
                   for r in manifest["tensors"]]
        stage_index = _count(manifest["stage_index"], "stage_index")
        step_count = _count(manifest["step_count"], "step_count")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"manifest field missing or malformed: {exc}") from None
    model = EncoderModel(config, seed=None)
    targets = dict(_named_tensors(model, head))

    raw = (directory / WEIGHTS_NAME).read_bytes()
    seen = set()
    for name, offset, nbytes, digest, shape in records:
        if type(name) is not str or name not in targets:
            raise ValidationError(f"manifest lists unknown tensor {name!r}")
        blob = raw[offset:offset + nbytes]
        if len(blob) != nbytes:
            raise NumericError(f"weights file truncated at tensor {name!r}")
        if hashlib.sha256(blob).hexdigest() != digest:
            raise NumericError(f"digest mismatch for tensor {name!r}")
        tensor = targets[name]
        if shape != tensor.shape:
            raise ValidationError(
                f"tensor {name!r} has shape {shape}, expected {tensor.shape}")
        if nbytes != 8 * tensor.data.size:
            raise ValidationError(
                f"tensor {name!r} of shape {shape} is listed with {nbytes} bytes, "
                f"not {8 * tensor.data.size}")
        tensor.data = np.frombuffer(blob, dtype="<f8").reshape(shape).astype(
            np.float64, copy=True)
        seen.add(name)
    missing = set(targets) - seen
    if missing:
        raise ValidationError(f"checkpoint missing tensors: {sorted(missing)}")
    return CheckpointBundle(model=model, head=head,
                            stage_index=stage_index, step_count=step_count)
