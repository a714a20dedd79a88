"""Checkpoint persistence: JSON sidecar plus raw little-endian f64 blob.

The blob layout is site-major in lexicographic site order with the component
index minor, exactly the in-memory layout of FormField data; the sidecar
records the lattice spec, field degree, endianness tag, format version and
the blob's byte length and sha256.

The digest is CPython's built-in SHA-256 (_sha2 on 3.12+, _sha256 before),
hashlib's only where neither exists, as the stdlib's random.py takes its
sha512: importing hashlib loads OpenSSL's libcrypto (about 3.6 MB resident),
which a flow process would map for this digest alone. The hex digest is the
same, so sidecars written either way verify each other.
"""

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .lattice import FormField, Lattice

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

FORMAT_VERSION = 1


def replace_atomically(path: Path, payload: bytes) -> None:
    """Write payload to a temporary file beside path, then rename it over path."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_form_field(base, field: FormField, extra: dict = None) -> Path:
    """Write <base>.json + <base>.bin; returns the sidecar path.

    Each file is written to a temporary name and renamed into place, the
    sidecar last, so an interrupted write leaves the previous pair or a blob
    whose length and sha256 no longer match the sidecar, never a torn file.
    """
    base = Path(base)
    base.parent.mkdir(parents=True, exist_ok=True)
    raw = np.ascontiguousarray(field.data, dtype="<f8").tobytes()
    replace_atomically(base.with_suffix(".bin"), raw)
    sidecar = {
        "version": FORMAT_VERSION,
        "endianness": "little",
        "dtype": "f8",
        "kind": "form",
        "degree": field.degree,
        "shape": list(field.data.shape),
        "lattice": asdict(field.lattice),
        "blob": base.with_suffix(".bin").name,
        "blob_bytes": len(raw),
        "blob_sha256": sha256(raw).hexdigest(),
    }
    if extra:
        sidecar["extra"] = extra
    path = base.with_suffix(".json")
    replace_atomically(path, (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode())
    return path


def read_form_field(base):
    """Read a checkpointed field; returns (FormField, extra_dict).

    A sidecar or extra entry that is not a JSON object, or a sidecar entry
    of the wrong type (a string degree, a float shape entry, a number for
    the blob name, an unknown lattice key), raises ValueError, like every
    other malformed sidecar.
    """
    base = Path(base)
    sidecar = json.loads(base.with_suffix(".json").read_text())
    if not isinstance(sidecar, dict):
        raise ValueError("checkpoint sidecar is not a JSON object")
    extra = sidecar.get("extra", {})
    if not isinstance(extra, dict):
        raise ValueError("checkpoint sidecar's extra entry is not a JSON object")
    if sidecar.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {sidecar.get('version')}")
    if sidecar.get("endianness") != "little":
        raise ValueError("checkpoint must be little-endian")
    try:
        lattice = Lattice(**sidecar["lattice"])
        raw = (base.parent / sidecar["blob"]).read_bytes()
        # Sidecars written before the checksum was recorded carry neither entry.
        if "blob_bytes" in sidecar and len(raw) != sidecar["blob_bytes"]:
            raise ValueError(f"checkpoint blob has {len(raw)} bytes, "
                             f"sidecar records {sidecar['blob_bytes']}")
        if ("blob_sha256" in sidecar
                and sha256(raw).hexdigest() != sidecar["blob_sha256"]):
            raise ValueError("checkpoint blob does not match the sidecar's sha256")
        data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(sidecar["shape"])
        return FormField(lattice, sidecar["degree"], data), extra
    except TypeError as exc:
        raise ValueError(f"bad checkpoint sidecar entry: {exc}") from exc
