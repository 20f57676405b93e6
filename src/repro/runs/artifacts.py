"""Crash-safe campaign artifact I/O: atomic writes, checksums, quarantine.

Every file a campaign persists (manifests, cell results, training memos,
checkpoints, policies) goes through the helpers here so that the artifact
tree is **valid by construction** at every instant:

* **atomicity** — writes go to a hidden temp file in the destination
  directory (``.<name>.tmp-<pid>``), are flushed and fsynced, and land via
  ``os.replace``.  A crash at any point leaves either the old file or the
  new one, never a torn hybrid; the temp file is unlinked on failure so no
  strays accumulate;
* **integrity** — every write records the content's SHA-256 in a sidecar
  (``<name>.sha256``, ``sha256sum`` format).  Loads verify it; artifacts
  predating the sidecar convention are accepted as legacy but still must
  parse/unpickle;
* **quarantine** — a corrupt or truncated artifact is never silently
  accepted *and* never crashes the campaign: the loader moves it aside to
  ``<name>.corrupt-N``, appends a record to the directory's
  ``quarantine.jsonl`` log, and raises :class:`CorruptArtifactError` so the
  caller can transparently regenerate from its last good state.

The module is deliberately a leaf (stdlib + the shared JSON dialect from
:mod:`repro.rl.stats`) so that :mod:`repro.rl.trainer` can route checkpoints
through it without an import cycle.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, List, Optional

from repro.jsonio import dump_json

#: Temp-file naming: ``.<name>.tmp-<pid>`` in the destination directory (same
#: filesystem, so ``os.replace`` is atomic).  ``stray_tmp_files`` globs this.
TMP_GLOB = ".*.tmp-*"
#: Quarantined artifacts: ``<name>.corrupt-N`` next to where the file lived.
CORRUPT_GLOB = "*.corrupt-*"
#: Per-directory quarantine log (append-only JSONL, diagnostic only).
QUARANTINE_LOG = "quarantine.jsonl"
#: Checksum sidecar suffix: ``result.json`` -> ``result.json.sha256``.
CHECKSUM_SUFFIX = ".sha256"


class CorruptArtifactError(RuntimeError):
    """A persisted artifact failed verification (and has been quarantined)."""

    def __init__(self, path: Path, reason: str, quarantined: Optional[Path] = None):
        super().__init__(f"corrupt artifact {path}: {reason}"
                         + (f" (quarantined to {quarantined.name})" if quarantined else ""))
        self.path = Path(path)
        self.reason = reason
        self.quarantined = quarantined


def checksum_path(path: Path) -> Path:
    return Path(path).with_name(Path(path).name + CHECKSUM_SUFFIX)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry so an ``os.replace`` survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms/filesystems without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _tmp_path(path: Path) -> Path:
    return path.with_name(f".{path.name}.tmp-{os.getpid()}")


def _replace_atomically(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_path(path)
    try:
        with open(tmp, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)


# ----------------------------------------------------------------- writing
def atomic_write_bytes(path: Path, data: bytes, checksum: bool = True) -> None:
    """Atomically write ``data`` to ``path`` and record its SHA-256 sidecar."""
    path = Path(path)
    _replace_atomically(path, data)
    if checksum:
        _replace_atomically(checksum_path(path),
                            f"{_digest(data)}  {path.name}\n".encode())


def atomic_write_text(path: Path, text: str, checksum: bool = True) -> None:
    atomic_write_bytes(path, text.encode("utf-8"), checksum=checksum)


def atomic_write_json(path: Path, payload: Any, indent: Optional[int] = None,
                      checksum: bool = True) -> None:
    """Atomically write ``payload`` through the shared JSON dialect."""
    atomic_write_text(path, dump_json(payload, indent=indent), checksum=checksum)


def atomic_write_pickle(path: Path, obj: Any, checksum: bool = True) -> None:
    atomic_write_bytes(path, pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
                       checksum=checksum)


def remove_artifact(path: Path) -> None:
    """Unlink an artifact together with its checksum sidecar."""
    path = Path(path)
    path.unlink(missing_ok=True)
    checksum_path(path).unlink(missing_ok=True)


# ------------------------------------------------------------ verification
def verify_artifact(path: Path, data: Optional[bytes] = None) -> Optional[bool]:
    """True/False for a checksummed artifact, None when no sidecar exists.

    ``data`` is the artifact's content when the caller already read it: those
    bytes are what gets checked, so the file is not read a second time.
    """
    path = Path(path)
    sidecar = checksum_path(path)
    if not sidecar.exists():
        return None
    try:
        recorded = sidecar.read_text().split()[0]
    except (OSError, IndexError):
        return False
    if data is None:
        data = path.read_bytes()
    return _digest(data) == recorded


def quarantine(path: Path, reason: str) -> Path:
    """Move a corrupt artifact aside and log it; returns the quarantine path."""
    path = Path(path)
    index = 0
    while True:
        target = path.with_name(f"{path.name}.corrupt-{index}")
        if not target.exists():
            break
        index += 1
    os.replace(path, target)
    checksum_path(path).unlink(missing_ok=True)
    log = path.parent / QUARANTINE_LOG
    record = dump_json({"artifact": path.name, "quarantined_as": target.name,
                        "reason": reason})
    with open(log, "a", encoding="utf-8") as stream:
        stream.write(record + "\n")
    return target


def _load_verified(path: Path) -> bytes:
    path = Path(path)
    data = path.read_bytes()
    if verify_artifact(path, data) is False:
        quarantined = quarantine(path, "checksum mismatch")
        raise CorruptArtifactError(path, "checksum mismatch", quarantined)
    return data


def load_text(path: Path) -> str:
    return _load_verified(path).decode("utf-8")


def load_json(path: Path) -> Any:
    """Read + parse a JSON artifact; corrupt or truncated files quarantine."""
    path = Path(path)
    data = _load_verified(path)
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        quarantined = quarantine(path, f"unparseable JSON: {exc}")
        raise CorruptArtifactError(path, f"unparseable JSON: {exc}", quarantined)


def load_pickle(path: Path) -> Any:
    """Read + unpickle an artifact; corrupt or truncated files quarantine."""
    path = Path(path)
    data = _load_verified(path)
    try:
        return pickle.loads(data)
    except Exception as exc:  # pickle raises a zoo of exception types
        quarantined = quarantine(path, f"unpicklable: {exc}")
        raise CorruptArtifactError(path, f"unpicklable: {exc}", quarantined)


# ------------------------------------------------------------- tree hygiene
def stray_tmp_files(root: Path) -> List[Path]:
    """Leftover temp files under ``root`` (empty after any clean shutdown)."""
    return sorted(Path(root).rglob(TMP_GLOB))


def quarantined_files(root: Path) -> List[Path]:
    """Live quarantined artifacts under ``root`` awaiting operator attention."""
    return sorted(Path(root).rglob(CORRUPT_GLOB))


def clear_quarantine(directory: Path) -> int:
    """Drop a directory's quarantined files (after the cell recovered).

    The ``quarantine.jsonl`` log is kept — recovery removes the corpses, not
    the record that corruption happened.
    """
    removed = 0
    for corpse in sorted(Path(directory).glob(CORRUPT_GLOB)):
        corpse.unlink()
        removed += 1
    return removed


def quarantine_log_entries(root: Path) -> List[dict]:
    """Every quarantine event recorded under ``root`` (diagnostic history)."""
    entries: List[dict] = []
    for log in sorted(Path(root).rglob(QUARANTINE_LOG)):
        for line in log.read_text().splitlines():
            if line.strip():
                entries.append(json.loads(line))
    return entries
