"""On-disk cache for semantic profiles.

A record holds the canonical codes of a theory's models of one size. It
is named by a CRC-32 of the theory's canonical text (`Theory.key`, which
order-preserving renamings and regrouped axioms share) plus the size,
carries that text, and is served only to the same text, so a CRC
collision costs a recompute, never a wrong model list. Records of another
tool version or `FORMAT` are ignored; the format changed when the text
named symbols by position, so caches written before are never read.
Writes go through a temp file and an atomic rename. Results never depend
on the cache being present.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from pathlib import Path

from . import __version__
from .semantics import set_profile_store

ENV_VAR = "THDIST_CACHE_DIR"
# A record holds the theory's positional text and the canonical codes of a
# model list in ascending order (semantics serves it only if they fit the
# signature's code width). Change the tag whenever that encoding changes.
FORMAT = "positional-theory-text+ascending-canonical-codes"


class DiskProfileStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str, k: int) -> Path:
        name = f"{zlib.crc32(key.encode()):08x}"
        return self.root / name[:2] / f"{name}.{k}.json"

    def get(self, key: str, k: int):
        path = self._path(key, k)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("version") != __version__ \
                or data.get("format") != FORMAT or data.get("key") != key:
            return None
        return data

    def put(self, key: str, k: int, payload: dict) -> None:
        path = self._path(key, k)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = dict(payload, version=__version__, format=FORMAT, key=key)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(record, fh)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def activate_cache() -> DiskProfileStore | None:
    """Install the disk cache at the directory the environment variable
    names; without one, stay memory-only."""
    root = os.environ.get(ENV_VAR)
    if not root:
        return None
    store = DiskProfileStore(root)
    set_profile_store(store)
    return store
