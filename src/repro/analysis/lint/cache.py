"""The one on-disk cache of the analyzer suite.

Warm whole-program runs must stay inside the PR 1 budget (~0.2 s
in-process over the full tree), which rules out re-parsing ~100 files
per invocation.  One JSON file holds, per analyzed source file, every
per-file product the suite extracts — keyed by the file's
``(path, mtime_ns, size)`` stat signature:

* ``violations`` — the findings of the full per-file ``lint`` pack;
* ``summary`` — the semantic module summary
  (:func:`repro.analysis.verify.model.summarize_file`) the ``verify``,
  ``det`` and ``hot`` packs assemble into one ``Program``;
* ``hot`` — the hot-cost facts
  (:func:`repro.analysis.hot.model.hot_summary_file`).

Whole-program rules are never cached: they re-run every invocation
against the assembled cross-module facts, so findings always reflect
the current tree even when every entry came from the cache.

Soundness
---------
A cached entry is only a function of the file's bytes and of the
extraction code, so two guards make reuse safe:

* the stat signature — any content change (or ``touch``) drops the
  file's whole entry;
* one implementation fingerprint — a SHA-256 over exactly the sources
  whose output is cached (:data:`_IMPL_FILES`), the running Python
  version and a schema constant.  Editing any of them invalidates the
  file in one stroke; editing a whole-program rule does not, because
  no rule output is stored.

The cache is strictly best-effort: unreadable, corrupt, or
wrong-fingerprint files are silently discarded and rebuilt, and write
failures (read-only checkouts, races) are swallowed.  ``--no-cache``
runs on a memory-only instance (``AnalysisCache(None)``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Optional

__all__ = [
    "DEFAULT_CACHE_DIR",
    "AnalysisCache",
    "implementation_fingerprint",
]

#: Default cache directory, relative to the invocation cwd.
DEFAULT_CACHE_DIR = Path(".repro-lint-cache")

#: Bump when the cached payload *schema* changes shape.
_SCHEMA_VERSION = 4

_LINT_DIR = Path(__file__).resolve().parent
_ANALYSIS_DIR = _LINT_DIR.parent

#: The sources whose output is cached.
_IMPL_FILES = (
    _LINT_DIR / "core.py",
    _LINT_DIR / "rules.py",  # findings, and the keyword tables that
                             # seed the summary's dimensions
    _ANALYSIS_DIR / "verify" / "model.py",
    _ANALYSIS_DIR / "hot" / "model.py",
)


def implementation_fingerprint() -> str:
    """SHA-256 over the extraction sources + interpreter version."""
    digest = hashlib.sha256()
    digest.update(f"schema={_SCHEMA_VERSION}".encode())
    digest.update(f"python={sys.version_info[:2]}".encode())
    for impl in _IMPL_FILES:
        try:
            digest.update(impl.read_bytes())
        except OSError:  # pragma: no cover - impl file missing/unreadable
            digest.update(b"<missing>")
    return digest.hexdigest()


def _stat_signature(path: Path) -> Optional[Dict[str, int]]:
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return {"mtime_ns": stat.st_mtime_ns, "size": stat.st_size}


class AnalysisCache:
    """``<directory>/analysis.json``: per-file extraction products.

    ``directory=None`` keeps everything in memory — nothing is read
    and :meth:`save` writes nothing.
    """

    def __init__(self, directory: Optional[Path]) -> None:
        self.path = None if directory is None \
            else Path(directory) / "analysis.json"
        self._fingerprint = implementation_fingerprint()
        self._entries: Dict[str, Dict[str, Any]] = self._load()
        self._dirty = False
        self.hits = 0
        self.misses = 0

    def _load(self) -> Dict[str, Dict[str, Any]]:
        if self.path is None:
            return {}
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict) \
                or raw.get("fingerprint") != self._fingerprint:
            return {}
        entries = raw.get("entries")
        return entries if isinstance(entries, dict) else {}

    def lookup(self, path: Path, part: str,
               extract: Callable[[Path], Any]) -> Any:
        """The cached ``part`` of ``path``'s entry, else ``extract(path)``
        (stored beside whatever else the file's entry already holds)."""
        signature = _stat_signature(path)
        entry = self._entries.get(str(path))
        if entry is None or entry.get("stat") != signature \
                or not isinstance(entry.get("payload"), dict):
            entry = {"stat": signature, "payload": {}}
        payload = entry["payload"]
        if part in payload:
            self.hits += 1
            return payload[part]
        self.misses += 1
        value = payload[part] = extract(path)
        if signature is not None:
            self._entries[str(path)] = entry
            self._dirty = True
        return value

    def save(self) -> None:
        """Write the cache atomically (tmp + rename); never raises."""
        if not self._dirty or self.path is None:
            return
        document = {"fingerprint": self._fingerprint,
                    "entries": self._entries}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name,
                suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(document, handle)
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self._dirty = False
