"""Cache of what the simulator builds from generated source, keyed by
what generation reads.

Everything the simulator generates as Python text — each instruction's
step executor (``repro.x86.isa``, ``repro.ppc.isa``), each static
effect function (``repro.static.effects``) and each compiled block
(``repro.compile.emit``) — is a function of this package's sources and
a small key (a row's name; a block's decoded instructions).  A static
CFG's block leaders (``repro.compile.blocks``) are a function of the
same sources and of the kernel image's text and function layout.
:func:`cached` files such a value under a hash of those inputs, so a
process on a warm host loads it without generating any text.

* **Key.** A hash of the interpreter's bytecode magic number, the
  optimization level, a digest of every file of the ``repro`` package
  (its bytes and relative path, read once per process, ``__pycache__``
  pruned), the entry's name and its key (``marshal`` format 0, which
  writes equal keys as equal bytes).  Editing any file under
  ``src/repro`` therefore invalidates every entry.
* **Entry.** ``marshal.dumps((name, value))`` behind a checksum of that
  payload, written to a temporary file and moved into place with
  ``os.replace``, so concurrent processes never see a partial entry.
* **Location.** ``repro/__pycache__/generated/``, or
  ``<prefix>/repro-generated/`` when Python's own ``sys.pycache_prefix``
  is set (``-X pycache_prefix`` / ``PYTHONPYCACHEPREFIX``).  Deleting
  the directory is always safe.  ``sys.dont_write_bytecode`` does not
  apply: these entries are not the ``.pyc`` files it governs.
* **Failures.** An unwritable directory keeps the built value and
  counts a skipped write; a corrupt entry, or one filed under another
  name, raises :class:`CodeCacheError` naming its file.

:data:`stats` counts this process's hits, misses, writes and skipped
writes.  The counters never enter results or digests.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.util
import marshal
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, TypeVar

_PACKAGE = Path(__file__).resolve().parents[1]

#: per-process counters (telemetry only)
stats: Dict[str, int] = {"hits": 0, "misses": 0, "writes": 0,
                         "write_skipped": 0}

#: the service compiles in job threads
_stats_lock = threading.Lock()

_CHECKSUM_BYTES = 16

T = TypeVar("T")


class CodeCacheError(Exception):
    """A cache entry that cannot be the value it is filed under."""

    def __init__(self, path: Path, why: str) -> None:
        super().__init__(f"corrupt code-cache entry {path}: {why}")
        self.path = path


def cache_dir() -> Path:
    """Where entries live; follows ``sys.pycache_prefix`` when set."""
    if sys.pycache_prefix:
        return Path(sys.pycache_prefix) / "repro-generated"
    return _PACKAGE / "__pycache__" / "generated"


def _count(counter: str) -> None:
    with _stats_lock:
        stats[counter] += 1


def _checksum(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_CHECKSUM_BYTES).digest()


@functools.lru_cache(maxsize=None)
def _base() -> "hashlib._Hash":
    """The key hash of everything but the entry: interpreter, flags and
    the package's files."""
    base = hashlib.blake2b(importlib.util.MAGIC_NUMBER, digest_size=20)
    base.update(b"%d\0" % sys.flags.optimize)
    for root, dirs, files in os.walk(_PACKAGE):
        dirs[:] = sorted(name for name in dirs if name != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as source:
                data = source.read()
            base.update(b"%s\0%d\0" % (
                os.path.relpath(path, _PACKAGE).encode(), len(data)))
            base.update(data)
    return base


def cached(name: str, key: object, build: Callable[[], T]) -> T:
    """``build()``, a marshal-able value determined by this package's
    sources and *key*; from the cache when an entry for (*name*, *key*)
    exists."""
    digest = _base().copy()
    digest.update(b"%s\0" % name.encode())
    digest.update(marshal.dumps(key, 0))
    path = cache_dir() / digest.hexdigest()
    try:
        blob = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        _count("misses")
        value = build()
        _store(path, marshal.dumps((name, value)))
        return value
    value = _load(path, blob, name)
    _count("hits")
    return value


def _load(path: Path, blob: bytes, name: str):
    checksum, payload = blob[:_CHECKSUM_BYTES], blob[_CHECKSUM_BYTES:]
    if _checksum(payload) != checksum:
        raise CodeCacheError(path, "checksum mismatch")
    try:
        entry = marshal.loads(payload)
    except (EOFError, ValueError, TypeError) as exc:
        raise CodeCacheError(path, f"cannot unmarshal: {exc}") from exc
    if not (isinstance(entry, tuple) and len(entry) == 2):
        raise CodeCacheError(path, f"holds a {type(entry).__name__}, "
                                   f"not a (name, value) entry")
    if entry[0] != name:
        raise CodeCacheError(path, f"filed as {entry[0]!r}, "
                                   f"not {name!r}")
    return entry[1]


def _store(path: Path, payload: bytes) -> None:
    """Write one entry atomically; count a skipped write when the
    directory refuses it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    except OSError:
        _count("write_skipped")
        return
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(_checksum(payload) + payload)
        os.chmod(tmp, 0o644)            # mkstemp's 0600 hides it from others
        os.replace(tmp, path)
    except OSError:
        _count("write_skipped")
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        return
    _count("writes")
