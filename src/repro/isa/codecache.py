"""Cache of what the simulator builds from generated source, keyed by
what generation reads.

Everything the simulator generates as Python text — each instruction's
step executor (``repro.isa.table``), each static
effect function (``repro.static.effects``) and each compiled block
(``repro.compile.emit``) — is a function of this package's sources and
a small key (a row's name; a block's decoded instructions).  A static
CFG's block leaders (``repro.compile.blocks``) are a function of the
same sources and of the kernel image's text and function layout, and
each linked kernel image (``repro.kernel.build``) of the sources and
its arch.
:func:`cached` files such a value under a hash of those inputs, so a
process on a warm host loads it without generating any text.

* **Generation.** A digest of every file of the ``repro`` package (its
  bytes and relative path, read once per process, ``__pycache__``
  pruned) names the directory the entries live in.  Editing any file
  under ``src/repro`` therefore invalidates every entry, and the first
  process that writes into the new generation removes every other
  one, so the cache holds one source's entries at a time.
* **Key.** Within a generation, a hash of the interpreter's bytecode
  magic number, the optimization level, the entry's name and its key
  (``marshal`` format 0, which writes equal keys as equal bytes).
* **Entry.** ``marshal.dumps((name, value))`` behind a checksum of that
  payload, written to a temporary file and moved into place with
  ``os.replace``, so concurrent processes never see a partial entry.
* **Location.** ``repro/__pycache__/generated/<generation>/``, or
  ``<prefix>/repro-generated/<generation>/`` when Python's own
  ``sys.pycache_prefix`` is set (``-X pycache_prefix`` /
  ``PYTHONPYCACHEPREFIX``).  Deleting the directory is always safe;
  two checkouts of different sources that share one prefix evict each
  other's generation.  ``sys.dont_write_bytecode`` does not apply:
  these entries are not the ``.pyc`` files it governs.
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
import shutil
import sys
import tempfile
import threading
from pathlib import Path
from typing import Callable, Dict, Set, TypeVar

_PACKAGE = Path(__file__).resolve().parents[1]

#: per-process counters (telemetry only)
stats: Dict[str, int] = {"hits": 0, "misses": 0, "writes": 0,
                         "write_skipped": 0}

#: the service compiles in job threads
_stats_lock = threading.Lock()

#: generation directories this process has evicted the siblings of
_evicted: Set[Path] = set()

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
def _generation() -> str:
    """A digest of the package's files: the directory of their
    entries."""
    digest = hashlib.blake2b(digest_size=20)
    for root, dirs, files in os.walk(_PACKAGE):
        dirs[:] = sorted(name for name in dirs if name != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as source:
                data = source.read()
            digest.update(b"%s\0%d\0" % (
                os.path.relpath(path, _PACKAGE).encode(), len(data)))
            digest.update(data)
    return digest.hexdigest()


def cached(name: str, key: object, build: Callable[[], T]) -> T:
    """``build()``, a marshal-able value determined by this package's
    sources and *key*; from the cache when an entry for (*name*, *key*)
    exists."""
    digest = hashlib.blake2b(importlib.util.MAGIC_NUMBER, digest_size=20)
    digest.update(b"%d\0%s\0" % (sys.flags.optimize, name.encode()))
    digest.update(marshal.dumps(key, 0))
    path = cache_dir() / _generation() / digest.hexdigest()
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
    _evict(path.parent)


def _evict(generation: Path) -> None:
    """Remove every sibling of *generation* (older sources' entries),
    once per process and cache directory."""
    with _stats_lock:
        if generation in _evicted:
            return
        _evicted.add(generation)
    for sibling in generation.parent.iterdir():
        if sibling == generation:
            continue
        if sibling.is_dir():
            shutil.rmtree(sibling, ignore_errors=True)
        else:                           # an entry of the flat layout
            with contextlib.suppress(OSError):
                sibling.unlink()
