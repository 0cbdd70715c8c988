"""Content-addressed cache of the code objects compiled from generated
source.

Everything the simulator generates as Python text — each instruction's
step executor (``repro.x86.isa``, ``repro.ppc.isa``), each static
effect function (``repro.static.effects``) and each compiled block
(``repro.compile.emit``) — is the same text in every process that
builds it.  :func:`compile_cached` compiles such text once per host and
keeps the code object on disk, so a fresh process loads it instead.

* **Key.** A hash of the interpreter's bytecode magic number, the
  optimization level, the filename and the full source text: an entry
  can only be hit by the very text it was compiled from, on an
  interpreter that reads its bytecode, so there is nothing to
  invalidate.
* **Entry.** ``marshal.dumps(code)`` behind a checksum of that payload,
  written to a temporary file and moved into place with
  ``os.replace``, so concurrent processes never see a partial entry.
* **Location.** ``repro/__pycache__/generated/``, or
  ``<prefix>/repro-generated/`` when Python's own ``sys.pycache_prefix``
  is set (``-X pycache_prefix`` / ``PYTHONPYCACHEPREFIX``).  Deleting
  the directory is always safe.  ``sys.dont_write_bytecode`` does not
  apply: these entries are not the ``.pyc`` files it governs.
* **Failures.** An unwritable directory falls back to the plain
  compile and counts a skipped write; a corrupt entry raises
  :class:`CodeCacheError` naming its file.

:data:`stats` counts this process's hits, misses, writes and skipped
writes.  The counters never enter results or digests.
"""

from __future__ import annotations

import __future__
import contextlib
import hashlib
import importlib.util
import marshal
import os
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType
from typing import Dict

#: every generating module compiles under ``from __future__ import
#: annotations``, which ``compile()`` inherits there; a cached code
#: object carries the same flag, so it is the one the module would build
_FLAGS = __future__.annotations.compiler_flag

_PACKAGE = Path(__file__).resolve().parents[1]

#: per-process counters (telemetry only)
stats: Dict[str, int] = {"hits": 0, "misses": 0, "writes": 0,
                         "write_skipped": 0}

#: the service compiles in job threads
_stats_lock = threading.Lock()

_CHECKSUM_BYTES = 16


class CodeCacheError(Exception):
    """A cache entry that cannot be the code it is filed under."""

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


def compile_cached(text: str, name: str) -> CodeType:
    """``compile(text, name, "exec")``, from the cache when it holds
    this exact text."""
    key = hashlib.blake2b(importlib.util.MAGIC_NUMBER, digest_size=20)
    key.update(b"%d\0%s\0%s" % (sys.flags.optimize, name.encode(),
                                text.encode()))
    path = cache_dir() / key.hexdigest()
    try:
        blob = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        _count("misses")
        code = compile(text, name, "exec", flags=_FLAGS, dont_inherit=True)
        _store(path, marshal.dumps(code))
        return code
    code = _load(path, blob, name)
    _count("hits")
    return code


def _load(path: Path, blob: bytes, name: str) -> CodeType:
    checksum, payload = blob[:_CHECKSUM_BYTES], blob[_CHECKSUM_BYTES:]
    if _checksum(payload) != checksum:
        raise CodeCacheError(path, "checksum mismatch")
    try:
        code = marshal.loads(payload)
    except (EOFError, ValueError, TypeError) as exc:
        raise CodeCacheError(path, f"cannot unmarshal: {exc}") from exc
    if not isinstance(code, CodeType):
        raise CodeCacheError(path, f"holds a {type(code).__name__}, "
                                   f"not a code object")
    if code.co_filename != name:
        raise CodeCacheError(path, f"compiled as {code.co_filename!r}, "
                                   f"not {name!r}")
    return code


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
