"""The content-addressed cache of compiled generated source.

Every generated-source site (block units, both ISAs' step executors and
both arches' effect functions) compiles through
:func:`repro.isa.codecache.compile_cached`.  A cached code object must
be exactly the one the site's own ``compile()`` would build, a warm
context build must compile nothing, every pinned clean-pass and window
figure must hold with the cache cold and warm, and a damaged entry must
fail loudly.
"""

from __future__ import annotations

import __future__
import functools
import marshal
import multiprocessing
import sys
from pathlib import Path

import pytest

import repro
import repro.compile.emit as emit
import repro.ppc.isa as pisa
import repro.static.effects as effects
import repro.x86.isa as xisa
from repro.injection.campaign import CampaignContext
from repro.isa import codecache
from repro.isa.codecache import CodeCacheError, compile_cached
from repro.static.effects import UnknownInstructionError, insn_effects
from repro.x86 import decoder as xdec
from tests.test_clean_pass import DIGESTS, clean_pass_digest
from tests.test_window_pass import PINS

SITES = (emit, xisa, pisa, effects)


@pytest.fixture
def cache(tmp_path, monkeypatch) -> Path:
    """An empty cache under *tmp_path*, with zeroed counters."""
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    monkeypatch.setattr(codecache, "stats",
                        dict.fromkeys(codecache.stats, 0))
    return tmp_path / "repro-generated"


@pytest.fixture
def no_contexts(monkeypatch):
    """A context cache of this test's own, so its builds are cold and
    the session's contexts survive it."""
    monkeypatch.setattr(CampaignContext, "_cache", {})


def _future_flags(module) -> int:
    """The ``__future__`` flags ``compile()`` inherits in *module*."""
    return functools.reduce(
        lambda flags, feature: flags | feature.compiler_flag,
        (value for value in vars(module).values()
         if isinstance(value, __future__._Feature)), 0)


def _check_context(arch: str) -> None:
    """The pinned clean-pass digest and window of (arch, 11, 48)."""
    context = CampaignContext.get(arch, 11, 48)
    recorded = DIGESTS[f"{arch}/seed11"]
    assert recorded["ops"] == 48
    expected = {name: value for name, value in recorded.items()
                if name not in ("arch", "seed", "ops")}
    assert clean_pass_digest(context.probe, context.profile) == expected
    pins = PINS[f"{arch}-s11-o48"]
    for count in (8, 5):
        rungs = [[checkpoint.instret, checkpoint.last_pet]
                 for checkpoint in context.ladder(count).checkpoints]
        assert rungs == pins[f"ladder{count}"], count
    blocks = context.base_machine.cpu._block_cache.snapshot()
    assert [[addr, blocks[addr].n] for addr in sorted(blocks)] == \
        pins["window_blocks"]


def test_every_site_matches_its_own_compile(cache, no_contexts,
                                            monkeypatch):
    """Cold or warm, each site gets byte for byte the code object a
    ``compile()`` in its own module builds from the same text."""
    calls = []

    def recording(module, text, name):
        calls.append((module, text, name))
        return compile_cached(text, name)

    for module in SITES:
        monkeypatch.setattr(module, "compile_cached",
                            functools.partial(recording, module))
    monkeypatch.setattr(effects, "_X86_EFFECT_FNS", {})
    for op in xisa.TABLE:
        xisa._step_function(op)
    for op in pisa.TABLE:
        pisa._step_function(op)
        effects._ppc_effects(op)
    for opcode in range(256):
        instr = xdec.decode(bytes([opcode]) + bytes(12))
        try:
            insn_effects(instr, 0)
        except UnknownInstructionError:
            pass
    CampaignContext.get("ppc", 0, 36)
    names = {name for _module, _text, name in calls}
    assert {module for module, _text, _name in calls} == set(SITES)
    assert "<x86 effects>" in names and "<effects addi>" in names

    assert codecache.stats["misses"] == codecache.stats["writes"] > 0
    hits = codecache.stats["hits"]
    for module, text, name in calls:
        fresh = compile(text, name, "exec", flags=_future_flags(module),
                        dont_inherit=True)
        cached = compile_cached(text, name)
        # both held, so marshal flags the same objects as shared
        assert marshal.dumps(cached) == marshal.dumps(fresh), name
    assert codecache.stats["hits"] - hits == len(calls)


def test_warm_build_compiles_nothing_and_holds_the_pins(cache,
                                                        no_contexts):
    """A second cold build of both contexts in one process takes every
    code object from the cache; both builds reproduce the pins."""
    for warm in (False, True):
        CampaignContext.clear_cache()
        before = dict(codecache.stats)
        for arch in ("x86", "ppc"):
            _check_context(arch)
        misses = codecache.stats["misses"] - before["misses"]
        hits = codecache.stats["hits"] - before["hits"]
        if warm:
            assert misses == 0 and hits > 100
        else:
            assert misses > 100
    assert codecache.stats["write_skipped"] == 0


def test_unwritable_directory_builds_identically(tmp_path, monkeypatch,
                                                 no_contexts):
    """A cache location that cannot be created still builds the pinned
    context, counting each write it skipped."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(sys, "pycache_prefix", str(blocker))
    monkeypatch.setattr(codecache, "stats",
                        dict.fromkeys(codecache.stats, 0))
    _check_context("ppc")
    stats = codecache.stats
    assert stats["write_skipped"] == stats["misses"] > 0
    assert stats["writes"] == stats["hits"] == 0


def _rewrite(path: Path, payload: bytes) -> None:
    path.write_bytes(codecache._checksum(payload) + payload)


CORRUPTIONS = {
    "flipped": lambda path, blob: path.write_bytes(
        blob[:-1] + bytes([blob[-1] ^ 1])),
    "truncated": lambda path, blob: path.write_bytes(blob[:len(blob) // 2]),
    "empty": lambda path, blob: path.write_bytes(b""),
    "not-marshal": lambda path, blob: _rewrite(path, b"\xff" * 20),
    "not-code": lambda path, blob: _rewrite(path, marshal.dumps(42)),
    "other-file": lambda path, blob: _rewrite(path, marshal.dumps(
        compile("x = 1\n", "<elsewhere>", "exec"))),
}


@pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
def test_corrupt_entry_is_a_typed_error_naming_its_file(cache, damage):
    compile_cached("x = 1\n", "<probe>")
    [path] = cache.iterdir()
    CORRUPTIONS[damage](path, path.read_bytes())
    with pytest.raises(CodeCacheError, match=str(path)) as raised:
        compile_cached("x = 1\n", "<probe>")
    assert raised.value.path == path


def test_default_location_is_the_package_pycache(monkeypatch):
    monkeypatch.setattr(sys, "pycache_prefix", None)
    assert codecache.cache_dir() == \
        Path(repro.__file__).resolve().parent / "__pycache__" / "generated"


def _fill(texts) -> None:
    for _ in range(3):
        for index, text in enumerate(texts):
            compile_cached(text, f"<race {index}>")


def test_concurrent_writers_never_expose_a_partial_entry(cache):
    """Three processes on two cores write and read the same entries at
    once; every read sees a whole entry."""
    texts = [f"def f{n}(a):\n    return a * {n} + {n * n}\n" * 40
             for n in range(40)]
    context = multiprocessing.get_context("fork")
    workers = [context.Process(target=_fill, args=(texts,))
               for _ in range(3)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert all(not worker.is_alive() and worker.exitcode == 0
               for worker in workers)
    assert sorted(path.name for path in cache.iterdir()
                  if path.name.startswith(".tmp")) == []
    _fill(texts)
    assert codecache.stats["misses"] == 0
