"""The cache of values built from generated source.

Every generated-source site (block units, both ISAs' step executors,
both arches' effect functions), the static-CFG block leaders and both
linked kernel images go through :func:`repro.isa.codecache.cached`,
filed under the inputs of generation rather than its output.  A value
served on a hit must be exactly what its own ``build()`` gives afresh
(a key that misses an input would serve a stale one), a warm context
build must generate no source, build no CFG and compile no kernel, a
warm campaign process must not import what it does not run, every
pinned clean-pass and window figure and a code campaign's results must
hold with the cache cold and warm, and a damaged entry must fail
loudly.
"""

from __future__ import annotations

import json
import marshal
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.compile.blocks as blocks
import repro.compile.emit as emit
import repro.isa.table as table
import repro.kcc as kcc
import repro.kernel.build as kernel_build
import repro.ppc.isa as pisa
import repro.static.cfg as cfg_mod
import repro.static.effects as effects
import repro.x86.isa as xisa
from repro.injection.campaign import Campaign, CampaignConfig, CampaignContext
from repro.injection.outcomes import CampaignKind
from repro.isa import codecache
from repro.isa.codecache import CodeCacheError, cached
from repro.kernel.build import build_kernel
from tests.test_campaign_digests import _digest
from tests.test_clean_pass import DIGESTS, clean_pass_digest
from tests.test_window_pass import PINS

SITES = (emit, table, effects, blocks, kernel_build)


@pytest.fixture
def no_contexts(monkeypatch):
    """A context cache of this test's own, so its builds are cold and
    the session's contexts survive it."""
    monkeypatch.setattr(CampaignContext, "_cache", {})


def _forget(monkeypatch) -> None:
    """Drop what this process keeps of its earlier builds, so the next
    one asks the code cache again: contexts, effect functions and the
    kernel images (with their block leaders)."""
    CampaignContext.clear_cache()
    monkeypatch.setattr(effects, "_EFFECT_FNS", {})
    build_kernel.cache_clear()


def _build_executors() -> None:
    for op in xisa.TABLE + pisa.TABLE:
        table.step_function(op)


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
    blocks_ = context.base_machine.cpu._block_cache.snapshot()
    assert [[addr, blocks_[addr].n] for addr in sorted(blocks_)] == \
        pins["window_blocks"]


def _code_campaign() -> str:
    """The digest of an x86 code campaign on the (x86, 11, 48) context.
    Its experiments compile blocks over flipped instructions: at the
    addresses of the clean pass's blocks, with one field changed (an
    immediate, a register, a row)."""
    config = CampaignConfig(arch="x86", kind=CampaignKind.CODE, count=24,
                            seed=11, ops=48)
    result = Campaign(config, CampaignContext.get("x86", 11, 48)).run()
    assert not result.failures
    return _digest(result)


def test_every_hit_is_what_a_fresh_build_gives(code_cache, no_contexts,
                                              monkeypatch):
    """The stale-key guard: over a cold and then a warm clean pass of
    both arches and an x86 code campaign, every value the cache
    serves equals, under ``marshal``, what its own ``build()`` gives
    afresh — so no input of generation is missing from its key."""
    served = []

    def recording(name, key, build):
        hits = codecache.stats["hits"]
        value = cached(name, key, build)
        if codecache.stats["hits"] > hits:
            served.append((name, value, build))
        return value

    for module in SITES:
        monkeypatch.setattr(module, "cached", recording)
    campaigns = []
    for _warm in (False, True):
        _forget(monkeypatch)
        _build_executors()
        for arch in ("x86", "ppc"):
            _check_context(arch)
        campaigns.append(_code_campaign())
    assert campaigns[0] == campaigns[1]

    assert codecache.stats["misses"] == codecache.stats["writes"] > 0
    names = {name for name, _value, _build in served}
    for kind in ("<x86 alu_rm_r>", "<ppc addi>", "<x86 effects>",
                 "<ppc effects>", "<x86 statics>", "<ppc statics>",
                 "<kernel x86>", "<kernel ppc>"):
        assert kind in names, kind
    assert any("x86-block@" in name for name in names)
    assert any("ppc-block@" in name for name in names)
    for name, value, build in served:
        assert marshal.dumps(value, 0) == marshal.dumps(build(), 0), name


def test_warm_build_generates_nothing(code_cache, no_contexts,
                                      monkeypatch):
    """With a warm cache, building both contexts (and every step
    executor) generates no source text, builds no CFG and compiles no
    kernel, and takes everything from the cache; cold and warm builds
    hold the pins."""
    _forget(monkeypatch)
    _build_executors()
    for arch in ("x86", "ppc"):
        _check_context(arch)
    assert codecache.stats["misses"] > 100

    def generating(*args, **kwargs):
        raise AssertionError("a warm build generated source")

    for module, name in ((table, "_step_code"), (table, "Step"),
                         (emit, "_body"), (emit, "_generate"),
                         (effects, "_Effects"), (cfg_mod, "build_cfg"),
                         (kcc, "parse"), (kcc, "build_image")):
        monkeypatch.setattr(module, name, generating)
    _forget(monkeypatch)
    before = dict(codecache.stats)
    _build_executors()
    for arch in ("x86", "ppc"):
        _check_context(arch)
    assert codecache.stats["misses"] == before["misses"]
    assert codecache.stats["hits"] - before["hits"] > 100
    assert codecache.stats["write_skipped"] == 0


#: one process: both (arch, 11, 48) contexts and a 4-injection register
#: campaign on each, then the modules it imported and its cache counters
_CAMPAIGN_PROCESS = """
import json, sys
from repro.injection.campaign import Campaign, CampaignConfig, CampaignContext
from repro.injection.outcomes import CampaignKind
from repro.isa import codecache
for arch in ("x86", "ppc"):
    config = CampaignConfig(arch=arch, kind=CampaignKind.REGISTER, count=4,
                            seed=11, ops=48)
    result = Campaign(config, CampaignContext.get(arch, 11, 48)).run()
    assert len(result.results) == 4 and not result.failures
print(json.dumps({"modules": sorted(sys.modules), "stats": codecache.stats}))
"""

#: what no campaign runs: the compiler, the static analyses but the
#: effect tables, the report-side analysis, the study, the assemblers
#: and the disassemblers
_NOT_RUN = re.compile(
    r"repro\.(kcc(\..*)?|static\.(?!effects$).*"
    r"|analysis\.(compare|figures|latency|propagation|tables)"
    r"|core\.study|.*\.(assembler|disasm))")


def test_warm_campaign_process_imports_only_what_it_runs(tmp_path):
    """A fresh process on a warm cache takes its kernel images and all
    its generated code from the cache and never imports the compiler
    or any other module a campaign does not run."""
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))

    def run() -> dict:
        out = subprocess.run(
            [sys.executable, "-X", f"pycache_prefix={tmp_path}", "-c",
             _CAMPAIGN_PROCESS], env=env, capture_output=True, text=True,
            timeout=600, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    cold = run()
    assert cold["stats"]["writes"] > 0
    assert "repro.kcc.parser" in cold["modules"]
    warm = run()
    assert warm["stats"]["misses"] == 0 < warm["stats"]["hits"]
    assert "repro.static.effects" in warm["modules"]
    assert [name for name in warm["modules"]
            if _NOT_RUN.fullmatch(name)] == []


def test_cli_imports_only_what_its_commands_run():
    """Importing the CLI (and building its parser) loads none of the
    modules a campaign does not run: each command imports what it
    uses."""
    source = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\nimport repro.__main__ as cli\n"
         "cli.build_parser()\nprint(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    modules = json.loads(out.stdout.splitlines()[-1])
    assert "repro.injection.campaign" in modules
    assert [name for name in modules if _NOT_RUN.fullmatch(name)] == []


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
        ("<elsewhere>", compile("x = 1\n", "<elsewhere>", "exec")))),
}


def _probe():
    return compile("x = 1\n", "<probe>", "exec")


@pytest.mark.parametrize("damage", sorted(CORRUPTIONS))
def test_corrupt_entry_is_a_typed_error_naming_its_file(code_cache,
                                                       damage):
    cached("<probe>", "x", _probe)
    [generation] = code_cache.iterdir()
    [path] = generation.iterdir()
    CORRUPTIONS[damage](path, path.read_bytes())
    with pytest.raises(CodeCacheError, match=str(path)) as raised:
        cached("<probe>", "x", _probe)
    assert raised.value.path == path


@pytest.fixture
def package(tmp_path, monkeypatch):
    """A stand-in package of one file, digested afresh."""
    root = tmp_path / "package"
    (root / "__pycache__").mkdir(parents=True)
    (root / "module.py").write_text("x = 1\n")
    monkeypatch.setattr(codecache, "_PACKAGE", root)
    monkeypatch.setattr(codecache, "_evicted", set())
    codecache._generation.cache_clear()
    yield root
    codecache._generation.cache_clear()


def test_editing_the_package_invalidates_every_entry(code_cache, package):
    """An entry is keyed by every file of the package: an edit anywhere
    misses, a file in ``__pycache__`` does not count.  The process that
    writes the new generation's first entry removes the old one's
    directory."""
    def misses() -> int:
        codecache._generation.cache_clear()
        before = codecache.stats["misses"]
        cached("<probe>", "x", _probe)
        return codecache.stats["misses"] - before

    def generations() -> list:
        return sorted(path.name for path in code_cache.iterdir())

    assert misses() == 1
    [first] = generations()
    (package / "__pycache__" / "module.pyc").write_bytes(b"\0")
    assert misses() == 0
    assert generations() == [first]
    (package / "module.py").write_text("x = 2\n")
    assert misses() == 1
    [second] = generations()
    assert second != first
    (package / "other.txt").write_text("")
    assert misses() == 1
    [third] = generations()
    assert third not in (first, second)


def test_default_location_is_the_package_pycache(monkeypatch):
    monkeypatch.setattr(sys, "pycache_prefix", None)
    assert codecache.cache_dir() == \
        Path(repro.__file__).resolve().parent / "__pycache__" / "generated"


def _fill(texts) -> None:
    for _ in range(3):
        for index, text in enumerate(texts):
            name = f"<race {index}>"
            cached(name, index, lambda: compile(text, name, "exec"))


def test_concurrent_writers_never_expose_a_partial_entry(code_cache):
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
    assert sorted(path.name for path in code_cache.rglob(".tmp*")) == []
    _fill(texts)
    assert codecache.stats["misses"] == 0
