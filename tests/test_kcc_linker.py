"""Linker and layout tests."""

import hashlib

import pytest

from repro.isa import codecache
from repro.kcc import analyze, build_image, linker, parse
from repro.kcc.backend_ppc import PPCFunctionCompiler
from repro.kcc.layout import (
    compute_struct_layouts, layout_struct_ppc, layout_struct_x86,
    place_globals,
)
from repro.kcc.linker import LinkError
from repro.kernel import build
from repro.kernel.image import TEXT_BASE

SOURCE = """
struct widget { flag: u8; count: u16; total: u32; next: *widget; }
global widgets: widget[4];
global lonely_byte: u8 = 9;
global lonely_half: u16 = 900;
global words: u32[4] = {10, 20, 30, 40};
global bytes_: u8[8] = {1, 2, 3};
fn helper(x: u32) -> u32 { return x + 1; }
fn entry(x: u32) -> u32 { return helper(x) * 2; }
"""


@pytest.fixture(scope="module")
def program():
    return analyze(parse(SOURCE))


class TestStructLayout:
    def test_x86_packed_natural_alignment(self, program):
        layout = layout_struct_x86(program.struct_by_name("widget"))
        assert layout.field("flag").offset == 0
        assert layout.field("count").offset == 2       # aligned to 2
        assert layout.field("total").offset == 4
        assert layout.field("next").offset == 8
        assert layout.size == 12
        assert layout.field("flag").access_width == 1
        assert layout.field("count").access_width == 2

    def test_ppc_word_per_field(self, program):
        layout = layout_struct_ppc(program.struct_by_name("widget"))
        assert [layout.field(n).offset
                for n in ("flag", "count", "total", "next")] == \
            [0, 4, 8, 12]
        assert layout.size == 16
        # every access is a word; sub-word fields masked in-register
        assert layout.field("flag").access_width == 4
        assert layout.field("flag").load_mask == 0xFF
        assert layout.field("count").load_mask == 0xFFFF
        assert layout.field("total").load_mask == 0

    def test_data_section_sparser_on_ppc(self, program):
        x86 = place_globals(program, "x86", 0xC0300000,
                            compute_struct_layouts(program, "x86"))
        ppc = place_globals(program, "ppc", 0xC0300000,
                            compute_struct_layouts(program, "ppc"))
        assert ppc["widgets"].size > x86["widgets"].size
        # single scalars get a whole word on ppc
        assert ppc["lonely_byte"].elem_size == 4
        assert x86["lonely_byte"].elem_size == 1
        # dense arrays stay dense on both
        assert ppc["bytes_"].elem_size == 1
        assert x86["bytes_"].elem_size == 1


class TestLink:
    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_symbols_resolve(self, program, arch):
        image = build_image(program, arch)
        assert image.symbol("entry") != image.symbol("helper")
        entry = image.functions["entry"]
        assert image.function_at(entry.addr).name == "entry"
        assert image.function_at(entry.addr + entry.size - 1).name == \
            "entry"
        assert image.function_at(0xDEAD0000) is None

    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_initialized_data(self, program, arch):
        image = build_image(program, arch)
        base = image.data_base
        info = image.globals["words"]
        little = image.little_endian
        offset = info.addr - base
        raw = image.data_bytes[offset:offset + 4]
        assert int.from_bytes(raw, "little" if little else "big") == 10
        ranges = image.init_data_ranges
        assert any(info.addr in r for r in ranges)
        # uninitialized struct array is not in the initialized set
        widgets = image.globals["widgets"]
        assert not any(widgets.addr in r for r in ranges)

    def test_undefined_symbol_fails(self):
        bad = analyze(parse(
            "fn f() -> u32 { return __icall0(&f) + g(); }"
            "fn g() -> u32 { return 0; }"))
        # remove g's body from functions to force a dangling reloc
        bad.functions = [bad.functions[0]]
        with pytest.raises(LinkError):
            build_image(bad, "x86")

    def test_undefined_symbol_fails_on_ppc(self):
        bad = analyze(parse(
            "fn f() -> u32 { return __icall0(&f) + g(); }"
            "fn g() -> u32 { return 0; }"))
        bad.functions = [bad.functions[0]]
        with pytest.raises(LinkError, match="f: undefined symbol g"):
            build_image(bad, "ppc")

    def test_rel24_overflow_fails(self, monkeypatch):
        """A ``bl`` to a symbol beyond ±32 MiB fails to link, loudly."""
        class FarCall(PPCFunctionCompiler):
            def _prologue(self):
                self.asm.bl_sym("far")
                super()._prologue()

        monkeypatch.setattr(linker, "PPCFunctionCompiler", FarCall)
        program = analyze(parse(
            "global far: u32; fn f() -> u32 { return far; }"))
        with pytest.raises(LinkError, match="f: far: rel24 overflow"):
            build_image(program, "ppc", data_base=TEXT_BASE + (1 << 26))
        near = analyze(parse(
            "global far: u32; fn f() -> u32 { return far; }"))
        image = build_image(near, "ppc")
        assert image.globals["far"].addr - TEXT_BASE < 1 << 25

    @pytest.mark.parametrize("arch", ["x86", "ppc"])
    def test_insn_addr_maps(self, program, arch):
        image = build_image(program, arch)
        for info in image.functions.values():
            assert info.insn_addrs[0] == info.addr
            assert all(info.addr <= a < info.addr + info.size
                       for a in info.insn_addrs)
            assert sorted(info.insn_addrs) == list(info.insn_addrs)

    def test_kernel_images_build(self, x86_image, ppc_image):
        assert x86_image.functions.keys() == ppc_image.functions.keys()
        assert "kupdate" in x86_image.functions
        assert "kjournald" in x86_image.functions
        assert "free_pages_ok" in x86_image.functions
        assert "alloc_skb" in x86_image.functions
        assert x86_image.functions["memcpy"].subsystem == "lib"
        assert x86_image.functions["kupdate"].subsystem == "fs"
        # the ppc data section is at least as large (word padding)
        assert len(ppc_image.data_bytes) >= len(x86_image.data_bytes)


#: sha256 of text + data + heap of each kernel image: the compiler,
#: the assemblers and the linker together, byte for byte
IMAGE_SHA256 = {
    "x86": "d8b1a090733280718e6e3d7a77bd448d84b5b2c60fabd1b888c4b163f9b03379",
    "ppc": "07a395262475c255aa54a1eaf553f277893221f7bce14cfe601a2a17d1d1c69d",
}


@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_kernel_image_bytes_pinned(arch, request):
    image = request.getfixturevalue(f"{arch}_image")
    digest = hashlib.sha256(
        image.text_bytes + image.data_bytes + image.heap_bytes).hexdigest()
    assert digest == IMAGE_SHA256[arch]


@pytest.mark.parametrize("arch", ["x86", "ppc"])
def test_kernel_image_from_the_code_cache(arch, code_cache):
    """An image built on a miss and one loaded on a hit are both the
    linker's own image, and hold the pinned bytes."""
    linked = build._link(arch)
    for _ in ("miss", "hit"):
        image = build.build_kernel.__wrapped__(arch)
        assert image == linked
        assert hashlib.sha256(
            image.text_bytes + image.data_bytes + image.heap_bytes
        ).hexdigest() == IMAGE_SHA256[arch]
    assert codecache.stats["misses"] == codecache.stats["hits"] == 1
