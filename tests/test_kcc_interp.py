"""Reference-interpreter-specific tests."""

import pytest

from repro.isa.memory import PhysicalMemory
from repro.kcc import analyze, build_image, parse
from repro.kcc.interp import Interp, InterpError, InterpTrap


def make_interp(source: str, arch: str = "ppc", **kwargs):
    program = analyze(parse(source))
    image = build_image(program, arch)
    memory = PhysicalMemory()
    memory.write(image.data_base, image.data_bytes)
    return Interp(program, image, memory, **kwargs), image, memory


class TestControlFlow:
    def test_return_value(self):
        interp, _, _ = make_interp(
            "fn f(x: u32) -> u32 { return x * 2; }")
        assert interp.call("f", [21]) == 42

    def test_void_function_returns_zero(self):
        interp, _, _ = make_interp("global g: u32; fn f() { g = 7; }")
        assert interp.call("f") == 0

    def test_arity_check(self):
        interp, _, _ = make_interp("fn f(x: u32) -> u32 { return x; }")
        with pytest.raises(InterpError):
            interp.call("f", [1, 2])

    def test_step_budget(self):
        interp, _, _ = make_interp(
            "fn f() -> u32 { while (1) { } return 0; }",
            max_steps=1000)
        with pytest.raises(InterpError):
            interp.call("f")


class TestTraps:
    def test_bug(self):
        interp, _, _ = make_interp("fn f() { __bug(); }")
        with pytest.raises(InterpTrap) as exc:
            interp.call("f")
        assert exc.value.kind == "bug"

    def test_panic_records_code(self):
        interp, image, memory = make_interp("""
            global panic_code: u32;
            fn f() { __panic(42); }
        """)
        with pytest.raises(InterpTrap) as exc:
            interp.call("f")
        assert exc.value.code == 42
        info = image.globals["panic_code"]
        assert memory.read_u32(info.addr, False) == 42

    def test_divide_by_zero(self):
        interp, _, _ = make_interp(
            "fn f(a: u32) -> u32 { return 10 / a; }")
        with pytest.raises(InterpTrap):
            interp.call("f", [0])

    def test_wild_indirect_call(self):
        interp, _, _ = make_interp(
            "fn f() -> u32 { return __icall0(0xDEAD); }")
        with pytest.raises(InterpError):
            interp.call("f")


class TestArchSensitivity:
    SOURCE = """
        struct s { b: u8; h: u16; w: u32; }
        global item: s;
        fn poke() -> u32 {
            var p: *s = &item;
            p.b = 0xAB;
            p.h = 0x1234;
            p.w = 0x11223344;
            return p.b + p.w;
        }
    """

    def test_field_semantics_equal_across_arch(self):
        values = {}
        for arch in ("x86", "ppc"):
            interp, _, _ = make_interp(self.SOURCE, arch)
            values[arch] = interp.call("poke")
        assert values["x86"] == values["ppc"]

    def test_memory_layout_differs(self):
        layouts = {}
        for arch in ("x86", "ppc"):
            interp, image, memory = make_interp(self.SOURCE, arch)
            interp.call("poke")
            info = image.globals["item"]
            layouts[arch] = (image.sizeof("s"),
                             memory.read(info.addr, info.size))
        assert layouts["x86"][0] < layouts["ppc"][0]

    def test_ppc_subword_field_masks_high_bits(self):
        """A flipped high bit in a u8 field's word is invisible on the
        PPC layout — the paper's masking mechanism, testable at the
        interpreter level."""
        interp, image, memory = make_interp(self.SOURCE, "ppc")
        interp.call("poke")
        info = image.globals["item"]
        field = image.field("s", "b")
        # flip bit 17 of the field's word (an unused bit)
        addr = info.addr + field.offset
        word = memory.read_u32(addr, False)
        memory.write_u32(addr, word ^ (1 << 17), False)
        reread = Interp(interp.program, image, memory)
        assert reread.call("poke") & 0xFF != 0  # still behaves
        # direct load of the field masks the corruption away
        probe = analyze(parse(self.SOURCE + """
            fn peek() -> u32 { var p: *s = &item; return p.b; }
        """))
        probe_image = build_image(probe, "ppc")
        # same layout; reuse memory contents at same base
        probe_interp = Interp(probe, probe_image, memory)
        assert probe_interp.call("peek") == 0xAB

    def test_x86_subword_field_has_no_slack(self):
        """On the packed x86 layout every bit of the byte matters."""
        interp, image, memory = make_interp(self.SOURCE, "x86")
        interp.call("poke")
        info = image.globals["item"]
        field = image.field("s", "b")
        addr = info.addr + field.offset
        memory.write_u8(addr, memory.read_u8(addr) ^ (1 << 6))
        probe = analyze(parse(self.SOURCE + """
            fn peek() -> u32 { var p: *s = &item; return p.b; }
        """))
        probe_image = build_image(probe, "x86")
        probe_interp = Interp(probe, probe_image, memory)
        assert probe_interp.call("peek") != 0xAB
