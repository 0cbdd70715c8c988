"""Differential tests: compiled code vs the reference interpreter.

Each program is compiled for both architectures, executed on the
corresponding simulated CPU, and compared against the interpreter bound
to the same image (return value AND final data-section bytes).  A
hypothesis-driven generator also produces random arithmetic functions
and checks all three executors agree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.memory import PhysicalMemory, Region
from repro.kcc import analyze, build_image, parse
from repro.kcc.interp import Interp
from repro.ppc.cpu import PPCCPU
from repro.x86.cpu import X86CPU

STOP = 0xDEAD0000


def run_compiled(image, fname: str, args):
    cpu = X86CPU() if image.arch == "x86" else PPCCPU()
    text_size = (len(image.text_bytes) + 4095) & ~4095
    data_size = (len(image.data_bytes) + 4095) & ~4095
    cpu.aspace.map_region(Region(image.text_base, text_size, "rx", "t"))
    cpu.aspace.map_region(Region(image.data_base, data_size, "rwx", "d"))
    cpu.aspace.map_region(Region(0xC0800000, 0x4000, "rw", "s"))
    cpu.mem.write(image.text_base, image.text_bytes)
    cpu.mem.write(image.data_base, image.data_bytes)
    entry = image.functions[fname].addr
    if image.arch == "x86":
        cpu.regs[4] = 0xC0803F00
        for arg in reversed(args):
            cpu.regs[4] -= 4
            cpu.mem.write_u32(cpu.regs[4], arg & 0xFFFFFFFF, True)
        cpu.regs[4] -= 4
        cpu.mem.write_u32(cpu.regs[4], STOP, True)
        cpu.eip = entry
        for _ in range(300_000):
            if cpu.eip == STOP:
                break
            cpu.step()
        else:
            raise RuntimeError("compiled run did not finish")
        result = cpu.regs[0]
    else:
        cpu.gpr[1] = 0xC0803F00
        for index, arg in enumerate(args):
            cpu.gpr[3 + index] = arg & 0xFFFFFFFF
        cpu.lr = STOP
        cpu.pc = entry
        for _ in range(300_000):
            if cpu.pc == STOP:
                break
            cpu.step()
        else:
            raise RuntimeError("compiled run did not finish")
        result = cpu.gpr[3]
    data = cpu.mem.read(image.data_base, len(image.data_bytes))
    return result, data


def differential(source: str, fname: str, args):
    """Assert interp == compiled on both architectures."""
    program = analyze(parse(source))
    out = {}
    for arch in ("x86", "ppc"):
        image = build_image(program, arch)
        memory = PhysicalMemory()
        memory.write(image.data_base, image.data_bytes)
        expected = Interp(program, image, memory).call(fname, list(args))
        expected_data = memory.read(image.data_base,
                                    len(image.data_bytes))
        got, got_data = run_compiled(image, fname, args)
        assert got == expected, \
            f"{arch}: compiled={got:#x} interp={expected:#x}"
        assert got_data == expected_data, f"{arch}: data diverged"
        out[arch] = got
    return out


class TestBasics:
    def test_arith(self):
        differential("""
            fn f(a: u32, b: u32) -> u32 {
                return (a + b) * 3 - (a / (b + 1)) + (a % 7)
                       + (a & b) + (a | b) + (a ^ b);
            }
        """, "f", [1234, 77])

    def test_shifts_and_unary(self):
        differential("""
            fn f(a: u32) -> u32 {
                return (a << 3) + (a >> 2) + (~a) + (-a) + (!a);
            }
        """, "f", [0xDEAD])

    def test_comparisons_value_context(self):
        differential("""
            fn f(a: u32, b: u32) -> u32 {
                return (a < b) * 1 + (a <= b) * 2 + (a > b) * 4
                       + (a >= b) * 8 + (a == b) * 16 + (a != b) * 32;
            }
        """, "f", [5, 9])

    def test_short_circuit(self):
        differential("""
            global hits: u32 = 0;
            fn bump() -> u32 { hits = hits + 1; return 1; }
            fn f(a: u32) -> u32 {
                if (a > 10 && bump() == 1) { hits = hits + 100; }
                if (a > 100 || bump() == 1) { hits = hits + 1000; }
                return hits;
            }
        """, "f", [50])

    def test_loops_and_break(self):
        differential("""
            fn f(n: u32) -> u32 {
                var total: u32 = 0;
                var i: u32 = 0;
                while (i < n) {
                    i = i + 1;
                    if (i % 3 == 0) { continue; }
                    if (i > 40) { break; }
                    total = total + i;
                }
                return total;
            }
        """, "f", [100])

    def test_many_locals_spill(self):
        """More locals than register homes on either backend."""
        decls = "\n".join(f"var v{i}: u32 = {i} * n;"
                          for i in range(24))
        total = " + ".join(f"v{i}" for i in range(24))
        differential(f"""
            fn f(n: u32) -> u32 {{
                {decls}
                return {total};
            }}
        """, "f", [3])

    def test_nested_calls(self):
        differential("""
            fn add(a: u32, b: u32) -> u32 { return a + b; }
            fn mul(a: u32, b: u32) -> u32 { return a * b; }
            fn f(x: u32) -> u32 {
                return add(mul(x, add(x, 1)), mul(add(x, 2), x))
                       + add(x, mul(x, x));
            }
        """, "f", [11])

    def test_eight_args(self):
        differential("""
            fn g(a: u32, b: u32, c: u32, d: u32,
                 e: u32, f: u32, g: u32, h: u32) -> u32 {
                return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6
                       + g * 7 + h * 8;
            }
            fn top(x: u32) -> u32 {
                return g(x, x + 1, x + 2, x + 3, x + 4, x + 5,
                         x + 6, x + 7);
            }
        """, "top", [9])

    def test_recursion(self):
        differential("""
            fn fib(n: u32) -> u32 {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
        """, "fib", [12])


class TestDataSemantics:
    def test_struct_fields_all_widths(self):
        differential("""
            struct mixed { b: u8; h: u16; w: u32; p: *mixed; }
            global items: mixed[3];
            fn f() -> u32 {
                var m: *mixed = items[1];
                m.b = 0x1FF;            // truncates to u8 semantics
                m.h = 0x1FFFF;
                m.w = 0xDEADBEEF;
                m.p = items[2];
                return m.b + m.h + (m.w >> 16);
            }
        """, "f", [])

    def test_scalar_global_widths(self):
        differential("""
            global small: u8 = 7;
            global half: u16 = 300;
            global word: u32 = 100000;
            fn f() -> u32 {
                small = small + 250;    // wraps at 8 bits
                half = half + 65530;    // wraps at 16 bits
                word = word + 1;
                return small + half + word;
            }
        """, "f", [])

    def test_arrays(self):
        differential("""
            global bytes_: u8[16];
            global halves: u16[8];
            global words: u32[8];
            fn f() -> u32 {
                var i: u32 = 0;
                while (i < 8) {
                    bytes_[i] = i * 40;
                    halves[i] = i * 10000;
                    words[i] = i * 100000;
                    i = i + 1;
                }
                return bytes_[5] + halves[6] + words[7];
            }
        """, "f", [])

    def test_raw_intrinsics(self):
        differential("""
            global buf: u8[32];
            fn f() -> u32 {
                __store32(&buf + 0, 0x11223344);
                __store16(&buf + 4, 0xAABB);
                __store8(&buf + 6, 0xCC);
                return __load32(&buf + 0) + __load16(&buf + 4)
                       + __load8(&buf + 6);
            }
        """, "f", [])

    def test_indirect_call(self):
        differential("""
            global table: u32[2];
            fn double_(x: u32, b: u32, c: u32) -> u32 { return x * 2; }
            fn triple(x: u32, b: u32, c: u32) -> u32 { return x * 3; }
            fn f(which: u32) -> u32 {
                table[0] = &double_;
                table[1] = &triple;
                return __icall3(table[which], 21, 0, 0);
            }
        """, "f", [1])

    def test_sizeof_differs_by_arch(self):
        source = """
            struct s { a: u8; b: u8; c: u16; d: u32; }
            fn f() -> u32 { return sizeof(s); }
        """
        program = analyze(parse(source))
        x86 = build_image(program, "x86")
        ppc = build_image(program, "ppc")
        assert x86.sizeof("s") == 8           # packed
        assert ppc.sizeof("s") == 16          # word per field



_PAIRS = [(1, 2), (2, 1), (3, 3), (5, 0)]


class TestSharedLowering:
    """Forms that both backends lower through the one shared path in
    :mod:`repro.kcc.codegen`."""

    @pytest.mark.parametrize("a, b", _PAIRS)
    def test_and_in_value_context(self, a, b):
        differential("""
            fn f(a: u32, b: u32) -> u32 { return (a > b) && (b != 0); }
        """, "f", [a, b])

    @pytest.mark.parametrize("a, b", _PAIRS)
    def test_or_in_value_context(self, a, b):
        differential("""
            fn f(a: u32, b: u32) -> u32 { return (a < b) || (b == 0); }
        """, "f", [a, b])

    @pytest.mark.parametrize("a, b", _PAIRS)
    def test_not_in_condition(self, a, b):
        differential("""
            fn f(a: u32, b: u32) -> u32 {
                if (!(a == b)) { return 7; } else { return 9; }
            }
        """, "f", [a, b])

    @pytest.mark.parametrize("a, b", _PAIRS)
    def test_nested_short_circuit_with_calls(self, a, b):
        """``hits`` records which right-hand calls ran."""
        differential("""
            global hits: u32 = 0;
            fn bump(x: u32) -> u32 { hits = hits + x; return x & 1; }
            fn f(a: u32, b: u32) -> u32 {
                var r: u32 = 0;
                if (a > b && (a == 5 || bump(1) == 1)) { r = r + 10; }
                if ((a < b || bump(2) == 0) && bump(4) == 0) {
                    r = r + 100;
                }
                return r + hits * 1000;
            }
        """, "f", [a, b])

    def test_bare_return_value_ignored(self):
        differential("""
            global hits: u32 = 0;
            fn touch(x: u32) {
                if (x == 0) { return; }
                hits = hits + x;
                return;
            }
            fn f(a: u32) -> u32 {
                touch(a);
                touch(0);
                touch(a + 1);
                return hits;
            }
        """, "f", [20])


_small = st.integers(min_value=0, max_value=0xFFFF)


class TestPropertyDifferential:
    @settings(max_examples=20, deadline=None)
    @given(a=_small, b=_small, c=_small)
    def test_random_expression_values(self, a, b, c):
        differential("""
            fn f(a: u32, b: u32, c: u32) -> u32 {
                var t: u32 = a * 31 + (b ^ (c << 5));
                if (t % 3 == 0) { t = t + b / (c | 1); }
                while (t > 100000) { t = t - (t >> 3) - 1; }
                return t * 17 + (a & c);
            }
        """, "f", [a, b, c])
