"""Row-level semantic oracle, written without reading the tables.

The step executors, the block lowering and the effect summaries of
both arches all derive from one body per row of ``repro.x86.isa`` and
``repro.ppc.isa``, so they agree with each other even where the row
itself is wrong.  This module states the expected result of the sign-
and width-sensitive rows as plain Python integer arithmetic and checks
each row, for hypothesis-drawn operands, against

* its step executor (one ``cpu.step()`` over the encoded instruction);
* a compiled block holding that one instruction.

Covered: compares and traps, shifts and rotates, multiply and divide,
sign and zero extension, and the carry/overflow flags.

Three row families are known to be wrong and are marked
``xfail(strict=True)``, each with an explicit failing example (see the
ROADMAP item "A semantic oracle independent of the tables"):

* ppc ``cmpwi``/``twi`` with a negative immediate compare against the
  32-bit unsigned image of the immediate (``cmpwi r3,-1`` with
  r3 = 0xFFFFFFFF sets LT, not EQ);
* x86 ``idiv r/m32`` truncates a float quotient, which is off by one
  for some dividends beyond 2**53;
* x86 ``adc``/``sbb`` fold the carry into the source operand before
  adding, so a source of 0xFFFFFFFF with CF set loses the carry out.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.compile import gen_ppc, gen_x86
from repro.isa.memory import Region
from repro.ppc import decoder as pdec
from repro.ppc.cpu import PPCCPU
from repro.ppc.exceptions import PPCFault, PPCVector, ProgramReason
from repro.ppc.isa import encode
from repro.x86 import decoder as xdec
from repro.x86.cpu import X86CPU
from repro.x86.exceptions import X86Fault, X86Vector

M = 0xFFFFFFFF
TEXT = 0x00400000
DATA = 0x00600000

CF, ZF, SF, OF = 0x1, 0x40, 0x80, 0x800
CA = 0x20000000
LT, GT, EQ = 8, 4, 2

MODES = ("step", "block")

u32 = st.integers(0, M)
u8 = st.integers(0, 255)
#: 32-bit operands with the edges drawn often
w32 = st.one_of(u32, st.sampled_from(
    [0, 1, 2, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF, 0x7FFFFFFF,
     0x80000000, 0x80000001, M - 1, M]))
s16 = st.integers(-0x8000, 0x7FFF)
TRIALS = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


def signed(x: int, bits: int = 32) -> int:
    x &= (1 << bits) - 1
    return x - (1 << bits) if x >> (bits - 1) else x


def trunc_div(n: int, d: int) -> int:
    """Integer division rounding toward zero, exactly."""
    q = abs(n) // abs(d)
    return q if (n < 0) == (d < 0) else -q


# ---------------------------------------------------------------------------
# x86


Regs = Dict[int, int]


def _x86(code: bytes, regs: Regs, eflags: int, mode: str):
    """Run *code* (one instruction) from the given registers; returns
    (regs, eflags) or the fault's vector."""
    cpu = X86CPU()
    cpu.aspace.map_region(Region(TEXT, 0x1000, "rx", "text"))
    cpu.mem.write(TEXT, code)
    cpu.eip = TEXT
    for reg, value in regs.items():
        cpu.regs[reg] = value & M
    cpu.eflags = eflags
    try:
        if mode == "step":
            cpu.step()
        else:
            instr = xdec.decode(code, TEXT)
            fn, _cycles = gen_x86.generate([([(TEXT, instr)], False, ())])
            fn(cpu)
    except X86Fault as fault:
        return fault.vector
    assert cpu.eip == (TEXT + len(code)) & M
    return list(cpu.regs), cpu.eflags


def _sub_flags(a: int, b: int, borrow: int = 0) -> int:
    r = (a - b - borrow) & M
    flags = CF if a < b + borrow else 0
    if signed(a) - signed(b) - borrow != signed(r):
        flags |= OF
    return flags | _zs(r)


def _add_flags(a: int, b: int, carry: int = 0) -> int:
    r = (a + b + carry) & M
    flags = CF if a + b + carry > M else 0
    if signed(a) + signed(b) + carry != signed(r):
        flags |= OF
    return flags | _zs(r)


def _zs(r: int) -> int:
    return (ZF if r == 0 else 0) | (SF if r & 0x80000000 else 0)


ARITH = CF | ZF | SF | OF


def _check_x86(code: bytes, regs: Regs, eflags: int, want, mode: str,
               mask: int = ARITH) -> None:
    """*want*: a vector, or (expected registers, expected flags under
    *mask*)."""
    got = _x86(code, regs, eflags, mode)
    if isinstance(want, X86Vector):
        assert got == want
        return
    assert not isinstance(got, X86Vector), got
    out_regs, out_flags = got
    want_regs, want_flags = want
    for reg, value in want_regs.items():
        assert out_regs[reg] == value & M, (reg, hex(out_regs[reg]))
    assert out_flags & mask == want_flags & mask, \
        (hex(out_flags & mask), hex(want_flags & mask))


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, imm=st.integers(-128, 127))
def test_x86_cmp_imm8(code_cache, mode, a, imm):
    """cmp eax, imm8 (83 /7 ib): the immediate sign-extends."""
    _check_x86(bytes([0x83, 0xF8, imm & 0xFF]), {0: a}, 0,
               ({0: a}, _sub_flags(a, imm & M)), mode)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, b=w32)
def test_x86_cmp_reg(code_cache, mode, a, b):
    """cmp eax, ecx (39 /r) and cmp eax, imm32 (3D id)."""
    _check_x86(bytes([0x39, 0xC8]), {0: a, 1: b}, 0,
               ({0: a, 1: b}, _sub_flags(a, b)), mode)
    _check_x86(bytes([0x3D]) + b.to_bytes(4, "little"), {0: a}, 0,
               ({0: a}, _sub_flags(a, b)), mode)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, b=w32, carry=st.integers(0, 1))
def test_x86_add_sub(code_cache, mode, a, b, carry):
    """add/sub eax, ecx: result, CF, OF, ZF, SF (CF in is ignored)."""
    _check_x86(bytes([0x01, 0xC8]), {0: a, 1: b}, carry,
               ({0: a + b}, _add_flags(a, b)), mode)
    _check_x86(bytes([0x29, 0xC8]), {0: a, 1: b}, carry,
               ({0: a - b}, _sub_flags(a, b)), mode)


@pytest.mark.xfail(strict=True, reason=(
    "x86 adc/sbb add the carry into the source first, (src + cf) & mask, "
    "so src = 0xFFFFFFFF with CF set loses the carry out (ROADMAP: A "
    "semantic oracle independent of the tables)"))
@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, b=w32, carry=st.integers(0, 1))
@example(a=0, b=M, carry=1)
def test_x86_adc_sbb(code_cache, mode, a, b, carry):
    """adc/sbb eax, ecx: result, CF, OF, ZF, SF with the carry in."""
    _check_x86(bytes([0x11, 0xC8]), {0: a, 1: b}, carry,
               ({0: a + b + carry}, _add_flags(a, b, carry)), mode)
    _check_x86(bytes([0x19, 0xC8]), {0: a, 1: b}, carry,
               ({0: a - b - carry}, _sub_flags(a, b, carry)), mode)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32)
def test_x86_neg_inc_dec(code_cache, mode, a):
    """neg sets CF unless zero; inc/dec set OF at the signed edge and
    keep CF."""
    neg = (-a) & M
    _check_x86(bytes([0xF7, 0xD8]), {0: a}, 0,
               ({0: neg}, (CF if a else 0) | _zs(neg)
                | (OF if a == 0x80000000 else 0)), mode)
    for opcode, delta, edge in ((0x40, 1, 0x7FFFFFFF), (0x48, -1, 0x80000000)):
        r = (a + delta) & M
        _check_x86(bytes([opcode]), {0: a}, CF,
                   ({0: r}, CF | _zs(r) | (OF if a == edge else 0)), mode)


def _x86_shift(digit: int, v: int, n: int) -> Tuple[int, Optional[int]]:
    """(result, CF or None when unchanged) of shift group 2 on 32 bits."""
    n &= 31
    if n == 0:
        return v, None
    if digit == 4:                                   # shl
        return (v << n) & M, (v >> (32 - n)) & 1
    if digit == 5:                                   # shr
        return v >> n, (v >> (n - 1)) & 1
    if digit == 7:                                   # sar
        return (signed(v) >> n) & M, (signed(v) >> (n - 1)) & 1
    if digit == 0:                                   # rol
        r = ((v << n) | (v >> (32 - n))) & M
        return r, r & 1
    r = ((v >> n) | (v << (32 - n))) & M             # ror
    return r, r >> 31


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("digit", [0, 1, 4, 5, 7],
                         ids=["rol", "ror", "shl", "shr", "sar"])
@TRIALS
@given(v=w32, n=u8, cf=st.integers(0, 1))
def test_x86_shift_rotate(code_cache, mode, digit, v, n, cf):
    """C1 /n ib and D3 /n (count in cl): result and CF; a count of
    zero (mod 32) changes nothing."""
    result, carry = _x86_shift(digit, v, n)
    flags = cf if carry is None else carry
    for code, regs in ((bytes([0xC1, 0xC0 | digit << 3, n]), {0: v}),
                       (bytes([0xD3, 0xC0 | digit << 3]), {0: v, 1: n})):
        _check_x86(code, regs, cf, ({0: result}, flags), mode, mask=CF)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, b=w32)
def test_x86_multiply(code_cache, mode, a, b):
    """mul/imul ecx (edx:eax), imul eax, ecx and imul eax, ecx, imm."""
    p = a * b
    _check_x86(bytes([0xF7, 0xE1]), {0: a, 1: b}, 0,
               ({0: p, 2: p >> 32}, 0), mode)
    s = signed(a) * signed(b)
    _check_x86(bytes([0xF7, 0xE9]), {0: a, 1: b}, 0,
               ({0: s, 2: (s >> 32)}, 0), mode)
    _check_x86(bytes([0x0F, 0xAF, 0xC1]), {0: a, 1: b}, 0, ({0: s}, 0),
               mode)
    imm8 = b & 0xFF
    _check_x86(bytes([0x6B, 0xC1, imm8]), {1: a}, 0,
               ({0: signed(a) * signed(imm8, 8)}, 0), mode)
    _check_x86(bytes([0x69, 0xC1]) + b.to_bytes(4, "little"), {1: a}, 0,
               ({0: s}, 0), mode)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(hi=w32, lo=w32, d=w32)
def test_x86_div(code_cache, mode, hi, lo, d):
    """div ecx: edx:eax by ecx; #DE on zero and on quotient overflow."""
    n = hi << 32 | lo
    if d == 0 or n // d > M:
        want = X86Vector.DIVIDE_ERROR
    else:
        want = ({0: n // d, 2: n % d}, 0)
    _check_x86(bytes([0xF7, 0xF1]), {0: lo, 1: d, 2: hi}, 0, want, mode,
               mask=0)


def _idiv(n: int, d: int):
    if d == 0:
        return X86Vector.DIVIDE_ERROR
    q = trunc_div(n, signed(d))
    if not -2 ** 31 <= q < 2 ** 31:
        return X86Vector.DIVIDE_ERROR
    return {0: q, 2: n - q * signed(d)}, 0


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, d=w32)
def test_x86_idiv_sign_extended(code_cache, mode, a, d):
    """idiv ecx after cdq: the quotient truncates toward zero and the
    remainder takes the dividend's sign."""
    hi = M if a & 0x80000000 else 0
    _check_x86(bytes([0xF7, 0xF9]), {0: a, 1: d, 2: hi}, 0,
               _idiv(signed(a), d), mode, mask=0)


#: 2**30 * d - 1: the float quotient rounds up to 2**30
_WIDE_DIVISOR = 2 ** 30 + 3
_WIDE = 2 ** 30 * _WIDE_DIVISOR - 1


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(hi=w32, lo=w32, d=w32)
@example(hi=_WIDE >> 32, lo=_WIDE & M, d=_WIDE_DIVISOR)
def test_x86_idiv_wide_dividend(code_cache, mode, hi, lo, d):
    """idiv ecx with any edx:eax."""
    n = signed(hi << 32 | lo, 64)
    _check_x86(bytes([0xF7, 0xF9]), {0: lo, 1: d, 2: hi}, 0,
               _idiv(n, d), mode, mask=0)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, c=w32)
def test_x86_sign_zero_extension(code_cache, mode, a, c):
    """movsx/movzx from cl, ch and cx; cdq; cwde."""
    cl, ch, cx = c & 0xFF, (c >> 8) & 0xFF, c & 0xFFFF
    for code, value in (((0x0F, 0xBE, 0xC1), signed(cl, 8)),
                        ((0x0F, 0xBE, 0xC5), signed(ch, 8)),
                        ((0x0F, 0xBF, 0xC1), signed(cx, 16)),
                        ((0x0F, 0xB6, 0xC1), cl),
                        ((0x0F, 0xB6, 0xC5), ch),
                        ((0x0F, 0xB7, 0xC1), cx)):
        _check_x86(bytes(code), {0: a, 1: c}, 0, ({0: value}, 0), mode,
                   mask=0)
    _check_x86(bytes([0x99]), {0: a, 2: 0}, 0,
               ({2: M if signed(a) < 0 else 0}, 0), mode, mask=0)
    _check_x86(bytes([0x98]), {0: a}, 0, ({0: signed(a & 0xFFFF, 16)}, 0),
               mode, mask=0)


#: each condition code as a predicate of (CF, ZF, SF, OF), from the
#: Intel manual's definitions
_CONDITIONS: Tuple[Callable[[int, int, int, int], bool], ...] = (
    lambda c, z, s, o: o, lambda c, z, s, o: not o,
    lambda c, z, s, o: c, lambda c, z, s, o: not c,
    lambda c, z, s, o: z, lambda c, z, s, o: not z,
    lambda c, z, s, o: c or z, lambda c, z, s, o: not (c or z),
    lambda c, z, s, o: s, lambda c, z, s, o: not s,
    None, None,                                      # p/np: unused
    lambda c, z, s, o: s != o, lambda c, z, s, o: s == o,
    lambda c, z, s, o: z or s != o, lambda c, z, s, o: not z and s == o,
)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, b=w32)
def test_x86_setcc_after_cmp(code_cache, mode, a, b):
    """setcc al for every signed and unsigned condition, on the flags
    of cmp a, b: each must equal the comparison it names."""
    flags = _sub_flags(a, b)
    bits = tuple(bool(flags & f) for f in (CF, ZF, SF, OF))
    for cc, holds in enumerate(_CONDITIONS):
        if holds is None:
            continue
        _check_x86(bytes([0x0F, 0x90 | cc, 0xC0]), {0: 0xAAAAAA00}, flags,
                   ({0: 0xAAAAAA00 | int(holds(*bits))}, flags), mode)
    # the same predicates, read as comparisons
    assert bits[0] == (a < b) and bits[1] == (a == b)
    assert (bits[2] != bits[3]) == (signed(a) < signed(b))


# ---------------------------------------------------------------------------
# ppc


def _ppc(word: int, gpr: Dict[int, int], mode: str, xer: int = 0,
         memory: bytes = b""):
    """Run *word* from the given registers; returns (gpr, cr, xer) or
    the fault's (vector, program reason)."""
    cpu = PPCCPU()
    cpu.aspace.map_region(Region(TEXT, 0x1000, "rx", "text"))
    cpu.aspace.map_region(Region(DATA, 0x1000, "rw", "data"))
    cpu.mem.write(TEXT, word.to_bytes(4, "big"))
    cpu.mem.write(DATA, memory)
    cpu.pc = TEXT
    for reg, value in gpr.items():
        cpu.gpr[reg] = value & M
    cpu.xer = xer
    try:
        if mode == "step":
            cpu.step()
        else:
            instr = pdec.decode(word, TEXT)
            fn, _cycles = gen_ppc.generate([([(TEXT, instr)], False, ())])
            fn(cpu)
    except PPCFault as fault:
        return fault.vector, fault.program_reason
    assert cpu.pc == TEXT + 4
    return list(cpu.gpr), cpu.cr, cpu.xer


def _field(a: int, b: int) -> int:
    return LT if a < b else GT if a > b else EQ


def _check_cr(word: int, gpr: Dict[int, int], field: int, value: int,
              mode: str) -> None:
    _gpr, cr, _xer = _ppc(word, gpr, mode)
    assert (cr >> (28 - 4 * field)) & 0xF == value


#: the signed-immediate rows' defect (ROADMAP: A semantic oracle
#: independent of the tables)
_SIGNED_IMMEDIATE = pytest.mark.xfail(strict=True, reason=(
    "ppc cmpwi/twi compare signed(ra) with the 32-bit unsigned image of "
    "a negative immediate (ROADMAP: A semantic oracle independent of "
    "the tables)"))


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, imm=st.integers(0, 0x7FFF), field=st.integers(0, 7))
def test_ppc_cmpwi(code_cache, mode, a, imm, field):
    _check_cr(encode("cmpwi", ra=3, imm=imm, op2=field), {3: a}, field,
              _field(signed(a), imm), mode)


@_SIGNED_IMMEDIATE
@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, imm=st.integers(-0x8000, -1), field=st.integers(0, 7))
@example(a=M, imm=-1, field=0)
def test_ppc_cmpwi_negative_immediate(code_cache, mode, a, imm, field):
    """``cmpwi r3,-1`` with r3 = 0xFFFFFFFF must set EQ."""
    _check_cr(encode("cmpwi", ra=3, imm=imm, op2=field), {3: a}, field,
              _field(signed(a), imm), mode)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, b=w32, imm=st.integers(0, 0xFFFF), field=st.integers(0, 7))
def test_ppc_compares(code_cache, mode, a, b, imm, field):
    """cmplwi (unsigned immediate), cmpw (signed), cmplw (unsigned)."""
    _check_cr(encode("cmplwi", ra=3, imm=imm, op2=field), {3: a}, field,
              _field(a, imm), mode)
    _check_cr(encode("cmpw", ra=3, rb=4, op2=field), {3: a, 4: b}, field,
              _field(signed(a), signed(b)), mode)
    _check_cr(encode("cmplw", ra=3, rb=4, op2=field), {3: a, 4: b}, field,
              _field(a, b), mode)


def _traps(to: int, a: int, b: int) -> bool:
    """The TO conditions, comparing 32-bit words a and b."""
    return bool((to & 16 and signed(a) < signed(b))
                or (to & 8 and signed(a) > signed(b))
                or (to & 4 and a == b) or (to & 2 and a < b)
                or (to & 1 and a > b))


def _check_trap(word: int, gpr: Dict[int, int], trap: bool,
                mode: str) -> None:
    got = _ppc(word, gpr, mode)
    if trap:
        assert got == (PPCVector.PROGRAM, ProgramReason.TRAP)
    else:
        assert len(got) == 3, got


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(to=st.integers(0, 31), a=w32, b=w32)
def test_ppc_tw(code_cache, mode, to, a, b):
    _check_trap(encode("tw", rt=to, ra=3, rb=4), {3: a, 4: b},
                _traps(to, a, b), mode)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(to=st.integers(0, 31), a=w32, imm=st.integers(0, 0x7FFF))
def test_ppc_twi(code_cache, mode, to, a, imm):
    _check_trap(encode("twi", rt=to, ra=3, imm=imm), {3: a},
                _traps(to, a, imm), mode)


@_SIGNED_IMMEDIATE
@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(to=st.integers(0, 31), a=w32, imm=st.integers(-0x8000, -1))
@example(to=4, a=M, imm=-1)
def test_ppc_twi_negative_immediate(code_cache, mode, to, a, imm):
    """``twi 4,r3,-1`` with r3 = 0xFFFFFFFF must trap."""
    _check_trap(encode("twi", rt=to, ra=3, imm=imm), {3: a},
                _traps(to, a, imm & M), mode)


def _result(word: int, gpr: Dict[int, int], reg: int, value: int,
            mode: str, xer: int = 0, ca: Optional[int] = None,
            memory: bytes = b"") -> None:
    out, _cr, out_xer = _ppc(word, gpr, mode, xer, memory)
    assert out[reg] == value & M, (hex(out[reg]), hex(value & M))
    if ca is not None:
        assert bool(out_xer & CA) == bool(ca)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(v=w32, n=st.integers(0, 63), sh=st.integers(0, 31))
def test_ppc_shifts(code_cache, mode, v, n, sh):
    """slw/srw/sraw take a 6-bit count (32..63 shift everything out);
    srawi an immediate count."""
    regs = {3: v, 4: n}
    _result(encode("slw", rt=3, ra=5, rb=4), regs, 5,
            (v << n) & M if n < 32 else 0, mode)
    _result(encode("srw", rt=3, ra=5, rb=4), regs, 5,
            v >> n if n < 32 else 0, mode)
    _result(encode("sraw", rt=3, ra=5, rb=4), regs, 5,
            signed(v) >> min(n, 31), mode)
    _result(encode("srawi", rt=3, ra=5, rb=sh), regs, 5, signed(v) >> sh,
            mode)


def _mask(mb: int, me: int) -> int:
    """Bits mb..me (big-endian numbering), wrapping past bit 31."""
    bits, b = [mb], mb
    while b != me:
        b = (b + 1) % 32
        bits.append(b)
    return sum(1 << (31 - bit) for bit in bits)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(v=w32, sh=st.integers(0, 31), mb=st.integers(0, 31),
       me=st.integers(0, 31))
def test_ppc_rlwinm(code_cache, mode, v, sh, mb, me):
    rotated = ((v << sh) | (v >> (32 - sh))) & M
    _result(encode("rlwinm", rt=3, ra=5, rb=sh, imm=mb, op2=me), {3: v}, 5,
            rotated & _mask(mb, me), mode)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, b=w32, imm=s16)
def test_ppc_multiply_divide(code_cache, mode, a, b, imm):
    """mulli/mullw keep the low word of the signed product; divw
    truncates toward zero, divwu is unsigned; a zero divisor gives 0."""
    regs = {3: a, 4: b}
    _result(encode("mulli", rt=5, ra=3, imm=imm), regs, 5, signed(a) * imm,
            mode)
    _result(encode("mullw", rt=5, ra=3, rb=4), regs, 5,
            signed(a) * signed(b), mode)
    _result(encode("divw", rt=5, ra=3, rb=4), regs, 5,
            trunc_div(signed(a), signed(b)) if b else 0, mode)
    _result(encode("divwu", rt=5, ra=3, rb=4), regs, 5,
            a // b if b else 0, mode)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(v=w32, half=st.integers(0, 0xFFFF))
def test_ppc_sign_zero_extension(code_cache, mode, v, half):
    """extsb/extsh, and lha/lhz from memory (big-endian)."""
    _result(encode("extsb", rt=3, ra=5), {3: v}, 5, signed(v & 0xFF, 8),
            mode)
    _result(encode("extsh", rt=3, ra=5), {3: v}, 5, signed(v & 0xFFFF, 16),
            mode)
    memory = half.to_bytes(2, "big")
    _result(encode("lha", rt=5, ra=3, imm=0), {3: DATA}, 5,
            signed(half, 16), mode, memory=memory)
    _result(encode("lhz", rt=5, ra=3, imm=0), {3: DATA}, 5, half, mode,
            memory=memory)


@pytest.mark.parametrize("mode", MODES)
@TRIALS
@given(a=w32, b=w32, imm=s16, ca=st.integers(0, 1))
def test_ppc_carry(code_cache, mode, a, b, imm, ca):
    """XER[CA] of addic, subfic, adde and addze."""
    regs, xer = {3: a, 4: b}, CA if ca else 0
    si = imm & M
    _result(encode("addic", rt=5, ra=3, imm=imm), regs, 5, a + si, mode,
            ca=a + si > M)
    _result(encode("subfic", rt=5, ra=3, imm=imm), regs, 5, si - a, mode,
            ca=si + ((~a) & M) + 1 > M)
    _result(encode("adde", rt=5, ra=3, rb=4), regs, 5, a + b + ca, mode,
            xer=xer, ca=a + b + ca > M)
    _result(encode("addze", rt=5, ra=3), regs, 5, a + ca, mode, xer=xer,
            ca=a + ca > M)
