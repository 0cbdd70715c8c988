"""Additional PPC instruction semantics: carry chain, count-leading-
zeros, sign extension (all reachable by corrupted code)."""

import pytest

from repro.isa.memory import Region
from repro.ppc.cpu import PPCCPU
from repro.ppc.decoder import decode, exec_illegal
from tests.ppc_words import dform, xform

TEXT = 0xC0100000


def run_words(words, setup=None) -> PPCCPU:
    cpu = PPCCPU()
    cpu.aspace.map_region(Region(TEXT, 0x1000, "rx", "text"))
    raw = b"".join(word.to_bytes(4, "big") for word in words)
    cpu.mem.write(TEXT, raw)
    cpu.pc = TEXT
    if setup:
        setup(cpu)
    for _ in range(len(words)):
        cpu.step()
    return cpu


class TestCarryChain:
    def test_addic_sets_carry(self):
        # addic r3, r4, 1 with r4 = 0xFFFFFFFF
        def setup(cpu):
            cpu.gpr[4] = 0xFFFFFFFF
        cpu = run_words([dform(12, 3, 4, 1)], setup)
        assert cpu.gpr[3] == 0
        assert cpu.xer & 0x20000000

    def test_adde_consumes_carry(self):
        # addic r3,r4,1 (carry out) ; adde r5,r6,r7
        def setup(cpu):
            cpu.gpr[4] = 0xFFFFFFFF
            cpu.gpr[6] = 10
            cpu.gpr[7] = 20
        cpu = run_words([dform(12, 3, 4, 1),
                         xform(31, 5, 6, 7, 138)], setup)
        assert cpu.gpr[5] == 31

    def test_addze(self):
        def setup(cpu):
            cpu.gpr[4] = 0xFFFFFFFF
            cpu.gpr[6] = 100
        cpu = run_words([dform(12, 3, 4, 1),
                         xform(31, 5, 6, 0, 202)], setup)
        assert cpu.gpr[5] == 101

    def test_subfic(self):
        # subfic r3, r4, 50 -> 50 - r4
        def setup(cpu):
            cpu.gpr[4] = 20
        cpu = run_words([dform(8, 3, 4, 50)], setup)
        assert cpu.gpr[3] == 30
        assert cpu.xer & 0x20000000       # no borrow


class TestBitOps:
    def test_cntlzw(self):
        def setup(cpu):
            cpu.gpr[3] = 0x00010000
        cpu = run_words([xform(31, 3, 4, 0, 26)], setup)
        assert cpu.gpr[4] == 15

    def test_cntlzw_zero(self):
        cpu = run_words([xform(31, 3, 4, 0, 26)])
        assert cpu.gpr[4] == 32

    def test_extsb(self):
        def setup(cpu):
            cpu.gpr[3] = 0x80
        cpu = run_words([xform(31, 3, 4, 0, 954)], setup)
        assert cpu.gpr[4] == 0xFFFFFF80

    def test_extsh(self):
        def setup(cpu):
            cpu.gpr[3] = 0x00008001
        cpu = run_words([xform(31, 3, 4, 0, 922)], setup)
        assert cpu.gpr[4] == 0xFFFF8001


class TestDecodeCoverage:
    @pytest.mark.parametrize("word,mnemonic", [
        (dform(8, 3, 4, 50), "subfic"),
        (xform(31, 5, 6, 7, 138), "adde"),
        (xform(31, 5, 6, 0, 202), "addze"),
        (xform(31, 3, 4, 0, 26), "cntlzw"),
        (xform(31, 3, 4, 0, 954), "extsb"),
        (xform(31, 3, 4, 0, 922), "extsh"),
    ])
    def test_decodes(self, word, mnemonic):
        instr = decode(word)
        assert instr.execute is not exec_illegal
        assert instr.mnemonic == mnemonic
