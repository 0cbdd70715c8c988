"""Raw PowerPC D-form and X-form words, written out bit by bit.

An encoding oracle independent of the instruction table
(:mod:`repro.ppc.isa`) that the assembler, the decoder and the
disassembler all read.
"""


def dform(opcd: int, rt: int, ra: int, imm: int) -> int:
    return ((opcd & 0x3F) << 26) | ((rt & 0x1F) << 21) | \
        ((ra & 0x1F) << 16) | (imm & 0xFFFF)


def xform(opcd: int, rt: int, ra: int, rb: int, ext: int,
          rc: int = 0) -> int:
    return ((opcd & 0x3F) << 26) | ((rt & 0x1F) << 21) | \
        ((ra & 0x1F) << 16) | ((rb & 0x1F) << 11) | \
        ((ext & 0x3FF) << 1) | (rc & 1)
