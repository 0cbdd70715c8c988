"""Linker: lay out compiled functions and data into a kernel image.

The image's mapping and records are described in
:mod:`repro.kernel.image`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.kcc import ast
from repro.kcc.backend_ppc import PPCFunctionCompiler
from repro.kcc.backend_x86 import X86FunctionCompiler
from repro.kcc.layout import (
    _align, build_data_image, compute_struct_layouts, initialized_ranges,
    place_globals,
)
from repro.kernel.image import (
    DATA_BASE, HEAP_BASE, TEXT_BASE, FunctionInfo, KernelImage,
)


class LinkError(Exception):
    pass


def build_image(program: ast.Program, arch: str,
                text_base: int = TEXT_BASE,
                data_base: int = DATA_BASE,
                heap_base: int = HEAP_BASE,
                heap_globals: "frozenset[str]" = frozenset(),
                subsystem_of: Optional[Dict[str, str]] = None,
                optimize: bool = True) -> KernelImage:
    """Compile and link an analyzed *program* for *arch*.

    ``subsystem_of`` maps function names to subsystem tags (``"mm"``,
    ``"fs"``, ...) used by crash-cause attribution and the profiler.
    ``heap_globals`` names pools placed outside the .data section.
    ``optimize`` runs the constant-folding pass (GCC does; see
    :mod:`repro.kcc.optimize`).
    """
    if arch not in ("x86", "ppc"):
        raise LinkError(f"unknown architecture {arch!r}")
    if optimize:
        from repro.kcc.optimize import optimize_program
        optimize_program(program)
    little_endian = arch == "x86"
    heap_names = frozenset(heap_globals)

    layouts = compute_struct_layouts(program, arch)
    globals_info = place_globals(program, arch, data_base, layouts,
                                 heap_names=heap_names,
                                 heap_base=heap_base)
    data_names = frozenset(name for name in globals_info
                           if name not in heap_names)
    data_bytes = build_data_image(program, arch, data_base, globals_info,
                                  little_endian, names=data_names)
    heap_bytes = build_data_image(program, arch, heap_base, globals_info,
                                  little_endian, names=heap_names) \
        if heap_names else b""

    compiler = X86FunctionCompiler if arch == "x86" else PPCFunctionCompiler
    compiled = [compiler(func, globals_info, layouts).compile()
                for func in program.functions]

    # assign addresses
    functions: Dict[str, FunctionInfo] = {}
    cursor = text_base
    placed: List[Tuple[int, object]] = []
    for unit in compiled:
        cursor = _align(cursor, 16)
        functions[unit.name] = FunctionInfo(
            name=unit.name, addr=cursor, size=len(unit.code),
            insn_addrs=[cursor + off for off in unit.insn_offsets],
            subsystem=(subsystem_of or {}).get(unit.name, ""))
        placed.append((cursor, unit))
        cursor += len(unit.code)

    # resolve relocations
    text = bytearray(cursor - text_base)
    for addr, unit in placed:
        code = bytearray(unit.code)
        for reloc in unit.relocs:
            target = functions.get(reloc.symbol)
            if target is None:
                info = globals_info.get(reloc.symbol)
                if info is None:
                    raise LinkError(
                        f"{unit.name}: undefined symbol {reloc.symbol}")
                value = info.addr
            else:
                value = target.addr
            if reloc.kind == "rel32":           # x86 call/jmp
                rel = value - (addr + reloc.offset + 4)
                code[reloc.offset:reloc.offset + 4] = \
                    (rel & 0xFFFFFFFF).to_bytes(4, "little")
            elif reloc.kind == "abs32":
                code[reloc.offset:reloc.offset + 4] = \
                    value.to_bytes(4, "little")
            elif reloc.kind == "rel24":         # ppc bl
                rel = value - (addr + reloc.offset)
                if not -(1 << 25) <= rel < (1 << 25):
                    raise LinkError(f"bl out of range to {reloc.symbol}")
                word = int.from_bytes(
                    code[reloc.offset:reloc.offset + 4], "big")
                word |= rel & 0x03FFFFFC
                code[reloc.offset:reloc.offset + 4] = \
                    word.to_bytes(4, "big")
            elif reloc.kind == "hi16":          # ppc lis (paired w/ lo16)
                word = int.from_bytes(
                    code[reloc.offset:reloc.offset + 4], "big")
                word = (word & 0xFFFF0000) | ((value >> 16) & 0xFFFF)
                code[reloc.offset:reloc.offset + 4] = \
                    word.to_bytes(4, "big")
            elif reloc.kind == "lo16":
                word = int.from_bytes(
                    code[reloc.offset:reloc.offset + 4], "big")
                word = (word & 0xFFFF0000) | (value & 0xFFFF)
                code[reloc.offset:reloc.offset + 4] = \
                    word.to_bytes(4, "big")
            else:  # pragma: no cover
                raise LinkError(f"unknown reloc kind {reloc.kind}")
        offset = addr - text_base
        text[offset:offset + len(code)] = code

    return KernelImage(
        arch=arch, text_base=text_base,
        text_bytes=bytes(text), data_base=data_base,
        data_bytes=data_bytes, functions=functions,
        globals=globals_info, struct_layouts=layouts,
        init_data_ranges=initialized_ranges(program, globals_info),
        heap_base=heap_base, heap_bytes=heap_bytes)
