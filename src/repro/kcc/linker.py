"""Linker: lay out compiled functions and data into a kernel image.

Functions are placed 16-byte aligned from ``text_base``; each
relocation a backend left is then filled with its symbol's address
through the assembler core's :func:`repro.isa.assembler.patch`, which
knows every relocation kind of both ISAs.  The image's mapping and
records are described in :mod:`repro.kernel.image`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.assembler import AssemblerError, patch
from repro.kcc import ast
from repro.kcc.backend_ppc import PPCFunctionCompiler
from repro.kcc.backend_x86 import X86FunctionCompiler
from repro.kcc.codegen import CompiledFunction
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
    placed: List[Tuple[int, CompiledFunction]] = []
    for unit in compiled:
        cursor = _align(cursor, 16)
        functions[unit.name] = FunctionInfo(
            name=unit.name, addr=cursor, size=len(unit.code),
            insn_addrs=[cursor + off for off in unit.insn_offsets],
            subsystem=(subsystem_of or {}).get(unit.name, ""))
        placed.append((cursor, unit))
        cursor += len(unit.code)

    # resolve relocations: a function's name before a global's
    symbols = {name: info.addr for name, info in globals_info.items()}
    symbols.update((name, info.addr) for name, info in functions.items())
    text = bytearray(cursor - text_base)
    for addr, unit in placed:
        offset = addr - text_base
        text[offset:offset + len(unit.code)] = unit.code
        for reloc in unit.relocs:
            if reloc.symbol not in symbols:
                raise LinkError(
                    f"{unit.name}: undefined symbol {reloc.symbol}")
            try:
                patch(text, offset + reloc.offset, reloc.kind,
                      symbols[reloc.symbol], text_base)
            except AssemblerError as error:
                raise LinkError(f"{unit.name}: {reloc.symbol}: "
                                f"{error}") from error

    return KernelImage(
        arch=arch, text_base=text_base,
        text_bytes=bytes(text), data_base=data_base,
        data_bytes=data_bytes, functions=functions,
        globals=globals_info, struct_layouts=layouts,
        init_data_ranges=initialized_ranges(program, globals_info),
        heap_base=heap_base, heap_bytes=heap_bytes)
