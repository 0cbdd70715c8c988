"""Struct and global data layout — per architecture.

This module encodes the paper's central data-sensitivity mechanism
(Section 5.5):

* the **x86 layout** packs struct fields at natural alignment and
  accesses each with its natural width (``mov al/ax/eax``), so every bit
  of every accessed byte carries meaning — "the more optimized access
  patterns on the P4 increase the chances that accessing a corrupted
  memory location will lead to problems";
* the **ppc layout** gives *every* field a full 32-bit word accessed
  with ``lwz``/``stw``; sub-word fields are masked in registers after
  the load, so flips in a u8 field's 24 unused bits are architecturally
  invisible — "the sparseness of the data can mask errors".

Byte/halfword *arrays* (I/O buffers) stay dense on both architectures,
as real compilers lay them out; the sparsity applies to discrete data
items (struct fields and scalar globals).
"""

from __future__ import annotations

from typing import Dict, List

from repro.kcc import ast
from repro.kernel.image import FieldInfo, GlobalInfo, StructLayout


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


def layout_struct_x86(struct: ast.StructDef) -> StructLayout:
    """Packed layout with natural alignment, like GCC on IA-32."""
    fields: Dict[str, FieldInfo] = {}
    offset = 0
    for field in struct.fields:
        width = field.field_type.width
        offset = _align(offset, width)
        fields[field.name] = FieldInfo(
            name=field.name, offset=offset, access_width=width,
            semantic_bits=width * 8,
            is_pointer=field.field_type.is_pointer)
        offset += width
    return StructLayout(struct.name, _align(max(offset, 4), 4), fields)


def layout_struct_ppc(struct: ast.StructDef) -> StructLayout:
    """Word-per-field layout with 32-bit access and in-register masks."""
    fields: Dict[str, FieldInfo] = {}
    for index, field in enumerate(struct.fields):
        fields[field.name] = FieldInfo(
            name=field.name, offset=index * 4, access_width=4,
            semantic_bits=field.field_type.width * 8,
            is_pointer=field.field_type.is_pointer)
    return StructLayout(struct.name, max(len(struct.fields), 1) * 4,
                        fields)


def compute_struct_layouts(program: ast.Program, arch: str
                           ) -> Dict[str, StructLayout]:
    engine = layout_struct_x86 if arch == "x86" else layout_struct_ppc
    return {struct.name: engine(struct) for struct in program.structs}


def place_globals(program: ast.Program, arch: str, data_base: int,
                  struct_layouts: Dict[str, StructLayout],
                  heap_names: "frozenset[str]" = frozenset(),
                  heap_base: int = 0) -> Dict[str, GlobalInfo]:
    """Assign every global an address and an access recipe.

    Placement order follows declaration order across all source files so
    that both architectures keep the same *relative* organization (the
    paper injects into the same logical data on both machines).

    Globals named in *heap_names* are placed at *heap_base* instead of
    the data section: they model dynamically allocated pools (page
    frames, ramdisk blocks) that live outside the kernel's .data/.bss
    in a real system and are therefore not data-injection targets.
    """
    out: Dict[str, GlobalInfo] = {}
    cursor = data_base
    heap_cursor = heap_base
    for item in program.globals:
        if item.is_struct:
            layout = struct_layouts[item.struct]
            elem_size = layout.size
            access_width = 4
            semantic_bits = 32
        else:
            width = item.var_type.width
            semantic_bits = width * 8
            # arrays are dense on both architectures; a discrete PPC
            # item is one word, masked at load
            discrete_word = arch == "ppc" and item.count <= 1
            elem_size = access_width = 4 if discrete_word else width
        size = elem_size * item.count
        if item.name in heap_names:
            heap_cursor = _align(heap_cursor, 4)
            address = heap_cursor
            heap_cursor += size
        else:
            cursor = _align(cursor, min(max(elem_size, 1), 4))
            address = cursor
            cursor += size
        out[item.name] = GlobalInfo(
            name=item.name, addr=address, size=size, count=item.count,
            elem_size=elem_size, access_width=access_width,
            semantic_bits=semantic_bits, is_struct=item.is_struct,
            struct=item.struct)
    return out


def build_data_image(program: ast.Program, arch: str, data_base: int,
                     globals_info: Dict[str, GlobalInfo],
                     little_endian: bool,
                     names: "frozenset[str] | None" = None) -> bytes:
    """Materialize one section's initialized bytes.

    When *names* is given, only those globals contribute (used to build
    the heap section separately from .data).
    """
    selected = {name: info for name, info in globals_info.items()
                if names is None or name in names}
    end = data_base
    for info in selected.values():
        end = max(end, info.addr + info.size)
    image = bytearray(end - data_base)
    order = "little" if little_endian else "big"
    for item in program.globals:
        if item.name not in selected:
            continue
        info = globals_info[item.name]
        if item.is_struct:
            continue            # struct globals are zero-initialized
        for index, value in enumerate(item.init[:item.count]):
            offset = info.addr - data_base + index * info.elem_size
            raw = (value & ((1 << (info.access_width * 8)) - 1)) \
                .to_bytes(info.access_width, order)
            image[offset:offset + info.access_width] = raw
    return bytes(image)


def initialized_ranges(program: ast.Program,
                       globals_info: Dict[str, GlobalInfo]
                       ) -> List[range]:
    """Address ranges holding explicitly initialized data.

    The paper distinguishes initialized from uninitialized kernel data;
    the data-injection campaign samples both.
    """
    out: List[range] = []
    for item in program.globals:
        if item.init:
            info = globals_info[item.name]
            out.append(range(info.addr,
                             info.addr + len(item.init) * info.elem_size))
    return out
