"""The linked kernel image and the layout records it carries.

The image mimics a Linux 2.4 kernel mapping:

* text at ``0xC0100000`` (read+execute; writes trap — the paper's
  "writing to a read-only code segment" GP category on the P4);
* data at ``0xC0300000`` (the section the data campaign samples);
* per-task kernel stacks are mapped later by the machine layer.

The image records per-function instruction maps (for the code-injection
target generator and the profiler), per-global and per-struct access
recipes (:mod:`repro.kcc.layout` computes them), and a reverse symbol
index used by crash dumps to attribute a faulting address to a kernel
function and subsystem.

:mod:`repro.kcc.linker` produces an image; everything that only reads
one imports this module, which imports nothing from the compiler.
:meth:`KernelImage.pack` turns an image into plain ``marshal``-able
data and :meth:`KernelImage.unpack` turns it back, so
:func:`repro.kernel.build.build_kernel` can serve it from the code
cache.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Dict, List, Optional

TEXT_BASE = 0xC0100000
DATA_BASE = 0xC0300000
HEAP_BASE = 0xC0400000


@dataclass(frozen=True)
class FieldInfo:
    """Access recipe for one struct field under one architecture."""

    name: str
    offset: int
    access_width: int        # bytes moved by the load/store instruction
    semantic_bits: int       # bits that carry meaning (8, 16, 32)
    is_pointer: bool

    @property
    def load_mask(self) -> int:
        """Mask applied in-register after the load (PPC sub-word fields)."""
        if self.semantic_bits >= self.access_width * 8:
            return 0          # no masking needed
        return (1 << self.semantic_bits) - 1


@dataclass(frozen=True)
class StructLayout:
    name: str
    size: int
    fields: Dict[str, FieldInfo]

    def field(self, name: str) -> FieldInfo:
        return self.fields[name]


@dataclass(frozen=True)
class GlobalInfo:
    """Placement and access recipe for one global under one arch."""

    name: str
    addr: int
    size: int                # total bytes including the whole array
    count: int               # elements (1 for scalars)
    elem_size: int           # distance between elements
    access_width: int        # bytes per access instruction
    semantic_bits: int
    is_struct: bool
    struct: str

    @property
    def load_mask(self) -> int:
        if self.semantic_bits >= self.access_width * 8:
            return 0
        return (1 << self.semantic_bits) - 1


@dataclass
class FunctionInfo:
    name: str
    addr: int
    size: int
    insn_addrs: List[int]
    subsystem: str = ""


@dataclass
class KernelImage:
    """A fully linked kernel for one architecture."""

    arch: str                           # "x86" or "ppc"
    text_base: int
    text_bytes: bytes
    data_base: int
    data_bytes: bytes
    functions: Dict[str, FunctionInfo]
    globals: Dict[str, GlobalInfo]
    struct_layouts: Dict[str, StructLayout]
    init_data_ranges: List[range] = field(default_factory=list)
    #: dynamically-allocated-pool section (outside .data; not a
    #: data-injection target)
    heap_base: int = HEAP_BASE
    heap_bytes: bytes = b""

    @property
    def little_endian(self) -> bool:
        return self.arch == "x86"

    @property
    def text_end(self) -> int:
        return self.text_base + len(self.text_bytes)

    @property
    def data_end(self) -> int:
        return self.data_base + len(self.data_bytes)

    def symbol(self, name: str) -> int:
        if name in self.functions:
            return self.functions[name].addr
        if name in self.globals:
            return self.globals[name].addr
        raise KeyError(name)

    def function_at(self, addr: int) -> Optional[FunctionInfo]:
        """Attribute an address to the function containing it."""
        for info in self.functions.values():
            if info.addr <= addr < info.addr + info.size:
                return info
        return None

    def sizeof(self, struct: str) -> int:
        return self.struct_layouts[struct].size

    def field(self, struct: str, name: str):
        return self.struct_layouts[struct].field(name)

    def pack(self) -> tuple:
        """The image as tuples, lists, dicts, bytes, ints and strings
        (what ``marshal`` writes); :meth:`unpack` inverts it."""
        return (self.arch, self.text_base, self.text_bytes,
                self.data_base, self.data_bytes,
                self.heap_base, self.heap_bytes,
                [astuple(info) for info in self.functions.values()],
                [astuple(info) for info in self.globals.values()],
                [astuple(layout) for layout in self.struct_layouts.values()],
                [(span.start, span.stop) for span in self.init_data_ranges])

    @classmethod
    def unpack(cls, packed: tuple) -> "KernelImage":
        (arch, text_base, text_bytes, data_base, data_bytes, heap_base,
         heap_bytes, functions, globals_, layouts, init_ranges) = packed
        return cls(
            arch=arch, text_base=text_base, text_bytes=text_bytes,
            data_base=data_base, data_bytes=data_bytes,
            functions={row[0]: FunctionInfo(*row) for row in functions},
            globals={row[0]: GlobalInfo(*row) for row in globals_},
            struct_layouts={
                name: StructLayout(name, size, {
                    key: FieldInfo(*row) for key, row in fields.items()})
                for name, size, fields in layouts},
            init_data_ranges=[range(*span) for span in init_ranges],
            heap_base=heap_base, heap_bytes=heap_bytes)
