"""Build the kernel: concatenate DSL sources, analyze, link per arch.

Source order matters for parse-time constant resolution and mirrors the
link order of a real kernel build.  Each function is tagged with the
subsystem its source file represents so that crash dumps and the
profiler can attribute activity the way the paper does ("the mm
subsystem", "the network subsystem", ...).

A linked image is a function of this package's sources and the arch
alone, so :func:`build_kernel` files it in the code cache
(:mod:`repro.isa.codecache`): a warm process loads it without
importing the compiler.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Tuple

from repro.isa.codecache import cached
from repro.kernel.image import KernelImage

if TYPE_CHECKING:
    from repro.kcc.ast import Program

#: concatenation order; (file stem, subsystem tag)
SOURCE_ORDER: Tuple[Tuple[str, str], ...] = (
    ("lib", "lib"),
    ("spinlock", "arch"),
    ("tables", "lib"),
    ("sched", "kernel"),
    ("mm", "mm"),
    ("fs", "fs"),
    ("dcache", "fs"),
    ("net", "net"),
    ("ipc", "ipc"),
    ("syscall", "kernel"),
)

_SOURCE_DIR = Path(__file__).parent / "source"


def kernel_source() -> str:
    """The full concatenated kernel DSL source."""
    parts = []
    for stem, _tag in SOURCE_ORDER:
        path = _SOURCE_DIR / f"{stem}.kc"
        parts.append(f"// ==== {stem}.kc ====\n" + path.read_text())
    return "\n".join(parts)


def _subsystem_map() -> Dict[str, str]:
    """Map each function to its subsystem by re-parsing per file."""
    mapping: Dict[str, str] = {}
    for stem, tag in SOURCE_ORDER:
        path = _SOURCE_DIR / f"{stem}.kc"
        text = path.read_text()
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("fn "):
                name = stripped[3:].split("(", 1)[0].strip()
                mapping[name] = tag
    return mapping


@functools.lru_cache(maxsize=None)
def kernel_program() -> Program:
    """Parse and analyze the kernel once per process."""
    from repro.kcc import analyze, parse
    return analyze(parse(kernel_source()))


#: pools that a real kernel allocates dynamically (page frames, block
#: device contents, pipe pages) — placed outside .data so the data
#: campaign samples genuine kernel data, as the paper's did
HEAP_GLOBALS = frozenset({"mem_pool", "ramdisk", "buffer_data",
                          "pipe_buf"})


@functools.lru_cache(maxsize=4)
def build_kernel(arch: str) -> KernelImage:
    """The kernel linked for ``"x86"`` or ``"ppc"``: from the code
    cache, or compiled and linked on a miss.

    Cached per process too: images are immutable; the machine layer
    copies the bytes into each fresh machine's memory.
    """
    return KernelImage.unpack(cached(f"<kernel {arch}>", arch,
                                     lambda: _link(arch).pack()))


def _link(arch: str) -> KernelImage:
    from repro.kcc import build_image
    return build_image(kernel_program(), arch, heap_globals=HEAP_GLOBALS,
                       subsystem_of=_subsystem_map())
