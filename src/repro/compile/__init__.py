"""Superblock compilation for the interpreter cores.

``blocks`` holds the per-machine compiled-block cache and the discovery
pass; ``gen_x86``/``gen_ppc`` translate a run of decoded instructions
into one specialized Python function with operands pre-bound.  Both
share ``emit`` (a unit's function: one superblock, or a region looping
over a cycle of them) and ``access`` (loads and stores).
"""

from repro.compile.blocks import (  # noqa: F401
    BlockCache, CompiledBlock, compile_block, leaders_for, lookup_block,
)
