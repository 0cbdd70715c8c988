"""kcc — the kernel-DSL compiler.

The paper compiles one Linux 2.4.22 source tree with GCC 3.2.2 for two
architectures; the cross-architecture differences in error sensitivity
come from how the *same source* turns into machine state.  ``kcc``
reproduces that: a small C-like language (see ``docs in
repro.kernel.source``) is compiled by two backends that share one
function compiler (:mod:`repro.kcc.codegen`: statements, conditions
and truth values take the same shape on both ISAs):

* :mod:`repro.kcc.backend_x86` — packed struct layout with natural
  8/16/32-bit field access, locals mostly in stack slots (8 GPRs),
  push/pop-dense cdecl calls;
* :mod:`repro.kcc.backend_ppc` — every struct field padded to a 32-bit
  word and accessed with ``lwz``/``stw`` plus in-register masking,
  locals homed in callee-saved r14-r31, SysV-style frames.

Both backends emit through one assembler core
(:mod:`repro.isa.assembler`), and :mod:`repro.kcc.linker` fills every
relocation they leave through its one ``patch``.

A reference AST interpreter (:mod:`repro.kcc.interp`) executes the same
program over the same memory image and serves as the differential
oracle for both backends.
"""

from repro.kcc.lexer import LexError, tokenize
from repro.kcc.parser import ParseError, parse
from repro.kcc.sema import SemaError, analyze
from repro.kcc.linker import build_image

__all__ = [
    "tokenize", "LexError",
    "parse", "ParseError",
    "analyze", "SemaError",
    "build_image",
]
