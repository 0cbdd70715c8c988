"""Memory-access lowering shared by both block generators.

A compiled load or store probes the memory's soft TLB
(:class:`repro.isa.memory.PhysicalMemory` ``rtlb``/``wtlb``) with the
page index, and a hit whose bytes stay inside the page is served
straight from the page buffer.  Everything else runs the step core's
exact slow path — ``aspace.check`` (a fault translated by
``cpu._memfault``), then ``mem.read_*``/``write_*`` — and offers the
page to the TLB.  Either way the access then costs ``cyc += 2`` and
calls the watchpoint hook with fully synced state.

The generator supplies the byte order (``g.little``), the line that
syncs the CPU's state from the block's locals (``g.sync``), and, bound
in its namespace as ``unpack_from``/``pack_into``, that byte order's
32-bit word codec (:data:`repro.isa.memory.WORD`): a word moves through
``struct`` in one call, while 1- and 2-byte accesses stay byte-wise.
Address in ``a_``; a load leaves its value in ``v_``.
"""

from __future__ import annotations


def _probe(g, tlb: str, width: int, aligned: bool) -> None:
    """Look the page up; open the hit branch."""
    g.w(f"pg_ = {tlb}.get(a_ >> 12)")
    g.w("o_ = a_ & 4095")
    if width > 1 and not aligned:
        g.w(f"if pg_ is not None and o_ < {4097 - width}:")
    else:
        g.w("if pg_ is not None:")


def _slow(g, width: int, kind: str, access: str, write: bool) -> None:
    """The miss branch: the step core's check and access, then fill."""
    g.w("else:")
    g.w("    try:")
    g.w(f"        aspace.check(a_, {width}, {kind})")
    g.w("    except MF as mf:")
    g.w("        cpu._memfault(mf)")
    g.w(f"    {access}")
    g.w(f"    aspace.tlb_fill(a_, {write})")
    g.w("cyc += 2")
    g.w("if debug._watchpoints:")
    g.w(f"    {g.sync}")
    g.w(f"    debug.check_access(a_, {width}, {kind}, cyc)")


def _shifts(g, width: int):
    """(byte offset text, bit shift) for each byte of the access."""
    for k in range(width):
        yield (f"o_ + {k}" if k else "o_",
               8 * k if g.little else 8 * (width - 1 - k))


def load(g, width: int, aligned: bool = False) -> None:
    """``cpu.load()`` of *width* bytes; ``aligned`` when the emitter has
    proven the address cannot cross a page."""
    _probe(g, "rtlb", width, aligned)
    if width == 4:
        g.w("    v_ = unpack_from(pg_, o_)[0]")
    else:
        g.w("    v_ = " + " | ".join(
            f"(pg_[{o}] << {s})" if s else f"pg_[{o}]"
            for o, s in _shifts(g, width)))
    read = "mem.read_u8(a_)" if width == 1 else \
        f"mem.read_u{8 * width}(a_, {g.little})"
    _slow(g, width, "AKR", f"v_ = {read}", False)


def store(g, width: int, value: str, aligned: bool = False) -> None:
    """``cpu.store()`` of *value*, an expression free of side effects."""
    _probe(g, "wtlb", width, aligned)
    if width == 4:
        g.w(f"    pack_into(pg_, o_, ({value}) & 4294967295)")
    else:
        g.w(f"    t_ = {value}")
        for o, s in _shifts(g, width):
            g.w(f"    pg_[{o}] = (t_ >> {s}) & 255" if s
                else f"    pg_[{o}] = t_ & 255")
    write = f"mem.write_u8(a_, {value})" if width == 1 else \
        f"mem.write_u{8 * width}(a_, {value}, {g.little})"
    _slow(g, width, "AKW", write, True)
