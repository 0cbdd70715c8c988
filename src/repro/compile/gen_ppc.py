"""PowerPC superblock code generator.

Same contract as :mod:`repro.compile.gen_x86`.  Instruction bodies
come from the :mod:`repro.ppc.isa` table: each row's body is lowered
once into text templates whose holes a decoded instruction fills with
its folded operands (register numbers, ``ra|0``, ``imm<<16``, the
rlwinm mask).  Bodies that touch supervisor state or raise faults of
their own become generic calls of the step executor.  Only the
block-final branches (BO/BI decomposed at compile time) and
``lmw``/``stmw`` (unrolled) are written out here.  The G4-specific
observation points are replicated exactly:

* ``cr`` is carried in a local (the PPC analogue of EFLAGS); ``lr``,
  ``ctr`` and ``xer`` stay on the CPU object — they are touched by few
  instructions and always via plain attribute access.
* Loads add the +2 misalignment penalty *before* the permission check;
  misaligned stores raise ALIGNMENT before checking, exactly like
  ``cpu.store``.
* The MSR[DR]-clear trap (``_high_data_fault``) is hoisted into a
  local: only system instructions can change it and they always end a
  block.
* Every taken branch goes through the BTIC-poisoning check; the
  poisoned path delegates to ``cpu.branch`` so the PROGRAM fault is
  raised with identical attribution.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, List, Tuple

from repro.isa.faults import AccessKind, MemoryFault
from repro.ppc import decoder as pdec
from repro.ppc import isa
from repro.ppc.exceptions import PPCFault, PPCVector
from repro.ppc.insn import PPCInstr

M = 0xFFFFFFFF

INLINE_SLACK = 8
GENERIC_SLACK = 150

#: register-count-driven loops; cycle cost unbounded per instruction
UNBOUNDED = frozenset()


def insn_length(instr) -> int:
    return 4


def decode_raw(cpu, addr: int):
    return pdec.decode(cpu.mem.read_u32(addr, False), addr)


def fetch(cpu, addr: int):
    """Discovery-time fetch; raises MemoryFault on a failed check so
    discovery can truncate without touching DAR/DSISR."""
    instr = cpu._icache.get(addr)
    if instr is None:
        cpu.aspace.check(addr, 4, AccessKind.FETCH)
        instr = cpu._icache_warm.get(addr)
        if instr is None:
            instr = decode_raw(cpu, addr)
    return instr


# ---------------------------------------------------------------------------


class _Gen:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.ns: Dict[str, object] = {
            "__builtins__": {},
            # the skeleton's except clause must resolve this even
            # though the namespace has no builtins
            "BaseException": BaseException,
            "MF": MemoryFault,
            "AKR": AccessKind.READ,
            "AKW": AccessKind.WRITE,
            "PF": PPCFault,
            "ALV": PPCVector.ALIGNMENT,
            "int": int,
        }
        self.pend = 0
        self.max_cycles = 0
        self.pc_done = False
        self.returned = False
        self._n = 0

    def w(self, line: str) -> None:
        self.lines.append("        " + line)

    def bind(self, prefix: str, obj) -> str:
        name = f"{prefix}{self._n}"
        self._n += 1
        self.ns[name] = obj
        return name

    def flush(self) -> None:
        if self.pend:
            self.w(f"cyc += {self.pend}")
            self.pend = 0

    def entry(self, a: int, n: int, k: int) -> None:
        self.flush()
        self.w(f"cur = {a}; nxt = {n}; ri = {k}")


def _wp_sync(g: _Gen, width: int, kind: str) -> None:
    g.w("if debug._watchpoints:")
    g.w("    cpu.cycles = cyc; cpu.instret = ins + ri; cpu.cr = cr")
    g.w("    cpu.current_pc = cur; cpu.pc = nxt")
    g.w(f"    debug.check_access(a_, {width}, {kind}, cyc)")


_READS = {4: "mem.read_u32(a_, False)", 2: "mem.read_u16(a_, False)",
          1: "mem.read_u8(a_)"}


def _load(g: _Gen, width: int, known_aligned: bool = False) -> None:
    """cpu.load(); address in ``a_``, result in ``v_``.

    The fast path inlines ``aspace.check``'s last-region hit (the same
    containment + permission test, without the call) and the
    single-page big-endian read; the G4 core never turns
    ``translation_on`` off (high-address faults go through the ``hdf``
    guard above instead).  Misses fall back to the real calls so
    faults are attributed identically.  ``known_aligned`` skips the
    misalignment cycle penalty when the emitter has already proven
    word alignment (lmw)."""
    g.w("if hdf is not None and a_ >= 2147483648:")
    g.w("    cpu._high_data_trap(a_)")
    if width > 1 and not known_aligned:
        g.w(f"if a_ & {width - 1}:")
        g.w("    cyc += 2")
    cell = g.bind("s", [None, None, -1])
    g.w(f"rg_ = {cell}[0]")
    g.w(f"if {cell}[1] is aspace and {cell}[2] == aspace._epoch and "
        f"rg_.start <= a_ and "
        f"a_ + {width} <= rg_.start + rg_.size and \"r\" in rg_.perm:")
    if width == 4:
        g.w("    o_ = a_ & 4095")
        g.w("    pg_ = pages.get(a_ >> 12)")
        g.w("    if pg_ is not None and o_ < 4093:")
        g.w("        v_ = (pg_[o_] << 24) | (pg_[o_ + 1] << 16) | "
            "(pg_[o_ + 2] << 8) | pg_[o_ + 3]")
        g.w("    else:")
        g.w("        v_ = mem.read_u32(a_, False)")
    elif width == 2:
        g.w("    o_ = a_ & 4095")
        g.w("    pg_ = pages.get(a_ >> 12)")
        g.w("    if pg_ is not None and o_ < 4095:")
        g.w("        v_ = (pg_[o_] << 8) | pg_[o_ + 1]")
        g.w("    else:")
        g.w("        v_ = mem.read_u16(a_, False)")
    else:
        g.w("    pg_ = pages.get(a_ >> 12)")
        g.w("    v_ = pg_[a_ & 4095] if pg_ is not None else 0")
    g.w("else:")
    g.w("    try:")
    g.w(f"        aspace.check(a_, {width}, AKR)")
    g.w("    except MF as mf:")
    g.w("        cpu._memfault(mf)")
    g.w(f"    v_ = {_READS[width]}")
    g.w(f"    {cell}[0] = aspace._last; {cell}[1] = aspace; "
        f"{cell}[2] = aspace._epoch")
    g.w("cyc += 2")
    _wp_sync(g, width, "AKR")


def _store(g: _Gen, width: int, value: str,
           known_aligned: bool = False) -> None:
    """Mirror of :func:`_load` for writes; the fast path additionally
    requires the page to be private (COW pages and misses go through
    ``mem.write_*`` which privatizes)."""
    g.w("if hdf is not None and a_ >= 2147483648:")
    g.w("    cpu._high_data_trap(a_)")
    if width > 1 and not known_aligned:
        g.w(f"if a_ & {width - 1}:")
        g.w(f'    raise PF(ALV, a_, "unaligned {width}-byte store")')
    cell = g.bind("s", [None, None, -1])
    g.w(f"rg_ = {cell}[0]")
    g.w(f"if {cell}[1] is aspace and {cell}[2] == aspace._epoch and "
        f"rg_.start <= a_ and "
        f"a_ + {width} <= rg_.start + rg_.size and \"w\" in rg_.perm:")
    g.w("    pi_ = a_ >> 12")
    g.w("    pg_ = pages.get(pi_)")
    if width == 4:
        g.w("    o_ = a_ & 4095")
        g.w("    if pg_ is not None and o_ < 4093 and pi_ not in shared_:")
        g.w(f"        pg_[o_:o_ + 4] = "
            f"(({value}) & 4294967295).to_bytes(4, \"big\")")
        g.w("    else:")
        g.w(f"        mem.write_u32(a_, {value}, False)")
    elif width == 2:
        g.w("    o_ = a_ & 4095")
        g.w("    if pg_ is not None and o_ < 4095 and pi_ not in shared_:")
        g.w(f"        t_ = {value}")
        g.w("        pg_[o_] = (t_ >> 8) & 255")
        g.w("        pg_[o_ + 1] = t_ & 255")
        g.w("    else:")
        g.w(f"        mem.write_u16(a_, {value}, False)")
    else:
        g.w("    if pg_ is not None and pi_ not in shared_:")
        g.w(f"        pg_[a_ & 4095] = ({value}) & 255")
        g.w("    else:")
        g.w(f"        mem.write_u8(a_, {value})")
    g.w("else:")
    g.w("    try:")
    g.w(f"        aspace.check(a_, {width}, AKW)")
    g.w("    except MF as mf:")
    g.w("        cpu._memfault(mf)")
    if width == 4:
        g.w(f"    mem.write_u32(a_, {value}, False)")
    elif width == 2:
        g.w(f"    mem.write_u16(a_, {value}, False)")
    else:
        g.w(f"    mem.write_u8(a_, {value})")
    g.w(f"    {cell}[0] = aspace._last; {cell}[1] = aspace; "
        f"{cell}[2] = aspace._epoch")
    g.w("cyc += 2")
    _wp_sync(g, width, "AKW")


# ---------------------------------------------------------------------------
# lowering from the instruction table


Hole = Callable[[PPCInstr, int, int], str]
Template = Tuple[str, Tuple[Hole, ...]]

#: block-mode text of each register operand, and each static operand's
#: value, for one decoded instruction
_REG_TEXT = {name: eval(f"lambda i, a, n: {text}", dict(isa.NS))
             for name, (_, text, _) in isa.REGS.items()}
_STATIC_VALUE = {name: isa.static_fn(ast.Name(name)) for name in isa.STATIC}


def _template(node: ast.AST) -> Template:
    """A body statement (or expression) as block-mode text with ``{n}``
    holes, each filled per decoded instruction (address ``a``, next
    address ``n``): register operands become ``gpr[3]``/``cpu.lr``/
    ``cr``, static operands their folded values, temporaries ``x_``
    locals; a CR field write updates the ``cr`` local."""
    holes: List[Hole] = []

    def hole(fn: Hole) -> str:
        holes.append(fn)
        return f"__h{len(holes) - 1}__"

    def name(node: ast.Name):
        if node.id in isa.STATIC:
            value = _STATIC_VALUE[node.id]
            return isa.expr(hole(lambda i, a, n: f"({value(i, a, n)!r})"))
        if node.id in isa.REGS:
            return isa.expr(hole(_REG_TEXT[node.id]))
        if node.id in isa.CONSTS or node.id in isa.PASS:
            return isa.static_names(node)
        return ast.Name(f"x_{node.id}", node.ctx)

    field = isa.assigned_name(node) if isinstance(node, ast.stmt) else None
    if field in isa.FIELDS:
        number = eval(f"lambda i: {isa.FIELDS[field]}")
        value = isa.rename(node.value, name)
        clear = hole(lambda i, a, n: str(~(0xF << 28 - 4 * number(i)) & M))
        shift = hole(lambda i, a, n: str(28 - 4 * number(i)))
        src = f"cr = cr & {clear} | ({value}) << {shift}"
    else:
        src = isa.rename(node, name)
    src = src.replace("{", "{{").replace("}", "}}")
    return re.sub(r"__h(\d+)__", r"{\1}", src), tuple(holes)


def _fill(template: Template, i, a: int, n: int) -> str:
    text, holes = template
    return text.format(*[hole(i, a, n) for hole in holes])


def _plan(stmts: List[ast.stmt]) -> list:
    """Lowering steps of a body: ("code", template), ("load", target,
    address, width), ("store", address, value, width), ("cycles", n),
    ("if", static test, then, else), and ("generic",) for a statement
    only the step executor runs (faults, supervisor state)."""
    steps: list = []
    for s in stmts:
        calls = [c for c in map(isa.helper, ast.walk(s)) if c is not None]
        value = getattr(s, "value", None)
        if isinstance(s, ast.If) and isa.is_static(s.test):
            steps.append(("if", isa.static_fn(s.test), _plan(s.body),
                          _plan(s.orelse)))
        elif isinstance(s, ast.AugAssign):               # cycles += n
            steps.append(("cycles", s.value.value))
        elif calls == ["load"] and isinstance(s, ast.Assign) \
                and isa.helper(value) == "load":
            addr, width = value.args
            steps.append(("load", _template(s.targets[0]), _template(addr),
                          width.value))
        elif calls == ["store"] and isa.helper(value) == "store":
            addr, data, width = value.args
            steps.append(("store", _template(addr), _template(data),
                          width.value))
        elif calls:
            steps.append(("generic",))
        else:
            steps.append(("code", _template(s)))
    return steps


def _live(steps: list, i, a: int, n: int) -> list:
    """The steps one decoded instruction runs: static ifs resolved."""
    out = []
    for step in steps:
        if step[0] == "if":
            out += _live(step[2] if step[1](i, a, n) else step[3], i, a, n)
        else:
            out.append(step)
    return out


def _lower(g: _Gen, i, a: int, n: int, k: int) -> bool:
    plan = _PLANS.get(i.execute)
    if plan is None:
        plan = _PLANS[i.execute] = _plan(isa.op_of(i).body)
    steps = _live(plan, i, a, n)
    if any(step[0] == "generic" for step in steps):
        return False
    if any(step[0] in ("load", "store") for step in steps):
        g.entry(a, n, k)
    for step in steps:
        if step[0] == "code":
            for line in _fill(step[1], i, a, n).split("\n"):
                g.w(line)
        elif step[0] == "cycles":
            g.pend += step[1]
            g.max_cycles += step[1]
        elif step[0] == "load":
            g.w(f"a_ = {_fill(step[2], i, a, n)}")
            _load(g, step[3])
            g.w(f"{_fill(step[1], i, a, n)} = v_")
        else:
            g.w(f"a_ = {_fill(step[1], i, a, n)}")
            _store(g, step[3], _fill(step[2], i, a, n))
    return True



# -- lmw/stmw -----------------------------------------------------------------


def _multiple_addr(i) -> str:
    if i.ra:
        return f"(gpr[{i.ra}] + {i.imm}) & 4294967295"
    return str(i.imm & M)


def _e_lmw(g, i, a, n, k) -> bool:
    """Unrolled load-multiple: rt..r31, word count known at decode time
    so the cycle cost is bounded (2 per word after the alignment
    check, exactly like the per-word cpu.load calls)."""
    g.entry(a, n, k)
    g.w(f"a_ = {_multiple_addr(i)}")
    g.w("if a_ & 3:")
    g.w('    raise PF(ALV, a_, "lmw operand not aligned")')
    for reg in range(i.rt, 32):
        _load(g, 4, known_aligned=True)
        g.w(f"gpr[{reg}] = v_")
        if reg != 31:
            g.w("a_ = (a_ + 4) & 4294967295")
    g.max_cycles += (32 - i.rt) * 2
    return True


def _e_stmw(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    g.w(f"a_ = {_multiple_addr(i)}")
    g.w("if a_ & 3:")
    g.w('    raise PF(ALV, a_, "stmw operand not aligned")')
    for reg in range(i.rt, 32):
        _store(g, 4, f"gpr[{reg}]", known_aligned=True)
        if reg != 31:
            g.w("a_ = (a_ + 4) & 4294967295")
    g.max_cycles += (32 - i.rt) * 2
    return True


# -- branches (block-final) --------------------------------------------------


def _taken_branch(g: _Gen, target: str) -> None:
    """Emit the taken path: BTIC check (cpu.branch raises the PROGRAM
    fault itself when poisoned), then the pc update + 2 cycles."""
    g.w("    if cpu.btic_poisoned:")
    g.w("        cpu.branch(0)")
    g.w(f"    cpu.pc = {target}")
    g.w("    cyc += 2")


def _e_b(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    if i.op2 & 1:
        g.w(f"cpu.lr = {n}")
    target = i.imm if i.op2 & 2 else (a + i.imm) & M
    g.w("if cpu.btic_poisoned:")
    g.w("    cpu.branch(0)")
    g.w(f"cpu.pc = {target & 0xFFFFFFFC}")
    g.w("cyc += 2")
    g.pc_done = True
    return True


def _bc_cond(g: _Gen, bo: int, bi: int) -> str:
    """Decompose _bc_taken for constant bo/bi; emits the CTR decrement
    and returns the taken expression ('True' when unconditional)."""
    conds = []
    if not bo & 0x4:
        g.w("cpu.ctr = (cpu.ctr - 1) & 4294967295")
        conds.append("cpu.ctr == 0" if bo & 0x2 else "cpu.ctr != 0")
    if not bo & 0x10:
        bit = f"(cr >> {31 - (bi & 31)}) & 1"
        conds.append(bit if bo & 0x8 else f"not {bit}")
    return " and ".join(conds) if conds else "True"


def _e_bc(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    if i.op2 & 1:
        g.w(f"cpu.lr = {n}")
    cond = _bc_cond(g, i.rt, i.ra)
    target = i.imm if i.op2 & 2 else (a + i.imm) & M
    g.w(f"if {cond}:")
    _taken_branch(g, str(target & 0xFFFFFFFC))
    if cond != "True":
        g.w("else:")
        g.w(f"    cpu.pc = {n}")
    g.pc_done = True
    return True


def _e_bclr(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    cond = _bc_cond(g, i.rt, i.ra)
    g.w(f"tk_ = {cond}")
    g.w("t_ = cpu.lr & 4294967292")
    if i.op2 & 1:
        g.w(f"cpu.lr = {n}")
    g.w("if tk_:")
    _taken_branch(g, "t_")
    g.w("else:")
    g.w(f"    cpu.pc = {n}")
    g.pc_done = True
    return True


def _e_bcctr(g, i, a, n, k) -> bool:
    g.entry(a, n, k)
    cond = _bc_cond(g, i.rt | 0x4, i.ra)    # bcctr never decrements CTR
    g.w(f"if {cond}:")
    if i.op2 & 1:
        g.w(f"    cpu.lr = {n}")
    g.w("    if cpu.btic_poisoned:")
    g.w("        cpu.branch(0)")
    g.w("    cpu.pc = cpu.ctr & 4294967292")
    g.w("    cyc += 2")
    if cond != "True":
        g.w("else:")
        g.w(f"    cpu.pc = {n}")
    g.pc_done = True
    return True



#: rows whose block code is written out here rather than derived:
#: block-final branches, and lmw/stmw (register count unrolled)
_FINAL = {"b": _e_b, "bc": _e_bc, "bclr": _e_bclr, "bcctr": _e_bcctr}
_EXPLICIT = {"lmw": _e_lmw, "stmw": _e_stmw}

#: lowering plan per row, built on first use
_PLANS: dict = {}


def _emit_generic(g: _Gen, i, a: int, n: int, k: int, final: bool) -> None:
    g.entry(a, n, k)
    fn = g.bind("f", i.execute)
    obj = g.bind("i", i)
    g.w("cpu.current_pc = cur")
    g.w("cpu.pc = nxt")
    g.w("cpu.cycles = cyc")
    g.w(f"cpu.instret = ins + {k}")
    g.w("cpu.cr = cr")
    g.w("synced = True")
    g.w(f"{fn}(cpu, {obj})")
    if final:
        g.w(f"cpu.cycles += {i.cycles}")
        g.w(f"cpu.instret = ins + {k + 1}")
        g.w("return")
        g.returned = True
    else:
        g.w(f"cyc = cpu.cycles + {i.cycles}")
        g.w("cr = cpu.cr")
        g.w("synced = False")
    g.max_cycles += i.cycles + GENERIC_SLACK


def generate(nodes: List[Tuple[int, object]], ends_hard: bool):
    g = _Gen()
    start = nodes[0][0]
    n0 = (start + 4) & M
    total = len(nodes)
    for k, (a, instr) in enumerate(nodes):
        n = (a + 4) & M
        name = isa.op_of(instr).name
        final = ends_hard and k == total - 1
        if final:
            inline = name in _FINAL and _FINAL[name](g, instr, a, n, k)
        else:
            inline = _EXPLICIT.get(name, _lower)(g, instr, a, n, k)
        if inline:
            g.pend += instr.cycles
            g.max_cycles += instr.cycles + INLINE_SLACK
        else:
            _emit_generic(g, instr, a, n, k, final=final)
    last_a = nodes[-1][0]
    if not g.returned:
        g.flush()
        g.w("cpu.cycles = cyc")
        g.w(f"cpu.instret = ins + {total}")
        g.w("cpu.cr = cr")
        g.w(f"cpu.current_pc = {last_a}")
        if not g.pc_done:
            g.w(f"cpu.pc = {(last_a + 4) & M}")
    src = "\n".join([
        "def _block(cpu):",
        "    gpr = cpu.gpr",
        "    mem = cpu.mem",
        "    pages = mem._pages",
        "    shared_ = mem._shared",
        "    aspace = cpu.aspace",
        "    debug = cpu.debug",
        "    cyc = cpu.cycles",
        "    ins = cpu.instret",
        "    cr = cpu.cr",
        "    hdf = cpu._high_data_fault",
        f"    cur = {start}",
        f"    nxt = {n0}",
        "    ri = 0",
        "    synced = False",
        "    try:",
    ] + g.lines + [
        "        pass",
        "    except BaseException:",
        "        if not synced:",
        "            cpu.cycles = cyc",
        "            cpu.instret = ins + ri",
        "            cpu.cr = cr",
        "            cpu.current_pc = cur",
        "            cpu.pc = nxt",
        "        raise",
    ])
    code = compile(src, f"<ppc-block@{start:#x}>", "exec")
    exec(code, g.ns)
    return g.ns["_block"], g.max_cycles
