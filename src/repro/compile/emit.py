"""Emission machinery shared by both block generators.

A generator names its architecture's state to :class:`Gen` (the
register file, the flags, the pc attributes, the byte order) and
supplies one function that emits a superblock's instruction bodies;
:func:`unit` turns one or more such superblocks into one compiled
function, ``fn(cpu, ilim=0, clim=0)``.

* A **plain unit** is one superblock: its body, then the exit sync.
* A **region** is a cycle of superblocks (its *members*).  The function
  loops over them with a local dispatch on ``pc``: after each member it
  advances ``ins`` by the member's instruction count, and runs the next
  member only when that member's address is one of its static
  successors and the dispatch loop's own checks would let it run —
  ``ins + n <= ilim`` (budget and next pending action) and
  ``cyc + max_cycles <= clim`` (watchdog).  Otherwise it writes the
  state back and returns.  The entry member always runs: the dispatch
  loop checked it.  With the default limits exactly one member runs.

Inside a body ``cur``/``nxt``/``ri`` hold what ``current_pc``/``pc``/
the retired count would be mid-step; each member resets them on entry
(unless its first instruction's own sync point does), so a fault
leaves exactly the step core's partial-retirement state.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Sequence, Tuple

from repro.isa.codecache import cached
from repro.isa.faults import AccessKind, MemoryFault
from repro.isa.memory import WORD

M = 0xFFFFFFFF

#: one member: its (addr, instr) nodes, whether its last instruction is
#: a terminator/system instruction, and its static successors that are
#: members (empty for a plain unit)
Member = Tuple[List[Tuple[int, object]], bool, Tuple[int, ...]]


def instr_key(cls: type, row: Callable[[object], object]) -> Callable:
    """The cache key of a decoded *cls* instruction: the name of its
    row (from ``row(instr)``, a table row with a ``name``), then every
    other slot."""
    others = attrgetter(*[slot for slot in cls.__slots__
                          if slot != "execute"])
    return lambda instr: (row(instr).name,) + others(instr)


class Gen:
    """Line buffer, bound-name namespace and batched cycle counter.

    The class attributes name the architecture's state; the defaults
    are x86's, and ``gen_ppc`` overrides them."""

    #: byte order, for repro.compile.access
    little = True
    #: the register file's attribute (also its local's name)
    regs = "regs"
    #: the flags' local and attribute
    flags = ("ef", "eflags")
    #: the current-pc and pc attributes
    pcs = ("current_eip", "eip")
    #: the entry address, read from the CPU by a region's function
    entry_pc = "cpu.eip"
    #: extra prologue lines
    prologue: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.lines: List[str] = []
        word = WORD[self.little]
        self.ns: Dict[str, object] = {
            "__builtins__": {},
            # the skeleton's except clause must resolve this even
            # though the namespace has no builtins
            "BaseException": BaseException,
            "MF": MemoryFault,
            "AKR": AccessKind.READ,
            "AKW": AccessKind.WRITE,
            "unpack_from": word.unpack_from,
            "pack_into": word.pack_into,
        }
        self.pend = 0               # batched static cycles
        self.max_cycles = 0
        self.pc_done = False        # a final branch already set pc
        self.returned = False       # generic-final emitted a return
        #: the generically-run instructions, in call order
        self.calls: List[object] = []
        self.sync = self.state("cur", "nxt", "ins + ri")

    def state(self, cur: str, nxt: str, instret: str) -> str:
        """The line writing the locals back to the CPU: the watchpoint
        hook's sync, the fault trailer and every exit."""
        flags, attr = self.flags
        cur_attr, pc_attr = self.pcs
        return (f"cpu.cycles = cyc; cpu.instret = {instret}; "
                f"cpu.{attr} = {flags}; cpu.{cur_attr} = {cur}; "
                f"cpu.{pc_attr} = {nxt}")

    def w(self, line: str) -> None:
        self.lines.append(line)

    def call(self, instr) -> Tuple[str, str]:
        """The global names of a generically-run instruction's executor
        and decoded instruction; :func:`unit` binds them."""
        j = len(self.calls)
        self.calls.append(instr)
        return f"f{2 * j}", f"i{2 * j + 1}"

    def flush(self) -> None:
        if self.pend:
            self.w(f"cyc += {self.pend}")
            self.pend = 0

    def entry(self, a: int, n: int, k: int) -> None:
        """Sync point opening a fault-capable instruction body."""
        self.flush()
        self.w(f"cur = {a}; nxt = {n}; ri = {k}")


def unit(g: Gen, members: Sequence[Member],
         body: Callable[[Gen, list, bool], None],
         length: Callable[[object], int], key: Callable[[object], tuple],
         tag: str):
    """Compile *members* into one function; returns (fn, [max_cycles of
    each member]).  *body* emits one member's instructions into ``g``;
    *key* gives a decoded instruction's cache key.  The code comes from
    the code cache, filed under every member's nodes (address and
    ``key``), end and successors, so a cached unit generates no text."""
    flat = [instr for nodes, _hard, _succs in members
            for _addr, instr in nodes]
    name = f"<{tag}@{members[0][0][0][0]:#x}>"
    code, max_cycles, calls = cached(
        name, tuple((tuple((addr,) + key(instr) for addr, instr in nodes),
                     hard, succs) for nodes, hard, succs in members),
        lambda: _generate(g, members, body, length, flat, name))
    for j, position in enumerate(calls):
        g.ns[f"f{2 * j}"] = flat[position].execute
        g.ns[f"i{2 * j + 1}"] = flat[position]
    exec(code, g.ns)
    return g.ns["_unit"], list(max_cycles)


def _generate(g: Gen, members: Sequence[Member],
              body: Callable[[Gen, list, bool], None],
              length: Callable[[object], int], flat: list, name: str):
    """(code, max_cycles of each member, flat node position of each
    generically-run instruction in call order) of one unit."""
    emitted = []
    for nodes, ends_hard, _succs in members:
        g.lines, g.max_cycles = [], 0
        g.pc_done = g.returned = False
        body(g, nodes, ends_hard)
        g.flush()
        emitted.append((g.lines, g.max_cycles, g.pc_done, g.returned))
    region = any(succs for _nodes, _hard, succs in members)
    sized = {nodes[0][0]: (len(nodes), out[1])
             for (nodes, _hard, _succs), out in zip(members, emitted)}
    flags, flags_attr = g.flags
    src = ["def _unit(cpu, ilim=0, clim=0):",
           f"    {g.regs} = cpu.{g.regs}",
           "    mem = cpu.mem",
           "    rtlb = mem.rtlb",
           "    wtlb = mem.wtlb",
           "    aspace = cpu.aspace",
           "    debug = cpu.debug",
           "    cyc = cpu.cycles",
           "    ins = cpu.instret",
           f"    {flags} = cpu.{flags_attr}"]
    src += ["    " + line for line in g.prologue]
    if region:
        src.append(f"    pc = {g.entry_pc}")
    src += ["    synced = False",
            "    try:"]
    if region:
        src.append("        while True:")
    for (nodes, _hard, succs), (lines, _mc, pc_done, returned) \
            in zip(members, emitted):
        start, first = nodes[0]
        last_a, last_i = nodes[-1]
        after = (last_a + length(last_i)) & M
        n = len(nodes)
        reset = f"cur = {start}; nxt = {(start + length(first)) & M}; ri = 0"
        out = lines if lines[:1] == [reset] else [reset] + lines
        if returned:
            pass
        elif not region:
            out.append(g.state(str(last_a), "pc" if pc_done else str(after),
                               f"ins + {n}"))
        else:
            if not pc_done:
                out.append(f"pc = {after}")
            out.append(f"ins += {n}")
            for succ in succs:
                succ_n, succ_cycles = sized[succ]
                out += [f"if pc == {succ}:",
                        f"    if ins + {succ_n} <= ilim"
                        f" and cyc + {succ_cycles} <= clim:",
                        "        continue"]
            out += [g.state(str(last_a), "pc", "ins"), "return"]
        if region:
            src.append(f"            if pc == {start}:")
            src += ["                " + line for line in out]
        else:
            src += ["        " + line for line in out]
    src += ["    except BaseException:",
            "        if not synced:",
            f"            {g.sync}",
            "        raise"]
    position = {id(instr): p for p, instr in enumerate(flat)}
    return (compile("\n".join(src), name, "exec"),
            tuple(out[1] for out in emitted),
            tuple(position[id(instr)] for instr in g.calls))
