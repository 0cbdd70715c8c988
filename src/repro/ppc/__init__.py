"""G4-like PowerPC (MPC7455) simulator.

This package models the architectural features of the Motorola PowerPC
G4 that the paper holds responsible for its error-sensitivity profile:

* fixed 32-bit instruction encodings with a sparse opcode space, so a
  bit flip usually produces an *undefined* encoding (Illegal
  Instruction) rather than a different valid instruction;
* a large register file (32 GPRs), letting compiled code keep locals in
  callee-saved registers — values live long, so corrupted code output
  may not be consumed for many cycles (long code-error latency);
* word-oriented memory access: the kcc PPC backend reads and writes
  every struct field as a full 32-bit word, so small fields are sparse
  and flips of their unused high bits are masked;
* the PowerPC exception model: DSI ("kernel access of bad area"), ISI,
  Program (illegal instruction), Alignment, Machine Check — the crash
  cause categories of the paper's Table 4;
* a supervisor SPR file of 99 registers of which only a handful (MSR,
  SDR1, SPRG2, HID0, BATs) have behavioural consequences.
"""
