"""P4-like IA-32 simulator.

This package models the architectural features of the Intel Pentium 4
that the paper holds responsible for its error-sensitivity profile:

* variable-length instruction encodings (1-8 bytes in our subset), so a
  single bit flip can re-synchronize the instruction stream into a
  different sequence of valid-but-wrong instructions (paper Figure 14);
* a small register file (8 GPRs), forcing compilers to keep locals on
  the stack and producing dense 8/16/32-bit memory traffic;
* the IA-32 exception model: #DE, #BR, #UD, #GP, #PF, #TS — the crash
  cause categories of the paper's Table 3;
* no architectural stack-overflow detection: a corrupted stack pointer
  silently propagates until some dereference faults (paper Section 5.1).
"""
