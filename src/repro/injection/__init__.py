"""NFTAPE-style fault/error injection framework.

Implements the paper's automated three-step process (Figure 2):

1. **Generate injection targets** (:mod:`repro.injection.targets`) —
   code breakpoint locations from the profiled hot functions, random
   stack/data locations, and system registers;
2. **Inject errors** (:mod:`repro.injection.injector`) — instruction
   breakpoints for code (error inserted when the target is fetched),
   data watchpoints for stack/data (activation = the first access;
   write-first errors are re-injected), scheduled actions for registers;
3. **Collect data** (:mod:`repro.injection.collector`,
   :mod:`repro.injection.campaign`) — outcome classification, crash
   dumps over the lossy channel, and campaign statistics.
"""
