"""UnixBench-like workload: programs, driver, profiler, clean-run probe.

The paper uses the UnixBench suite to (a) exercise the kernel functions
that represent at least 95% of kernel usage and (b) detect fail-silence
violations through instrumented output checks.  This package provides
the same two capabilities against the simulated kernel:

* :mod:`repro.workload.programs` — syscall-driving benchmark programs
  (fstime, pipe throughput, syscall loop, context switching, shell mix)
  each validating its own results;
* :mod:`repro.workload.driver` — the executive that interleaves user
  programs and kernel threads under the kernel's own scheduler;
* :mod:`repro.workload.probe` — the one observed clean pass, whose
  access trace and executed-address set drive activation screening
  and whose PC samples feed the profiler;
* :mod:`repro.workload.profiler` — kernprof-style attribution of those
  samples to kernel functions, used to pick code-injection targets.
"""

from repro.workload.driver import UnixBenchDriver, WorkloadResult
from repro.workload.probe import CleanRunProbe, probe_clean_run
from repro.workload.profiler import FunctionProfile, profile_kernel

__all__ = [
    "UnixBenchDriver", "WorkloadResult",
    "CleanRunProbe", "probe_clean_run",
    "FunctionProfile", "profile_kernel",
]
