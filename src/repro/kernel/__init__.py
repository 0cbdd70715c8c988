"""The miniature Linux-like kernel and its build machinery.

The kernel proper is written once in the kcc DSL (``source/*.kc``) and
compiled for both target architectures by :func:`repro.kernel.build.
build_kernel` into a :class:`repro.kernel.image.KernelImage`.  The
subsystem split mirrors the kernel tree the paper profiles: ``lib``,
``spinlock`` (arch), ``sched`` (kernel/), ``mm``, ``fs``, ``net``,
``ipc``, and the syscall table.
"""
