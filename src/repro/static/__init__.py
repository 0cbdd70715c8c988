"""Static error-sensitivity analysis of the compiled kernel images.

The dynamic campaigns (:mod:`repro.injection`) *measure* what a bit
flip in kernel text does; this package *predicts* it without executing
anything, from the compiled images alone:

* :mod:`repro.static.cfg` — cross-ISA control-flow graphs over the
  decoded text sections (basic blocks split at branches, calls, and
  returns; intra-function reachability);
* :mod:`repro.static.effects` — per-ISA def/use and side-effect model
  of every decoded instruction (the tables behind the dataflow);
* :mod:`repro.static.liveness` — backward register- and
  condition-flag-liveness over the CFG;
* :mod:`repro.static.corruption` — for every (text address, bit), the
  decode-level consequence of flipping it (illegal opcode, length
  change, opcode/operand substitution, no decode change);
* :mod:`repro.static.sinks` — failure-sink taxonomy: the program
  points where a wrong register value becomes observable behaviour
  (address computations, stores, control transfers, supervisor
  state, trap operands, return values);
* :mod:`repro.static.taint` — interprocedural, flow-sensitive taint
  propagation from a corruption site to the first sink (or a proof
  that the taint dies on every path), with memoized call summaries
  and a static distance-to-sink bound;
* :mod:`repro.static.predictor` — folds reachability + liveness +
  corruption class + taint verdict into a per-bit predicted outcome,
  emitted as a :class:`repro.static.report.StaticSensitivityReport`.

``analysis.validate_static`` compares a report against a dynamic
``CampaignResult``, and checks that the report's provably-dead bits
and its taint-proven-masked superset never manifest when injected.
"""
