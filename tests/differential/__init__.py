"""Differential harness: serial vs parallel vs analytic cross-validation.

Each module pins one family of guarantees:

- ``test_serial_parallel_identity`` - the parallel engine is a pure
  refactoring of the serial loop: byte-identical results and checkpoint
  files for any worker count;
- ``test_kill_resume`` - a campaign SIGKILLed mid-flight resumes under a
  *different* worker count bit-identical to an uninterrupted run;
- ``test_fast_vs_hardware`` - the vectorized order-statistics simulator
  and the stateful switch-by-switch simulator agree statistically on a
  seeded design grid;
- ``test_service_batching`` - coalesced multi-tenant service rounds are
  byte-identical to sequential handling (responses, wear arrays, WAL),
  with and without fault models;
- ``test_service_recovery`` - a SIGKILLed service instance recovers its
  exact wear history from the durable ledger, truncating (never
  absorbing) a torn trailing WAL record;
- ``test_fault_vector_identity``, ``test_replay_identity`` and
  ``test_hub_readout`` - the batched fault, replay, drain and hub
  readout paths are bit-identical to the scalar reference arms in
  ``_reference``, which exist only here;
- ``test_grouped_replay`` - recovery's grouped WAL replay is
  bit-identical to the one-record-per-call reference in ``_reference``
  and to the hub that never crashed.
"""
