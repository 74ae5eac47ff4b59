"""Run registry, declarative pipelines, and cross-run reporting.

Every invocation of a ``repro`` subcommand that takes ``--no-record``
records itself in a SQLite registry (``runs.db``, WAL mode, safe under
concurrent writers): run id, parent pipeline, resolved params, seed,
git provenance, host, timestamps, outcome, and the artifacts it wrote
(with SHA-256 digests).  On top of the registry sit:

- :mod:`repro.runs.provenance` - git rev/dirty flag, host, toolchain
  versions, shared by the registry and ``BENCH_*.json`` metadata
- :mod:`repro.runs.store` / :mod:`repro.runs.recorder` - the database
  and the context manager that records one invocation
- :mod:`repro.runs.settings` / :mod:`repro.runs.pipeline` - the
  declarative multi-step campaign runner (``repro pipeline run``),
  whose steps are ``repro`` command lines run by the CLI's own
  handlers, with resume that skips recorded-ok steps
- :mod:`repro.runs.report` - cross-run comparisons rendered from the
  database alone (``repro report``)
"""

from __future__ import annotations

from repro.runs.pipeline import plan_pipeline, run_pipeline
from repro.runs.provenance import collect_provenance, git_provenance
from repro.runs.recorder import RunRecorder
from repro.runs.report import compare_bench_runs, render_bench_delta
from repro.runs.settings import (
    PipelineSettings,
    PipelineStep,
    load_settings,
    parse_settings,
)
from repro.runs.store import RUNS_DB_ENV, RunStore, default_db_path

__all__ = [
    "PipelineSettings",
    "PipelineStep",
    "RUNS_DB_ENV",
    "RunRecorder",
    "RunStore",
    "collect_provenance",
    "compare_bench_runs",
    "default_db_path",
    "git_provenance",
    "load_settings",
    "parse_settings",
    "plan_pipeline",
    "render_bench_delta",
    "run_pipeline",
]
