"""Execute a declarative settings-file pipeline, one run row per step.

``repro pipeline run settings.toml`` loads a
:class:`~repro.runs.settings.PipelineSettings`, records one ``pipeline``
run row, then executes the step DAG in topological order.  A step is
the ``repro <kind>`` command line its keys name (see
:mod:`repro.runs.settings`): it is parsed by the CLI's own parser and
run by the CLI's own handler through :func:`repro.cli.main.run_command`,
so a step does exactly what the same command does at a shell.  The
pipeline fills in only what a step leaves unset: ``--seed`` (the
pipeline seed), ``--runs-db`` (the pipeline's registry) and output
paths under the workdir (``bench --out <step>.json``, ``faults
--checkpoint <step>.ckpt``, and ``--root <step>`` plus ``--json-out
<step>.json`` for ``chaos`` and ``fleet``).  Every step is checked
before anything runs, so a key its subcommand lacks fails the pipeline
up front instead of being ignored or failing mid-run.

Each step records its own run row (subcommand = its kind, ``parent_id``
= the pipeline row) with the step's resolved parameters and the
summary, artifacts and child rows its handler records.  Its stdout is
tee'd to ``<workdir>/<step>.<run id[:12]>.txt`` and registered as an
artifact of the step whether the step succeeds or fails.

Resume: a pipeline's identity is the SHA-256 digest of its settings
text.  ``--resume`` finds the most recent pipeline row with the same
digest, reopens it, and skips every step whose prior run recorded
outcome ``ok`` with identical resolved parameters - a failed or
SIGKILL'd pipeline picks up exactly where it stopped, never re-running
(or double-recording) completed work.

A step failure finalizes the step row ``failed``, marks the pipeline
row ``failed``, and stops the pipeline; steps after the failure stay
unrecorded so resume re-plans them.
"""

from __future__ import annotations

import contextlib
import os
import shlex
import sys
import time

from repro.errors import ConfigurationError
from repro.runs.recorder import RunRecorder
from repro.runs.settings import (
    PipelineSettings,
    PipelineStep,
    load_settings,
)
from repro.runs.store import RunStore, params_digest

__all__ = ["run_pipeline", "plan_pipeline"]

#: Step keys passed as the subcommand's positionals, not as flags.
_POSITIONALS = ("action", "what", "ids")

#: Output flags pointed into the workdir unless a step sets them, as
#: flag key -> suffix after the step name.
_OUTPUTS = {
    "bench": {"out": ".json"},
    "faults": {"checkpoint": ".ckpt"},
    "chaos": {"root": "", "json_out": ".json"},
    "fleet": {"root": "", "json_out": ".json"},
}


def _step_argv(step: PipelineStep, workdir: str) -> list[str]:
    """The ``repro`` command line a step names, outputs filled in."""
    keys = {key: os.path.join(workdir, step.name + suffix)
            for key, suffix in _OUTPUTS.get(step.kind, {}).items()}
    keys.update((key, value) for key, value in step.params.items()
                if key != "seed")
    argv = [step.kind]
    for key in _POSITIONALS:
        value = keys.pop(key, [])
        argv += map(str, value if isinstance(value, list) else [value])
    for key, value in keys.items():
        flag = "--" + key.replace("_", "-")
        for item in value if isinstance(value, list) else [value]:
            if item is True:
                argv.append(flag)
            elif item is not False:
                argv += [flag, str(item)]
    return argv


def _parse_steps(settings: PipelineSettings, workdir: str) -> list:
    """``(step, args)`` in execution order; a bad step raises by name.

    argparse never sees a ``false`` key and accepts an abbreviated
    flag, so each key must also be a dest (a ``false`` one a switch).
    """
    from repro.cli.main import build_parser

    parser = build_parser()
    parsed = []
    for step in settings.ordered_steps():
        argv = _step_argv(step, workdir)
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            raise ConfigurationError(
                f"step {step.name!r} is not a valid command line: "
                f"repro {shlex.join(argv)}") from None
        for key, value in step.params.items():
            if key != "seed" and (not hasattr(args, key) or (
                    value is False
                    and not isinstance(getattr(args, key), bool))):
                raise ConfigurationError(
                    f"step {step.name!r}: repro {step.kind} has no "
                    f"{'switch' if value is False else 'flag'} {key!r}")
        if getattr(args, "no_record", False):
            raise ConfigurationError(
                f"step {step.name!r}: a pipeline step is always "
                f"recorded, so it takes no no_record")
        parsed.append((step, args))
    return parsed


class _Tee:
    """A stdout stand-in that writes to several text streams at once."""

    def __init__(self, *streams) -> None:
        self._streams = streams

    def write(self, text: str) -> int:
        for stream in self._streams:
            stream.write(text)
        return len(text)

    def flush(self) -> None:
        for stream in self._streams:
            stream.flush()


# ----------------------------------------------------------------------
def plan_pipeline(settings: PipelineSettings) -> list[dict]:
    """The execution plan as rows (step, kind, after, seed).

    Parses every step's command line, so an invalid step raises
    :class:`ConfigurationError` here, as it would before a run.
    """
    return [{"step": step.name, "kind": step.kind,
             "after": list(step.after),
             "seed": step.params.get("seed", settings.seed)}
            for step, _ in _parse_steps(settings, settings.workdir)]


def run_pipeline(settings_path: str, *, db_path: str | None = None,
                 resume: bool = False,
                 workdir: str | None = None) -> dict:
    """Run (or resume) one settings-file pipeline; returns its report.

    The report lists each step with its action (``ok``, ``skipped``,
    ``failed``), run id and summary, plus the pipeline run id and final
    outcome.  Raises nothing for a step failure - the failure lives in
    the report (and the database); configuration errors still raise.
    """
    from repro.cli.main import run_command

    settings = load_settings(settings_path)
    effective_workdir = workdir or settings.workdir
    commands = _parse_steps(settings, effective_workdir)
    os.makedirs(effective_workdir, exist_ok=True)
    with RunStore(db_path) as store:
        store.resolve_interrupted()
        pipeline_params = {
            "pipeline": settings.name,
            "settings_path": os.path.abspath(settings_path),
            "settings_digest": settings.digest,
            "steps": [step.name for step in settings.steps],
        }
        prior_ok: dict[str, dict] = {}
        pipeline_id = None
        if resume:
            # The most recent pipeline run with the same settings digest.
            previous = store.latest_run(
                "pipeline", outcome=None,
                params_subset={"settings_digest": settings.digest})
            if previous is not None:
                pipeline_id = previous["id"]
                store.reopen_run(pipeline_id)
                prior_ok = {
                    child["params_digest"]: child
                    for child in store.children(pipeline_id)
                    if child["outcome"] == "ok"}
        if pipeline_id is None:
            pipeline_id = store.begin_run("pipeline", pipeline_params,
                                          seed=settings.seed)
        started = time.time()
        steps_report: list[dict] = []
        failure: str | None = None
        for step, args in commands:
            resolved = {"step": step.name, "kind": step.kind,
                        "pipeline": settings.name, "seed": settings.seed,
                        **step.params}
            seed = resolved["seed"]
            recorded = prior_ok.get(params_digest(resolved))
            if recorded is not None:
                steps_report.append({
                    "step": step.name, "kind": step.kind,
                    "action": "skipped", "run_id": recorded["id"],
                    "summary": recorded["summary"]})
                print(f"pipeline step {step.name!r}: skipped "
                      f"(recorded ok as {recorded['id'][:12]})")
                continue
            print(f"pipeline step {step.name!r}: running "
                  f"({step.kind}, seed {seed})")
            if hasattr(args, "seed"):
                args.seed = seed
            if args.runs_db is None:
                args.runs_db = store.path
            recorder = RunRecorder(step.kind, resolved, seed=seed,
                                   parent_id=pipeline_id,
                                   db_path=store.path)
            row = {"step": step.name, "kind": step.kind, "action": "ok"}
            try:
                with recorder:
                    # One log per attempt: a re-run never overwrites a
                    # log an earlier row registered.
                    name = step.name if recorder.run_id is None else \
                        f"{step.name}.{recorder.run_id[:12]}"
                    log_path = os.path.join(effective_workdir,
                                            name + ".txt")
                    try:
                        with open(log_path, "w", encoding="utf-8") as log, \
                                contextlib.redirect_stdout(
                                    _Tee(sys.stdout, log)):
                            code = run_command(args, recorder)
                    finally:
                        recorder.add_artifact(log_path)
            except (KeyboardInterrupt, SystemExit) as exc:
                # The step row is already finalized ``interrupted`` by
                # its recorder; mirror that on the pipeline row before
                # propagating so resume sees a consistent state.
                store.finish_run(
                    pipeline_id, "interrupted",
                    error=f"interrupted during step {step.name!r}: "
                          f"{exc!r}")
                raise
            except Exception as exc:  # noqa: BLE001 - recorded, reported
                row.update(action="failed", run_id=recorder.run_id,
                           error=str(exc))
            else:
                # A completed step can still declare its result a
                # failure (ceiling violations, chaos invariant breaks,
                # a nonzero exit).
                row.update(run_id=recorder.run_id, summary=recorder.summary)
                if code or recorder.failure is not None:
                    row.update(action="failed", error=recorder.failure
                               or f"{step.kind} exited {code}")
            steps_report.append(row)
            if row["action"] == "failed":
                failure = f"step {step.name!r} failed: {row['error']}"
                break
        outcome = "failed" if failure else "ok"
        report = {
            "pipeline": settings.name,
            "pipeline_id": pipeline_id,
            "outcome": outcome,
            "error": failure,
            "elapsed_s": time.time() - started,
            "workdir": effective_workdir,
            "steps": steps_report,
        }
        store.finish_run(
            pipeline_id, outcome, error=failure,
            summary={"steps": [{key: row.get(key) for key in
                                ("step", "kind", "action", "run_id")}
                               for row in steps_report],
                     "workdir": effective_workdir})
        return report
