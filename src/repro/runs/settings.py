"""Declarative pipeline settings: a TOML file naming a DAG of steps.

Format::

    [pipeline]
    name = "nightly"          # required
    seed = 0                  # default seed for steps that take one
    workdir = "pipeline-out"  # artifact directory (default: <name>-out)

    [steps.bench-a]
    kind = "bench"            # bench|faults|chaos|experiments|fleet|report
    scale = "tiny"

    [steps.campaign]
    kind = "faults"
    after = ["bench-a"]       # DAG edges; omit for a root step
    trials = 2
    alpha = 9.0
    beta = 6.0
    k_fraction = 0.1          # --k-fraction 0.1
    paper_criteria = true     # a bare --paper-criteria switch

A step is the ``repro <kind>`` command line its keys name: every key
other than ``kind``, ``after`` and ``seed`` is a flag of that
subcommand (a list repeats the flag), except ``action``, ``what`` and
``ids``, which are its positionals.  ``seed`` (an integer) overrides the
pipeline seed for the step.  :mod:`repro.runs.pipeline` builds and
checks the command lines; this module parses the file with
:mod:`tomllib` and validates the DAG.
"""

from __future__ import annotations

import hashlib
import tomllib
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["PipelineSettings", "PipelineStep", "load_settings",
           "parse_settings"]

#: Step kinds the pipeline runner knows how to execute.
KNOWN_KINDS = ("bench", "faults", "chaos", "experiments", "fleet",
               "report")


@dataclass(frozen=True)
class PipelineStep:
    """One named step: what to run, after which steps, with what params."""

    name: str
    kind: str
    after: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PipelineSettings:
    """A parsed, validated pipeline definition."""

    name: str
    seed: int
    workdir: str
    steps: tuple[PipelineStep, ...]
    digest: str  # sha256 of the settings text - the resume identity

    def ordered_steps(self) -> list[PipelineStep]:
        """Steps in executable order (stable topological sort).

        Declaration order is preserved among steps whose dependencies
        are equally satisfied; a cycle or unknown edge raises.
        """
        by_name = {step.name: step for step in self.steps}
        done: set[str] = set()
        ordered: list[PipelineStep] = []
        remaining = list(self.steps)
        while remaining:
            progressed = False
            for step in list(remaining):
                if all(dep in done for dep in step.after):
                    ordered.append(step)
                    done.add(step.name)
                    remaining.remove(step)
                    progressed = True
            if not progressed:
                stuck = ", ".join(step.name for step in remaining)
                raise ConfigurationError(
                    f"pipeline steps form a dependency cycle: {stuck}")
        return ordered


# ----------------------------------------------------------------------
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_settings(text: str) -> PipelineSettings:
    """Parse and validate pipeline settings from TOML text."""
    try:
        payload = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"bad pipeline settings: {exc}") from exc
    pipeline = payload.get("pipeline")
    if not isinstance(pipeline, dict) or not pipeline.get("name"):
        raise ConfigurationError(
            "pipeline settings need a [pipeline] table with a name")
    name = str(pipeline["name"])
    seed = pipeline.get("seed", 0)
    if not _is_int(seed):
        raise ConfigurationError("pipeline seed must be an integer")
    workdir = str(pipeline.get("workdir") or f"{name}-out")
    steps_table = payload.get("steps")
    if not isinstance(steps_table, dict) or not steps_table:
        raise ConfigurationError(
            "pipeline settings need at least one [steps.<name>] table")
    steps: list[PipelineStep] = []
    for step_name, spec in steps_table.items():
        if not isinstance(spec, dict):
            raise ConfigurationError(
                f"step {step_name!r} must be a table")
        kind = spec.get("kind")
        if kind not in KNOWN_KINDS:
            raise ConfigurationError(
                f"step {step_name!r} has unknown kind {kind!r}; "
                f"pick from {KNOWN_KINDS}")
        after = spec.get("after", [])
        if isinstance(after, str):
            after = [after]
        if not isinstance(after, list) or \
                not all(isinstance(dep, str) for dep in after):
            raise ConfigurationError(
                f"step {step_name!r}: after must be a list of step "
                f"names")
        if not _is_int(spec.get("seed", 0)):
            raise ConfigurationError(
                f"step {step_name!r}: seed must be an integer")
        params = {key: value for key, value in spec.items()
                  if key not in ("kind", "after")}
        steps.append(PipelineStep(name=str(step_name), kind=kind,
                                  after=tuple(after), params=params))
    names = [step.name for step in steps]
    if len(set(names)) != len(names):
        raise ConfigurationError("duplicate step names in pipeline")
    for step in steps:
        unknown = [dep for dep in step.after if dep not in names]
        if unknown:
            raise ConfigurationError(
                f"step {step.name!r} depends on unknown steps "
                f"{unknown}")
        if step.name in step.after:
            raise ConfigurationError(
                f"step {step.name!r} depends on itself")
    settings = PipelineSettings(
        name=name, seed=seed, workdir=workdir, steps=tuple(steps),
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest()[:16])
    settings.ordered_steps()  # validates acyclicity eagerly
    return settings


def load_settings(path: str) -> PipelineSettings:
    """Read, parse and validate a settings file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read pipeline settings {path!r}: {exc}") from exc
    return parse_settings(text)
