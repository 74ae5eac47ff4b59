"""Pipeline settings tests: parsing, validation, DAG order."""

import pytest

from repro.errors import ConfigurationError
from repro.runs.settings import load_settings, parse_settings

VALID = """\
[pipeline]
name = "nightly"
seed = 3
workdir = "night-out"

[steps.bench-a]
kind = "bench"
scale = "tiny"

[steps.campaign]
kind = "faults"
after = ["bench-a"]
trials = 2
alpha = 9.0

[steps.delta]
kind = "report"
after = ["bench-a", "campaign"]
"""


class TestParse:
    def test_valid_settings(self):
        settings = parse_settings(VALID)
        assert settings.name == "nightly"
        assert settings.seed == 3
        assert settings.workdir == "night-out"
        assert [step.name for step in settings.steps] == \
            ["bench-a", "campaign", "delta"]
        campaign = settings.steps[1]
        assert campaign.kind == "faults"
        assert campaign.after == ("bench-a",)
        assert campaign.params == {"trials": 2, "alpha": 9.0}

    def test_digest_is_text_identity(self):
        assert parse_settings(VALID).digest == \
            parse_settings(VALID).digest
        assert parse_settings(VALID).digest != \
            parse_settings(VALID + "\n# comment\n").digest

    def test_workdir_defaults_to_name(self):
        settings = parse_settings(
            '[pipeline]\nname = "p"\n[steps.s]\nkind = "bench"\n')
        assert settings.workdir == "p-out"

    def test_ordered_steps_respects_edges(self):
        text = """\
[pipeline]
name = "p"
[steps.late]
kind = "report"
after = ["early"]
[steps.early]
kind = "bench"
"""
        ordered = parse_settings(text).ordered_steps()
        assert [step.name for step in ordered] == ["early", "late"]

    @pytest.mark.parametrize("mutation, match", [
        ("", "pipeline"),                                  # no tables
        ('[pipeline]\nname = ""\n', "name"),
        ('[pipeline]\nname = "p"\n', "steps"),
        ('[pipeline]\nname = "p"\nseed = "x"\n'
         '[steps.s]\nkind = "bench"\n', "seed"),
        ('[pipeline]\nname = "p"\n[steps.s]\nkind = "nope"\n',
         "unknown kind"),
        ('[pipeline]\nname = "p"\n[steps.s]\nkind = "bench"\n'
         'seed = "7"\n', "step 's': seed"),
        ('[pipeline]\nname = "p"\n[steps.s]\nkind = "bench"\n'
         'seed = true\n', "step 's': seed"),
        ('[pipeline]\nname = "p"\n[steps.s]\nkind = "bench"\n'
         'after = ["ghost"]\n', "unknown steps"),
        ('[pipeline]\nname = "p"\n[steps.s]\nkind = "bench"\n'
         'after = ["s"]\n', "itself"),
        ("x = {inline", "bad pipeline settings"),        # malformed TOML
    ])
    def test_invalid_settings_raise(self, mutation, match):
        with pytest.raises(ConfigurationError, match=match):
            parse_settings(mutation)

    def test_cycle_detected(self):
        text = """\
[pipeline]
name = "p"
[steps.a]
kind = "bench"
after = ["b"]
[steps.b]
kind = "report"
after = ["a"]
"""
        with pytest.raises(ConfigurationError, match="cycle"):
            parse_settings(text)

    def test_load_settings_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_settings(str(tmp_path / "absent.toml"))
