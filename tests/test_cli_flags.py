"""The process flags of the CLI and the fields of the process specs are one
list: a family or field added to ``levy_paths.FAMILIES`` cannot be missing
from the command line, and no flag sets a parameter that no family has."""

import argparse
import dataclasses

import pytest

from goupsim.cli import _PROCESS_FLAGS, build_parser
from goupsim.levy_paths import FAMILIES

FIELDS = {f.name for cls in FAMILIES.values() for f in dataclasses.fields(cls)}


@pytest.mark.parametrize("command", ["paths", "solve", "converge", "validate"])
def test_every_family_field_has_exactly_one_flag(command):
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = sub.choices[command]._actions
    for field in sorted(FIELDS):
        flags = [flag for a in actions if a.dest == field for flag in a.option_strings]
        assert flags == [_PROCESS_FLAGS.get(field)], field


def test_every_process_flag_is_a_family_field():
    assert set(_PROCESS_FLAGS) <= FIELDS
