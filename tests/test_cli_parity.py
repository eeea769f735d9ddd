"""The CLI's option surface, recorded once and compared on every run.

For each subcommand the record holds every option's strings, default,
choices, nargs, const, action class, type name and ``required``, plus the
subparser's ``set_defaults``.  A refactor of how the parser is built
keeps this test green unedited; a change to what the CLI accepts shows up
here, in ``tests/cli_surface.json``, with its caller.  Regenerate the
record after a deliberate change with::

    PYTHONPATH=src python tests/test_cli_parity.py > tests/cli_surface.json
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

RECORD = Path(__file__).resolve().parent / "cli_surface.json"


def _plain(value):
    """A JSON-stable stand-in: functions by name, the rest by ``repr``."""
    return getattr(value, "__name__", None) or repr(value)


def surface() -> dict:
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    commands = {}
    for name, p in sub.choices.items():
        options = {}
        for a in p._actions:
            if isinstance(a, argparse._HelpAction):
                continue
            options["/".join(a.option_strings) or a.dest] = {
                "dest": a.dest,
                "default": repr(a.default),
                "choices": None if a.choices is None else list(a.choices),
                "nargs": repr(a.nargs),
                "const": repr(a.const),
                "action": type(a).__name__,
                "type": None if a.type is None else a.type.__name__,
                "required": a.required,
            }
        commands[name] = {
            "options": options,
            "set_defaults": {k: _plain(v) for k, v in p._defaults.items()},
        }
    return commands


def test_cli_surface_matches_the_record():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    assert surface() == recorded


def test_the_record_covers_every_command_option():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    assert sum(len(c["options"]) for c in recorded.values()) == 232


if __name__ == "__main__":  # pragma: no cover
    print(json.dumps(surface(), indent=1, sort_keys=True))
