"""The number of settable parameters of the package, pinned.

A settable parameter is a field of either config, an option flag of the
command line, or a defaulted parameter of a public function or method in
`src/tiltphase/`. Each one doubles what tests and benchmarks may have to
cover, so a change that adds or removes one updates the pinned count here
and says why.
"""

import argparse
import ast
from pathlib import Path

import tiltphase
from tiltphase.cli import build_parser
from tiltphase.config import ControllerConfig, PlantConfig, fields

# (config fields, CLI option flags, defaulted public parameters)
KNOBS = (103, 17, 10)


def config_fields():
    return len(fields(ControllerConfig)) + len(fields(PlantConfig))


def cli_flags():
    """Option flags of the parser and each subcommand; no positionals, no --help."""
    parsers = [build_parser()]
    count = 0
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                count += 1
    return count


def _defaulted(fn: ast.FunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def defaulted_parameters():
    """Defaulted parameters of the public functions, and of the public methods
    and `__init__` of the public classes, as written in the package source."""
    count = 0
    for path in sorted(Path(tiltphase.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                count += _defaulted(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                        item.name == "__init__" or not item.name.startswith("_")
                    ):
                        count += _defaulted(item)
    return count


def test_settable_parameter_count():
    counts = (config_fields(), cli_flags(), defaulted_parameters())
    assert counts == KNOBS
    assert sum(counts) == 130
