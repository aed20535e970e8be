"""README drift: the commands and the config example it shows must be accepted."""

import argparse
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import treekeep
from treekeep.cli import build_parser
from treekeep.grow import GrowthConfig
from treekeep.harness import _CONFIG_KEYS, AlgorithmSpec

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCES = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def readme_commands():
    commands = []
    for _, body in FENCES:
        for line in body.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("treekeep "):
                commands.append(shlex.split(line))
    return commands


def subcommand_options():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: set(p._option_string_actions) for name, p in subparsers.choices.items()}


def test_readme_command_flags_are_accepted():
    options = subcommand_options()
    commands = readme_commands()
    assert {argv[1] for argv in commands} >= {"grow", "update", "diff"}
    for argv in commands:
        flags = {token for token in argv[2:] if token.startswith("--")}
        assert flags <= options[argv[1]], f"{argv[1]}: unknown flags {sorted(flags - options[argv[1]])}"


def test_readme_config_example_keys_are_accepted():
    (example,) = [json.loads(body) for lang, body in FENCES if lang == "json"]
    assert set(example) <= _CONFIG_KEYS
    assert set(example["algorithm"]) <= {f.name for f in fields(AlgorithmSpec)}
    assert set(example["growth"]) <= {f.name for f in fields(GrowthConfig)}


def test_readme_library_names_exist():
    (example,) = [body for lang, body in FENCES if lang == "python"]
    names = set(re.findall(r"\btk\.(\w+)", example))
    assert names >= {"load_csv", "retrain", "update"}
    missing = sorted(name for name in names if not hasattr(treekeep, name))
    assert not missing, f"README uses names treekeep does not export: {missing}"
