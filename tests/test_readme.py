"""Every `gcope` command shown in README.md parses with the real CLI parser,
and every config flag it gives parses as that key's value."""

import re
import shlex
from pathlib import Path

from gcope.cli import _resolved, build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv and argv[0] == "gcope":
                commands.append(argv[1:])
    return commands


def test_readme_gcope_commands_parse():
    commands = readme_commands()
    parser = build_parser()
    subcommands = {argv[0] for argv in commands}
    assert subcommands == {"synth", "pretrain", "transfer", "eval", "ablate", "inspect"}
    for argv in commands:
        args = parser.parse_args(argv)
        if hasattr(args, "config"):
            _resolved(args)
