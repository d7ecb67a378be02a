"""Every option of every subcommand is read by that subcommand.

Each subcommand runs once on tiny inputs with a namespace that notes the
attributes read from it. An option its parser defines but its command
never reads is a knob that changes nothing.
"""

import argparse
from pathlib import Path

import pytest

from privdeg import cli

SHOP = Path(__file__).parent / "data" / "tailorshop_synthetic.dl"


class ReadLog(argparse.Namespace):
    """A namespace that notes the name of every attribute read from it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_read", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def _argv(command: str, tmp: Path) -> list[str]:
    """A short run of the command; each of its options is read on it."""
    cell = tmp / "cell.scenario"
    cell.write_text("link = logit\nn = 6\nreplicates = 2\n")
    edges = tmp / "g.edges"
    edges.write_text("1 2\n2 3\n3 4\n1 4\n")
    degrees = tmp / "d.txt"
    degrees.write_text("3\n3\n2\n2\n4\n2\n")
    out = str(tmp / "out.csv")
    return {
        "sample": ["sample", "--n", "5", "--out", out],
        "privatize": ["privatize", str(edges), "--noise", "dlap:p=0.5", "--out", out],
        "estimate": ["estimate", str(degrees), "--out", out],
        "analyze": ["analyze", str(SHOP), "--noise", "dlap:p=0.5", "--out", out],
        "simulate": ["simulate", str(cell), "--out", out],
        "qq": ["qq", str(cell), "--out", out],
        "bounds": ["bounds", "--kind", "subexp", "--reps", "10", "--grid", "2",
                   "--out", out],
    }[command]


def unread_options(argv: list[str]) -> list[str]:
    """Options of the subcommand in argv that its run does not read."""
    parsed = cli.build_parser().parse_args(argv)
    args = ReadLog(**vars(parsed))
    args.fn(args)
    return sorted(set(vars(parsed)) - {"command", "fn"} - args._read)


def test_read_log_notes_only_what_is_read():
    args = ReadLog(a=1, b=2)
    assert args.a == 1 and getattr(args, "c", None) is None
    assert args._read == {"a", "c"}


COMMANDS = sorted(name[4:] for name in dir(cli) if name.startswith("cmd_"))


@pytest.mark.parametrize("command", COMMANDS)
def test_command_reads_every_option(tmp_path, command):
    assert unread_options(_argv(command, tmp_path)) == []
