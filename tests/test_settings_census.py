import inspect

import spisep as sp
from spisep.cli import _build_parser


def test_exported_keyword_defaults():
    # every exported keyword needs a caller that sets it; a new one has to
    # change this count and say why
    count = sum(
        p.default is not inspect.Parameter.empty
        for name, obj in vars(sp).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        for p in inspect.signature(obj).parameters.values()
    )
    assert count == 15


def test_cli_settable_options():
    # every option a user can set, summed over the subcommands, other than
    # --json and -h; a new one has to change this count and say why
    subparsers = next(a for a in _build_parser()._actions if a.choices)
    count = sum(
        a.option_strings[0] not in ("-h", "--json")
        for cmd in subparsers.choices.values()
        for a in cmd._actions
        if a.option_strings
    )
    assert count == 10
