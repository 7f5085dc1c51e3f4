"""The CLI's option surface, pinned.

``SURFACE`` is every (command, option) pair the parser accepts, with
what argparse records for it: (dest, default, type, choices, nargs,
const, required). Help strings are not pinned. Three deliberate
departures are listed below the table; anything else that moves here
changes what a user can type or what a handler receives.
"""

import argparse

import pytest

from repro.cli import build_parser

EXPERIMENTS = ("table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4")

SURFACE = {
    "list": {},
    "run": {
        "--analytic": ("analytic", False, None, None, 0, True, False),
        "--analyze": ("analyze", False, None, None, 0, True, False),
        "--bandwidth": ("bandwidth", 10.0, "float", None, None, None, False),
        "--cache-dir": ("cache_dir", None, "str", None, None, None, False),
        "--epochs": ("epochs", None, "float", None, None, None, False),
        "--fault-seed": ("fault_seed", None, "int", None, None, None, False),
        "--fault-spec": ("fault_spec", None, "str", None, None, None, False),
        "--iters": ("iters", None, "int", None, None, None, False),
        "--jobs": ("jobs", None, "int", None, None, None, False),
        "--max-workers": ("max_workers", None, "int", None, None, None, False),
        "--model": ("model", "resnet50", None, ("resnet50", "vgg16"), None, None, False),
        "--no-cache": ("no_cache", False, None, None, 0, True, False),
        "--output": ("output", None, "str", None, None, None, False),
        "--profile": ("profile", None, "str", None, None, None, False),
        "--resume": ("resume", False, None, None, 0, True, False),
        "--retries": ("retries", None, "int", None, None, None, False),
        "--run-timeout": ("run_timeout", None, "float", None, None, None, False),
        "--seeds": ("seeds", "0", "str", None, None, None, False),
        "--session": ("session", None, "str", None, "?", "", False),
        "--trace-out": ("trace_out", None, "str", None, None, None, False),
        "--workers": ("workers", None, "int", None, None, None, False),
        "experiment": ("experiment", None, None, EXPERIMENTS, None, None, True),
    },
    "train": {
        "--analyze": ("analyze", False, None, None, 0, True, False),
        "--epochs": ("epochs", 10.0, "float", None, None, None, False),
        "--fabric": ("fabric", "56g", None, ("10g", "56g"), None, None, False),
        "--fault-seed": ("fault_seed", None, "int", None, None, None, False),
        "--fault-spec": ("fault_spec", None, "str", None, None, None, False),
        "--output": ("output", None, "str", None, None, None, False),
        "--profile": ("profile", None, "str", None, None, None, False),
        "--seed": ("seed", 0, "int", None, None, None, False),
        "--trace-out": ("trace_out", None, "str", None, None, None, False),
        "--workers": ("workers", 4, "int", None, None, None, False),
        "algorithm": ("algorithm", None, None, None, None, None, True),
    },
    "faults": {
        "--algorithms": ("algorithms", None, "str", None, None, None, False),
        "--bandwidth": ("bandwidth", 10.0, "float", None, None, None, False),
        "--cache-dir": ("cache_dir", None, "str", None, None, None, False),
        "--fault-seed": ("fault_seed", 0, "int", None, None, None, False),
        "--iters": ("iters", None, "int", None, None, None, False),
        "--jobs": ("jobs", None, "int", None, None, None, False),
        "--machines-per-rack": ("machines_per_rack", 16, "int", None, None, None, False),
        "--model": ("model", "resnet50", None, ("resnet50", "vgg16"), None, None, False),
        "--no-cache": ("no_cache", False, None, None, 0, True, False),
        "--output": ("output", None, "str", None, None, None, False),
        "--oversubscription": ("oversubscription", 4.0, "float", None, None, None, False),
        "--rack-scale": ("rack_scale", False, None, None, 0, True, False),
        "--resume": ("resume", False, None, None, 0, True, False),
        "--retries": ("retries", None, "int", None, None, None, False),
        "--run-timeout": ("run_timeout", None, "float", None, None, None, False),
        "--scenarios": ("scenarios", None, "str", None, None, None, False),
        "--seed": ("seed", 0, "int", None, None, None, False),
        "--session": ("session", None, "str", None, "?", "", False),
        "--workers": ("workers", None, "int", None, None, None, False),
    },
    "byzantine": {
        "--aggregators": ("aggregators", None, "str", None, None, None, False),
        "--algorithms": ("algorithms", None, "str", None, None, None, False),
        "--byzantine": ("byzantine", 1, "int", None, None, None, False),
        "--cache-dir": ("cache_dir", None, "str", None, None, None, False),
        "--epochs": ("epochs", 20.0, "float", None, None, None, False),
        "--fault-seed": ("fault_seed", 0, "int", None, None, None, False),
        "--jobs": ("jobs", None, "int", None, None, None, False),
        "--no-cache": ("no_cache", False, None, None, 0, True, False),
        "--output": ("output", None, "str", None, None, None, False),
        "--resume": ("resume", False, None, None, 0, True, False),
        "--retries": ("retries", None, "int", None, None, None, False),
        "--run-timeout": ("run_timeout", None, "float", None, None, None, False),
        "--scale": ("scale", 10.0, "float", None, None, None, False),
        "--seed": ("seed", 0, "int", None, None, None, False),
        "--session": ("session", None, "str", None, "?", "", False),
        "--workers": ("workers", 8, "int", None, None, None, False),
    },
    "predict": {
        "--bandwidth": ("bandwidth", 10.0, "float", None, None, None, False),
        "--fault-seed": ("fault_seed", None, "int", None, None, None, False),
        "--fault-spec": ("fault_spec", None, "str", None, None, None, False),
        "--max-workers": ("max_workers", None, "int", None, None, None, False),
        "--model": ("model", "resnet50", None, ("resnet50", "vgg16"), None, None, False),
        "--output": ("output", None, "str", None, None, None, False),
        "--strict": ("strict", False, None, None, 0, True, False),
        "--validate": ("validate", False, None, None, 0, True, False),
        "--workers": ("workers", 24, "int", None, None, None, False),
        "algorithm": ("algorithm", None, None, None, None, None, True),
    },
    "analyze": {
        "--bandwidth": ("bandwidth", 10.0, "float", None, None, None, False),
        "--check": ("check", False, None, None, 0, True, False),
        "--epochs": ("epochs", None, "float", None, None, None, False),
        "--fault-seed": ("fault_seed", None, "int", None, None, None, False),
        "--fault-spec": ("fault_spec", None, "str", None, None, None, False),
        "--iters": ("iters", None, "int", None, None, None, False),
        "--json": ("json", None, "str", None, None, None, False),
        "--model": ("model", "resnet50", None, ("resnet50", "vgg16"), None, None, False),
        "--seed": ("seed", 0, "int", None, None, None, False),
        "--trace-out": ("trace_out", None, "str", None, None, None, False),
        "--workers": ("workers", None, "int", None, None, None, False),
        "target": ("target", None, None, None, None, None, True),
    },
    "sweep list": {
        "--json": ("json", False, None, None, 0, True, False),
    },
    "sweep show": {
        "--json": ("json", None, "str", None, None, None, False),
        "--trace-out": ("trace_out", None, "str", None, None, None, False),
        "session": ("session", None, None, None, None, None, True),
    },
    "sweep resume": {
        "--cache-dir": ("cache_dir", None, "str", None, None, None, False),
        "--jobs": ("jobs", None, "int", None, None, None, False),
        "--no-cache": ("no_cache", False, None, None, 0, True, False),
        "--retries": ("retries", None, "int", None, None, None, False),
        "--run-timeout": ("run_timeout", None, "float", None, None, None, False),
        "session": ("session", None, None, None, None, None, True),
    },
    "trace": {
        "--bandwidth": ("bandwidth", 10.0, "float", None, None, None, False),
        "--epochs": ("epochs", None, "float", None, None, None, False),
        "--iters": ("iters", None, "int", None, None, None, False),
        "--model": ("model", "resnet50", None, ("resnet50", "vgg16"), None, None, False),
        "--out": ("out", None, "str", None, None, None, True),
        "--seed": ("seed", 0, "int", None, None, None, False),
        "--workers": ("workers", None, "int", None, None, None, False),
        "experiment": ("experiment", None, None, EXPERIMENTS[1:], None, None, True),
    },
}

#: Comma-separated lists are parsed by argparse, into tuples (``--seeds``
#: into ints): a malformed or empty list is a usage error.
LISTS = {
    ("run", "--seeds"): ("0,1", (0, 1)),
    ("faults", "--scenarios"): ("crash,flaky", ("crash", "flaky")),
    ("faults", "--algorithms"): ("bsp,ar-sgd/hring", ("bsp", "ar-sgd/hring")),
    ("byzantine", "--algorithms"): ("bsp,ssp", ("bsp", "ssp")),
    ("byzantine", "--aggregators"): ("mean,krum", ("mean", "krum")),
}
#: Unset, so that giving them where they do not apply can be refused:
#: without ``--rack-scale`` (the rack-scale driver's own defaults, 16 and
#: 4.0, apply when unset), or to a ``run`` experiment that does not take
#: them (the artefact's own defaults, resnet50 at 10 Gbps, apply).
UNSET = {
    ("faults", "--machines-per-rack"),
    ("faults", "--oversubscription"),
    ("run", "--model"),
    ("run", "--bandwidth"),
}
#: Counts, sizes, rates and durations: zero or a negative number is a
#: usage error that names the option.
POSITIVE = {
    "--workers", "--epochs", "--iters", "--bandwidth", "--max-workers", "--machines-per-rack",
    "--oversubscription", "--byzantine", "--scale", "--jobs", "--run-timeout", "--retries",
}

#: The shortest command line of each command.
MINIMAL_ARGV = {
    "list": ["list"],
    "run": ["run", "fig3"],
    "train": ["train", "bsp"],
    "faults": ["faults"],
    "byzantine": ["byzantine"],
    "predict": ["predict", "bsp"],
    "analyze": ["analyze", "bsp"],
    "sweep list": ["sweep", "list"],
    "sweep show": ["sweep", "show", "s1"],
    "sweep resume": ["sweep", "resume", "s1"],
    "trace": ["trace", "fig3", "--out", "t.json"],
}


def _commands(parser, path=()):
    """(command path, parser) for every leaf subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = list(_commands(sub, path + (name,)))
                yield from nested or [(" ".join(path + (name,)), sub)]


def _surface(sub):
    return {
        action.option_strings[0] if action.option_strings else action.dest: action
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
    }


COMMANDS = dict(_commands(build_parser()))


def test_every_command_is_pinned():
    assert set(COMMANDS) == set(SURFACE) == set(MINIMAL_ARGV)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_command_takes_exactly_the_pinned_options(command):
    assert set(_surface(COMMANDS[command])) == set(SURFACE[command])


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_options_are_declared_as_pinned(command):
    for option, action in _surface(COMMANDS[command]).items():
        dest, default, type_name, choices, nargs, const, required = SURFACE[command][option]
        if (command, option) in UNSET:
            default = None
        assert action.dest == dest, option
        assert action.default == default, option
        assert (tuple(action.choices) if action.choices else None) == choices, option
        assert (action.nargs, action.const, action.required) == (nargs, const, required), option
        if (command, option) in LISTS:
            text, parsed = LISTS[command, option]
            assert action.type(text) == parsed
            with pytest.raises(argparse.ArgumentTypeError):
                action.type(",")
        elif option in POSITIVE:
            assert type(action.type("2")).__name__ == type_name, option
            for text in ("0", "-1", "nan", "x"):
                with pytest.raises(argparse.ArgumentTypeError):
                    action.type(text)
        else:
            assert getattr(action.type, "__name__", action.type) == type_name, option


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_minimal_command_line_parses_to_the_pinned_defaults(command):
    argv = MINIMAL_ARGV[command]
    expected = {"command": argv[0]}
    if argv[0] == "sweep":
        expected["sweep_command"] = argv[1]
    values = iter(argv[len(command.split()):])
    for option, (dest, default, *_rest) in SURFACE[command].items():
        if not option.startswith("--"):
            default = next(values)
        elif (command, option) in UNSET:
            default = None
        elif (command, option) == ("run", "--seeds"):
            default = (0,)
        expected[dest] = default
    if command == "trace":
        expected["out"] = "t.json"
    assert vars(build_parser().parse_args(argv)) == expected


@pytest.mark.parametrize(
    "command, option",
    sorted((c, o) for c, options in SURFACE.items() for o in options if o in POSITIVE),
)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_a_non_positive_number_is_a_usage_error_naming_its_option(command, option, value, capsys):
    argv = [*MINIMAL_ARGV[command], option, value]
    with pytest.raises(SystemExit) as exit:
        build_parser().parse_args(argv)
    assert exit.value.code == 2
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert f"argument {option}: expected a positive" in last
