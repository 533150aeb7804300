"""The request reader of `jetbrackets.cli` against argparse, on drawn argvs.

`cli._read` reads a well-formed request without argparse; on every other
argv it returns None and `main` hands the argv to argparse.  `agree(argv)`
checks the one property that makes this safe: whenever the reader returns
a Namespace, argparse accepts the argv and makes an equal one, so whenever
argparse refuses an argv the reader declines it.  `draw_argv(rng)` builds
an argv from the actions `build_parser` declares, then perhaps spoils it:
abbreviations, `=` forms, repeats, `--`, negative numbers, -h, missing
required flags, bad ints and choices.

`tests/test_cli_reader.py` runs these under pytest and hypothesis.  This
file runs them with the standard library alone, for interpreters without
pytest:

    PYTHONPATH=src python tests/reader_agreement.py [count] [seed]
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import jetbrackets.cli as cli

PINS = json.loads((Path(__file__).parent / "data" / "cli_dispatch_pins.json").read_text())

# values of every shape the reader must tell apart
_INTS = ["0", "2", "11", "-1", "-0", "x", "1.5", "-0.5", "07", " 3", "1_0", "", "-", "--"]
_TEXTS = ["u", "u_1^2", "-u", "", "-", "D: del", "-1", "-.5", "--", "-u * u", "a=b", "--pretty"]
_STRAYS = ["-h", "--help", "--", "-", "-1", "-x", "--nope", "--nope=1", "extra", "--pretty=1",
           "--hat=", "-1.5", ""]


def argparse_namespace(argv):
    """The Namespace of `main`'s argparse path, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._parser().parse_args(argv)
        except SystemExit:
            return None


def agree(argv) -> bool:
    """Whether the reader accepted `argv`; fails when it accepts an argv
    that argparse refuses or reads differently."""
    got = cli._read(list(argv))
    if got is None:
        return False
    want = argparse_namespace(list(argv))
    assert want is not None, f"the reader accepts {argv!r}, which argparse refuses"
    assert vars(got) == vars(want), (argv, vars(got), vars(want))
    return True


def _value(rng, action):
    if action.choices is not None:
        return rng.choice([*action.choices, "bogus", "U"])
    return rng.choice(_INTS if action.type is int else _TEXTS)


def draw_argv(rng):
    """A request for a drawn subcommand, mostly well-formed."""
    declared = cli._parser().get_default("declared")
    name = rng.choice(sorted(declared))
    options, words = [], []
    for action in declared[name]:
        if not action.option_strings:
            words.append(_value(rng, action) if rng.random() < 0.8 else "u")
            continue
        for _ in range(rng.choice([0, 1, 1, 1, 2] if not action.required else [1, 1, 1, 0, 2])):
            flag = action.option_strings[0]
            if rng.random() < 0.15:  # an abbreviation
                flag = flag[:rng.randint(2, len(flag) - 1)]
            if action.nargs == 0:
                options.append([flag] if rng.random() < 0.9 else [flag + "=" + _value(rng, action)])
            elif rng.random() < 0.5:
                options.append([flag, _value(rng, action)])
            else:
                options.append([flag + "=" + _value(rng, action)])
    if rng.random() < 0.15 and words:
        words.pop()
    if rng.random() < 0.15:
        words.append("extra")
    rng.shuffle(options)
    if rng.random() < 0.5:
        tail = ["--", *words]
        argv = [tok for opt in options for tok in opt] + tail
    else:
        chunks = options + [[w] for w in words]
        rng.shuffle(chunks)
        argv = [tok for chunk in chunks for tok in chunk]
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        argv.insert(rng.randint(0, len(argv)), rng.choice(_STRAYS))
    if rng.random() < 0.05:
        return argv if rng.random() < 0.5 else ["--pretty", name, *argv]
    return [name, *argv]


def main(count=20000, seed=0) -> int:
    rng = random.Random(seed)
    pinned = sum(agree(pin["argv"]) for pin in PINS)
    drawn = [draw_argv(rng) for _ in range(count)]
    accepted = sum(agree(argv) for argv in drawn)
    print(f"Python {sys.version.split()[0]}: pins {pinned} of {len(PINS)} read, "
          f"drawn {accepted} of {count} read, every read equal to argparse's")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
