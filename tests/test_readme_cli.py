"""Every CLI example in the README except ``verify`` (its text output
carries timings), run in both output formats and compared byte for byte
with the recorded transcript ``readme_cli.txt``.

Regenerate the transcript only when an output is meant to change:

    PYTHONPATH=src python tests/test_readme_cli.py > tests/readme_cli.txt
"""

import contextlib
import io
import pathlib
import shlex

from gibonacci.cli import run

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "readme_cli.txt"


def readme_commands() -> list[list[str]]:
    """Argument lists of the README's CLI block, without ``--format``."""
    text = (HERE.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if not words or words[1] == "verify":
            continue
        if "--format" in words:
            i = words.index("--format")
            del words[i:i + 2]
        commands.append(words[1:])
    return commands


def transcript() -> str:
    parts = []
    for argv in readme_commands():
        for fmt in ("text", "json"):
            full = argv + ["--format", fmt]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(full)
            parts.append(f"$ gibonacci {shlex.join(full)}\n[exit {code}]\n{out.getvalue()}")
    return "".join(parts)


def test_readme_examples_cover_every_subcommand_but_verify():
    names = {argv[0] for argv in readme_commands()}
    assert names == {"term", "sum", "gcd-sum", "pisano", "classify", "parity-scan",
                     "max-modulus", "lucas-odd", "primes-check", "squares", "identities"}


def test_readme_transcript_is_unchanged():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    print(transcript(), end="")
