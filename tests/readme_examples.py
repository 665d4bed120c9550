"""The README's `$ metriq` examples, and a checker that runs them.

A README example is a code block whose first line is `$ metriq ...`. It runs
its command on the JSON block just above it, written to the file that its
--config names, and must print the rest of its block.

    python tests/readme_examples.py README.md

runs every example through the `metriq` on PATH, in the current directory,
and exits nonzero on the first one that prints anything else. The tier-1
tests run the same examples in process through cli.main.
"""

import pathlib
import re
import shlex
import subprocess
import sys


def examples(readme):
    """(config, argv, expected stdout) of every example; argv follows `metriq`."""
    text = pathlib.Path(readme).read_text(encoding="utf-8")
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", text, re.M | re.S)
    found = []
    for (lang, config), (_, body) in zip(blocks, blocks[1:]):
        command, _, expected = body.partition("\n")
        if command.startswith("$ metriq "):
            if lang != "json":
                raise ValueError(f"{command!r} follows a {lang or 'plain'} block, not its JSON config")
            found.append((config, shlex.split(command)[2:], expected))
    shown = text.count("\n$ metriq ")
    if len(found) != shown:
        raise ValueError(f"found {len(found)} of the README's {shown} examples")
    return found


def main(readme):
    ran = examples(readme)
    for config, argv, expected in ran:
        pathlib.Path(argv[argv.index("--config") + 1]).write_text(config, encoding="utf-8")
        got = subprocess.run(["metriq", *argv], capture_output=True, text=True)
        if got.stdout != expected:
            sys.exit(f"metriq {shlex.join(argv)}\n--- README\n{expected}--- got, exit {got.returncode}\n"
                     f"{got.stdout}{got.stderr}")
    print(f"{len(ran)} README examples match")


if __name__ == "__main__":
    main(sys.argv[1])
