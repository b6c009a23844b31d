"""The commands the documentation shows must parse.

Every ``python -m repro ...`` command in the user-facing docs is run
through :func:`repro.cli.build_parser`, so a renamed or removed flag
cannot leave a stale example behind.  One test id covers every
document, so editing a doc never changes the suite's ids.
"""

import glob
import os
import re
import shlex

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Markdown files whose ``python -m repro`` commands must parse: the
#: README, EXPERIMENTS.md, ``docs/`` and the verification recipes kept
#: as ``SKILL.md`` files under the repository's dot-directories.
DOCS = ["README.md", "EXPERIMENTS.md"] + [
    os.path.relpath(path, ROOT)
    for pattern in ("docs/*.md", ".*/skills/*/SKILL.md")
    for path in sorted(glob.glob(os.path.join(ROOT, pattern)))
]

PROGRAM = "python -m repro"


def _lines(text):
    """Lines with ``\\`` continuations joined, and whether each sits
    inside a fenced code block."""
    fenced = False
    pending = ""
    for line in text.splitlines():
        if not pending and line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield pending + line, fenced
        pending = ""


def documented_commands(text):
    """The argv of every ``python -m repro`` command in ``text``.

    A command inside an inline code span ends with the span; in a
    fenced block it otherwise runs to the end of the line, and prose
    outside code spans is skipped.  Env-var prefixes and ``$`` prompts
    fall before the program name; trailing ``#`` comments, pipes,
    redirections and ``&`` are cut.  A bare mention of the program (no
    subcommand) is skipped.
    """
    for line, fenced in _lines(text):
        for match in re.finditer(re.escape(PROGRAM), line):
            rest = line[match.end():]
            if line[:match.start()].count("`") % 2:
                rest = rest.split("`", 1)[0]  # an inline code span
            elif not fenced:
                continue  # prose
            rest = re.split(r"\s#", rest, maxsplit=1)[0]
            lexer = shlex.shlex(rest, posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            argv = []
            for token in lexer:
                if set(token) <= set("();<>|&"):
                    break
                argv.append(token)
            if argv:
                yield argv


def test_documented_commands_parse():
    parser = build_parser()
    failures = []
    found = 0
    for doc in DOCS:
        path = os.path.join(ROOT, doc)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            text = fh.read()
        for argv in documented_commands(text):
            found += 1
            try:
                parser.parse_args(argv)
            except SystemExit:
                failures.append(f"{doc}: {PROGRAM} {shlex.join(argv)}")
    assert found, "no documented commands found"
    assert not failures, "commands that no longer parse:\n" + "\n".join(
        failures
    )
