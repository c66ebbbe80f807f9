"""Regenerate the golden CLI corpus, cli_corpus.json, next to this file.

    PYTHONPATH=src python3 tests/golden/regenerate.py

The corpus holds the command lines of the benchmark's `cli` workload for
seeds 1-3, run through lmc.cli.main: each line's argv, exit code, stdout
and stderr, and the automorphism files the session reads.  The input
directory is stored as WORKDIR and the wall time of `verify` reports is
normalised, so that test_golden.py can replay the corpus byte for byte.

Regenerating changes what the replay test accepts as correct output.  Do
it only for a deliberate change of CLI output, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

from lmc import cli

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli_corpus.json"
SEEDS = (1, 2, 3)
WORKDIR = "WORKDIR"
_ELAPSED = re.compile(r'("elapsed_seconds": )[-+.0-9e]+')


def normalise(text: str, workdir: str) -> str:
    """`text` with the input directory as WORKDIR and no wall time."""
    return _ELAPSED.sub(r"\g<1>0.0", text.replace(workdir, WORKDIR))


def run(argv, workdir: str):
    """(exit code, stdout, stderr) of one `lmc` invocation, normalised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, normalise(out.getvalue(), workdir), normalise(err.getvalue(), workdir)


def _session(seed: int, workloads) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        ops = workloads.build("cli", seed, workdir)
        files = {name: (Path(workdir) / name).read_text(encoding="utf-8")
                 for name in sorted(os.listdir(workdir))}
        lines = []
        for op in ops:
            argv = list(op.run.args[0])
            code, stdout, stderr = run(argv, workdir)
            lines.append({
                "argv": [arg.replace(workdir, WORKDIR) for arg in argv],
                "exit": code,
                "stdout": stdout,
                "stderr": stderr,
            })
    return {"seed": seed, "files": files, "lines": lines}


def main() -> None:
    os.environ.pop("LMC_FORMAT", None)  # would change the CLI's default output
    sys.path.insert(0, str(HERE.parent.parent / "perfbench"))
    import workloads

    corpus = {"sessions": [_session(seed, workloads) for seed in SEEDS]}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    count = sum(len(s["lines"]) for s in corpus["sessions"])
    print(f"wrote {count} command lines to {CORPUS}")


if __name__ == "__main__":
    main()
