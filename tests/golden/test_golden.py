"""Replay of the golden CLI corpus: every command line must give the
stored exit code, stdout and stderr byte for byte.  See regenerate.py."""

import json

import pytest

from regenerate import CORPUS, WORKDIR, run

SESSIONS = json.loads(CORPUS.read_text(encoding="utf-8"))["sessions"]


@pytest.mark.parametrize("session", SESSIONS, ids=lambda s: f"seed{s['seed']}")
def test_cli_corpus_replays_byte_identically(session, tmp_path, monkeypatch):
    monkeypatch.delenv("LMC_FORMAT", raising=False)
    for name, text in session["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    workdir = str(tmp_path)
    for line in session["lines"]:
        argv = [arg.replace(WORKDIR, workdir) for arg in line["argv"]]
        want = (line["exit"], line["stdout"], line["stderr"])
        assert run(argv, workdir) == want, line["argv"]
