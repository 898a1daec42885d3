"""Replay of the golden CLI corpus: every answer stays byte for byte.

``tests/data/cli_golden.json`` was written by ``tests/make_cli_golden.py``;
see that script for what the corpus holds and how to regenerate it.
"""

import json

from make_cli_golden import OUT, answer

CORPUS = json.loads(OUT.read_text())


def test_corpus_covers_every_subcommand_in_both_formats():
    subcommands = {"spv", "eval", "classify", "member", "specializes",
                   "cover", "cech-laurent", "group", "retract"}
    for structured in (False, True):
        assert subcommands <= {e["args"][0] for e in CORPUS
                               if e["exit_code"] == 0
                               and ("structured" in e["args"]) == structured}


def test_every_answer_unchanged():
    assert len(CORPUS) > 500
    changed = [e["args"] for e in CORPUS if answer(e["args"]) != e]
    assert changed == []
