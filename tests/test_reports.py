from collections import Counter
from pathlib import Path

from judgekit import core
from oracles import lemmas_off
from report_requests import all_reports

GOLDEN = Path(__file__).parent / "golden" / "reports.txt"


def test_reports_match_the_golden(monkeypatch):
    """Every report of the hash-seed request list, byte for byte."""
    monkeypatch.delenv("JT_ASCII", raising=False)
    assert all_reports() == GOLDEN.read_text(encoding="utf-8")


def test_reports_match_the_golden_with_the_lemmas_off(monkeypatch):
    """The same reports when no lemma decides a law, so that every law is
    swept and every cartesian test, of 𝕌, 𝕌̇ and their opposites too,
    is counted; the switch changes how many functors are swept and how
    many categories numbered."""
    monkeypatch.delenv("JT_ASCII", raising=False)
    calls = Counter()
    real_sweep, real_codes = core._composition_sweep, core._Codes

    def sweep(F):
        calls["sweep", core._no_lemmas.get()] += 1
        return real_sweep(F)

    def codes(c):
        calls["codes", core._no_lemmas.get()] += 1
        return real_codes(c)
    monkeypatch.setattr(core, "_composition_sweep", sweep)
    monkeypatch.setattr(core, "_Codes", codes)
    golden = GOLDEN.read_text(encoding="utf-8")
    assert all_reports() == golden
    with lemmas_off():
        assert all_reports() == golden
    assert calls["sweep", True] != calls["sweep", False]
    assert calls["codes", True] != calls["codes", False]
