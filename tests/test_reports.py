from pathlib import Path

from report_requests import all_reports

GOLDEN = Path(__file__).parent / "golden" / "reports.txt"


def test_reports_match_the_golden(monkeypatch):
    """Every report of the hash-seed request list, byte for byte."""
    monkeypatch.delenv("JT_ASCII", raising=False)
    assert all_reports() == GOLDEN.read_text(encoding="utf-8")
