import json

from cli_golden import FIXTURE, dumps, transcript


def test_cli_transcript_matches_the_golden_file(tmp_path):
    runs = transcript(tmp_path)
    want = json.loads(FIXTURE.read_text())
    assert [r["argv"] for r in runs] == [r["argv"] for r in want]
    for got, expected in zip(runs, want):
        assert got == expected
    assert dumps(runs) == FIXTURE.read_text()  # every byte, key order included
