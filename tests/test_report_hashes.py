"""Every report of the hash corpus (``report_hash_corpus.py``) is
byte-identical to the committed ``fixtures/report_hashes.json``; a change is
reported per mode."""

import report_hash_corpus
from report_hash_corpus import changes_by_mode, compute_corpus, load_corpus


def test_reports_match_the_committed_hash_corpus():
    expected = load_corpus()
    got = compute_corpus()
    assert sorted(got) == sorted(expected)
    changed = sorted(key for key in got if got[key] != expected[key])
    assert not changed, (f"{len(changed)} of {len(got)} reports changed "
                         f"(mode -> (changed, total): {changes_by_mode(expected, got)}): "
                         f"{changed[:10]}")


def test_changes_are_counted_per_mode():
    old = {"tiny/sync/m=1": "a", "tiny/se/m=1": "b", "tiny/depasync/m=1": "c"}
    new = {"tiny/sync/m=1": "a", "tiny/se/m=1": "b", "tiny/depasync/m=1": "x",
           "tiny/depasync/m=2": "y"}
    assert changes_by_mode(old, new) == {"sync": (0, 1), "se": (0, 1),
                                         "depasync": (2, 2)}


def test_check_mode_exits_1_on_a_changed_hash_and_writes_nothing(
        tmp_path, monkeypatch, capsys):
    committed = {"tiny/sync/m=1": "a", "tiny/se/m=1": "b"}
    path = tmp_path / "report_hashes.json"
    path.write_text('{"tiny/se/m=1": "b", "tiny/sync/m=1": "a"}\n', encoding="utf-8")
    before = path.read_bytes()
    monkeypatch.setattr(report_hash_corpus, "CORPUS_PATH", str(path))

    monkeypatch.setattr(report_hash_corpus, "compute_corpus", lambda: dict(committed))
    assert report_hash_corpus.main(["--check"]) == 0
    assert "0 of 2 changed" in capsys.readouterr().out

    monkeypatch.setattr(report_hash_corpus, "compute_corpus",
                        lambda: {**committed, "tiny/se/m=1": "x"})
    assert report_hash_corpus.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "changed: tiny/se/m=1" in out
    assert "se 1 of 1" in out and "sync 0 of 1" in out
    assert "1 of 2 changed" in out
    assert path.read_bytes() == before
