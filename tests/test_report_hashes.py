"""Every report of the hash corpus (``report_hash_corpus.py``) is
byte-identical to the committed ``fixtures/report_hashes.json``; a change is
reported per mode."""

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
