"""Every report of the hash corpus (``report_hash_corpus.py``) is
byte-identical to the committed ``fixtures/report_hashes.json``."""

from report_hash_corpus import compute_corpus, load_corpus


def test_reports_match_the_committed_hash_corpus():
    expected = load_corpus()
    got = compute_corpus()
    assert sorted(got) == sorted(expected)
    changed = sorted(key for key in got if got[key] != expected[key])
    assert not changed, f"{len(changed)} of {len(got)} reports changed: {changed[:10]}"
