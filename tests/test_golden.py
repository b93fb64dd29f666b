"""The README CLI tour and one kth prediction reproduce their recorded sha256 digests."""

import json

import pytest

import golden


def test_outputs_match_the_recorded_digests():
    manifest = json.loads(golden.MANIFEST.read_text())
    here = golden.fingerprint()
    if manifest["fingerprint"] != here:
        pytest.skip(f"digests recorded on {manifest['fingerprint']}, this is {here}")
    diff = golden.differences(manifest["digests"], golden.compute())
    assert not diff, f"{len(diff)} artifacts differ: {', '.join(diff)}"


def test_differences_name_changed_missing_and_new_artifacts():
    want = {"a": "1", "b": "2", "c": "3"}
    got = {"a": "1", "b": "9", "d": "4"}
    assert golden.differences(want, got) == ["b", "c", "d"]


def test_another_fingerprint_skips_and_shows_it(monkeypatch):
    monkeypatch.setattr(golden, "fingerprint", lambda: {"machine": "elsewhere"})
    monkeypatch.setattr(golden, "compute", lambda: pytest.fail("digests computed"))
    with pytest.raises(pytest.skip.Exception, match="this is {'machine': 'elsewhere'}"):
        test_outputs_match_the_recorded_digests()
