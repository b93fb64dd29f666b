"""The README CLI tour and one kth prediction reproduce their recorded sha256 digests."""

import json

import numpy as np
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


def test_compare_prints_how_far_each_dumped_artifact_moved(tmp_path):
    w = np.array([[2.0, -4.0]], dtype=np.float32)
    first = {"gradients:step": {"w": w}, "predict_batch:p": np.arange(3.0),
             "file:a.csv": b"mse,7.5\r\nparams,10\r\n", "file:b.pgm": b"P5\n\xff\x00",
             "stdout:00 eval": b"0\nssim 0.5\n", "stdout:01 train": b"0\n"}
    second = {**first, "gradients:step": {"w": w + np.float32(0.5)},
              "file:a.csv": b"mse,7.25\r\nparams,10\r\n", "predict_batch:p": np.arange(4.0),
              "stdout:00 eval": b"0\npsnr 0.5\n"}
    del second["stdout:01 train"]
    golden.dump(first, tmp_path / "a")
    golden.dump(second, tmp_path / "b")
    assert golden.moved(tmp_path / "a", tmp_path / "b") == [
        "0.025: file_a.csv",  # |7.25 - 7.5| / 10
        "0: file_b.pgm",
        "0.125: gradients_step",
        "layout differs: predict_batch_p",
        "bytes differ: stdout_00_eval",
        f"only in {tmp_path / 'a'}: stdout_01_train",
    ]
