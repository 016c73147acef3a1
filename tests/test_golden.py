"""The committed golden digests (tests/_golden.py) against this checkout's bits."""

import pytest

import _golden


def test_digests_unchanged():
    recorded, here = _golden.load(), _golden.versions()
    pinned = recorded["versions"]
    if (pinned["numpy"], pinned["scipy"]) != (here["numpy"], here["scipy"]):
        pytest.skip(
            "golden digests belong to numpy {numpy} and scipy {scipy}".format(**pinned)
            + "; this is numpy {numpy} and scipy {scipy}".format(**here)
        )
    diff = _golden.changed(recorded["digests"], _golden.compute())
    assert not diff, (
        f"{len(diff)} golden digests differ: {diff}. They were recorded on the OpenBLAS core "
        f"{pinned['openblas']}, and this process runs {here['openblas']}. If the change is meant, "
        "run `python tests/_golden.py --update` and name the entries and the reason in CHANGES.md."
    )


def test_write_leaves_the_recorded_file_alone(tmp_path, monkeypatch, capsys):
    recorded = _golden.DIGESTS.read_bytes()
    monkeypatch.setattr(_golden, "compute", lambda: {"run/b": "2", "cli/a": "1"})
    assert _golden.main(["--write", str(tmp_path / "here.json")]) == 0
    assert (tmp_path / "here.json").read_text() == '{\n "cli/a": "1",\n "run/b": "2"\n}\n'
    assert _golden.DIGESTS.read_bytes() == recorded and capsys.readouterr().out == ""
