"""The committed golden digests (tests/_golden.py) against this checkout's bits."""

import json

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
    family = _golden.FAMILIES.get(here["openblas"])
    if family is None:
        pytest.skip(f"no golden digests for the OpenBLAS core {here['openblas']}: it "
                    "belongs to no family of _golden.FAMILIES")
    diff = _golden.changed(recorded["digests"][family], _golden.compute())
    assert not diff, (
        f"{len(diff)} golden digests of the {family} family differ: {diff}. This process runs "
        f"the OpenBLAS core {here['openblas']}. If the change is meant, run "
        "`python tests/_golden.py --update` under each family's core and name the entries "
        "and the reason in CHANGES.md."
    )


def test_every_family_has_one_map_of_the_same_entries():
    recorded = _golden.load()["digests"]
    assert recorded.keys() == set(_golden.FAMILIES.values())
    assert len({frozenset(digests) for digests in recorded.values()}) == 1


def test_update_rewrites_the_running_family_only(tmp_path, monkeypatch, capsys):
    path = tmp_path / "digests.json"
    versions = {"numpy": "1", "scipy": "2"}
    path.write_text(json.dumps({"versions": versions, "digests": {
        "SkylakeX": {"run/a": "x"}, "Haswell": {"run/a": "y"}}}))
    monkeypatch.setattr(_golden, "DIGESTS", path)
    monkeypatch.setattr(_golden, "compute", lambda: {"run/a": "z"})
    monkeypatch.setattr(_golden, "versions", lambda: {**versions, "openblas": "Zen"})
    assert _golden.main([]) == 1
    assert _golden.main(["--update"]) == 0
    assert json.loads(path.read_text())["digests"] == {
        "SkylakeX": {"run/a": "x"}, "Haswell": {"run/a": "z"}}
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "wrote 1 Haswell digests (1 changed) to digests.json"
    monkeypatch.setattr(_golden, "versions", lambda: {**versions, "openblas": "Sandybridge"})
    assert _golden.main(["--update"]) == 1
    assert "Sandybridge belongs to no family" in capsys.readouterr().out


def test_write_leaves_the_recorded_file_alone(tmp_path, monkeypatch, capsys):
    recorded = _golden.DIGESTS.read_bytes()
    monkeypatch.setattr(_golden, "compute", lambda: {"run/b": "2", "cli/a": "1"})
    assert _golden.main(["--write", str(tmp_path / "here.json")]) == 0
    assert (tmp_path / "here.json").read_text() == '{\n "cli/a": "1",\n "run/b": "2"\n}\n'
    assert _golden.DIGESTS.read_bytes() == recorded and capsys.readouterr().out == ""
