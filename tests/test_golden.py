"""The committed golden digests (tests/_golden.py) against this checkout's bits."""

import pytest

import _golden


def test_digests_unchanged():
    recorded = _golden.load()
    if recorded["versions"] != _golden.versions():
        pytest.skip(
            "golden digests belong to numpy {numpy} and scipy {scipy}".format(**recorded["versions"])
            + "; this is numpy {numpy} and scipy {scipy}".format(**_golden.versions())
        )
    diff = _golden.changed(recorded["digests"], _golden.compute())
    assert not diff, (
        f"{len(diff)} golden digests differ: {diff}. If the change is meant, run "
        "`python tests/_golden.py --update` and name the entries and the reason in CHANGES.md."
    )
