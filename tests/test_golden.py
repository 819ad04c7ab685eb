"""Every command of tests/golden.py writes the bits its manifest records:
exit code, stdout, stderr and each artifact (tests/golden.json)."""

import json

import numpy as np
import pytest

from golden import CASES, MANIFEST, differences, records


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="the manifest's bits rest on the x87 80-bit "
                           "longdouble (63-bit mantissa); this platform's "
                           "longdouble differs")
def test_every_command_writes_the_manifest_bits(tmp_path):
    want = json.loads(MANIFEST.read_text())
    assert [r["name"] for r in want] == [name for name, _ in CASES]
    moved = [f"{w['name']}/{what}"
             for w, g in zip(want, records(tmp_path))
             for what in differences(w, g)]
    assert not moved, ("differs from tests/golden.json (rewrite it with "
                       "tests/golden.py if intended): " + ", ".join(moved))
