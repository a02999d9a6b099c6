"""The cases of tools/bit_digest.py keep the digests pinned in
tools/bit_digest.json, so a change that claims to be bit for bit is checked.

The pin holds on the numpy version and the machine it was taken on; on any
other the test fails and names both, since the bits may move with either.
"""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_bit_digest():
    spec = importlib.util.spec_from_file_location("bit_digest", TOOLS / "bit_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_keeps_its_pinned_digest():
    bit_digest = load_bit_digest()
    pin = json.loads(bit_digest.PIN.read_text())
    here = bit_digest.environment()
    got = bit_digest.case_digests()
    problems = []
    if any(pin[key] != value for key, value in here.items()):
        problems.append(f"pinned on numpy {pin['numpy']} ({pin['machine']}), run on numpy "
                        f"{here['numpy']} ({here['machine']})")
    moved = [name for name in {**pin["cases"], **got}
             if pin["cases"].get(name) != got.get(name)]
    if moved:
        problems.append(f"{len(moved)} case(s) moved: {', '.join(moved)}")
    assert not problems, "; ".join(problems)
    assert bit_digest.total_digest(got) == pin["digest"]
