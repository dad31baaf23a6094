"""Library and CLI outputs keep the bits recorded in tests/data/bits.json.

``tools/bits.py`` computes the digests and rewrites the file; see there for
what is digested.  A digest recorded under another numpy, BLAS or LAPACK is
not comparable, so the tests skip there, naming both environments.
"""

import importlib
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def bits():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(TOOLS))
        module = importlib.import_module("bits")
    recorded = json.loads(module.DATA.read_text(encoding="utf-8"))
    here = module.environment()
    if here != recorded["environment"]:
        pytest.skip(f"digests recorded under {recorded['environment']}, running under {here}")
    return module, recorded


@pytest.mark.parametrize("group", ["library", "cli"])
def test_outputs_keep_their_recorded_bits(bits, group):
    module, recorded = bits
    digests = getattr(module, f"{group}_digests")()
    want = recorded[group]
    assert set(want) <= set(digests) <= set(want) | set(recorded["blas_ordered"])
    changed = [key for key, digest in want.items() if digests[key] != digest]
    assert changed == []
