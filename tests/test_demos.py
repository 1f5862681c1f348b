"""The five demos print the same bytes on every run: their stdout is pinned
by sha256, the way the default verification report is."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_group_basics.py": "1f7196efd3bb548c8e87d0b6681afe0c2f0ae9c4f460dc540a5a417070506f42",
    "02_orders.py": "016b44c8eafbd89e9ea7f47a663c07e01ea7701cfd4e7873afde0c38a7961804",
    "03_subword_complexes.py": "96c49733e5abbf7d369dba8552639144bfcd310f47c22de03fefebaabccc7c27",
    "04_boolean_to_bruhat.py": "71959a66d229591efd9d04b4db688e698887b2a7083c8a0c504270968f6df7ce",
    "05_total_positivity.py": "43da7a11ec7ea4da26c00705963066679dab33adde22d3419a4fb0573761d00d",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_byte_stable(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[name]
