"""The benchmark's own test: every workload once at tiny sizes, traced,
with every oracle on and no timing gate.  Run with

    python3 -m pytest bench/test_smoke.py
"""
import run


def test_smoke_every_workload_passes_its_oracles():
    assert run.smoke() == 0
