"""Byte-identity goldens for the metrics registry's JSON export.

Hot instrumentation sites may resolve their metrics ahead of time, but
the registry's ``to_json()`` must not change by a byte: same names, same
values, same order.  These hashes pin the full export of the bakeoff's
60-client spec (one simulator per architecture, exactly as ``run_arch``
builds it) and of the determinism suite's window-system run.
"""

import hashlib

import pytest

import repro.api
from repro.load.bakeoff import ARCHITECTURES, run_arch
from tests.obs.test_determinism import _window_run

SPEC = {"kind": "poisson", "params": {"rate_per_sec": 1_000.0},
        "clients": 60, "seed": 0, "start_usec": 1_000.0}

GOLDEN = {
    "thread-per-conn":
        "511a7a689d937d00dbbfe40a413056f42f9358a163567c6830e59fd68bb96589",
    "pool":
        "666c122b522239f42e0b199c5f86673543ccb438175ee0703c6568f697d6e03d",
    "event-loop":
        "caccd622a51c2905717b512e71abc18b95a6763a48bea0953701e851014700b8",
    "window":
        "f51daf422c61c616cad0294df39aa65f5e342e94ee7aa10bdfbc9b5948c207f2",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_all_architectures():
    assert set(GOLDEN) == set(ARCHITECTURES) | {"window"}


@pytest.mark.parametrize("arch", ARCHITECTURES)
def test_bakeoff_metrics_json(arch, monkeypatch):
    made = []

    class Capturing(repro.api.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(repro.api, "Simulator", Capturing)
    run_arch(arch, SPEC)
    assert len(made) == 1
    assert _sha(made[0].metrics.to_json()) == GOLDEN[arch]


def test_window_metrics_json():
    assert _sha(_window_run().metrics.to_json()) == GOLDEN["window"]
