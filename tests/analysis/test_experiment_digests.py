"""Golden digests of every paper experiment.

Each experiment runs on a fresh ``Lab(LabConfig(scale=16,
tier="10MB"))``; ``fig08`` and ``sec5``, whose defaults sweep the
100MB–1GB tiers, run at 10MB.  The digest covers the experiment's
``data`` (as ``repr``), its rendered ``text`` and the lab machine's
state afterwards (PMU counters plus cache-level statistics, which catch
counters the figures never print).  A refactor of the simulator must
leave every digest unchanged; a digest only changes when a figure is
meant to change.

The digests are keyed by Python ``major.minor`` like the report goldens
(``tests/serve/test_report_goldens.py``): other versions skip.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from repro.analysis import EXPERIMENTS, Lab, LabConfig
from tests.helpers import machine_state

#: Arguments that keep an experiment on the 10MB tier.
ARGS = {"fig08": {"tiers": ("10MB",)}, "sec5": {"tier": "10MB"}}

#: sha256 of ``repr((repr(data), text, machine_state))`` per experiment,
#: keyed by the Python version the digests were recorded on.
DIGESTS = {
    "3.11": {
        "ext_nosql": "8fc51cc65bd80042717335ad69def187"
                     "95ff00eb392097dc1c94b723b3be3231",
        "ext_writes": "d23f74c9dcd5b1a5f51d241430754cdc"
                      "85155eae096bba53a2f930ca78163797",
        "fig05": "5c8b85b0ef62fb9ae4da128d02dff670"
                 "71479412bcae1a285712b21ada8d7902",
        "fig06": "223c4ce9865a1ca15a96af01d8deada2"
                 "3ff205ffafba07dca6d8d6ae28791108",
        "fig07": "0d88fd4532492026ebd6842f71cce529"
                 "482165005a3b864187e9e14f8474dfef",
        "fig08": "0b7d2e0d4ea4dfdd84830eac1b425756"
                 "b122b1ece7621249c6bdc9c2806e683f",
        "fig09": "41177e41220e4a2039638e985a5393d0"
                 "f8398b2aa3c6201cabff2b9efdfd69ed",
        "fig10": "6acaed63ce7ce59a50b4669327eb4685"
                 "7f77b6cc92534b7d9550109b7da0f615",
        "fig11": "c4c816c8ce562cdc7726f81305017867"
                 "774ac0cf266fdae4e8f5e61f1605b550",
        "fig13": "f5789168d583f3acd74cae06a5d6ad6e"
                 "ed9a6b04bff590f41db11fd1c03d7aa1",
        "sec5": "0889a8e881ee1b14bf8ef95fcd3c8e40"
                "c3c68d67a5ca1179bc19a8906332003f",
        "tab01": "513c003e0830d726b53603224eabe5a7"
                 "16d79a4e0bcdb6df64e4e929a957ad86",
        "tab02": "941b7da3942371d5f049cfd25206d68b"
                 "cf18405c9f36e9b59850c907d8c4bee6",
        "tab03": "80da8096b63fb5bd9e511b79d67cccf6"
                 "80cd3df42f956dc5676aca9e844c036f",
        "tab05": "c78bd38d1f596cdbf90ff448cd7543e2"
                 "5dc14e19bdd2fb5a5248a0cd0b00b83c",
    },
}

PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


def experiment_digest(name: str) -> str:
    lab = Lab(LabConfig(scale=16, tier="10MB"))
    result = EXPERIMENTS[name](lab, **ARGS.get(name, {}))
    state = (repr(result.data), result.text, machine_state(lab.machine))
    return hashlib.sha256(repr(state).encode()).hexdigest()


@pytest.mark.skipif(
    PYTHON not in DIGESTS,
    reason="digests recorded on 3.11; 3.12 changed float sum() to "
           "Neumaier summation",
)
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_digest(name):
    assert experiment_digest(name) == DIGESTS[PYTHON][name]
