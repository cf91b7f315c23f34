"""Golden outputs: the files and tables the program writes stay byte-identical.

Each case runs one command for one protocol and config variant at
N_STEPS Trotter steps and hashes everything it writes (SHA-256 over the
sorted file names, lengths and bytes); sweep-trotter hashes the JSON of its
table.  The digests pin every float to the last bit, so they move with a
change to the physics, the formatting or the rounding of the numpy/BLAS
build.  A change that moves outputs on purpose updates GOLDEN and says so;
`PYTHONPATH=src python tests/test_golden.py` prints the current digests.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from chiralgate.config import validate_config
from chiralgate.scenarios import (dump_pulses, export_qasm, run_scenario,
                                  sweep_trotter)

N_STEPS = 17
SWEEP_STEPS = [10, 17, 20, 40]
VARIANTS = {"default": {}, "erratum": {"erratum_s_gate": True},
            "sp": {"ps_order": "sp"}}

GOLDEN = {
    "stap/default/run":
        "11cb1300e9e44e4e0ac547360b83b6cd9d3c298e43b9f805359ae09c131bd221",
    "stap/default/export-qasm":
        "4dca5f6348c7581747ee461e904135c4d71f33d62208e5351144015131b88fbf",
    "stap/default/sweep-trotter":
        "6ef349b91d4792333f4a589ae330ccc63a483e9566fde14aa0f52f1d4b0275f9",
    "stap/erratum/run":
        "170dde2eb40bb17d61d2499233b24ef0af43b9ae28b65270a301985d83e10749",
    "stap/erratum/export-qasm":
        "62a218f5f78ee3618ac97153413b673a1496d07048a3be6110f5d23ddb6e57d8",
    "stap/erratum/sweep-trotter":
        "d1ce6ea0d5bed19d9401c8bff135501cd6f6270dde0930b4f4af04035d3e489a",
    "stap/sp/run":
        "4eb2bf3e4edded2718df36a2b93288a22c959caebb79a2e4537a91c828bb5b48",
    "stap/sp/export-qasm":
        "9c2aed9bdad02245560a3c519a64a0f3d63c8e2e54747cbee2468e8ff370b72d",
    "stap/sp/sweep-trotter":
        "e3522567a3597b01cf1107cf250cb696831636fa1716c4f3a018da1cb7e180a5",
    "stirap/default/run":
        "37b297473433dfda8aa4809b8c3e16c3e249ce6475e0b513fb1cd5c883ad8a8d",
    "stirap/default/export-qasm":
        "1feb0af413f0a5684da6d3d3598a00ea1399139c82b15ca55692c6be3642f4ac",
    "stirap/default/sweep-trotter":
        "7e13d1470705681bebc5057c415cf4c567a6e6dcad0381e498506cf4ccb47f66",
    "stirap/erratum/run":
        "82a7efa1cf3e01446e8964065b91392780a0ee13861c464f1d86d12f9e3b0f0d",
    "stirap/erratum/export-qasm":
        "7b892160cbae654f9d0172a01a6a4b68f2178066e53c9beb3db54483697d399b",
    "stirap/erratum/sweep-trotter":
        "09b351d50ed3daa714013fbf1bc54a7498843aac6e2b369f3f9c39adeef37f24",
    "stirap/sp/run":
        "74b4afa7554369e412e149585bf335fe9ddd8747e455564b0533b1ffbeb86e9c",
    "stirap/sp/export-qasm":
        "e6e0f9a4ade5b67c651a6baba655f6942dc26f857dbee74a7bc1fc1eb17b3545",
    "stirap/sp/sweep-trotter":
        "558c97e6b0e8d4d6501b23ca262b09d3971966ebf19ebee6ecc5e289ebec91d8",
    "stap/default/dump-pulses":
        "37415da7b64d99a8e07605a5d2b368ce77571153b1e79b60b6de3bb570fa31a5",
    "stirap/default/dump-pulses":
        "aa3c188f80692127715d6576f19ef2e9eb7b59858dd4711a0aac3b405d81dffa",
}


def _outputs(case: str, out_dir: Path) -> dict[str, bytes]:
    protocol, variant, command = case.split("/")
    cfg = validate_config({"protocol": protocol, "n_steps": N_STEPS,
                           **VARIANTS[variant]})
    if command == "dump-pulses":
        return {f"pulses_{protocol}.csv": dump_pulses(cfg).encode()}
    if command == "sweep-trotter":
        table = sweep_trotter(cfg, SWEEP_STEPS)
        return {"sweep.json": json.dumps(table, sort_keys=True).encode()}
    if command == "run":
        run_scenario(cfg, str(out_dir))
    else:
        export_qasm(cfg, str(out_dir))
    return {p.name: p.read_bytes() for p in out_dir.iterdir()}


def digest(case: str, out_dir: Path) -> str:
    h = hashlib.sha256()
    for name, data in sorted(_outputs(case, out_dir).items()):
        h.update(f"{name}\n{len(data)}\n".encode() + data)
    return h.hexdigest()


CASES = [f"{p}/{v}/{c}" for p in ("stap", "stirap") for v in VARIANTS
         for c in ("run", "export-qasm", "sweep-trotter")]
CASES += ["stap/default/dump-pulses", "stirap/default/dump-pulses"]


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_digest(case, tmp_path):
    assert digest(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(f'    "{case}":\n        "{digest(case, Path(tmp))}",\n')
