"""Golden outputs: the files and tables the program writes stay byte-identical.

Each case runs one command for one protocol and config variant at
N_STEPS Trotter steps (or at the N after "@") and hashes everything it
writes (SHA-256 over the sorted file names, lengths and bytes);
sweep-trotter hashes the JSON of its table.  The digests pin every float to the last bit, so they move with a
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
# the smallest and largest N the benchmark's qasm-export workload draws
QASM_SIZES = (531, 972)

GOLDEN = {
    "stap/default/run":
        "2fc4bf1329c8e6901080b2e4930a0ce00e2aa545ca0ebfdef16073199ef8a72d",
    "stap/default/export-qasm":
        "4dca5f6348c7581747ee461e904135c4d71f33d62208e5351144015131b88fbf",
    "stap/default/sweep-trotter":
        "bc08ec40fa1830bec0e76f22537127e535738476968e030cc0f6dea9e7716d73",
    "stap/erratum/run":
        "664b32a6252149b9698c7dfd88aad3c2f2a949f4ffe074c829832d2c48daad11",
    "stap/erratum/export-qasm":
        "62a218f5f78ee3618ac97153413b673a1496d07048a3be6110f5d23ddb6e57d8",
    "stap/erratum/sweep-trotter":
        "75f9a776b1a78b70e8176c617f830af8daf6db7e37519cfa73159dba7f3a9651",
    "stap/sp/run":
        "0c47fcf1e69e7bac415f6ca6b8b0aeed11a94eb59476dddd515f76957d00fa96",
    "stap/sp/export-qasm":
        "9c2aed9bdad02245560a3c519a64a0f3d63c8e2e54747cbee2468e8ff370b72d",
    "stap/sp/sweep-trotter":
        "55e592beb38cdb2d9ed64512c209f7f1e2f572570f069981e99b85b521c18c00",
    "stirap/default/run":
        "822bf1add20c415940cb576d7059dcca6237891b65a587425da4d71ee127ae2c",
    "stirap/default/export-qasm":
        "1feb0af413f0a5684da6d3d3598a00ea1399139c82b15ca55692c6be3642f4ac",
    "stirap/default/sweep-trotter":
        "9a7972d03b05e72210b1790e822d564bf9f21a22ef1617508c8fbfb9efb4cbb5",
    "stirap/erratum/run":
        "15f64134a79816b256d5138d0f4236c12152525cbc7822760d186d275e3fc309",
    "stirap/erratum/export-qasm":
        "7b892160cbae654f9d0172a01a6a4b68f2178066e53c9beb3db54483697d399b",
    "stirap/erratum/sweep-trotter":
        "8f1e44a6831341f701ca8292e063d57da25cd2cd18f1f624c24b14d9071bcdeb",
    "stirap/sp/run":
        "4f148346eb4f109d78dd82e6c24c3e170572b913046dd8799b011223bd7b017c",
    "stirap/sp/export-qasm":
        "e6e0f9a4ade5b67c651a6baba655f6942dc26f857dbee74a7bc1fc1eb17b3545",
    "stirap/sp/sweep-trotter":
        "ab3ac48fb6cc92628e5c4accf4e2805ff67d88da5d1719adae3328bcd84541f4",
    "stap/default/dump-pulses":
        "37415da7b64d99a8e07605a5d2b368ce77571153b1e79b60b6de3bb570fa31a5",
    "stirap/default/dump-pulses":
        "aa3c188f80692127715d6576f19ef2e9eb7b59858dd4711a0aac3b405d81dffa",
    "stap/default/export-qasm@531":
        "e9fc6181e7eddf53fa1e336dbfe2b519305576a2f18b1fddc6d03399a97f25dd",
    "stap/erratum/export-qasm@531":
        "9efb1a03d5ce140cb75dabf9cb2569292538a2659dd20a943b80141ab354efaf",
    "stap/sp/export-qasm@531":
        "a81ca20abc08082be113b0283e0c95405a2c38b644128f277c0beaff1c9eca5c",
    "stirap/default/export-qasm@531":
        "919a8b4668a28c97ac079e4d6a66d3bdfae5d22aa539f1bb81f63f7085db94b6",
    "stirap/erratum/export-qasm@531":
        "0b68157d63fae358ec97c722f9d66044371180ee934cb8f1ffbbc1f2b425d062",
    "stirap/sp/export-qasm@531":
        "09aa0062a804f420c20dde4252a751c589839da10e8d866afc8d3826be1fd12e",
    "stap/default/export-qasm@972":
        "6eaadb87d348420a7ccfe2e21f3e03b08ec1803112ba9e9d5f6ce08eb841a1b8",
    "stap/erratum/export-qasm@972":
        "28e74585d330d0f7c81ad7aae1c5f76f33eb9eeb03b043b1064db733c19dc3c6",
    "stap/sp/export-qasm@972":
        "930dbbce386f52b6b941541fc320a9d2acb9770c845295dbfbdba1cce181d748",
    "stirap/default/export-qasm@972":
        "f99e2bcb2574a19019be764f719543409cdd96852d40b919e99199c83a62ebc0",
    "stirap/erratum/export-qasm@972":
        "8a162537b2806fbcdfb0d966d2547f6b95079897fa563e838b5331bde4383b62",
    "stirap/sp/export-qasm@972":
        "6fc017e0550e24097ca56d84189ca0648cf169a4514a1d379439535adf869919",
}


def _outputs(case: str, out_dir: Path) -> dict[str, bytes]:
    case, _, n_steps = case.partition("@")
    protocol, variant, command = case.split("/")
    cfg = validate_config({"protocol": protocol, "n_steps": int(n_steps or N_STEPS),
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
CASES += [f"{p}/{v}/export-qasm@{n}" for n in QASM_SIZES for p in ("stap", "stirap")
          for v in VARIANTS]


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_digest(case, tmp_path):
    assert digest(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(f'    "{case}":\n        "{digest(case, Path(tmp))}",\n')
