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
        "07765044af70f251a531465bdb76e81ee83760ef1b79763f613b5813c55a4c81",
    "stap/default/export-qasm":
        "4dca5f6348c7581747ee461e904135c4d71f33d62208e5351144015131b88fbf",
    "stap/default/sweep-trotter":
        "984dd4176d3abb8a4bd89531936da997dac9e9a43d1fce194c1e3c308a014339",
    "stap/erratum/run":
        "c952567b0e2a55ae53cab25c01b5a3f9d5d83c69cd45c95b294e57b5b0ace0b8",
    "stap/erratum/export-qasm":
        "62a218f5f78ee3618ac97153413b673a1496d07048a3be6110f5d23ddb6e57d8",
    "stap/erratum/sweep-trotter":
        "548a838e095cd82d6e83ca1b0b617e575626cc6ac376e85fb5f90bce05cea2f4",
    "stap/sp/run":
        "ec02dbb8395810407902a9cecfed936cbd0b0cc08104f60c3d14caf1f3a3626f",
    "stap/sp/export-qasm":
        "9c2aed9bdad02245560a3c519a64a0f3d63c8e2e54747cbee2468e8ff370b72d",
    "stap/sp/sweep-trotter":
        "fcfad14e6fd195fae58b1b0b278997a16da025f6d55218d03ad34ada66aedf43",
    "stirap/default/run":
        "cf385aa230dba377a59ded54cfd1084b1ae340c6901bc5399f0c60275b275a04",
    "stirap/default/export-qasm":
        "1feb0af413f0a5684da6d3d3598a00ea1399139c82b15ca55692c6be3642f4ac",
    "stirap/default/sweep-trotter":
        "6712867d27d0727ae53772d797c751a3e5396419011efd269a410b0675a37e86",
    "stirap/erratum/run":
        "5e10c018056f8b587a0327ba169edd9f3fcfd780852096dc34969598e7ac16d9",
    "stirap/erratum/export-qasm":
        "7b892160cbae654f9d0172a01a6a4b68f2178066e53c9beb3db54483697d399b",
    "stirap/erratum/sweep-trotter":
        "08ef07381d5386abbc00b9ebd5c8acd081ae255f096cb6afd6f02e9e316457e2",
    "stirap/sp/run":
        "e580ca9313c442280f734b771bf82af14cc480f5d3457eab7c5ec3c60d2409ce",
    "stirap/sp/export-qasm":
        "e6e0f9a4ade5b67c651a6baba655f6942dc26f857dbee74a7bc1fc1eb17b3545",
    "stirap/sp/sweep-trotter":
        "0db368f18c845f843a115b9a51f809fddcdd8ebb22c8630c294ef4a45d7a806e",
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
