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
        "bfc0d697631e1c344526279ee41f8112a10675725760b93f6acbd618957a657e",
    "stap/default/export-qasm":
        "4dca5f6348c7581747ee461e904135c4d71f33d62208e5351144015131b88fbf",
    "stap/default/sweep-trotter":
        "5dd0121c13c75a60474b5993efc486a9fbb899c57417afa6e2cf60176552c72c",
    "stap/erratum/run":
        "84c4983af85e751a592a86e39a00287f774e945bdcf92210421811c95c0fe6dd",
    "stap/erratum/export-qasm":
        "62a218f5f78ee3618ac97153413b673a1496d07048a3be6110f5d23ddb6e57d8",
    "stap/erratum/sweep-trotter":
        "4d9a6b70ae0545a4ec916a3ce79504b755af09529fdbf4fc846ec1f3270c3a1e",
    "stap/sp/run":
        "debabb331d30e56210728a943913be0683252db7624414b43f9e994b76e47b19",
    "stap/sp/export-qasm":
        "9c2aed9bdad02245560a3c519a64a0f3d63c8e2e54747cbee2468e8ff370b72d",
    "stap/sp/sweep-trotter":
        "25c658818b497337d39749a5aa29b8d998f93705dfa52b3344da433f67c67fa3",
    "stirap/default/run":
        "4af453cb56d753569108e9727dd1085577936f6ede5b9e52013b61c45ef78b3e",
    "stirap/default/export-qasm":
        "1feb0af413f0a5684da6d3d3598a00ea1399139c82b15ca55692c6be3642f4ac",
    "stirap/default/sweep-trotter":
        "d8d390a4d828aa2896c9c2b340d1c216a74e425ff0fac5c9891900b2cd8d0ffa",
    "stirap/erratum/run":
        "858ac976c12913b7c9da7b0785a123adbcfada4427a3417fc2aba4dc3b885eb9",
    "stirap/erratum/export-qasm":
        "7b892160cbae654f9d0172a01a6a4b68f2178066e53c9beb3db54483697d399b",
    "stirap/erratum/sweep-trotter":
        "f4128d588d219898562ef5c8e975312d797ebc7d95e5b3b2212dbca3384b3a4a",
    "stirap/sp/run":
        "3f18e6a2b494eb0c874f6ea9c53d4a877db57acdec81003c4c32489265f63f5d",
    "stirap/sp/export-qasm":
        "e6e0f9a4ade5b67c651a6baba655f6942dc26f857dbee74a7bc1fc1eb17b3545",
    "stirap/sp/sweep-trotter":
        "719287bd7f47cbed0e2fee0833458f491625bdc4e91db01fce582c84802bd04d",
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
