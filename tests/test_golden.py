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
        "748dddba9e8d66e56e2c97f1e998f62bb337b448b368fff5b7cedc3845652709",
    "stap/default/sweep-trotter":
        "5dd0121c13c75a60474b5993efc486a9fbb899c57417afa6e2cf60176552c72c",
    "stap/erratum/run":
        "84c4983af85e751a592a86e39a00287f774e945bdcf92210421811c95c0fe6dd",
    "stap/erratum/export-qasm":
        "3b89ab4443a7f2cae3ada23914ee80e75af2815710c6513900fb82a4bbaf34f4",
    "stap/erratum/sweep-trotter":
        "4d9a6b70ae0545a4ec916a3ce79504b755af09529fdbf4fc846ec1f3270c3a1e",
    "stap/sp/run":
        "debabb331d30e56210728a943913be0683252db7624414b43f9e994b76e47b19",
    "stap/sp/export-qasm":
        "9c716b453e3b0304803d1dcaf2f3aa630d75f49528e2309d7f6dd9d472cf0b10",
    "stap/sp/sweep-trotter":
        "25c658818b497337d39749a5aa29b8d998f93705dfa52b3344da433f67c67fa3",
    "stirap/default/run":
        "4af453cb56d753569108e9727dd1085577936f6ede5b9e52013b61c45ef78b3e",
    "stirap/default/export-qasm":
        "931933d79f4549a0a188fc86ebbbe9db47e4a96acc735bd311c3adec7cc5a458",
    "stirap/default/sweep-trotter":
        "d8d390a4d828aa2896c9c2b340d1c216a74e425ff0fac5c9891900b2cd8d0ffa",
    "stirap/erratum/run":
        "858ac976c12913b7c9da7b0785a123adbcfada4427a3417fc2aba4dc3b885eb9",
    "stirap/erratum/export-qasm":
        "c898a496ee46db48e037259834b68143a59ab94bdca2ef8ed950aa958ea2f257",
    "stirap/erratum/sweep-trotter":
        "f4128d588d219898562ef5c8e975312d797ebc7d95e5b3b2212dbca3384b3a4a",
    "stirap/sp/run":
        "3f18e6a2b494eb0c874f6ea9c53d4a877db57acdec81003c4c32489265f63f5d",
    "stirap/sp/export-qasm":
        "e64b980820fccef133406dd73beb805ccdfef8affda6fb7fcab617fde4025599",
    "stirap/sp/sweep-trotter":
        "719287bd7f47cbed0e2fee0833458f491625bdc4e91db01fce582c84802bd04d",
    "stap/default/dump-pulses":
        "37415da7b64d99a8e07605a5d2b368ce77571153b1e79b60b6de3bb570fa31a5",
    "stirap/default/dump-pulses":
        "aa3c188f80692127715d6576f19ef2e9eb7b59858dd4711a0aac3b405d81dffa",
    "stap/default/export-qasm@531":
        "ad10e26a6485741728c93cf34b7400f782ea20b5b034cb527761f678e87ee41f",
    "stap/erratum/export-qasm@531":
        "5bc782efbc35709c90ec3a95e16b614d3e252d6b737c78c7b8ca3acca8ea09be",
    "stap/sp/export-qasm@531":
        "a57b67bfb82feec06bfeb518a3fd0835d25edfdaa0608f72261c41413e1f6ac1",
    "stirap/default/export-qasm@531":
        "c5a0aa92e1eb96a8935eeca985090f4f812a03199af2b86e02b40ce6d0a8ed45",
    "stirap/erratum/export-qasm@531":
        "8b8cea0cf09d86f7809b6624fb119df147f4ad3e262bf278861e7bb0ee885ff2",
    "stirap/sp/export-qasm@531":
        "4c374b74573a56a6eef2a211de6b228f8d33c7c715d535971e7e659805876f8e",
    "stap/default/export-qasm@972":
        "b90cf61155bce91d7d99ed501a13c8bfdf102f8106117feb5e8ac9a5f6e57ad3",
    "stap/erratum/export-qasm@972":
        "953f275afdacd85182b5b9af410af7d15b07c1cff233c3e5610e1995d12dee99",
    "stap/sp/export-qasm@972":
        "c30b06035bcdabd2eea6cf77b063e63725bdfda1a2df1d57b15a384aa9b3a15e",
    "stirap/default/export-qasm@972":
        "5af180baceb64f4b9e525804db893566e51a0ab0021df987b383cd65626a5e0c",
    "stirap/erratum/export-qasm@972":
        "b6f7264e4cf06c29b6f0a79edfd0702ef6a678302bc21ce88ab91f27c3087c1e",
    "stirap/sp/export-qasm@972":
        "ab2d37f4e9a3a2c010f1ef15368788db2d24a77f40d2a7b6cdecba3ccda6d4a5",
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
