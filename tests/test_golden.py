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
        "2ef793a38995462db10f86f8b8ac65fa8bd7b1160c3421a6a6442422334d72de",
    "stap/default/sweep-trotter":
        "5dd0121c13c75a60474b5993efc486a9fbb899c57417afa6e2cf60176552c72c",
    "stap/erratum/run":
        "84c4983af85e751a592a86e39a00287f774e945bdcf92210421811c95c0fe6dd",
    "stap/erratum/export-qasm":
        "44e8132b07799a825b4a2ff8c784608add06be6a67cd4d4260e7bb866d319e9a",
    "stap/erratum/sweep-trotter":
        "4d9a6b70ae0545a4ec916a3ce79504b755af09529fdbf4fc846ec1f3270c3a1e",
    "stap/sp/run":
        "debabb331d30e56210728a943913be0683252db7624414b43f9e994b76e47b19",
    "stap/sp/export-qasm":
        "15594afe406b140208e55ade3746b05f6b4ef34bc5c54cbc1aa6759d092a3b1f",
    "stap/sp/sweep-trotter":
        "25c658818b497337d39749a5aa29b8d998f93705dfa52b3344da433f67c67fa3",
    "stirap/default/run":
        "4af453cb56d753569108e9727dd1085577936f6ede5b9e52013b61c45ef78b3e",
    "stirap/default/export-qasm":
        "005353cb233e667de9334da19d7ddb02aa91b82705d6e42be16119456a93c21b",
    "stirap/default/sweep-trotter":
        "d8d390a4d828aa2896c9c2b340d1c216a74e425ff0fac5c9891900b2cd8d0ffa",
    "stirap/erratum/run":
        "858ac976c12913b7c9da7b0785a123adbcfada4427a3417fc2aba4dc3b885eb9",
    "stirap/erratum/export-qasm":
        "737732e6e874901a5403bd023bfdf4f7111c3d1c3c8db80561e24b5c9434f159",
    "stirap/erratum/sweep-trotter":
        "f4128d588d219898562ef5c8e975312d797ebc7d95e5b3b2212dbca3384b3a4a",
    "stirap/sp/run":
        "3f18e6a2b494eb0c874f6ea9c53d4a877db57acdec81003c4c32489265f63f5d",
    "stirap/sp/export-qasm":
        "50be1a92c16ac46372fc7bc41dad526fbb917e1f9b65cff96f04c9b5eaa2c949",
    "stirap/sp/sweep-trotter":
        "719287bd7f47cbed0e2fee0833458f491625bdc4e91db01fce582c84802bd04d",
    "stap/default/dump-pulses":
        "37415da7b64d99a8e07605a5d2b368ce77571153b1e79b60b6de3bb570fa31a5",
    "stirap/default/dump-pulses":
        "aa3c188f80692127715d6576f19ef2e9eb7b59858dd4711a0aac3b405d81dffa",
    "stap/default/export-qasm@531":
        "bd3091a835f4aeb79b86529fbbbaf225610ef6666e03be14a94c67a2d403ff95",
    "stap/erratum/export-qasm@531":
        "f21d9bbdd1be01dabcf697c22fa657167143ce9e68829a2ed9d3125191ad78ad",
    "stap/sp/export-qasm@531":
        "9ac48b467d8bf5b7a0ef2115df687937ca0c9819cdb622b8dd883eabc3a7a0a3",
    "stirap/default/export-qasm@531":
        "7aa105499334acb32a2d6ee41c1accf235679557addc5d55a78d9230882d633f",
    "stirap/erratum/export-qasm@531":
        "9bbb10a704f908f526de542b0f58b814f88cd50abf887ea1b2b3b2777fa1bc64",
    "stirap/sp/export-qasm@531":
        "5ae7940981d2c2b01218fa6a325a0bc0e054123a4789bea7ccbe06444e4b1fd6",
    "stap/default/export-qasm@972":
        "e5f2c3ad13f17612f52b729eee197ea3fd8e09b31cd7da8a6415fec99d6a57cb",
    "stap/erratum/export-qasm@972":
        "517b6c0eab2ab9e736e4bd0e34073cbaa144f4480ac91db35bd397bee76f3394",
    "stap/sp/export-qasm@972":
        "958c70477bb48985a73eb9e549adf93746fb736bb327cfa668cfe03431d55c74",
    "stirap/default/export-qasm@972":
        "8d3df08ba118f73ddd722b0dde10cb0c366325e88f841e0197e7a193e8ec81d6",
    "stirap/erratum/export-qasm@972":
        "4a738e05084c3f7bd9b823ec3290b8fc7a23575c4b8ab23380e086ff9078c867",
    "stirap/sp/export-qasm@972":
        "b33d02ce86db017a4257fdcd477dabb273cba3651fceaff874e1a0f311e8df97",
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
