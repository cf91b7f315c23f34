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
        "e424109a49eb6387f6f4fba3786cd86e938dd306141282b29a7ab5828a9103e5",
    "stap/default/export-qasm":
        "6cd26ca09ccc93a3681100cef47c5932cf5451b9d5f2997a92b98609f326e153",
    "stap/default/sweep-trotter":
        "6bd9db2415b6f0c2e2d05e54fcb9db82f4828a5a8f243ec02b380789a589e719",
    "stap/erratum/run":
        "28ec8057b6d35f3f85cf3d698c5b88085df0d8b6d972c664cdd720cedd9680d6",
    "stap/erratum/export-qasm":
        "364391d71dac2552182d3759df60e56db008772a96861a02ffd095887e4a6ee4",
    "stap/erratum/sweep-trotter":
        "91703e771d5ea94a3b156476b650e16a19d556c828117f66423c6210ddb9678e",
    "stap/sp/run":
        "7aaa37f149d1bbb304b479c91cc10362307d8e140e2cc77294f51006b7425620",
    "stap/sp/export-qasm":
        "dc33650155285b6ea039242c8ca2071d511ab9b9d0ff97779aea1af01c24d545",
    "stap/sp/sweep-trotter":
        "40e8c00f6deedb7b08cbd90843f49e4bdfd76f9a9499e02589bf927c6a1efb3d",
    "stirap/default/run":
        "435b30cdb23b3d81708ef851ed42dbc7b4f50f231dc09a5d53cdf5d1bd932aaf",
    "stirap/default/export-qasm":
        "2b4b6b84a943cf80ea7d7aaa7240a6292dd3bbb2e817aa050e1dd37b5f0506e8",
    "stirap/default/sweep-trotter":
        "5394821ffe612681e48e216e744629f6bbd32276b2d61264c635dd0153fd4a60",
    "stirap/erratum/run":
        "be0382b84525279497e42b42cceee84a1bd3861b83c4b9418f68c0f81113ac09",
    "stirap/erratum/export-qasm":
        "0ae77f49ecf7c2810b17ce0aabf2666ff2b5eab4ca734ea141e92cd20b366aea",
    "stirap/erratum/sweep-trotter":
        "6d1bed456cb1cdc4f2b7e72a11862416ad71266dd7cf5163b30435bcd8d1678c",
    "stirap/sp/run":
        "07e4dd5576de8d184e09b5d89d7fc164ae996e972a897c55bcbef69930aaff3b",
    "stirap/sp/export-qasm":
        "1e3a4fc7bd736b16dcbd0273854ae7847275d9a01f9a36c705381f3d6405aeec",
    "stirap/sp/sweep-trotter":
        "9684ad48b4add7898a2d2908e3f34b2468f21493e43a32a4eaa6644ea0cceece",
    "stap/default/dump-pulses":
        "37415da7b64d99a8e07605a5d2b368ce77571153b1e79b60b6de3bb570fa31a5",
    "stirap/default/dump-pulses":
        "aa3c188f80692127715d6576f19ef2e9eb7b59858dd4711a0aac3b405d81dffa",
    "stap/default/export-qasm@531":
        "b5ef461c732b1a0dd8a216ee97be2c749667963a598a1f1c84ca8ecca509d996",
    "stap/erratum/export-qasm@531":
        "75acc0a202eebe90a4da18e5e61ea0a09649282f08ca5f32a2d4404d171d7120",
    "stap/sp/export-qasm@531":
        "97ee5dccbf4add5bff91a87b58b2c3fee91e61ac451b2f1758e531305062e98a",
    "stirap/default/export-qasm@531":
        "1e1a4e782baf7d0c886fc6067c3b226da63fdc56b56e1fab36bbcd6b8d3de730",
    "stirap/erratum/export-qasm@531":
        "d4aa8e12c823768d6f26a2c2830c4505dcfe6cf9e3f9ec8cd358f2b56926dad7",
    "stirap/sp/export-qasm@531":
        "b38c97e3a8b2bde08706a56c835abbba23e1a2c153aee257483587780cff4889",
    "stap/default/export-qasm@972":
        "58fc73aa470b9d706d9aab46bf9831e5762ae4cac378239c65ba91c86611c7f7",
    "stap/erratum/export-qasm@972":
        "1c66d43172560b6cffb691c609d3639dd2aa56e5c09fed17b163ebb15f5cfa46",
    "stap/sp/export-qasm@972":
        "65eec9dfa0349c3bb9f8e4215cef10988e1d618236724aa63e7c5a486b660d19",
    "stirap/default/export-qasm@972":
        "70781ff48436da9895dc83ee73747ee2c71e6280dde1c8b4950be8b14278bd31",
    "stirap/erratum/export-qasm@972":
        "9b7cd4a0cbf0b181f060e6334b5aadfb419e5b6a8fd7b5b6ab14e5f301333ea8",
    "stirap/sp/export-qasm@972":
        "5f8cc964818b39b99957c9cba849e266aa6891cf8f75c5c67df8b31f255069ef",
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
