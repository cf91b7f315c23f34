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
# STIRAP pulses of width 0.05: most P/S steps drive nothing and compile to
# no gate, so the P/S stage's gates sit in short runs between dropped steps
SPARSE = {"sparse": {"pulses": {"ps_width": 0.05}},
          "sparse-erratum": {"pulses": {"ps_width": 0.05}, "erratum_s_gate": True}}
# one hand alone: no partner trace takes the head its CSVs format
ONE_HAND = {"R-only": {"enantiomer": "R"}}
# the smallest and largest N the benchmark's qasm-export workload draws
QASM_SIZES = (531, 972)

GOLDEN = {
    "stap/default/run":
        "e424109a49eb6387f6f4fba3786cd86e938dd306141282b29a7ab5828a9103e5",
    "stap/default/export-qasm":
        "fecf686d4130cbce3d0d7579c624471398c9c1e2dd70e5c348fc269b2f191870",
    "stap/default/sweep-trotter":
        "6bd9db2415b6f0c2e2d05e54fcb9db82f4828a5a8f243ec02b380789a589e719",
    "stap/erratum/run":
        "5bbbd6f73099fa5c43e7d8b9334eb523d4e139e41a26b3597c114be700b9b745",
    "stap/erratum/export-qasm":
        "3025c3d3e468ec1a376d93d617e290e618b5d8ec1823be826e220f490d797d15",
    "stap/erratum/sweep-trotter":
        "3956db77c63393c6d30a650313ccfff320556410d5c94cbbd5001f1e2bfd49a5",
    "stap/sp/run":
        "7aaa37f149d1bbb304b479c91cc10362307d8e140e2cc77294f51006b7425620",
    "stap/sp/export-qasm":
        "0441db57ea2501d443740acd5fa3174ebf4c49a344a63e1b8746cdad101b2a48",
    "stap/sp/sweep-trotter":
        "40e8c00f6deedb7b08cbd90843f49e4bdfd76f9a9499e02589bf927c6a1efb3d",
    "stirap/default/run":
        "435b30cdb23b3d81708ef851ed42dbc7b4f50f231dc09a5d53cdf5d1bd932aaf",
    "stirap/default/export-qasm":
        "1448049339cf79950e4dac2568e8e810f5e81e694bc31a7c77159905f6b1e06e",
    "stirap/default/sweep-trotter":
        "5394821ffe612681e48e216e744629f6bbd32276b2d61264c635dd0153fd4a60",
    "stirap/erratum/run":
        "195b9faac320c90999cf753065d5a0bc72c12a3fe7946f2b48366d2d0244adb5",
    "stirap/erratum/export-qasm":
        "dc87edc4a46f4ed5b1d7a429d4d464add9a2b35d2b8da77f67ee1de4563f2ec9",
    "stirap/erratum/sweep-trotter":
        "092bdca3cdf0fbe8dfd4b2fd826ac47fbb0a4ebdde3c02e048bcba55b18ce3fe",
    "stirap/sp/run":
        "07e4dd5576de8d184e09b5d89d7fc164ae996e972a897c55bcbef69930aaff3b",
    "stirap/sp/export-qasm":
        "14ee2a2a6d20930a0ce5073902b98400c78973e6b6270ba1811f7d530ee227e6",
    "stirap/sp/sweep-trotter":
        "9684ad48b4add7898a2d2908e3f34b2468f21493e43a32a4eaa6644ea0cceece",
    "stap/default/dump-pulses":
        "37415da7b64d99a8e07605a5d2b368ce77571153b1e79b60b6de3bb570fa31a5",
    "stirap/default/dump-pulses":
        "aa3c188f80692127715d6576f19ef2e9eb7b59858dd4711a0aac3b405d81dffa",
    "stap/default/export-qasm@531":
        "93ff61046de695cb06a63fc170a883f15e428c36e5e19da35b5016ff3cf64c13",
    "stap/erratum/export-qasm@531":
        "e66086cc74dc6eaa51a5133676ea4d03db9a6123e939854b8edb08b5d3235f2b",
    "stap/sp/export-qasm@531":
        "f0993b4ab93cb507d7a69b8aebad923a388596b1ad1ac1fef255fa0dc9453b97",
    "stirap/default/export-qasm@531":
        "dc28a6f8f2a1db87159dfb3d6c54aae6a813df9a51408ae21a55a091e853d170",
    "stirap/erratum/export-qasm@531":
        "7ef0c5994cd4ddca9404e71ff97878e3c330584dfafe470396baaacc1c9dfe61",
    "stirap/sp/export-qasm@531":
        "5a089c0c963616223115ffea90714a149a6f39934697099eaf72c543cf7ed1ee",
    "stap/default/export-qasm@972":
        "bc7bde733852ae39647bfee87399fc1eb78dd9268a1f06e6d5080d0e13e26b3a",
    "stap/erratum/export-qasm@972":
        "1c9d8eaff2d7e11aa55534031598143d9f3e45c67741e315535325c299f7624b",
    "stap/sp/export-qasm@972":
        "4b6191eb6ef562e78a4c31325f9c5eb1047a791778b97d39fdbb87a036e5284f",
    "stirap/default/export-qasm@972":
        "ca03ce9e3cc880e05ac7a681c5b80fe82b74197e7ed1f6fcb8776002c76eecc9",
    "stirap/erratum/export-qasm@972":
        "c3f5823bce00e2571cd470b99cd399f5cf68080b587a8a628ac976655f491a9f",
    "stirap/sp/export-qasm@972":
        "32e17aeb577402c99af6829892abf873b89baeaab87a37c67a46cbae3c28c930",
    "stirap/sparse/export-qasm@531":
        "59451a0f3edd1263b1898728fe174dceab98e0c78ec903e754e9b102eb88e5f4",
    "stirap/sparse-erratum/export-qasm@531":
        "2ec291979321c4d26db5c0f713575e8689ba87977c43c998034fc92ffde5e187",
    "stap/R-only/run":
        "2af16723e7eb8b323e0d1ff88b525a64bf5b390c86268e988d8643acebf108c5",
    "stirap/R-only/run":
        "77ad1a2371e7148e09fb2d9bca4d6aeaf43a6174c04d6b3aac8f78014b57e9f8",
}


def _outputs(case: str, out_dir: Path) -> dict[str, bytes]:
    case, _, n_steps = case.partition("@")
    protocol, variant, command = case.split("/")
    cfg = validate_config({"protocol": protocol, "n_steps": int(n_steps or N_STEPS),
                           **{**VARIANTS, **SPARSE, **ONE_HAND}[variant]})
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
CASES += [f"stirap/{v}/export-qasm@{QASM_SIZES[0]}" for v in SPARSE]
CASES += [f"{p}/{v}/run" for p in ("stap", "stirap") for v in ONE_HAND]


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_golden_digest(case, tmp_path):
    assert digest(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            sys.stdout.write(f'    "{case}":\n        "{digest(case, Path(tmp))}",\n')
