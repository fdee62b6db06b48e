"""Which heavy modules the commands load. `extract`, `report` and
`paper-check` never load OpenSSL's `_hashlib` (hashlib imports it), the
`numpy.random` package, `numpy.ma` or scipy; `cv` seeds RNGs, so it may load
the first two, but it loads neither `numpy.ma` (a bare `np.unique` would) nor
scipy. Each check runs the commands through `cli.main` in a fresh
interpreter and reads its `sys.modules`."""

import json
import os
import subprocess
import sys
from pathlib import Path

import vcfclass
from vcfclass.phantom import CohortSpec, generate_cohort

_WATCHED = ("_hashlib", "numpy.random", "numpy.ma", "scipy")


def _loaded_after(*commands) -> list:
    """The `_WATCHED` modules in `sys.modules` after a fresh interpreter
    runs each command line through `cli.main`, each exiting 0."""
    code = ("import json, sys\n"
            "from vcfclass import cli\n"
            f"for argv in {list(commands)!r}:\n"
            "    assert cli.main(argv) == 0, argv\n"
            f"print(json.dumps([m for m in {_WATCHED!r} if m in sys.modules]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(vcfclass.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def test_commands_load_no_openssl_rng_or_scipy(tmp_path):
    generate_cohort(CohortSpec(n_patients=2, studies_per_patient=2, seed=7), tmp_path / "coh")
    manifest = tmp_path / "coh" / "manifest.json"
    table, results = tmp_path / "features.csv", tmp_path / "res"
    assert _loaded_after(["extract", "--manifest", str(manifest), "--out", str(table)],
                         ["paper-check"]) == []
    cv = ["cv", "--table", str(table), "--k", "2", "--members", "1"]
    # Each patient holds one class, so grouped folds need shuffled labels.
    grouped = [*cv, "--group-by-patient", "--shuffle-labels", "--out", str(tmp_path / "grp")]
    for argv in ([*cv, "--out", str(results)], grouped):
        assert not {"numpy.ma", "scipy"} & set(_loaded_after(argv))
    assert _loaded_after(["report", "--results", str(results)]) == []
