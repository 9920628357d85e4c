"""Frozen sha256 fingerprints of the command line's reproducible outputs.

Each case runs one ``rig-lab`` command in-process and hashes what it
writes: the per-trial CSV and JSON summary of ``experiment``, the JSON of
``sweep``, and the standard output of every command. A refactor must leave
every digest unchanged; a deliberate output change re-freezes them in a
commit of its own and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from riglab import cli
from riglab.montecarlo import SCHEMA

_ER = {"family": "er", "n": 40}


def _experiment(model, prop, trials, seed, deviation=None):
    doc = {"schema": SCHEMA, "trials": trials, "seed": seed, "workers": 1,
           "model": model, "property": prop}
    if deviation is not None:
        doc["solve"] = {"deviation": deviation}
    return "experiment", doc


CASES = {
    # one ER experiment per property kind, solved or at explicit parameters
    "er-mindeg": (_experiment(_ER, {"kind": "mindeg", "k": 2}, 12, 3, deviation=0.0),
                  "1f9cb3487f9b5a65"),
    "er-kconn": (_experiment({**_ER, "q": 0.15}, {"kind": "kconn", "k": 2}, 12, 4),
                 "1d295398000650d5"),
    "er-matching": (_experiment(_ER, {"kind": "matching"}, 12, 5, deviation=0.5),
                    "ec8a18d0d2399ed2"),
    "er-hamilton": (_experiment({"family": "er", "n": 30}, {"kind": "hamilton"}, 10, 6,
                                deviation=1.0), "1e2965b0c0f9ef07"),
    "er-robust": (_experiment({"family": "er", "n": 20, "q": 0.25},
                              {"kind": "robust", "k": 2}, 6, 7), "a4506020fa097da5"),
    # a geometric composition with its connectivity law, and a family without a law
    "urig_rgg-kconn": (_experiment({"family": "urig_rgg", "n": 60, "K": 8, "P": 400},
                                   {"kind": "kconn"}, 8, 8, deviation=1.5),
                       "4d8cee45dc3d02e0"),
    "rgg-kconn": (_experiment({"family": "rgg", "n": 50, "r": 0.2}, {"kind": "kconn"}, 8, 9),
                  "1301125b1983cfee"),
    "urig-sweep": (("sweep", {
        "schema": SCHEMA, "trials": 6, "seed": 10, "workers": 1,
        "model": {"family": "urig", "n": 50, "P": 1000}, "property": {"kind": "kconn"},
        "sweep": {"axis": "deviation", "values": [-1, 0, 1.5]},
    }), "4a48d507ae3ee157"),
    "predict-params": (("predict", ["--family", "urig", "--property", "kconn", "--k", "2",
                                    "--n", "200", "--K", "12", "--P", "2000"]),
                       "b87e6a72791291aa"),
    "predict-deviation": (("predict", ["--family", "er", "--property", "hamilton",
                                       "--deviation", "0.7"]), "02ef6d36a382a5fc"),
    "solve": (("solve", ["--family", "urig", "--property", "mindeg", "--k", "3",
                         "--n", "500", "--P", "5000", "--deviation", "1"]),
              "e049ef8f030de846"),
}


def _outputs(case, tmp_path, capsys) -> bytes:
    command, spec = case
    out_files = []
    if command in ("experiment", "sweep"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(spec))
        argv = [command, "-c", str(cfg), "--summary", str(tmp_path / "summary.json")]
        out_files.append(tmp_path / "summary.json")
        if command == "experiment":
            argv += ["--csv", str(tmp_path / "trials.csv")]
            out_files.append(tmp_path / "trials.csv")
    else:
        argv = [command, *spec, "--json"]
    assert cli.main(argv) == 0
    parts = [capsys.readouterr().out.encode()] + [p.read_bytes() for p in out_files]
    return b"\0".join(parts)


@pytest.mark.parametrize("name", list(CASES))
def test_output_fingerprint(name, tmp_path, capsys):
    case, digest = CASES[name]
    assert hashlib.sha256(_outputs(case, tmp_path, capsys)).hexdigest()[:16] == digest
