"""Golden CLI output for every zoo kernel.

Pins exit code and stdout of ``audit``, ``kernel-spectrum``, ``certify``
(every applicable property), ``witness`` and ``energy --method both`` on a
fixed 6-atom measure, plus the witness file each failing ``certify`` writes.
Witness paths are reduced to their basename.  An exit code of ``null``
marks a command that raised at capture time, so a traceback never matches a
pinned exit code.

Regenerate (only when an output change is intended) from the repository
root with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ZOO = ROOT / "zoo"
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

# inside the unit ball, so the dot-product families accept it too
ATOMS = [(-0.75, 0.3), (-0.4, -0.7), (-0.1, 0.45), (0.2, 0.2), (0.5, -0.5), (0.85, 0.25)]


def _run(argv):
    import contextlib
    import io

    from kernelcert.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main([str(a) for a in argv])
        except Exception:
            rc = None
    return {"rc": rc, "stdout": out.getvalue()}


def _normalize_certify(result):
    if result["rc"] != 0:
        return result
    doc = json.loads(result["stdout"])
    witness = doc.get("witness", {})
    if "path" in witness:
        path = Path(witness["path"])
        result["witness_file"] = path.read_text()
        path.unlink()
        result["stdout"] = result["stdout"].replace(str(path), path.name)
    return result


def capture(workdir):
    """All pinned outputs, keyed by command line; runs with cwd = workdir."""
    import os

    from kernelcert import applicable_properties, kernel_from_json

    workdir = Path(workdir)
    old = os.getcwd()
    os.chdir(workdir)
    try:
        out = {"audit": _run(["audit", "--kernel-dir", ZOO])}
        for path in sorted(ZOO.glob("*.json")):
            name = path.stem
            k = kernel_from_json(json.loads(path.read_text()))
            out[f"kernel-spectrum {name}"] = _run(["kernel-spectrum", "--kernel", path])
            for prop in applicable_properties(k):
                res = _run(["certify", "--kernel", path, "--property", prop])
                out[f"certify {name} {prop}"] = _normalize_certify(res)
            out[f"witness {name}"] = _run(["witness", "--kernel", path])
            measure = workdir / f"{name}.measure.json"
            measure.write_text(json.dumps({
                "space": {"kind": k.space.kind, "dim": 1},
                "atoms": [{"x": [x], "w": w} for x, w in ATOMS],
            }))
            out[f"energy {name}"] = _run(["energy", "--kernel", path, "--measure", measure,
                                          "--method", "both"])
            measure.unlink()
        return out
    finally:
        os.chdir(old)


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = capture(tmp_path)
    assert sorted(got) == sorted(golden)
    moved = [key for key, want in golden.items() if got[key] != want]
    assert not moved, f"{len(moved)} entries differ from {GOLDEN.name}: {moved}"


def test_sequential_calls_in_one_process(tmp_path, monkeypatch):
    """certify, energy, certify again in one process: no call leaves state
    behind that changes the next one's golden output."""
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.chdir(tmp_path)
    measure = tmp_path / "gaussian_ti.measure.json"
    measure.write_text(json.dumps({"space": {"kind": "euclidean", "dim": 1},
                                   "atoms": [{"x": [x], "w": w} for x, w in ATOMS]}))
    calls = [
        ("certify dirichlet characteristic",
         ["certify", "--kernel", ZOO / "dirichlet.json", "--property", "characteristic"]),
        ("energy gaussian_ti",
         ["energy", "--kernel", ZOO / "gaussian_ti.json", "--measure", measure,
          "--method", "both"]),
        ("certify gaussian_ti strictly_pd",
         ["certify", "--kernel", ZOO / "gaussian_ti.json", "--property", "strictly_pd"]),
    ]
    for key, argv in calls:
        assert _normalize_certify(_run(argv)) == golden[key], key


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(capture(tmp), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
