"""The input boundary: every malformed document or ``--samples`` list exits 1
with an ``error:`` line, before any work starts.  No run may raise out of
``cli.main``, warn of invalid arithmetic, or print a NaN."""

import contextlib
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kernelcert.cli import main

ZOO = Path(__file__).resolve().parent.parent / "zoo"
KERNELS = {path.stem: json.loads(path.read_text()) for path in sorted(ZOO.glob("*.json"))}


def run_cli(argv):
    """Exit code, stdout, stderr and the RuntimeWarnings of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([str(a) for a in argv])
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return rc, out.getvalue(), err.getvalue(), runtime


def assert_clean(rc, out, err, runtime, refused=True):
    assert rc in ((1,) if refused else (0, 1)), (rc, err)
    assert rc == 0 or err.startswith("error:"), err
    assert not runtime, [str(w.message) for w in runtime]
    assert "NaN" not in out and "Infinity" not in out


def atoms_doc(kind="euclidean"):
    return {"space": {"kind": kind, "dim": 1},
            "atoms": [{"x": [-0.4], "w": 0.7}, {"x": [0.3], "w": -0.2}]}


TORUS_COSINE = {"space": {"kind": "torus", "dim": 1},
                "density": {"family": "torus_cosine", "alpha": 0.5, "n0": 2}}
SINC_SQ = {"space": {"kind": "euclidean", "dim": 1},
           "density": {"family": "modulated_sincsq", "alpha": 1.0, "omega0": 5.0}}


def _density(doc, **fields):
    return {**doc, "density": {**doc["density"], **fields}}


BAD_MEASURES = {
    "atoms-5": ({**atoms_doc(), "atoms": 5}, "gaussian_ti"),
    "atoms-null": ({**atoms_doc(), "atoms": None}, "gaussian_ti"),
    "density-list": ({**SINC_SQ, "density": [1, 2]}, "sinc"),
    "density-string": ({**SINC_SQ, "density": "x"}, "sinc"),
    "alpha-list": (_density(TORUS_COSINE, alpha=[1]), "poisson_torus"),
    "alpha-null": (_density(SINC_SQ, alpha=None), "sinc"),
    "omega0-list": (_density(SINC_SQ, omega0=[3]), "sinc"),
    "alpha-10**400": (_density(SINC_SQ, alpha=10 ** 400), "sinc"),
}

# certify once built two point lists of dim numbers for a radial or constant
# kernel's witness, and float() overflowed on an integer beyond the float range
BAD_KERNELS = {
    "constant-dim-2**63": {**KERNELS["constant"], "space": {"kind": "euclidean", "dim": 2 ** 63}},
    "radial_gaussian-dim-2**63": {**KERNELS["radial_gaussian"],
                                  "space": {"kind": "euclidean", "dim": 2 ** 63}},
    "sigma-10**400": {**KERNELS["gaussian_ti"], "params": {"sigma": 10 ** 400}},
}

# JSON strings and booleans that were read as numbers, with exit 0
NOT_NUMBERS = {
    "sigma-true": ("--kernel", {**KERNELS["gaussian_ti"], "params": {"sigma": True}}),
    "sigma-string": ("--kernel", {**KERNELS["gaussian_ti"], "params": {"sigma": "2.0"}}),
    "alpha-string": ("--measure", _density(TORUS_COSINE, alpha="1.5")),
    "atom-strings": ("--measure", {**atoms_doc(), "atoms": [{"x": ["0.5"], "w": "1"}]}),
    "atom-true": ("--measure", {**atoms_doc(), "atoms": [{"x": [True], "w": -1}]}),
}


class TestBoundaryTable:
    """Inputs that raised a traceback, or computed NaNs and warned before
    the JSON guard refused them, or allocated before refusing."""

    @pytest.mark.parametrize("doc,kernel", BAD_MEASURES.values(), ids=BAD_MEASURES.keys())
    def test_malformed_measure_document(self, tmp_path, doc, kernel):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert_clean(*run_cli(["energy", "--kernel", ZOO / f"{kernel}.json",
                               "--measure", path, "--method", "both"]))

    @pytest.mark.parametrize("doc", BAD_KERNELS.values(), ids=BAD_KERNELS.keys())
    def test_malformed_kernel_document(self, tmp_path, doc):
        kernel = tmp_path / "k.json"
        kernel.write_text(json.dumps(doc))
        assert_clean(*run_cli(["certify", "--kernel", kernel, "--property", "strictly-pd"]))

    @pytest.mark.parametrize("option,doc", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
    def test_json_numbers_only(self, tmp_path, option, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        verb = "kernel-eval" if option == "--kernel" else "measure-ft"
        rc, out, err, runtime = run_cli([verb, option, path, "--samples", "0.5"])
        assert_clean(rc, out, err, runtime)
        assert "must be a number" in err

    @pytest.mark.parametrize("verb,samples,cause", [
        ("experiment-converge", "10,1e400", "'1e400' has a non-finite"),
        ("experiment-converge", "0,5", "sample sizes must be positive"),
        ("experiment-converge", "2.7,5.9,9.2", "sample size 2.7 is not an integer"),
        ("kernel-eval", "1e400", "'1e400' has a non-finite"),
        ("kernel-spectrum", "nan", "'nan' has a non-finite"),
        ("measure-ft", "1e400", "'1e400' has a non-finite"),
    ], ids=["converge-1e400", "converge-0", "converge-2.7", "kernel-eval-1e400", "kernel-spectrum-nan",
            "measure-ft-1e400"])
    def test_samples_refused_before_any_work(self, tmp_path, verb, samples, cause):
        measure = tmp_path / "m.json"
        measure.write_text(json.dumps(atoms_doc()))
        source = (["--measure", measure] if verb == "measure-ft" else
                  ["--kernel", ZOO / "gaussian_ti.json"])
        if verb == "experiment-converge":
            source += ["--kind", "empirical", "--measure", measure.with_name("t.json")]
            measure.with_name("t.json").write_text(json.dumps(
                {"space": {"kind": "euclidean", "dim": 1}, "atoms": [{"x": [0.0], "w": 1.0}]}))
        rc, out, err, runtime = run_cli([verb, *source, "--samples", samples])
        assert_clean(rc, out, err, runtime)
        assert out == "" and cause in err

    def test_witness_grid_refused_before_allocation(self):
        # a 10^6-point grid would need a 10^12-entry lag matrix; at the parent
        # it laid the grid first and peaked near 375 MB
        tracemalloc.start()
        try:
            result = run_cli(["witness", "--kernel", ZOO / "dirichlet.json", "--grid", 1_000_000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_clean(*result)
        assert "exceeds the limit" in result[2]
        assert peak < 16 * 2 ** 20


# ---------------------------------------------------------------------------
# a fuzzer over one-value mutations of valid documents
# ---------------------------------------------------------------------------

REPLACEMENTS = [None, [1], {}, "x", "2.0", True, -1, 0, 2 ** 63, math.inf]


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@st.composite
def mutated_pair(draw):
    """A zoo kernel document and a measure document, one of which has one
    value replaced, at any depth."""
    kernel = KERNELS[draw(st.sampled_from(sorted(KERNELS)))]
    docs = [kernel, draw(st.sampled_from([atoms_doc(kernel["space"]["kind"]),
                                          TORUS_COSINE, SINC_SQ]))]
    i = draw(st.integers(0, 1))
    docs[i] = _replaced(docs[i], draw(st.sampled_from(list(_paths(docs[i])))),
                        draw(st.sampled_from(REPLACEMENTS)))
    return docs


@given(mutated_pair())
@settings(max_examples=300, deadline=None)
def test_mutated_documents_exit_cleanly(docs):
    with tempfile.TemporaryDirectory() as tmp:
        kernel, measure = Path(tmp, "k.json"), Path(tmp, "m.json")
        kernel.write_text(json.dumps(docs[0]))
        measure.write_text(json.dumps(docs[1]))
        for argv in (["energy", "--kernel", kernel, "--measure", measure, "--method", "both"],
                     ["certify", "--kernel", kernel, "--property", "strictly-pd",
                      "--out", Path(tmp, "w.json")],
                     ["kernel-spectrum", "--kernel", kernel],
                     ["measure-ft", "--measure", measure, "--samples", "0.5"]):
            assert_clean(*run_cli(argv), refused=False)
