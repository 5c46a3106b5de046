import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import kernelcert as kc
from kernelcert.cli import main

PI = math.pi
ZOO = Path(__file__).resolve().parent.parent / "zoo"


def write_measure(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def antipodal(tmp_path):
    return write_measure(tmp_path, "m.json", {
        "space": {"kind": "torus", "dim": 1},
        "atoms": [{"x": [0.0], "w": 1.0}, {"x": [PI], "w": -1.0}],
    })


@pytest.fixture
def dirac_pair(tmp_path):
    p = write_measure(tmp_path, "p.json", {
        "space": {"kind": "euclidean", "dim": 1},
        "atoms": [{"x": [0.0], "w": 1.0}]})
    q = write_measure(tmp_path, "q.json", {
        "space": {"kind": "euclidean", "dim": 1},
        "atoms": [{"x": [1.0], "w": 1.0}]})
    return p, q


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestEnergyVerb:
    def test_both_methods_agree(self, capsys, antipodal):
        rc, out, _ = run(capsys, "energy", "--kernel", str(ZOO / "poisson_torus.json"),
                         "--measure", antipodal, "--method", "both")
        assert rc == 0
        doc = json.loads(out)
        assert doc["difference"] <= doc["bounds"]
        assert abs(doc["spatial"]["value"] - 16.0 / 3.0) <= 1e-10

    def test_far_atoms_beyond_the_panel_limit_exit_1(self, capsys, tmp_path):
        far = write_measure(tmp_path, "far.json", {
            "space": {"kind": "euclidean", "dim": 1},
            "atoms": [{"x": [0.0], "w": 1.0}, {"x": [1e6], "w": -0.5}]})
        rc, out, err = run(capsys, "energy", "--kernel", str(ZOO / "b1_spline.json"),
                           "--measure", far, "--method", "both")
        assert rc == 1 and out == "" and "panels" in err

    def test_routes_that_disagree_exit_1(self, capsys, tmp_path):
        kernel = write_measure(tmp_path, "k.json", {
            "family": "inverse_multiquadric", "space": {"kind": "euclidean", "dim": 1},
            "params": {"beta": 1.0, "c": 0.03}})
        measure = write_measure(tmp_path, "m.json", {
            "space": {"kind": "euclidean", "dim": 1},
            "atoms": [{"x": [0.0], "w": 1.0}, {"x": [3.3], "w": 0.5}, {"x": [1.0], "w": -1.0}]})
        rc, out, err = run(capsys, "energy", "--kernel", kernel, "--measure", measure,
                           "--method", "both")
        assert rc == 1 and out == "" and err.startswith("error:")
        assert "beyond their summed bounds" in err

    def test_unsupported_combination_is_domain_error(self, capsys, antipodal):
        rc, _, err = run(capsys, "energy", "--kernel", str(ZOO / "gaussian_ti.json"),
                         "--measure", antipodal)
        assert rc == 1 and "error" in err


    @pytest.mark.parametrize("kernel_space,measure", [
        ({"kind": "torus", "dim": 1},
         {"space": {"kind": "euclidean", "dim": 1},
          "density": {"family": "modulated_sincsq", "alpha": 1.0, "omega0": 1.0}}),
        ({"kind": "euclidean", "dim": 3},
         {"space": {"kind": "torus", "dim": 1},
          "density": {"family": "torus_cosine", "alpha": 0.5, "n0": 2}}),
    ], ids=["band-under-torus-constant", "torus_cosine-under-R3-constant"])
    def test_density_on_another_space_exit_1(self, capsys, tmp_path, kernel_space, measure):
        kernel = write_measure(tmp_path, "k.json", {
            "family": "constant", "space": kernel_space, "params": {"c": 2.0}})
        rc, out, err = run(capsys, "energy", "--kernel", kernel,
                           "--measure", write_measure(tmp_path, "m.json", measure),
                           "--method", "spectral")
        assert rc == 1 and out == "" and err.startswith("error:")

class TestMmdVerb:
    def test_constant_kernel_zero(self, capsys, dirac_pair):
        p, q = dirac_pair
        rc, out, _ = run(capsys, "mmd", "--kernel", str(ZOO / "constant.json"),
                         "--p", p, "--q", q)
        assert rc == 0 and json.loads(out)["mmd"] == 0.0

    def test_gaussian_positive(self, capsys, dirac_pair):
        p, q = dirac_pair
        rc, out, _ = run(capsys, "mmd", "--kernel", str(ZOO / "gaussian_ti.json"),
                         "--p", p, "--q", q)
        assert json.loads(out)["mmd"] == pytest.approx(
            math.sqrt(2 - 2 * math.exp(-0.5)), rel=1e-12)


class TestCertifyVerb:
    def test_sinc_fails_with_witness_file(self, capsys, tmp_path):
        out_path = tmp_path / "wit.json"
        rc, out, _ = run(capsys, "certify", "--kernel", str(ZOO / "sinc.json"),
                         "--property", "c0-universal", "--out", str(out_path))
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "fails"
        witness_doc = json.loads(out_path.read_text())
        assert witness_doc["energy"] <= 1e-8
        # the emitted measure document round-trips through the reader
        mu = kc.measure_from_json(witness_doc["measure"])
        assert isinstance(mu, kc.ModulatedSincSq)

    def test_holds(self, capsys):
        rc, out, _ = run(capsys, "certify", "--kernel", str(ZOO / "gaussian_ti.json"),
                         "--property", "c0-universal")
        assert rc == 0 and json.loads(out)["verdict"] == "holds"

    def test_bad_property_usage(self, capsys):
        rc, _, err = run(capsys, "certify", "--kernel", str(ZOO / "gaussian_ti.json"),
                         "--property", "c-universal")
        assert rc == 1  # domain error: property/space mismatch


class TestWitnessVerb:
    def test_dirichlet_grid(self, capsys):
        rc, out, _ = run(capsys, "witness", "--kernel", str(ZOO / "dirichlet.json"),
                         "--grid", "8")
        assert rc == 0
        doc = json.loads(out)
        assert doc["refutes"] == "c_universal"
        assert abs(doc["energy"]) <= 1e-12
        mu = kc.measure_from_json(doc["measure"])
        assert mu.n_atoms == 8

    def test_poisson_has_none(self, capsys):
        rc, _, err = run(capsys, "witness", "--kernel", str(ZOO / "poisson_torus.json"))
        assert rc == 1

    @pytest.mark.parametrize("family", ["poisson_torus", "gaussian_ti", "taylor_exp"])
    def test_no_failing_certificate_has_no_witness(self, capsys, family):
        rc, out, err = run(capsys, "witness", "--kernel", str(ZOO / f"{family}.json"))
        assert rc == 1 and out == ""
        assert err == f"error: {family} admits no zero-energy witness\n"


class TestAuditVerb:
    def test_zoo_is_clean(self, capsys):
        rc, out, _ = run(capsys, "audit", "--kernel-dir", str(ZOO))
        assert rc == 0
        doc = json.loads(out)
        assert doc["total_violations"] == 0
        assert len(doc["kernels"]) >= 12


class TestExperimentVerb:
    def test_moving_csv(self, capsys):
        rc, out, err = run(capsys, "experiment-converge",
                           "--kernel", str(ZOO / "gaussian_ti.json"),
                           "--kind", "moving", "--samples", "2,1,0.5,0.1")
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "param,gamma_k,bounded_lipschitz"
        assert len(lines) == 5
        assert "comonotonicity: holds" in err

    def test_deterministic_with_seed(self, capsys, tmp_path):
        target = write_measure(tmp_path, "t.json", {
            "space": {"kind": "euclidean", "dim": 1},
            "atoms": [{"x": [0.0], "w": 0.5}, {"x": [1.0], "w": 0.5}]})
        args = ("experiment-converge", "--kernel", str(ZOO / "gaussian_ti.json"),
                "--kind", "empirical", "--measure", target,
                "--samples", "4,16,64", "--seed", "3")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0 and out1 == out2


class TestPlumbing:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-verb"])
        assert exc.value.code == 2

    def test_missing_file_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "mmd", "--kernel", "/nonexistent.json",
                         "--p", "/x.json", "--q", "/y.json")
        assert rc == 1 and "error" in err

    def test_kernel_round_trip(self, capsys):
        for path in sorted(ZOO.glob("*.json")):
            k = kc.kernel_from_json(json.loads(path.read_text()))
            emitted = kc.kernel_to_json(k)
            assert kc.kernel_from_json(json.loads(json.dumps(emitted))) == k

    def test_kernel_eval_verb(self, capsys):
        rc, out, _ = run(capsys, "kernel-eval", "--kernel", str(ZOO / "gaussian_ti.json"),
                         "--samples", "0;1;2")
        assert rc == 0
        G = json.loads(out)["gram"]
        assert G[0][1] == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_kernel_spectrum_verb(self, capsys):
        rc, out, _ = run(capsys, "kernel-spectrum", "--kernel", str(ZOO / "fejer.json"),
                         "--samples", "1;3")
        doc = json.loads(out)
        assert doc["samples"][0]["coefficient"] == pytest.approx(2.0 / 3.0)
        assert doc["samples"][1]["coefficient"] == 0.0

    def test_measure_ft_verb(self, capsys, dirac_pair):
        p, _ = dirac_pair
        rc, out, _ = run(capsys, "measure-ft", "--measure", p, "--samples", "0.5;1.5")
        doc = json.loads(out)
        assert doc["samples"][0]["re"] == 1.0


class TestBadInput:
    """Bad input exits 1 with an error line: never a traceback or a NaN."""

    @pytest.mark.parametrize("family,params", [
        ("gaussian_ti", {"sigma": math.inf}),
        ("gaussian_ti", {"sigma": None}),
        ("constant", {"c": math.nan}),
        ("dirichlet", {"l": math.inf}),
        ("radial_atoms", {"atoms": [[math.inf, 1.0]]}),
        ("radial_atoms", {"atoms": 3}),
    ])
    def test_non_finite_or_malformed_parameter(self, capsys, tmp_path, family, params):
        kind = "torus" if family == "dirichlet" else "euclidean"
        path = write_measure(tmp_path, "k.json", {
            "family": family, "space": {"kind": kind, "dim": 1}, "params": params})
        rc, out, err = run(capsys, "kernel-spectrum", "--kernel", path)
        assert rc == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("density,kernel", [
        ({"family": "modulated_sincsq", "alpha": 1.0, "omega0": math.inf}, "sinc"),
        ({"family": "modulated_sincsq", "alpha": math.nan, "omega0": 4.0}, "sinc"),
        ({"family": "torus_cosine", "alpha": math.inf, "n0": 2}, "poisson_torus"),
        ({"family": "torus_cosine", "alpha": 1.0, "n0": math.inf}, "poisson_torus"),
        ({"family": "torus_cosine", "alpha": 1.0, "n0": 3.7}, "poisson_torus"),
    ])
    def test_non_finite_density_parameter(self, capsys, tmp_path, density, kernel):
        kind = "torus" if kernel == "poisson_torus" else "euclidean"
        path = write_measure(tmp_path, "m.json", {
            "space": {"kind": kind, "dim": 1}, "density": density})
        rc, out, err = run(capsys, "energy", "--kernel", str(ZOO / f"{kernel}.json"),
                           "--measure", path, "--method", "spectral")
        assert rc == 1 and out == "" and err.startswith("error: bad measure document")

    @pytest.mark.parametrize("family", ["dirichlet", "fejer"])
    def test_band_degree_beyond_the_limit(self, capsys, tmp_path, family):
        path = write_measure(tmp_path, "k.json", {
            "family": family, "space": {"kind": "torus", "dim": 1},
            "params": {"l": 1_000_000_000}})
        rc, out, err = run(capsys, "certify", "--kernel", path,
                           "--property", "c-universal", "--out", str(tmp_path / "w.json"))
        assert rc == 1 and out == "" and err.startswith("error:")
        assert "at most 256" in err

    @pytest.mark.parametrize("space", [{"kind": "euclidean", "dim": 1.5},
                                       {"kind": "euclidean"}])
    def test_bad_space_document(self, capsys, tmp_path, space):
        path = write_measure(tmp_path, "k.json", {
            "family": "gaussian_ti", "space": space, "params": {"sigma": 1.0}})
        rc, out, err = run(capsys, "kernel-spectrum", "--kernel", path)
        assert rc == 1 and out == "" and err.startswith("error:")

    def test_non_integer_measure_dim(self, capsys, tmp_path):
        path = write_measure(tmp_path, "m.json", {
            "space": {"kind": "euclidean", "dim": 1.5}, "atoms": [{"x": [0.0], "w": 1.0}]})
        rc, _, err = run(capsys, "measure-ft", "--measure", path, "--samples", "0")
        assert rc == 1 and err.startswith("error:")

    @pytest.mark.parametrize("weight", [None, [1.0]])
    def test_non_numeric_weight(self, capsys, tmp_path, weight):
        path = write_measure(tmp_path, "m.json", {
            "space": {"kind": "euclidean", "dim": 1}, "atoms": [{"x": [0.0], "w": weight}]})
        rc, out, err = run(capsys, "energy", "--kernel", str(ZOO / "gaussian_ti.json"),
                           "--measure", path, "--method", "spatial")
        assert rc == 1 and out == "" and err.startswith("error:")

    def test_pairwise_array_beyond_the_limit(self, capsys, tmp_path):
        # 30 000 atoms need 9e8 kernel values: refused before any allocation
        x = np.linspace(0.0, 1.0, 30_000)
        path = write_measure(tmp_path, "m.json", {
            "space": {"kind": "euclidean", "dim": 1},
            "atoms": [{"x": [v], "w": 1.0} for v in x.tolist()]})
        for method in ("spatial", "spectral"):
            rc, out, err = run(capsys, "energy", "--kernel", str(ZOO / "gaussian_ti.json"),
                               "--measure", path, "--method", method)
            assert rc == 1 and out == "" and err.startswith("error:")
            assert "exceeds the limit" in err

    def test_overflowing_energy_is_not_emitted(self, capsys, tmp_path):
        path = write_measure(tmp_path, "m.json", {
            "space": {"kind": "euclidean", "dim": 1},
            "atoms": [{"x": [0.0], "w": 1e300}, {"x": [1.0], "w": -1e300}]})
        with np.errstate(over="ignore"):
            rc, out, err = run(capsys, "energy", "--kernel", str(ZOO / "gaussian_ti.json"),
                               "--measure", path, "--method", "spatial")
        assert rc == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("family,params,weight,cause", [
        ("radial_atoms", {"atoms": [[0.0, 1e308], [0.0, 1e308]]}, 1.0, "float range"),
        ("inverse_multiquadric", {"beta": 200.0, "c": 1.0}, 1.0, "float range"),
        ("radial_gaussian", {"sigma": 1.0}, 1e300, "total variation"),
    ])
    def test_arithmetic_beyond_the_float_range(self, capsys, tmp_path, family, params,
                                               weight, cause):
        kernel = write_measure(tmp_path, "k.json", {
            "family": family, "space": {"kind": "euclidean", "dim": 1}, "params": params})
        measure = write_measure(tmp_path, "m.json", {
            "space": {"kind": "euclidean", "dim": 1},
            "atoms": [{"x": [0.0], "w": weight}, {"x": [1.0], "w": -weight}]})
        with np.errstate(all="ignore"):
            rc, out, err = run(capsys, "energy", "--kernel", kernel, "--measure", measure,
                               "--method", "both")
        assert rc == 1 and out == "" and err.startswith("error:")
        assert cause in err

    def test_kernel_with_an_infinite_peak_is_refused(self, capsys, tmp_path):
        # c^2 underflows to 0, so k(0) = c^(-2 beta) is infinite; certify
        # once read it as strictly positive definite
        kernel = write_measure(tmp_path, "k.json", {
            "family": "inverse_multiquadric", "space": {"kind": "euclidean", "dim": 1},
            "params": {"beta": 1e300, "c": 1e-300}})
        rc, out, err = run(capsys, "certify", "--kernel", kernel, "--property", "strictly-pd")
        assert rc == 1 and out == "" and err.startswith("error:")
        assert "float range" in err

    @pytest.mark.parametrize("verb,family,params", [
        ("energy", "radial_gaussian", {"sigma": 1.0}),
        ("energy", "radial_atoms", {"atoms": [[0.0, 1e308], [0.0, 1e308]]}),
        ("mmd", "radial_atoms", {"atoms": [[0.0, 1e308], [0.0, 1e308]]}),
    ])
    def test_spatial_sum_beyond_the_float_range(self, capsys, tmp_path, dirac_pair, verb,
                                                family, params):
        # an infinite double sum once read as mmd(delta_0, delta_1) = 0; the
        # kernel builds, and k = 2e308 overflows only inside the sum
        kernel = write_measure(tmp_path, "k.json", {
            "family": family, "space": {"kind": "euclidean", "dim": 1}, "params": params})
        weight = 1e300 if family == "radial_gaussian" else 1.0
        measure = write_measure(tmp_path, "m.json", {
            "space": {"kind": "euclidean", "dim": 1},
            "atoms": [{"x": [0.0], "w": weight}, {"x": [1.0], "w": -weight}]})
        argv = (["energy", "--kernel", kernel, "--measure", measure, "--method", "spatial"]
                if verb == "energy" else
                ["mmd", "--kernel", kernel, "--p", dirac_pair[0], "--q", dirac_pair[1]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == "" and err.startswith("error:")
        assert "kernel sum" in err and "float range" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_non_finite_witness_is_not_written(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(kc.witness, "witness_to_json", lambda w: {"energy": math.nan})
        out_path = tmp_path / "wit.json"
        rc, out, err = run(capsys, "certify", "--kernel", str(ZOO / "dirichlet.json"),
                           "--property", "c-universal", "--out", str(out_path))
        assert rc == 1 and out == "" and err.startswith("error:")
        assert not out_path.exists()

    def test_dot_product_spectrum(self, capsys):
        rc, out, err = run(capsys, "kernel-spectrum", "--kernel", str(ZOO / "taylor_exp.json"))
        assert rc == 1 and out == "" and err.startswith("error:")

    def test_unparsable_samples(self, capsys):
        rc, _, err = run(capsys, "kernel-eval", "--kernel", str(ZOO / "gaussian_ti.json"),
                         "--samples", "0;x")
        assert rc == 1 and err.startswith("error:")

    @pytest.mark.parametrize("exc", [kc.numerics.InternalConsistencyError("LP equality residual 2e-09"),
                                     kc.numerics.LPError("iteration limit reached")])
    def test_numerical_failure(self, capsys, tmp_path, monkeypatch, exc):
        def failing_lp(*args, **kwargs):
            raise exc

        monkeypatch.setattr(kc.weaktopo, "solve_lp", failing_lp)
        rc, out, err = run(capsys, "experiment-converge",
                           "--kernel", str(ZOO / "gaussian_ti.json"),
                           "--kind", "moving", "--samples", "2,1,0.5")
        assert rc == 1 and out == ""
        assert err == f"error: {exc}\n"
