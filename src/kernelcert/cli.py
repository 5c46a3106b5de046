"""Command line front end: JSON descriptors in, JSON or CSV out.

Verbs: kernel-eval, kernel-spectrum, measure-ft, energy, mmd, certify,
witness, experiment-converge, audit.  Exit codes: 0 success, 1 domain
error, 2 usage error.  Output is deterministic for fixed inputs and seed;
floats are serialized with full round-trip precision (17 significant
digits at most).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import embedding, kernels, measures, weaktopo, witness as witness_mod
from .certify import (
    FAILS,
    PROPERTIES,
    audit_implications,
    certificate_to_json,
    certify as certify_kernel,
    certify_all,
)
from .numerics import InternalConsistencyError, LPError

PROPERTY_ALIASES = {p.replace("_", "-"): p for p in PROPERTIES}


class DomainError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}")


def _load_kernel(path):
    try:
        return kernels.kernel_from_json(_load_json(path))
    except ValueError as exc:
        raise DomainError(f"bad kernel document {path}: {exc}")


def _load_measure(path):
    try:
        return measures.measure_from_json(_load_json(path))
    except ValueError as exc:
        raise DomainError(f"bad measure document {path}: {exc}")


def _parse_points(text, dim):
    """Point list syntax: points split by ';', coordinates by ','.

    On one-dimensional spaces a plain CSV list is also accepted.  Every
    ``--samples`` list is read here; non-finite numbers are refused."""
    if dim == 1 and ";" not in text:
        text = text.replace(",", ";")
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coords = [float(v) for v in chunk.split(",")]
        if not np.isfinite(coords).all():
            raise DomainError(f"point {chunk!r} has a non-finite coordinate")
        if len(coords) != dim:
            raise DomainError(f"point {chunk!r} has {len(coords)} coordinates, expected {dim}")
        pts.append(coords)
    if not pts:
        raise DomainError("empty point list")
    return np.array(pts)


def _emit(doc, out_path=None):
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def _energy_doc(res):
    return {"value": res.value, "method": res.method, "error_bound": res.error_bound}


def cmd_kernel_eval(args):
    k = _load_kernel(args.kernel)
    pts = _parse_points(args.samples, k.space.dim)
    G = kernels.gram(k, pts)
    _emit({"kernel": kernels.kernel_to_json(k),
           "points": pts.tolist(),
           "gram": G.tolist()}, args.out)
    return 0


def cmd_kernel_spectrum(args):
    k = _load_kernel(args.kernel)
    spec = kernels.spectral(k)
    doc = {"kernel": kernels.kernel_to_json(k), "kind": spec.kind}
    if spec.kind == "euclidean_density":
        doc["support"] = {"kind": spec.support.kind}
        if spec.support.half_width is not None:
            doc["support"]["half_width"] = spec.support.half_width
        if args.samples:
            omegas = _parse_points(args.samples, k.space.dim)
            doc["samples"] = [{"omega": w.tolist(), "density": spec.density(w)}
                              for w in omegas]
    elif spec.kind == "torus_coefficients":
        doc["support"] = {"kind": spec.support.kind}
        if spec.support.frequencies is not None:
            doc["support"]["frequencies"] = list(spec.support.frequencies)
        if args.samples:
            ns = _parse_points(args.samples, k.space.dim).astype(int)
            doc["samples"] = [{"n": n.tolist(), "coefficient": spec.coeff(n)}
                              for n in ns]
    else:
        doc["supp_is_only_zero"] = spec.supp_is_only_zero
        if spec.mixing_atoms is not None:
            doc["mixing_atoms"] = [list(a) for a in spec.mixing_atoms]
    _emit(doc, args.out)
    return 0


def cmd_measure_ft(args):
    mu = _load_measure(args.measure)
    if isinstance(mu, measures.DiscreteSignedMeasure) and not mu.space.is_torus:
        omegas = _parse_points(args.samples, mu.space.dim)
        samples = []
        for w in omegas:
            z = measures.fourier_transform(mu, w)
            samples.append({"omega": w.tolist(), "re": z.real, "im": z.imag})
    elif isinstance(mu, measures.ModulatedSincSq):
        omegas = _parse_points(args.samples, 1)
        samples = [{"omega": w.tolist(), "re": float(measures.density_ft(mu, w[0])), "im": 0.0}
                   for w in omegas]
    else:
        ns = _parse_points(args.samples, mu.space.dim if hasattr(mu, "space") else 1).astype(int)
        samples = []
        for n in ns:
            z = measures.torus_coefficient(mu, n)
            samples.append({"n": n.tolist(), "re": z.real, "im": z.imag})
    _emit({"measure": measures.measure_to_json(mu), "samples": samples}, args.out)
    return 0


def cmd_energy(args):
    k = _load_kernel(args.kernel)
    mu = _load_measure(args.measure)
    doc = {}
    if args.method in ("spatial", "both"):
        doc["spatial"] = _energy_doc(embedding.energy_spatial(k, mu))
    if args.method in ("spectral", "both"):
        doc["spectral"] = _energy_doc(embedding.energy_spectral(k, mu))
    if "spatial" in doc and "spectral" in doc:
        doc["bounds"] = doc["spatial"]["error_bound"] + doc["spectral"]["error_bound"]
        doc["difference"] = abs(doc["spatial"]["value"] - doc["spectral"]["value"])
        if doc["difference"] > doc["bounds"]:
            raise InternalConsistencyError(
                f"the spatial and spectral energies differ by {doc['difference']:g}, "
                f"beyond their summed bounds {doc['bounds']:g}")
    _emit(doc, args.out)
    return 0


def cmd_mmd(args):
    k = _load_kernel(args.kernel)
    P = _load_measure(args.p)
    Q = _load_measure(args.q)
    _emit({"mmd": embedding.mmd(k, P, Q)}, args.out)
    return 0


def cmd_certify(args):
    k = _load_kernel(args.kernel)
    prop = PROPERTY_ALIASES.get(args.property, args.property)
    cert = certify_kernel(k, prop)
    doc = certificate_to_json(cert)
    if cert.verdict == FAILS and cert.witness_ref:
        # failing verdicts always materialize their refutation
        witness_path = Path(args.out) if args.out else \
            Path.cwd() / f"{Path(args.kernel).stem}.witness.json"
        try:
            built = witness_mod.construct_witness(k, cert.witness_ref, grid_size=args.grid)
            witness_path.write_text(json.dumps(
                witness_mod.witness_to_json(built), indent=2, allow_nan=False) + "\n")
            doc["witness"] = {"path": str(witness_path), **cert.witness_ref}
        except ValueError as exc:
            raise DomainError(f"witness construction failed: {exc}")
        _emit(doc)
    else:
        _emit(doc, args.out)
    return 0


def cmd_witness(args):
    """The witness of the kernel's first failing certificate."""
    k = _load_kernel(args.kernel)
    cert = next((c for c in certify_all(k) if c.verdict == FAILS), None)
    if cert is None:
        raise DomainError(f"{k.family} admits no zero-energy witness")
    built = witness_mod.construct_witness(k, cert.witness_ref, grid_size=args.grid)
    _emit(witness_mod.witness_to_json(built), args.out)
    return 0


def cmd_experiment_converge(args):
    k = _load_kernel(args.kernel)
    params = _parse_points(args.samples, 1)[:, 0].tolist()
    if args.kind == "empirical":
        if not args.measure:
            raise DomainError("empirical experiments need --measure for the target")
        target = _load_measure(args.measure)
        spec = weaktopo.empirical_from_target(target, [int(v) for v in params],
                                              seed=args.seed)
    elif args.kind == "shrink":
        spec = weaktopo.shrink_to_dirac(np.zeros(k.space.dim), params, dim=k.space.dim)
    else:
        spec = weaktopo.moving_atom(np.zeros(k.space.dim), params, dim=k.space.dim)
    report = weaktopo.run_convergence(k, spec, negative_control=args.negative_control)
    csv = report.to_csv()
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    verdict = weaktopo.comonotonicity_check(report) if len(report.rows) >= 3 else "n/a"
    print(f"# comonotonicity: {verdict}", file=sys.stderr)
    return 0


def cmd_audit(args):
    paths = sorted(Path(args.kernel_dir).glob("*.json"))
    if not paths:
        raise DomainError(f"no kernel documents in {args.kernel_dir}")
    report = []
    violations = []
    for path in paths:
        k = _load_kernel(path)
        certs = certify_all(k)
        bad = audit_implications(certs)
        violations.extend(bad)
        report.append({
            "kernel": kernels.kernel_to_json(k),
            "verdicts": {c.property: c.verdict for c in certs},
            "violations": bad,
        })
    _emit({"kernels": report, "total_violations": len(violations)}, args.out)
    return 0 if not violations else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kernelcert",
        description="mean embeddings, exact MMD and kernel universality certificates",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)
        return p

    add("kernel-eval", cmd_kernel_eval,
        **{"--kernel": dict(required=True), "--samples": dict(required=True),
           "--out": dict(default=None)})
    add("kernel-spectrum", cmd_kernel_spectrum,
        **{"--kernel": dict(required=True), "--samples": dict(default=None),
           "--out": dict(default=None)})
    add("measure-ft", cmd_measure_ft,
        **{"--measure": dict(required=True), "--samples": dict(required=True),
           "--out": dict(default=None)})
    add("energy", cmd_energy,
        **{"--kernel": dict(required=True), "--measure": dict(required=True),
           "--method": dict(choices=["spatial", "spectral", "both"], default="both"),
           "--out": dict(default=None)})
    add("mmd", cmd_mmd,
        **{"--kernel": dict(required=True), "--p": dict(required=True),
           "--q": dict(required=True), "--out": dict(default=None)})
    add("certify", cmd_certify,
        **{"--kernel": dict(required=True), "--property": dict(required=True),
           "--grid": dict(type=int, default=None), "--out": dict(default=None)})
    add("witness", cmd_witness,
        **{"--kernel": dict(required=True), "--grid": dict(type=int, default=None),
           "--out": dict(default=None)})
    add("experiment-converge", cmd_experiment_converge,
        **{"--kernel": dict(required=True),
           "--kind": dict(choices=["empirical", "shrink", "moving"], default="moving"),
           "--measure": dict(default=None), "--samples": dict(required=True),
           "--seed": dict(type=int, default=0),
           "--negative-control": dict(action="store_true"),
           "--out": dict(default=None)})
    add("audit", cmd_audit,
        **{"--kernel-dir": dict(required=True), "--out": dict(default=None)})
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ValueError, InternalConsistencyError, LPError) as exc:
        # ValueError covers every domain error the library raises
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
