"""Command-line front end: configuration ingestion, command dispatch and
row-oriented result emission (JSON lines or CSV).

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .params import ModelParams, SgSovError, DegenerateKappa
from . import model_core as mc
from . import spectrum as sp
from . import separate_states as ss
from . import form_factors as ffm
from . import local_ops as lo
from . import oracle
from .sov_basis import SimplicityViolation, DegenerateSpectrum, GaugeInconsistency
from .local_ops import SingularMatrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_DEGENERATE = 3

_DEGENERATE = (SimplicityViolation, DegenerateSpectrum, GaugeInconsistency,
               SingularMatrix, DegenerateKappa)


class ConfigError(Exception):
    pass


def _complex_from(value, where):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 \
            and all(isinstance(x, (int, float)) for x in value):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: complex values must be numbers or [re, im] pairs")


def load_config(path):
    """Parse and validate a run configuration; raises ConfigError on any
    schema violation before any computation happens."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(raw, dict) or "model" not in raw:
        raise ConfigError("config must be an object with a 'model' section")
    model = raw["model"]
    for key in ("N", "p", "kappa", "xi"):
        if key not in model:
            raise ConfigError(f"model section is missing '{key}'")
    n = model["N"]
    p = model["p"]
    if not isinstance(n, int) or not isinstance(p, int) \
            or isinstance(n, bool) or isinstance(p, bool):
        raise ConfigError("model.N and model.p must be integers")
    if p % 2 == 0 or p < 3:
        raise ConfigError(f"model.p must be an odd integer >= 3, got {p}")
    p_prime = model.get("p_prime", 2)
    if not isinstance(p_prime, int) or p_prime % 2 or p_prime <= 0:
        raise ConfigError("model.p_prime must be a positive even integer")

    def site_list(key, default=None):
        if key not in model:
            return default
        vals = model[key]
        if not isinstance(vals, list) or len(vals) != n:
            raise ConfigError(f"model.{key} must be a list of length N={n}")
        return [_complex_from(v, f"model.{key}[{i}]") for i, v in enumerate(vals)]

    kwargs = dict(
        n_sites=n, p=p, p_prime=p_prime,
        kappa=site_list("kappa"), xi=site_list("xi"),
        u=site_list("u"), v=site_list("v"),
    )
    try:
        params = ModelParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object")
    for k, v in tolerances.items():
        if k not in oracle.DEFAULT_TOLERANCES or isinstance(v, bool) \
                or not isinstance(v, (int, float)) or not 0 < v < np.inf:
            raise ConfigError(f"tolerance override '{k}' is unknown or not a finite "
                              f"positive number: {v!r}")
    return params, seed, dict(tolerances)


def fmt_complex(z):
    z = complex(z)
    return f"{z.real:.12g}{z.imag:+.12g}j"


class RowWriter:
    """Append-only row emitter: JSON lines (default) or CSV with a fixed
    column order."""

    def __init__(self, path=None, fmt="json"):
        self.fmt = fmt
        self.fh = open(path, "w") if path else sys.stdout
        self.owns = path is not None
        self.writer = None

    def emit(self, row: dict):
        if self.fmt == "csv":
            if self.writer is None:
                self.writer = csv.DictWriter(self.fh, fieldnames=list(row))
                self.writer.writeheader()
            self.writer.writerow(row)
        else:
            self.fh.write(json.dumps(row, sort_keys=True) + "\n")
        self.fh.flush()

    def close(self):
        if self.owns:
            self.fh.close()


def _emit_reports(reports, writer):
    ok = True
    for r in reports:
        writer.emit({
            "label": r.label, "absErr": r.abs_err, "relErr": r.rel_err,
            "tolerance": r.tolerance, "margin": r.margin, "pass": r.passed,
            "context": json.dumps(r.context, sort_keys=True, default=str),
        })
        ok = ok and r.passed
    return ok


# commands that emit the report rows of verify_suite on these sections
_SUITE_SECTIONS = {"check-algebra": {"algebra"}, "scalar": {"scalar"},
                   "verify-all": None}


def cmd_verify(params, seed, tolerances, writer, sections=None):
    reports = oracle.verify_suite(params, seed, tolerances, sections=sections)
    return EXIT_OK if _emit_reports(reports, writer) else EXIT_CHECK_FAILED


def cmd_sov_build(params, seed, tolerances, writer):
    sol = ss.prepare(params, seed, tolerances)
    reports = oracle.verify_solution(sol, tolerances, sections={"sov"})
    basis = sol.basis
    for a in range(params.n_sites):
        writer.emit({"kind": "variable", "index": a,
                     "zero": fmt_complex(basis.grid.z[a]),
                     "root": fmt_complex(basis.grid.eta0[a])})
    for j in range(params.dim):
        writer.emit({"kind": "measure", "index": j,
                     "tuple": "".join(map(str, basis.tuples[j])),
                     "weight": fmt_complex(basis.measure[j])})
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_spectrum(params, seed, tolerances, writer):
    sol = ss.prepare(params, seed, tolerances)
    degrees = list(range(-params.n_bar, params.n_bar + 1, 2))
    ok = True
    for i, st in enumerate(sol.states):
        fe = sp.check_functional_equation(params, st.t_coeffs, sol.rng(4))
        bax = st.diagnostics.get("factorization_residual", 0.0)
        row = {"index": i,
               "theta_sector": st.theta_m if st.theta_m is not None else "",
               "functional_eq_residual": fe,
               "factorization_residual": bax,
               "nullspace_dim": st.nullspace_dim}
        for dg in degrees:
            row[f"t[{dg}]"] = fmt_complex(st.t_coeffs[dg])
        for k, c in enumerate(st.q_poly):
            row[f"q[{k}]"] = fmt_complex(c)
        # fixed-width Q columns for a stable CSV header
        for k in range(len(st.q_poly), (params.p - 1) * params.n_sites + 1):
            row[f"q[{k}]"] = fmt_complex(0.0)
        writer.emit(row)
        ok = ok and fe <= oracle.DEFAULT_TOLERANCES["functional_eq"]
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_ff(params, seed, tolerances, writer, kind, site, factors, ops):
    tol = dict(oracle.DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    sol = ss.prepare(params, seed, tolerances)
    mono, basis, states = sol.mono, sol.basis, sol.states
    covs, vecs, norms = sol.covs, sol.vecs, sol.norms
    d = params.dim
    ok = True
    if kind in ("u", "elementary"):
        if kind == "u":
            dense_op = mc.site_embed(params, site, mc.weyl_generators(
                params.p, params.u[site - 1], params.v[site - 1], params.p_prime)[0])
            op_scale, tol_key = 1.0 / np.sqrt(d), "ff_u"
            ratio = None
            if site != 1:
                # chain-shift eigenvalues <t|W|t> / <t|t> of every eigenstate
                W = lo.cyclic_shift_permutation(params, site)
                shift = np.sum(covs @ W * vecs, axis=1) / np.sum(covs * vecs, axis=1)
                ratio = shift[:, None] / shift[None, :]
            values, zeros = ffm.ff_u_table(params, basis, states, states, site,
                                           shift_ratio=ratio)
        else:
            elem = lo.ElementaryBasisElement(tuple(factors))
            dense_op = elem.to_dense(params, basis, mono)
            op_scale, tol_key = max(np.linalg.norm(dense_op), 1e-300) / d, "ff_elementary"
            res = [[ffm.ff_elementary(params, basis, bra, ket, elem) for ket in states]
                   for bra in states]
            values = np.array([[r.value for r in row] for row in res])
            zeros = np.array([[r.selection_zero for r in row] for row in res])
        dense_all = covs @ dense_op @ vecs.T
        ncov, nvec = np.linalg.norm(covs, axis=1), np.linalg.norm(vecs, axis=1)
        for i in range(d):
            for j in range(d):
                value, dense = values[i, j], dense_all[i, j]
                scale = max(abs(dense), abs(value), ncov[i] * nvec[j] * op_scale)
                err = float(abs(dense - value) / scale)
                passed = bool(err <= tol[tol_key])
                ok = ok and passed
                writer.emit({"bra": i, "ket": j,
                             "determinant": fmt_complex(value),
                             "oracle": fmt_complex(dense),
                             "relErr": err, "selectionZero": bool(zeros[i, j]),
                             "pass": passed})
    elif kind == "npoint":
        mats = []
        for tok in ops:
            tok = tok.strip()
            if tok.startswith("v2"):
                n = int(tok[2:])
                mats.append(lo.reconstruct_v2k(params, n, 1))
            elif tok.startswith("u"):
                n = int(tok[1:])
                mats.append(mc.site_embed(params, n, mc.weyl_generators(
                    params.p, params.u[n - 1], params.v[n - 1], params.p_prime)[0]))
            else:
                raise ConfigError(f"unknown operator token '{tok}'")
        dense_prod = np.eye(d, dtype=complex)
        for m in mats:
            dense_prod = dense_prod @ m
        for i in range(d):
            val = ffm.npoint(sol, i, mats)
            dense = (covs[i] @ dense_prod @ vecs[i]) / norms[i]
            scale = max(abs(dense), abs(val),
                        np.linalg.norm(covs[i]) * np.linalg.norm(vecs[i]) / abs(norms[i]))
            err = float(abs(val - dense) / scale)
            passed = bool(err <= tol["npoint"])
            ok = ok and passed
            writer.emit({"state": i, "expansion": fmt_complex(val),
                         "oracle": fmt_complex(dense), "relErr": err,
                         "pass": passed})
    else:
        raise ConfigError(f"unknown form-factor kind '{kind}'")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sgsov",
        description="Separation-of-variables computations for the lattice "
                    "sine-Gordon chain in cyclic representations")
    ap.add_argument("command", choices=["check-algebra", "sov-build", "spectrum",
                                        "scalar", "ff", "verify-all"])
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    ap.add_argument("--tol", type=float, default=None,
                    help="replace every default tolerance with this value")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted and ignored; every section runs in the calling thread")
    out = ap.add_mutually_exclusive_group()
    out.add_argument("--csv", metavar="PATH", help="write CSV rows to PATH")
    out.add_argument("--json", metavar="PATH", help="write JSON lines to PATH")
    ap.add_argument("--kind", choices=["u", "elementary", "npoint"], default="u",
                    help="form-factor family for the ff command")
    ap.add_argument("--site", type=int, default=1, help="site index for ff u")
    ap.add_argument("--factors", default="",
                    help="elementary factors 'a:k:alpha,a:k:alpha' (1-based a)")
    ap.add_argument("--ops", default="u1,u1",
                    help="operator tokens for ff npoint, e.g. 'u1,u1' or 'u1,v21'")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        params, seed, tolerances = load_config(args.config)
        if args.tol is not None and not 0 < args.tol < np.inf:
            raise ConfigError(f"--tol must be a finite positive number, got {args.tol}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if args.seed is not None:
        seed = args.seed
    if args.tol is not None:
        tolerances = {k: args.tol for k in oracle.DEFAULT_TOLERANCES}
    writer = RowWriter(args.csv or args.json,
                       "csv" if args.csv else "json")
    try:
        if args.command in _SUITE_SECTIONS:
            return cmd_verify(params, seed, tolerances, writer,
                              _SUITE_SECTIONS[args.command])
        if args.command == "sov-build":
            return cmd_sov_build(params, seed, tolerances, writer)
        if args.command == "spectrum":
            return cmd_spectrum(params, seed, tolerances, writer)
        if args.command == "ff":
            factors = []
            if args.factors:
                for part in args.factors.split(","):
                    a, k, alpha = (int(x) for x in part.split(":"))
                    factors.append((a - 1, k, alpha))
            ops = args.ops.split(",") if args.ops else []
            return cmd_ff(params, seed, tolerances, writer, args.kind, args.site, factors, ops)
        return EXIT_BAD_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except _DEGENERATE as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SgSovError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    finally:
        writer.close()


if __name__ == "__main__":
    sys.exit(main())
