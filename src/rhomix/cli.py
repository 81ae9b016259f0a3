"""Command-line surface: compute, verify, simulate, and emit plot-ready data.

Exit codes: 0 success, 2 validation error (the message names the violated
invariant) or non-finite numerical integration, 64 unknown command.
Identical inputs and seed produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import math
import sys as _sys

import numpy as np

from . import acceptance, discrete, events, gaussian, glauber, lattice, tensor_bounds
from . import io as rio
from .errors import IntegratorError, ValidationError

COMMANDS = (
    "maxcorr", "subjective", "mixing", "tensor-bound", "event-bound", "chogosov",
    "glauber-gap", "glauber-sim", "ising", "quadratic", "conv-inverse", "clt",
    "ou-chain", "three-lines", "verify-all",
)


def _load_json(path: str, *keys: str) -> dict:
    """The JSON object in ``path``, which must have every one of ``keys``."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: input file must be readable ({exc.strerror or exc})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: input file must be valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise ValidationError(f"{path}: input file must hold a JSON object")
    for key in keys:
        if key not in d:
            raise ValidationError(f"{path}: input file must have key {key!r}")
    return d


def _required(args, flag: str):
    """The value of ``--flag``, which the chosen command and kind cannot run without."""
    value = getattr(args, flag)
    if value is None:
        kind = args.kind if hasattr(args, "kind") else f"--model {args.model}"
        raise ValidationError(f"{args.command} {kind}: --{flag} is required")
    return value


def _pair_from_file(path: str) -> discrete.FinitePair:
    d = _load_json(path, "labels_x", "labels_y", "joint")
    return discrete.FinitePair(tuple(d["labels_x"]), tuple(d["labels_y"]), rio.parse_matrix(d["joint"]))


def _system_from_file(path: str) -> discrete.FiniteSystem:
    d = _load_json(path, "variables", "joint_flat")
    items = d["variables"]
    if not isinstance(items, list) or not all(isinstance(v, dict) and {"name", "size"} <= v.keys() for v in items):
        raise ValidationError(f"{path}: every item of 'variables' must be an object with 'name' and 'size'")
    variables = tuple((v["name"], int(v["size"])) for v in items)
    sizes = [s for _, s in variables]
    flat = np.array([rio.parse_number(v) for v in d["joint_flat"]])
    return discrete.FiniteSystem(variables, flat.reshape(sizes))  # row-major, last variable fastest


def _kernel_from_file(path: str) -> tensor_bounds.LatticeKernel:
    d = _load_json(path, "n", "R", "values")
    tail_d = d.get("tail") or {"type": "none"}
    tail = tensor_bounds.TailModel(
        kind=tail_d.get("type", "none"),
        C=rio.parse_number(tail_d.get("C", 0.0)),
        psi=rio.parse_number(tail_d.get("psi", 0.0)),
        alpha=rio.parse_number(tail_d.get("alpha", 0.0)),
        total=rio.parse_number(tail_d.get("total", 0.0)),
    )
    entries = {}
    for key, v in d["values"].items():
        z = tuple(int(c) for c in key.strip("()").split(",") if c.strip() != "")
        entries[z] = rio.parse_number(v)
    return tensor_bounds.LatticeKernel.from_dict(int(d["n"]), int(d["R"]), entries,
                                                 d.get("norm", "l1"), tail)


def _toeplitz_from_file(path: str):
    from .convdecay import ToeplitzKernel

    d = _load_json(path, "n", "R", "values")
    entries = {}
    for key, v in d["values"].items():
        z = tuple(int(c) for c in key.strip("()").split(",") if c.strip() != "")
        entries[z] = rio.parse_number(v)
    return ToeplitzKernel.from_dict(int(d["n"]), int(d["R"]), entries, d.get("decay_class", "none"))


def _emit(args, payload, csv_text=None):
    if getattr(args, "format", "json") == "csv" and csv_text is not None:
        text = csv_text
    else:
        text = rio.dumps(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _floats(spec: str) -> list:
    try:
        return [float(v) for v in spec.split(",") if v.strip() != ""]
    except ValueError:
        raise ValidationError(f"{spec!r}: values must be comma-separated numbers") from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rhomix", description=__doc__)
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None)
        sp.add_argument("--dry-run", action="store_true")
        return sp

    sp = common(sub.add_parser("maxcorr", help="maximal correlation of a pair or of blocks"))
    sp.add_argument("--pair")
    sp.add_argument("--system")
    sp.add_argument("--x", help="comma-separated X block (with --system)")
    sp.add_argument("--y", help="comma-separated Y block (with --system)")
    sp.add_argument("--witness", action="store_true")

    sp = common(sub.add_parser("subjective", help="subjective correlation over the pool metalgebra"))
    sp.add_argument("--system", required=True)
    sp.add_argument("--i", required=True)
    sp.add_argument("--j", required=True)
    sp.add_argument("--pool", default=None)

    sp = common(sub.add_parser("mixing", help="alpha, beta and mutual information of a pair"))
    sp.add_argument("--pair", required=True)

    sp = common(sub.add_parser("tensor-bound", help="simple / nm / zz / zn / distance / sublattice bounds"))
    sp.add_argument("kind", choices=("simple", "nm", "zz", "zn", "distance", "sublattice"))
    sp.add_argument("--eps", help="comma-separated values (simple, zz)")
    sp.add_argument("--matrix", help="JSON file with {'entries': [[...]]} (nm)")
    sp.add_argument("--kernel", help="lattice-kernel JSON file (zn, distance, sublattice)")
    sp.add_argument("--d", type=float, default=0.0)

    sp = common(sub.add_parser("event-bound", help="event-criterion quantities"))
    sp.add_argument("kind", choices=("lambda", "extremes", "density", "nu"))
    sp.add_argument("--eps", type=float)
    sp.add_argument("--pair")
    sp.add_argument("--x", type=float, default=0.02)
    sp.add_argument("--m", type=int, default=512)

    sp = common(sub.add_parser("chogosov", help="law: sample cloud, cdf, quantile, opnorm, identities"))
    sp.add_argument("kind", choices=("sample", "cdf", "quantile", "opnorm", "lambda-check", "lstar"))
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--n", type=int, default=2048)
    sp.add_argument("--p", type=float, default=0.5)
    sp.add_argument("--q", type=float, default=0.5)
    sp.add_argument("--omega", type=float, default=0.5)
    sp.add_argument("--m", type=int, default=1024)

    sp = common(sub.add_parser("glauber-gap", help="exact gap or matrix lower bounds"))
    sp.add_argument("kind", choices=("exact", "bounds", "sublattice"))
    sp.add_argument("--system")
    sp.add_argument("--matrix")
    sp.add_argument("--kernel")

    sp = common(sub.add_parser("glauber-sim", help="continuous-time heat-bath trajectory"))
    sp.add_argument("--system", required=True)
    sp.add_argument("--horizon", type=float, required=True)
    sp.add_argument("--observable-site", type=int, default=0)

    sp = common(sub.add_parser("ising", help="exact/mcmc pairwise kernel of a torus"))
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--method", choices=("exact", "mcmc"), default="exact")
    sp.add_argument("--snapshot", default=None, help="write a PGM-style sample snapshot here")

    sp = common(sub.add_parser("quadratic", help="covariance kernel and mixing report"))
    sp.add_argument("--gamma", required=True, help="Toeplitz-kernel JSON file")
    sp.add_argument("--beta", type=float, default=1.0)

    sp = common(sub.add_parser("conv-inverse", help="Neumann-series convolution inverse"))
    sp.add_argument("--kernel", required=True)

    sp = common(sub.add_parser("clt", help="block-sum characteristic-function experiment"))
    sp.add_argument("--model", choices=("ising", "quadratic", "independent"), default="ising")
    sp.add_argument("--L", type=int, default=8)
    sp.add_argument("--T", type=float, default=3.0)
    sp.add_argument("--gamma")
    sp.add_argument("--ells", default="8,16,32")
    sp.add_argument("--replicas", type=int, default=10000)
    sp.add_argument("--shape", choices=("cube", "disk"), default="cube")

    sp = common(sub.add_parser("ou-chain", help="damped-chain joint law over a horizon"))
    sp.add_argument("--params", help="JSON file with m, omega, c, T, lam, t, K")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--K", type=int, default=16)

    sp = common(sub.add_parser("three-lines", help="geometric vs apparent angles"))
    sp.add_argument("--u1", required=True)
    sp.add_argument("--u2", required=True)
    sp.add_argument("--u3", required=True)

    sp = common(sub.add_parser("verify-all", help="run the acceptance suite"))
    sp.add_argument("--only", default=None, help="comma-separated substrings of check names")
    return p


def _cmd_maxcorr(args) -> dict:
    if args.pair:
        pair = _pair_from_file(args.pair)
        if args.dry_run:
            return {"valid": True}
        rep = discrete.maxcorr_pair(pair)
        out = {"rho": rep.rho}
        if args.witness:
            out["optimal_f"] = list(rep.optimal_f)
            out["optimal_g"] = list(rep.optimal_g)
        return out
    if not (args.system and args.x and args.y):
        raise ValidationError("maxcorr: need --pair, or --system with --x and --y")
    sys_ = _system_from_file(args.system)
    if args.dry_run:
        return {"valid": True}
    rho = discrete.maxcorr_blocks(sys_, args.x.split(","), args.y.split(","))
    return {"rho": rho}


def _cmd_tensor_bound(args) -> dict:
    if args.kind in ("simple", "zz"):
        bound = tensor_bounds.simple_bound if args.kind == "simple" else tensor_bounds.zz_bound
        value = bound(_floats(_required(args, "eps")))  # a closed form: evaluating it checks the input
        return {"valid": True} if args.dry_run else {"value": value}
    if args.kind == "nm":
        entries = _load_json(_required(args, "matrix"), "entries")["entries"]
        mat = tensor_bounds.EpsilonMatrix.from_array(rio.parse_matrix(entries))
        if args.dry_run:
            return {"valid": True}
        return {"value": tensor_bounds.nm_bound(mat), "raw_operator_norm": mat.operator_norm()}
    kern = _kernel_from_file(_required(args, "kernel"))
    if args.dry_run:
        return {"valid": True}
    if args.kind == "zn":
        zb = tensor_bounds.zn_bound(kern)
        return {"value": zb.value, "window_arcsin": zb.window_arcsin, "tail_arcsin": zb.tail_arcsin}
    if args.kind == "distance":
        return {"value": tensor_bounds.distance_bound(kern, args.d)}
    rep = tensor_bounds.sublattice_k(kern)
    return {"k": rep.k, "ell": rep.ell}


def _cmd_event_bound(args) -> dict:
    if args.kind == "lambda":
        value = events.lambda_fn(_required(args, "eps"))  # a closed form: evaluating it checks the input
        return {"valid": True} if args.dry_run else {"value": value}
    if args.kind == "nu":
        model = events.NuModel(args.eps, args.x, args.m)
        if args.dry_run:
            return {"valid": True}
        rep = events.nu_event_ratio(model, seed=args.seed)
        return {"worst_ratio": rep.worst_ratio, "factor": rep.factor,
                "witness_correlation": rep.witness_correlation}
    pair = _pair_from_file(_required(args, "pair"))
    if args.dry_run:
        return {"valid": True}
    if args.kind == "extremes":
        rep = discrete.event_extremes(pair)
        return {"max_ratio": rep.max_ratio, "witness_a": list(rep.witness_a),
                "witness_b": list(rep.witness_b)}
    return {"value": discrete.density_bound(pair)}


def _cmd_chogosov(args):
    model = events.ChogosovModel(args.eps, max(args.m, 2))
    if args.dry_run:
        return {"valid": True}, None
    if args.kind == "sample":
        cloud = events.chogosov_sample(model, args.n, args.seed)
        csv = rio.csv_lines("chogosov sample cloud: p, q, branch (-1 lower curve, 0 interior, +1 upper curve)",
                            ["p", "q", "branch"],
                            [(row[0], row[1], int(row[2])) for row in cloud])
        return {"n": args.n, "eps": args.eps, "seed": args.seed}, csv
    if args.kind == "cdf":
        return {"value": float(events.chogosov_cdf(model, args.p, args.q)),
                "zone": events.chogosov_zone(model, args.p, args.q)}, None
    if args.kind == "quantile":
        return {"value": events.chogosov_quantile(model, args.p, args.omega)}, None
    if args.kind == "opnorm":
        rep = events.chogosov_opnorm(model, args.m)
        return {"rho_hat": rep.rho_hat, "rayleigh_quotient": rep.rayleigh_quotient,
                "m": rep.m, "lambda": events.lambda_fn(args.eps)}, None
    if args.kind == "lambda-check":
        rep = events.lambda_integral_identity(model, args.p)
        return {"value": rep.value, "atom_lower": rep.atom_lower, "atom_upper": rep.atom_upper,
                "interior": rep.interior, "lambda": events.lambda_fn(args.eps)}, None
    return {"max_residual": events.lstar_identity(model, [args.p])}, None


def _cmd_glauber_gap(args) -> dict:
    if args.kind == "exact":
        sys_ = _system_from_file(_required(args, "system"))
        if args.dry_run:
            return {"valid": True}
        return {"gap": glauber.exact_gap(sys_)}
    if args.kind == "bounds":
        eps = rio.parse_matrix(_load_json(_required(args, "matrix"), "entries")["entries"])
        if args.dry_run:
            return {"valid": True}
        rep = glauber.gap_lower_bounds(eps)
        return {
            "bound_M": rep.bound_M,
            "bound_Mprime": rep.bound_Mprime,
            "bound_simple": rep.bound_simple,
            "mprime_defined": rep.mprime_defined,
        }
    kern = _kernel_from_file(_required(args, "kernel"))
    if args.dry_run:
        return {"valid": True}
    rep = glauber.sublattice_gap(kern)
    return {"value": rep.value, "ell": rep.ell, "zeta": rep.zeta}


def _cmd_glauber_sim(args):
    sys_ = _system_from_file(args.system)
    if not (args.horizon > 0 and math.isfinite(args.horizon)):
        raise ValidationError("glauber-sim: --horizon must be finite and > 0")
    site = args.observable_site
    if not 0 <= site < len(sys_.variables):
        raise ValidationError(f"glauber-sim: --observable-site must lie in [0, {len(sys_.variables)})")
    if args.dry_run:
        return {"valid": True}, None
    sim = glauber.glauber_simulate(sys_, args.horizon, seed=args.seed,
                                   observable=lambda s: float(s[site]))
    csv = rio.csv_lines("heat-bath trajectory", ["time", "site", "new_state"],
                        zip(sim.times, sim.sites, sim.new_states))
    return {"rate_estimate": sim.rate_estimate, "relaxation_time": sim.relaxation_time,
            "events": int(len(sim.times))}, csv


def _cmd_ising(args):
    torus = lattice.IsingTorus(args.n, args.L, args.T)
    if args.dry_run:
        return {"valid": True}, None
    rep = lattice.ising_epsilon(torus, method=args.method, seed=args.seed)
    values = {}
    offs = rep.kernel.offsets()
    for z, v in zip(offs, rep.kernel.flat_values()):
        if v > 0:
            values["(" + ",".join(str(int(c)) for c in z) + ")"] = float(v)
    out = {"c0": rep.c0, "k0": rep.k0, "method": rep.method,
           "subjective": rep.subjective, "values": values}
    if args.snapshot:
        conf = lattice.ising_mcmc_samples(torus, sweeps=1, thin=1, seed=args.seed, burn=50)[-1]
        grid = conf.reshape((args.L,) * args.n) if args.n > 1 else conf
        with open(args.snapshot, "w") as fh:
            fh.write(rio.spin_grid_text(grid))
    return out, None


def _cmd_quadratic(args) -> dict:
    gam = _toeplitz_from_file(args.gamma)
    model = lattice.QuadraticModel(gam.n, gam, beta=args.beta)
    if args.dry_run:
        return {"valid": True}
    cov = lattice.quadratic_covariance(model)
    rep = lattice.quadratic_rho_report(model)
    return {
        "Gamma": model.Gamma,
        "a_inv_center": cov.a_inv_center,
        "window_sum": cov.window_sum,
        "truncation_mass": cov.truncation_mass,
        "eps_sum_offcenter": rep.eps_sum_offcenter,
        "gamma_bound_applies": rep.gamma_bound_applies,
        "distance_profile": {str(k): v for k, v in rep.distance_profile.items()},
        "sublattice_k": rep.sublattice.k if rep.sublattice else None,
    }


def _cmd_conv_inverse(args) -> dict:
    kern = _toeplitz_from_file(args.kernel)
    if args.dry_run:
        return {"valid": True}
    from .convdecay import conv_inverse, decay_fit

    b = conv_inverse(kern)
    out_vals = {}
    rng = np.arange(-b.R, b.R + 1)
    if b.n == 1:
        for z in rng:
            v = b.value_at((int(z),))
            if v != 0.0:
                out_vals[f"({int(z)})"] = v
    result = {"n": b.n, "R": b.R, "l1_norm": b.l1_norm(), "values": out_vals}
    if b.R >= 14:
        fit = decay_fit(b)
        result["decay"] = {"classification": fit.classification, "rate": fit.rate,
                           "exponent": fit.exponent}
    return result


def _cmd_clt(args):
    if args.model == "ising":
        model = lattice.IsingTorus(1, args.L, args.T)
    elif args.model == "quadratic":
        gam = _toeplitz_from_file(_required(args, "gamma"))
        model = lattice.QuadraticModel(gam.n, gam)
    else:
        model = "independent"
    if args.dry_run:
        return {"valid": True}, None
    rep = lattice.clt_experiment(model, [int(v) for v in args.ells.split(",")],
                                 replicas=args.replicas, seed=args.seed, shape=args.shape)
    rows = list(zip(rep.block_sizes, rep.sigma_hat2_by_block, rep.cf_distances))
    csv = rio.csv_lines("block-sum clt: ell, sigma_hat2, cf_distance",
                        ["ell", "sigma_hat2", "cf_distance"], rows)
    return {
        "block_sizes": list(rep.block_sizes),
        "sigma_hat2": rep.sigma_hat2,
        "sigma2_limit": rep.sigma2_limit,
        "cf_distances": list(rep.cf_distances),
    }, csv


def _cmd_ou_chain(args) -> dict:
    if args.params:
        d = _load_json(args.params)
        params = gaussian.OUChainParams(
            m=rio.parse_number(d.get("m", 1.0)), omega=rio.parse_number(d.get("omega", 1.0)),
            c=rio.parse_number(d.get("c", 1.0)), T=rio.parse_number(d.get("T", 1.0)),
            lam=rio.parse_number(d.get("lam", 1.0)), t=rio.parse_number(d.get("t", 1.0)),
            K=int(d.get("K", 16)),
        )
    else:
        params = gaussian.OUChainParams(t=args.t, K=args.K)
    if args.dry_run:
        return {"valid": True}
    rep = gaussian.ou_chain_joint(params)
    return {
        "maxcorr": rep.maxcorr,
        "qbar_range": list(rep.qbar_range),
        "stationarity_residual": rep.stationarity_residual,
        "corr_pp_diag": list(np.diag(rep.corr_pp)),
        "corr_qq_diag": list(np.diag(rep.corr_qq)),
    }


def _cmd_three_lines(args) -> dict:
    if args.dry_run:
        return {"valid": True}
    rep = gaussian.three_lines(_floats(args.u1), _floats(args.u2), _floats(args.u3))
    return {
        "geometric": list(rep.geometric),
        "apparent": list(rep.apparent),
        "sine_ratios": list(rep.sine_ratios),
        "order": rep.order,
    }


def main(argv=None) -> int:
    argv = list(_sys.argv[1:] if argv is None else argv)
    cmd = next((a for a in argv if not a.startswith("-")), None)
    if cmd is None or cmd not in COMMANDS:
        _sys.stderr.write(f"unknown command {cmd!r}; expected one of: {', '.join(COMMANDS)}\n")
        build_parser().print_usage(_sys.stderr)
        return 64
    args = build_parser().parse_args(argv)
    try:
        if args.command == "maxcorr":
            _emit(args, _cmd_maxcorr(args))
        elif args.command == "subjective":
            sys_ = _system_from_file(args.system)
            if args.dry_run:
                _emit(args, {"valid": True})
            else:
                pool = args.pool.split(",") if args.pool else None
                _emit(args, {"value": discrete.subjective_maxcorr(sys_, args.i, args.j, pool)})
        elif args.command == "mixing":
            pair = _pair_from_file(args.pair)
            if args.dry_run:
                _emit(args, {"valid": True})
            else:
                rep = discrete.mixing_coefficients(pair)
                _emit(args, {"alpha": rep.alpha, "beta": rep.beta,
                             "mutual_information": rep.mutual_information})
        elif args.command == "tensor-bound":
            _emit(args, _cmd_tensor_bound(args))
        elif args.command == "event-bound":
            _emit(args, _cmd_event_bound(args))
        elif args.command == "chogosov":
            payload, csv = _cmd_chogosov(args)
            _emit(args, payload, csv)
        elif args.command == "glauber-gap":
            _emit(args, _cmd_glauber_gap(args))
        elif args.command == "glauber-sim":
            payload, csv = _cmd_glauber_sim(args)
            _emit(args, payload, csv)
        elif args.command == "ising":
            payload, _ = _cmd_ising(args)
            _emit(args, payload)
        elif args.command == "quadratic":
            _emit(args, _cmd_quadratic(args))
        elif args.command == "conv-inverse":
            _emit(args, _cmd_conv_inverse(args))
        elif args.command == "clt":
            payload, csv = _cmd_clt(args)
            _emit(args, payload, csv)
        elif args.command == "ou-chain":
            _emit(args, _cmd_ou_chain(args))
        elif args.command == "three-lines":
            _emit(args, _cmd_three_lines(args))
        elif args.command == "verify-all":
            only = args.only.split(",") if args.only else None
            results = acceptance.run_all(only=only)
            return 0 if all(r.passed for r in results) else 1
        return 0
    except ValidationError as exc:
        _sys.stderr.write(f"invariant violated: {exc}\n")
        return 2
    except IntegratorError as exc:
        _sys.stderr.write(f"numerical integration failed: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
