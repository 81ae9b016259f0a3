"""Command-line surface: compute, verify, simulate, and emit plot-ready data.

Exit codes: 0 success, 2 validation error (the message names the violated
invariant) or non-finite numerical integration, 64 unknown command.
Identical inputs and seed produce byte-identical outputs.

Each command has one handler in ``HANDLERS``: it makes every check of the
command and returns a ``run`` that computes ``(payload, csv)``, where ``csv``
is None or a function that builds the CSV text, called only under
``--format csv``.  ``main`` alone decides between ``--dry-run`` and ``run``.
Handlers and file loaders import the library modules they use in their own
bodies, so a call loads only the modules its command runs.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys as _sys
from typing import TYPE_CHECKING

import numpy as np

from . import io as rio
from .errors import CapExceededError, IntegratorError, ValidationError

if TYPE_CHECKING:
    from . import discrete, tensor_bounds

WINDOW_CAP = 1 << 16  # values (2R+1)^n of a kernel file's window


def _load_json(path: str, **keys: type) -> dict:
    """The JSON object in ``path``; each of ``keys`` must hold a value of its type."""
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: input file must be readable ({exc.strerror or exc})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: input file must be valid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise ValidationError(f"{path}: input file must hold a JSON object")
    for key, kind in keys.items():
        if key not in d:
            raise ValidationError(f"{path}: input file must have key {key!r}")
        if not isinstance(d[key], kind):
            raise ValidationError(f"{path}: {key!r} must hold a JSON {'array' if kind is list else 'object'}")
    return d


def _required(args, flag: str):
    """The value of ``--flag``, which the chosen command and kind cannot run without."""
    value = getattr(args, flag)
    if value is None:
        kind = args.kind if hasattr(args, "kind") else f"--model {args.model}"
        raise ValidationError(f"{args.command} {kind}: --{flag} is required")
    return value


def _integer(path: str, what: str, v) -> int:
    """``v`` as an int; a float or a string passes only if it holds an integer."""
    try:
        if int(v) == float(v):
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{path}: {what} must be an integer, got {v!r}")


def _pair_from_file(path: str) -> discrete.FinitePair:
    from . import discrete

    d = _load_json(path, labels_x=list, labels_y=list, joint=list)
    return discrete.FinitePair(tuple(d["labels_x"]), tuple(d["labels_y"]), rio.parse_matrix(d["joint"]))


def _system_from_file(path: str) -> discrete.FiniteSystem:
    from . import discrete

    d = _load_json(path, variables=list, joint_flat=list)
    items, flat = d["variables"], d["joint_flat"]
    if not all(isinstance(v, dict) and {"name", "size"} <= v.keys() for v in items):
        raise ValidationError(f"{path}: every item of 'variables' must be an object with 'name' and 'size'")
    sizes = [_integer(path, "'size'", v["size"]) for v in items]
    if min(sizes, default=0) < 1 or len(flat) != math.prod(sizes):
        raise ValidationError(f"{path}: each 'size' must be >= 1 and 'joint_flat' must list "
                              "as many numbers as their product")
    joint = np.array([rio.parse_number(v) for v in flat]).reshape(sizes)  # row-major, last variable fastest
    return discrete.FiniteSystem(tuple((v["name"], s) for v, s in zip(items, sizes)), joint)


def _window_file(path: str):
    """(object, n, R, {offset: value}) of a kernel file whose 'values' are keyed
    by offsets such as "(1,-2)": n integer coordinates, each within [-R, R]."""
    d = _load_json(path, n=object, R=object, values=dict)
    n, R = _integer(path, "'n'", d["n"]), _integer(path, "'R'", d["R"])
    if n < 1 or R < 0:
        raise ValidationError(f"{path}: need 'n' >= 1 and 'R' >= 0")
    # a window with R >= 1 holds at least 2^n values, so a large n is rejected before (2R+1)^n is formed
    if n >= WINDOW_CAP.bit_length() or (2 * R + 1) ** n > WINDOW_CAP:
        raise CapExceededError(f"{path}: need 'n' < {WINDOW_CAP.bit_length()} and a window of "
                               f"(2R+1)^n <= cap {WINDOW_CAP} values")
    entries = {}
    for key, v in d["values"].items():
        z = tuple(_integer(path, f"offset key {key!r}", c) for c in key.strip("()").split(",") if c.strip())
        if len(z) != n or max(abs(c) for c in z) > R:
            raise ValidationError(f"{path}: offset key {key!r} must have {n} coordinates within [-{R}, {R}]")
        entries[z] = rio.parse_number(v)
    return d, n, R, entries


def _kernel_from_file(path: str) -> tensor_bounds.LatticeKernel:
    from . import tensor_bounds

    d, n, R, entries = _window_file(path)
    tail_d = d.get("tail") or {"type": "none"}
    if not isinstance(tail_d, dict):
        raise ValidationError(f"{path}: 'tail' must hold a JSON object")
    params = {k: rio.parse_number(tail_d.get(k, 0.0)) for k in ("C", "psi", "alpha", "total")}
    tail = tensor_bounds.TailModel(tail_d.get("type", "none"), **params)
    return tensor_bounds.LatticeKernel.from_dict(n, R, entries, d.get("norm", "l1"), tail)


def _toeplitz_from_file(path: str):
    from .convdecay import ToeplitzKernel

    d, n, R, entries = _window_file(path)
    return ToeplitzKernel.from_dict(n, R, entries, d.get("decay_class", "none"))


def _matrix_from_file(path: str) -> np.ndarray:
    return rio.parse_matrix(_load_json(path, entries=list)["entries"])


def _fields(rep, *names: str) -> dict:
    """A payload of the named attributes of ``rep``, in the order given."""
    return {name: getattr(rep, name) for name in names}


def _open_output(path: str):
    """``path`` opened for writing; a file that cannot be opened is a ValidationError naming it."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValidationError(f"{path}: output file must be writable ({exc.strerror or exc})") from exc


def _emit(args, payload, csv=None):
    text = csv() if args.format == "csv" and csv is not None else rio.dumps(payload)
    if args.output:
        with _open_output(args.output) as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _numbers(spec: str, kind=float) -> list:
    """The comma-separated values in ``spec``, each converted by ``kind`` (float or int)."""
    try:
        return [kind(v) for v in spec.split(",") if v.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValidationError(f"{spec!r}: values must be comma-separated {noun}") from None


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


def _maxcorr(args):
    from . import discrete

    if args.pair:
        pair = _pair_from_file(args.pair)
    elif args.system and args.x and args.y:
        pair = _system_from_file(args.system).pair(args.x.split(","), args.y.split(","))
    else:
        raise ValidationError("maxcorr: need --pair, or --system with --x and --y")
    names = ("rho", "optimal_f", "optimal_g") if args.witness and args.pair else ("rho",)
    return lambda: (_fields(discrete.maxcorr_pair(pair), *names), None)


def _subjective(args):
    from . import discrete

    sys_ = _system_from_file(args.system)
    i, j, pool = discrete.subjective_pool(sys_, args.i, args.j, args.pool.split(",") if args.pool else None)
    return lambda: ({"value": discrete.subjective_maxcorr(sys_, i, j, pool)}, None)


def _mixing(args):
    from . import discrete

    pair = _pair_from_file(args.pair)
    discrete._check_event_scan(pair.joint.shape[0])
    return lambda: (_fields(discrete.mixing_coefficients(pair), "alpha", "beta", "mutual_information"), None)


def _tensor_bound(args):
    from . import tensor_bounds

    # every kind is a closed form over a small input: evaluating it is its check
    if args.kind in ("simple", "zz"):
        bound = tensor_bounds.simple_bound if args.kind == "simple" else tensor_bounds.zz_bound
        payload = {"value": bound(_numbers(_required(args, "eps")))}
    elif args.kind == "nm":
        mat = _matrix_from_file(_required(args, "matrix"))
        payload = {"value": tensor_bounds.nm_bound(mat), "raw_operator_norm": tensor_bounds.operator_norm(mat)}
    else:
        kern = _kernel_from_file(_required(args, "kernel"))
        if args.kind == "zn":
            payload = _fields(tensor_bounds.zn_bound(kern), "value", "window_arcsin", "tail_arcsin")
        elif args.kind == "distance":
            payload = {"value": tensor_bounds.distance_bound(kern, args.d)}
        else:
            payload = _fields(tensor_bounds.sublattice_k(kern), "k", "ell")
    return lambda: (payload, None)


def _event_bound(args):
    if args.kind in ("lambda", "nu"):
        from . import events

        if args.kind == "lambda":
            value = events.lambda_fn(_required(args, "eps"))  # a closed form: evaluating it checks the input
            return lambda: ({"value": value}, None)
        model = events.NuModel(_required(args, "eps"), args.x, args.m)
        return lambda: (_fields(events.nu_event_ratio(model, seed=args.seed),
                                "worst_ratio", "factor", "witness_correlation"), None)
    from . import discrete

    pair = _pair_from_file(_required(args, "pair"))
    if args.kind == "density":
        value = discrete.density_bound(pair)  # a closed form: evaluating it checks the marginals
        return lambda: ({"value": value}, None)
    discrete._check_event_scan(*pair.joint.shape)
    return lambda: (_fields(discrete.event_extremes(pair), "max_ratio", "witness_a", "witness_b"), None)


def _chogosov(args):
    from . import events

    model = events.ChogosovModel(args.eps)
    if args.kind == "sample":
        events._check_sample_count(args.n)

        def run():
            cloud = events.chogosov_sample(model, args.n, args.seed)
            csv = functools.partial(
                rio.csv_lines, "chogosov sample cloud: p, q, branch (-1 lower curve, 0 interior, +1 upper curve)",
                ["p", "q", "branch"], ((row[0], row[1], int(row[2])) for row in cloud))
            return {"n": args.n, "eps": args.eps, "seed": args.seed}, csv
        return run
    if args.kind == "opnorm":
        events._check_grid(args.m)
        return lambda: ({**_fields(events.chogosov_opnorm(model, args.m), "rho_hat", "rayleigh_quotient", "m"),
                         "lambda": events.lambda_fn(args.eps)}, None)
    if args.kind == "lambda-check":
        if not 0 < args.p < 1:
            raise ValidationError("chogosov lambda-check: --p must lie in (0, 1)")
        return lambda: ({**_fields(events.lambda_integral_identity(model, args.p),
                                   "value", "atom_lower", "atom_upper", "interior"),
                         "lambda": events.lambda_fn(args.eps)}, None)
    # cdf, quantile and lstar are closed forms: evaluating them checks --p, --q and --omega
    if args.kind == "cdf":
        if not (0 < args.p < 1 and 0 < args.q < 1):  # before p * q can overflow
            raise ValidationError("chogosov cdf: p, q must lie in (0, 1)")
        payload = {"value": float(events.chogosov_cdf(model, args.p, args.q)),
                   "zone": events.chogosov_zone(model, args.p, args.q)}
    elif args.kind == "quantile":
        payload = {"value": events.chogosov_quantile(model, args.p, args.omega)}
    else:
        payload = {"max_residual": events.lstar_identity(model, [args.p])}
    return lambda: (payload, None)


def _glauber_gap(args):
    from . import glauber

    if args.kind == "exact":
        sys_ = _system_from_file(_required(args, "system"))
        glauber._check_gap_states(sys_)
        return lambda: ({"gap": glauber.exact_gap(sys_)}, None)
    if args.kind == "bounds":  # a closed form: evaluating it checks the matrix
        payload = _fields(glauber.gap_lower_bounds(_matrix_from_file(_required(args, "matrix"))),
                          "bound_M", "bound_Mprime", "bound_simple", "mprime_defined")
        return lambda: (payload, None)
    kern = _kernel_from_file(_required(args, "kernel"))
    glauber._sublattice_classes(kern)
    return lambda: (_fields(glauber.sublattice_gap(kern), "value", "ell", "zeta"), None)


def _glauber_sim(args):
    from . import glauber

    sys_ = _system_from_file(args.system)
    glauber._check_horizon(len(sys_.variables), args.horizon)
    site = args.observable_site
    if not 0 <= site < len(sys_.variables):
        raise ValidationError(f"glauber-sim: --observable-site must lie in [0, {len(sys_.variables)})")

    def run():
        sim = glauber.glauber_simulate(sys_, args.horizon, seed=args.seed,
                                       observable=np.indices(sys_.joint.shape, sparse=True)[site])
        csv = functools.partial(rio.csv_lines, "heat-bath trajectory", ["time", "site", "new_state"],
                                zip(sim.times, sim.sites, sim.new_states))
        return {**_fields(sim, "rate_estimate", "relaxation_time"), "events": len(sim.times)}, csv
    return run


def _ising(args):
    from . import lattice

    torus = lattice.IsingTorus(args.n, args.L, args.T)
    if args.method == "exact":
        lattice._check_exact_sites(torus)

    def run():
        rep = lattice.ising_epsilon(torus, method=args.method, seed=args.seed)
        values = {}
        for z, v in zip(rep.kernel.offsets(), rep.kernel.flat_values()):
            if v > 0:
                values["(" + ",".join(str(int(c)) for c in z) + ")"] = float(v)
        out = {**_fields(rep, "c0", "k0", "method", "subjective"), "values": values}
        if args.snapshot:
            conf = lattice.ising_mcmc_samples(torus, sweeps=1, thin=1, seed=args.seed, burn=50)[-1]
            grid = conf.reshape((args.L,) * args.n) if args.n > 1 else conf
            with _open_output(args.snapshot) as fh:
                fh.write(rio.spin_grid_text(grid))
        return out, None
    return run


def _quadratic(args):
    from . import lattice

    gam = _toeplitz_from_file(args.gamma)
    model = lattice.QuadraticModel(gam.n, gam, beta=args.beta)

    def run():
        rep = lattice.quadratic_rho_report(model)
        return {"Gamma": model.Gamma, **_fields(rep.covariance, "a_inv_center", "window_sum", "truncation_mass"),
                **_fields(rep, "eps_sum_offcenter", "gamma_bound_applies"),
                "distance_profile": {str(k): v for k, v in rep.distance_profile.items()},
                "sublattice_k": rep.sublattice.k if rep.sublattice else None}, None
    return run


def _conv_inverse(args):
    from .convdecay import _check_neumann, _decay_fit, conv_inverse

    kern = _toeplitz_from_file(args.kernel)
    _check_neumann(kern)

    def run():
        b = conv_inverse(kern)
        out_vals = {f"({z})": v for z, v in enumerate(b.values.tolist(), -b.R) if v != 0.0} if b.n == 1 else {}
        result = {"n": b.n, "R": b.R, "l1_norm": b.l1_norm(), "values": out_vals}
        fit = _decay_fit(b)
        if fit is not None:
            result["decay"] = _fields(fit, "classification", "rate", "exponent")
        return result, None
    return run


def _clt(args):
    from . import lattice

    if args.model == "ising":
        model = lattice.IsingTorus(1, args.L, args.T)
    elif args.model == "quadratic":
        gam = _toeplitz_from_file(_required(args, "gamma"))
        model = lattice.QuadraticModel(gam.n, gam)
    else:
        model = "independent"
    ells = lattice._check_clt(model, _numbers(args.ells, int), args.replicas, args.shape)

    def run():
        rep = lattice.clt_experiment(model, ells, replicas=args.replicas, seed=args.seed, shape=args.shape)
        csv = functools.partial(rio.csv_lines, "block-sum clt: ell, sigma_hat2, cf_distance",
                                ["ell", "sigma_hat2", "cf_distance"],
                                zip(rep.block_sizes, rep.sigma_hat2_by_block, rep.cf_distances))
        return _fields(rep, "block_sizes", "sigma_hat2", "sigma2_limit", "cf_distances"), csv
    return run


def _ou_chain(args):
    from . import gaussian

    if args.params:
        d = _load_json(args.params)
        rates = {k: rio.parse_number(d.get(k, 1.0)) for k in ("m", "omega", "c", "T", "lam", "t")}
        params = gaussian.OUChainParams(K=_integer(args.params, "'K'", d.get("K", 16)), **rates)
    else:
        params = gaussian.OUChainParams(t=args.t, K=args.K)

    def run():
        rep = gaussian.ou_chain_joint(params)
        return {**_fields(rep, "maxcorr", "qbar_range", "stationarity_residual"),
                "corr_pp_diag": np.diag(rep.corr_pp), "corr_qq_diag": np.diag(rep.corr_qq)}, None
    return run


def _three_lines(args):
    from . import gaussian

    # a closed form: evaluating it checks the three directions
    payload = _fields(gaussian.three_lines(_numbers(args.u1), _numbers(args.u2), _numbers(args.u3)),
                      "geometric", "apparent", "sine_ratios", "order")
    return lambda: (payload, None)


def _verify_all(args):
    only = args.only.split(",") if args.only else None
    # the suite writes one line per check as it goes; its run returns the exit code
    def run():
        from . import acceptance

        with _open_output(args.output) if args.output else contextlib.nullcontext(_sys.stdout) as fh:
            results = acceptance.run_all(only=only, out=lambda line: print(line, file=fh))
        return 0 if all(r.passed for r in results) else 1
    return run


HANDLERS = {
    "maxcorr": _maxcorr,
    "subjective": _subjective,
    "mixing": _mixing,
    "tensor-bound": _tensor_bound,
    "event-bound": _event_bound,
    "chogosov": _chogosov,
    "glauber-gap": _glauber_gap,
    "glauber-sim": _glauber_sim,
    "ising": _ising,
    "quadratic": _quadratic,
    "conv-inverse": _conv_inverse,
    "clt": _clt,
    "ou-chain": _ou_chain,
    "three-lines": _three_lines,
    "verify-all": _verify_all,
}


def main(argv=None) -> int:
    argv = list(_sys.argv[1:] if argv is None else argv)
    cmd = next((a for a in argv if not a.startswith("-")), None)
    if cmd not in HANDLERS:
        _sys.stderr.write(f"unknown command {cmd!r}; expected one of: {', '.join(HANDLERS)}\n")
        build_parser().print_usage(_sys.stderr)
        return 64
    args = build_parser().parse_args(argv)
    try:
        run = HANDLERS[args.command](args)
        if args.dry_run:
            _emit(args, {"valid": True})
            return 0
        result = run()
        if isinstance(result, int):  # verify-all has printed its own output
            return result
        _emit(args, *result)
        return 0
    except ValidationError as exc:
        _sys.stderr.write(f"invariant violated: {exc}\n")
        return 2
    except IntegratorError as exc:
        _sys.stderr.write(f"numerical routine failed: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
