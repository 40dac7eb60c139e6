"""Command-line front end: residual check runs over the built-in cases,
surface reconstruction with OBJ export, case field export, and frame
propagation.  All outputs are deterministic for a fixed configuration;
wall-clock times live under a separate report key so reports can be
compared byte for byte with timing excluded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time


def _apply_thread_cap():
    cap = os.environ.get("SOLGEO_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


# BLAS and OpenMP read their thread counts once, when numpy loads, so the
# cap must be in the environment before the imports below
_apply_thread_cap()

import numpy as np  # noqa: E402

# each subcommand imports the modules it runs, so a cold process compiles
# and loads only those
from solgeo import __version__  # noqa: E402
from solgeo import grid as sg  # noqa: E402
from solgeo.errors import ConstraintError, DomainError, NumericalError  # noqa: E402

TOL_ANALYTIC = 1e-10
RATIO_WINDOW = (3.5, 4.5)


def _gate(name, value, tol, **extra):
    """A report entry whose verdict is value <= tol, with extra keys beside
    it; a nan value compares false, so it fails."""
    return {"name": name, "max": value, "tol": tol,
            "passed": bool(value <= tol), **extra}


def _write_report(path, config, checks, seed, timing):
    # a run passes on its gated checks, and only if it has one: a run
    # whose checks are all informational has shown nothing
    gated = [c["passed"] for c in checks if not c.get("informational")]
    report = {
        "version": __version__,
        "config": config,
        "seed": seed,
        "checks": checks,
        "passed": bool(gated) and all(gated),
        "timing": timing,
    }
    text = json.dumps(report, sort_keys=True, indent=2, default=float)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return report


# --- check subcommand ---------------------------------------------------------

def _check_planewave(args):
    from solgeo import cases, solitons

    eq = args.eq
    if args.case != f"planewave-{eq}":
        raise DomainError(f"case {args.case!r} does not match equation {eq!r}")
    pw = cases.planewave(eq)
    if args.omega_scale != 1.0:
        pw = cases.planewave(eq, omega=pw["params"]["omega"] * args.omega_scale)
    grid = cases.default_grid_xyt(args.n)
    res = solitons.pde_residual(
        eq, {k: pw[k] for k in ("q", "p", "v")},
        pw["params"], mode="analytic", grid=grid)
    tol = args.tol if args.tol is not None else TOL_ANALYTIC
    checks = []
    for k, r in res.items():
        norms = sg.field_norms(r)
        checks.append(_gate(f"{eq}-residual-{k}", norms.pop("max"), tol,
                            **norms))
    return checks


def _refine_levels(args):
    """Refinement levels of a convergence check; fewer than two would give
    no ratio and so a vacuous pass."""
    if args.refine < 2:
        raise DomainError(f"--refine must be at least 2, got {args.refine}")
    return args.refine


def _window_check(name, study):
    """Gate a refinement study on second-order ratios."""
    ok = all(RATIO_WINDOW[0] <= r <= RATIO_WINDOW[1] for r in study["ratios"])
    return {"name": name, **study, "tol": list(RATIO_WINDOW),
            "max": study["defects"][-1], "passed": ok}


def _check_pure_gauge(args):
    from solgeo import cases

    if args.case != "pure-gauge":
        raise DomainError("system checks support the pure-gauge case")
    study = sg.refinement_study(
        lambda lv: cases.pure_gauge_defect(args.system, args.n * 2**lv + 1),
        _refine_levels(args))
    return [_window_check(f"{args.system}-pure-gauge-refinement", study)]


def _check_lambda(args):
    from solgeo import cases

    levels = _refine_levels(args)
    checks = []
    for ip, params in enumerate(cases.LAMBDA_PARAMS):
        study = sg.refinement_study(
            lambda lv: cases.lambda_defect(params, args.n * 2**lv), levels)
        checks.append(_window_check(f"lambda-set{ip}-refinement", study))
    return checks


def _check_reduction(args):
    from solgeo import cases, solitons

    if args.seed < 0:
        raise DomainError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    grid = cases.default_grid_xyt(args.n)
    q = cases.random_smooth(grid, rng)
    p = cases.random_smooth(grid, rng)
    v = cases.random_smooth(grid, rng)
    fields = {"q": q, "p": p, "v": v}
    if args.case == "strachan-reduction":
        ra = solitons.pde_residual("m3q", fields, {"c": 0.7, "d": 0.0},
                                   grid=grid)
        rb = solitons.pde_residual("strachan", fields, {"c": 0.7}, grid=grid)
    elif args.case == "zi-reduction":
        ra = solitons.pde_residual("m3q", fields, {"c": 0.0, "d": 1.0},
                                   grid=grid)
        rb = solitons.pde_residual("zi", fields, {}, grid=grid)
    else:
        raise DomainError(f"unknown reduction case {args.case!r}")
    tol = args.tol if args.tol is not None else 1e-15
    checks = []
    for k in ra:
        norms = sg.field_norms(ra[k] - rb[k])
        m3q_max = float(np.abs(ra[k]).max())
        entry = _gate(f"m3q-{args.case}-{k}", norms.pop("max"), tol,
                      m3q_max=m3q_max, **norms)
        # an identity between residual lines that vanish shows nothing
        entry["passed"] = entry["passed"] and m3q_max > 0
        checks.append(entry)
    return checks


def _check_lax(args):
    from solgeo import cases, solitons

    levels = _refine_levels(args)
    pw = cases.planewave("zi")
    report = solitons.lax_refinement_report(
        "zi", pw["callables"], {"lam": 0.3}, levels=levels, n_line=args.n)
    ok = all(r >= 8.0 for r in report["ratios"])
    checks = [{"name": "lax-zi-refinement", "defects": report["defects"],
               "ratios": report["ratios"], "tol": 8.0,
               "max": report["defects"][-1], "passed": ok}]
    if args.perturb:
        # scaling the amplitude alone leaves the constant-potential plane
        # wave an exact solution, so the negative control detunes the
        # frequency by the same factor
        bad_pw = cases.planewave("zi", omega=1.1 * pw["params"]["omega"])
        lv = levels - 1
        bad = solitons.lax_commutation_defect(
            "zi", bad_pw["callables"], {"lam": 0.3},
            n_line=args.n * 2**lv,
            substeps=solitons.LAX_SUBSTEPS * 2**lv)
        finest = report["defects"][-1]
        # refinement_study's ratio rule: nan unless bad is finite and
        # finest positive
        ratio = sg.refinement_study([bad, finest].__getitem__, 2)["ratios"][0]
        checks.append({"name": "lax-zi-discrimination", "max": ratio,
                       "tol": 100.0, "passed": bool(ratio >= 100.0)})
    return checks


# each check's runner and the check flags it reads; any other flag but
# --report that is off its parser default would only be recorded
CHECKS = {
    "planewave": (_check_planewave, {"eq", "case", "n", "tol", "omega_scale"}),
    "reduction": (_check_reduction, {"eq", "case", "n", "tol", "seed"}),
    "pure-gauge": (_check_pure_gauge, {"system", "case", "n", "refine"}),
    "lambda": (_check_lambda, {"kind", "n", "refine"}),
    "lax": (_check_lax, {"kind", "n", "refine", "perturb"}),
}


def cmd_check(args, defaults):
    """Run the check that --kind, else --system, else --eq selects;
    defaults holds the check flags' parser defaults, before --config."""
    if args.kind:
        name, by = args.kind, "--kind"
    elif args.system:
        name, by = "pure-gauge", "--system"
    elif args.eq in ("ds", "zi", "strachan", "m3q"):
        name, by = "reduction" if args.eq == "m3q" else "planewave", "--eq"
    else:
        raise DomainError(f"unsupported check: eq={args.eq!r} "
                          f"case={args.case!r}")
    run, reads = CHECKS[name]
    for dest, default in defaults.items():
        if dest not in reads | {"report"} and getattr(args, dest) != default:
            raise DomainError(f"--{dest.replace('_', '-')} does not apply to "
                              f"the {name} check that {by} selects")
    # nan compares false and inf would pass every value, so neither gates
    if args.tol is not None and not 0.0 <= args.tol < math.inf:
        raise DomainError("--tol must be finite and non-negative, "
                          f"got {args.tol}")
    if not math.isfinite(args.omega_scale):
        raise DomainError(f"--omega-scale must be finite, got "
                          f"{args.omega_scale}")
    return run(args)


# --- surface subcommand -------------------------------------------------------

def cmd_surface(args):
    from solgeo import cases, frames

    if args.case not in cases.SURFACE_CASES:
        raise DomainError(f"unknown surface case {args.case!r}")
    s = cases.SURFACE_CASES[args.case](args.n)
    result = frames.reconstruct_surface(s)
    if args.out:
        frames.export_obj(args.out, result.position)
    hmax = max(a.h for a in s.grid.axes)
    shape = cases.surface_shape_error(args.case, result)
    return [
        _gate(f"surface-{args.case}-mixed-partial",
              result.mixed_partial_defect, 10.0 * hmax**2),
        # the residual is pure finite-difference error for compatible forms
        _gate(f"surface-{args.case}-compatibility", result.gmce_residual_max,
              10.0 * min(a.h for a in s.grid.axes)**2),
        # the two checks above hold for any compatible forms, so a sign slip
        # that keeps them compatible (the cylinder's L or p11) fails here
        # alone
        _gate(f"surface-{args.case}-shape", shape, hmax**2),
    ]


# --- case subcommand ----------------------------------------------------------

def cmd_case(args):
    from solgeo import cases

    name, n = args.name, args.n
    if name not in cases.CASE_NAMES:
        hint = (" (surfaces are written by `surface --case NAME --out FILE`)"
                if name in cases.SURFACE_CASES else "")
        raise DomainError(f"unknown case {name!r}{hint}")
    # every field is built before the directory is made, so a refused size
    # leaves nothing behind
    params = None
    if name.startswith("planewave"):
        pw = cases.planewave(name.split("-", 1)[1])
        grid = cases.default_grid_xyt(n)
        fields = {f"{name}-{key}": sg.ScalarField(grid, pw[key].sample(grid))
                  for key in ("q", "p", "v")}
        params = pw["params"]
    elif name == "uniform-spin":
        grid = cases.default_grid_xyt(n)
        sp = cases.uniform_spin(grid)
        fields = {f"{name}-{key}": sg.ScalarField(grid, sp["S"][..., i])
                  for i, key in enumerate(("s1", "s2", "s3"))}
        fields[f"{name}-u"] = sg.ScalarField(grid, sp["u"])
    elif name == "pure-gauge":
        from solgeo import liealg

        conn = cases.pure_gauge_connection(cases.default_grid_gauge(n))
        fields = {f"{name}-{key}": sg.MatrixField(f.grid, liealg.hat(f.data))
                  for key, f in conn.items()}
    else:
        f = cases.rational_lambda(grid=cases.default_grid_xi(n))
        fields = {name: sg.ScalarField(f.grid, f.lam)}
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    written, worst = [], 0.0
    for stem, field in fields.items():
        path = os.path.join(outdir, f"{stem}.field")
        sg.save_field(path, field)
        written.append(path)
        # the entry is what a reader gets back: any bit lost on the way fails
        worst = max(worst, float(np.abs(sg.load_field(path).data
                                        - field.data).max()))
    if params is not None:
        path = os.path.join(outdir, f"{name}-params.json")
        with open(path, "w") as fh:
            json.dump(params, fh, sort_keys=True, indent=2)
            fh.write("\n")
        written.append(path)
    return [_gate(f"case-{name}", worst, 0.0, written=written)]


# --- frame subcommand ---------------------------------------------------------

def cmd_frame(args):
    from solgeo import frames, liealg

    coeffs = [liealg.CoeffTriple.x(args.k, args.tau, args.sigma)] * args.n
    field = frames.propagate_frenet(frames.FrameTriad.standard(args.beta),
                                    coeffs, args.beta, args.h)
    drift = field.gram_defect()
    if args.out:
        # e1 per sample, with a zero fourth column
        rows = np.zeros((args.n, 4))
        rows[:, :3] = field.data[:, 0, :]
        sg.write_csv(args.out, rows)
    if args.beta == 1:
        tol = 1e-12
    elif args.sigma == 0.0:
        # the generator is eta-skew, so E eta E^T = eta holds up to rounding
        # that grows with the squared frame size
        tol = 1e-12 * max(1.0, float(np.abs(field.data).max())) ** 2
    else:
        # sigma != 0 breaks eta-skewness at beta = -1: the drift has no
        # invariant to be gated on, but the frames must still be finite
        return [{"name": "frame-gram-drift", "max": drift,
                 "informational": True},
                {"name": "frame-finite",
                 "max": float(np.abs(field.data).max()),
                 "passed": bool(np.isfinite(field.data).all())}]
    return [_gate("frame-gram-drift", drift, tol)]


# --- entry point --------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="solgeo")
    p.add_argument("--config", help="JSON file with flag defaults")
    sub = p.add_subparsers(dest="command")

    c = sub.add_parser("check")
    c.add_argument("--eq", default=None)
    c.add_argument("--system", default=None)
    c.add_argument("--kind", default=None, choices=[None, "lambda", "lax"])
    c.add_argument("--case", default="")
    c.add_argument("--n", type=int, default=16)
    c.add_argument("--refine", type=int, default=3)
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--omega-scale", type=float, default=1.0)
    c.add_argument("--perturb", action="store_true")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--report", default=None)

    s = sub.add_parser("surface")
    s.add_argument("--case", required=True)
    s.add_argument("--n", type=int, default=32)
    s.add_argument("--out", default=None)
    s.add_argument("--report", default=None)

    k = sub.add_parser("case")
    k.add_argument("name")
    k.add_argument("--n", type=int, default=16)
    k.add_argument("--out", default=None)
    k.add_argument("--report", default=None)

    f = sub.add_parser("frame")
    f.add_argument("--k", type=float, default=1.0)
    f.add_argument("--tau", type=float, default=0.0)
    f.add_argument("--sigma", type=float, default=0.0)
    f.add_argument("--beta", type=int, default=1, choices=(1, -1))
    f.add_argument("--n", type=int, default=200)
    f.add_argument("--h", type=float, default=0.01)
    f.add_argument("--out", default=None)
    f.add_argument("--report", default=None)
    return p, sub.choices


def _config_defaults(path, subparser):
    """Flag defaults from a JSON object file, for the options of subparser.

    Values are handed to argparse as command-line text, so each flag's
    type= applies to them; null keeps the flag's own default, a store_true
    flag takes only true or false, and any other key that names no option
    of the subcommand is refused rather than ignored.
    """
    with open(path) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError("top level is not a JSON object")
    actions = {a.dest: a for a in subparser._actions if a.dest != "help"}
    out = {}
    for key, val in conf.items():
        dest = key.replace("-", "_")
        if val is None and dest in actions:
            continue
        if dest not in actions or not actions[dest].option_strings:
            raise ValueError(f"{key}: not an option of {subparser.prog}")
        if actions[dest].nargs == 0:
            if not isinstance(val, bool):
                raise ValueError(f"{key}: expected true or false")
            out[dest] = val
        else:
            out[dest] = str(val)
    return out


def _config_choice_error(subparser, conf, args):
    """Message for the first configured value outside its flag's choices,
    or None; argparse checks choices on command-line values only, not on
    defaults."""
    for action in subparser._actions:
        if action.choices is None or action.dest not in conf:
            continue
        val = getattr(args, action.dest)
        if val not in action.choices:
            allowed = ", ".join(map(repr, action.choices))
            return f"{action.dest}: invalid choice {val!r} (choose from {allowed})"
    return None


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    # the parser's own defaults, read before --config replaces them
    defaults = {a.dest: a.default for a in commands[args.command]._actions
                if a.dest != "help"}
    if args.config:
        try:
            conf = _config_defaults(args.config, commands[args.command])
        except (OSError, ValueError) as exc:
            print(f"solgeo: cannot read config: {exc}", file=sys.stderr)
            return 2
        # config values become the subcommand's defaults: explicit flags
        # still win, and argparse converts or rejects them (exit 2)
        commands[args.command].set_defaults(**conf)
        args = parser.parse_args(argv)
        bad = _config_choice_error(commands[args.command], conf, args)
        if bad:
            print(f"solgeo: config {bad}", file=sys.stderr)
            return 2

    t0 = time.perf_counter()
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        if args.command == "check":
            checks = cmd_check(args, defaults)
        elif args.command == "surface":
            checks = cmd_surface(args)
        elif args.command == "case":
            checks = cmd_case(args)
        else:
            checks = cmd_frame(args)
    except (DomainError, NumericalError, OSError) as exc:
        print(f"solgeo: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a grid too large for this host is a usage error; numpy's message
        # names the size it could not allocate
        print(f"solgeo: out of memory: {exc}", file=sys.stderr)
        return 2
    except ConstraintError as exc:
        print(f"solgeo: {exc} (defect {exc.defect})", file=sys.stderr)
        return 1
    wall_s = time.perf_counter() - t0
    # ru_minflt: page faults served without I/O, mostly fresh zeroed pages
    # for arrays; ru_maxrss: the process's peak resident size, in KiB
    usage = resource.getrusage(resource.RUSAGE_SELF)
    timing = {"wall_s": wall_s, "minor_faults": usage.ru_minflt - faults0,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    config = {k: v for k, v in vars(args).items()
              if k not in ("config", "report") and v is not None}
    try:
        report = _write_report(args.report, config, checks,
                               getattr(args, "seed", 0), timing)
    except OSError as exc:
        print(f"solgeo: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
