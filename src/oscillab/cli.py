"""Command line front end.

Exit codes: 0 success; 1 at least one certificate check failed; 2 usage
errors (argument parsing); 3 domain errors (bad exponents, incompatible
bases, zero mass, unrepresentable magnitudes, ...); 4 empty or fully
degenerate corpora.

Reports are JSON with sorted keys; sweeps are CSV.  Both carry the package
version, the config digest, and a ``generated_at`` stamp on its own line so
byte-level comparisons can filter it out.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import RunConfig, parse_config
from .errors import (AllDegenerate, BadParams, DegenerateInput, EmptyCorpus,
                     OscillabError, OverflowGuard)
from .lattice import GridDomain, Measure, build_base, read_field_csv
from .oscillation import (CenteredDiff, DualHardy, jn_exp_moment,
                          oscillation_norm, tl_equivalence_probe)
from .verify import (TheoremId, build_majorant, estimate_constant,
                     inputs_digest, run_suite, theorem_from_string)
from .weights import (SelfImprovementParams, Weight, a1_constant, conjugate,
                      doubling_constant, generate_weight,
                      muckenhoupt_constant, read_weight,
                      reverse_holder_constant, self_improvement, write_weight)

_CONSTANT_KINDS = ("ap", "rh", "a1", "doubling")


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _envelope(cfg: RunConfig, payload: dict) -> dict:
    out = {"version": __version__, "config_digest": cfg.digest(),
           "generated_at": _now()}
    out.update(payload)
    return out


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_grid(text: str, split: bool) -> GridDomain:
    try:
        sides = tuple(int(tok) for tok in text.lower().split("x"))
    except ValueError as exc:
        raise BadParams(f"bad grid {text!r}; use forms like 64 or 16x16") from exc
    use_split = (1, 1) if (split and len(sides) == 2) else None
    return GridDomain(sides, split=use_split)


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise BadParams(f"params look like key=value, got {pair!r}")
        key, _, val = pair.partition("=")
        try:
            params[key.strip()] = float(val)
        except ValueError:
            params[key.strip()] = val.strip()
    return params


def _resolve_weight(args):
    """Weight from --weight CSV, or generated from --gen over --grid.

    Returns (weight, domain, base): base is the --base family over the
    uniform measure when the generator needed it, else None.
    """
    if getattr(args, "weight", None):
        w = read_weight(args.weight)
        return w, w.domain, None
    if not getattr(args, "gen", None):
        raise BadParams("provide --weight FILE or --gen KIND with --grid")
    domain = _parse_grid(args.grid, getattr(args, "split", False))
    measure = Measure.uniform(domain)
    base = build_base(domain, measure, args.base, args.min_scale)
    w = generate_weight(args.gen, _parse_params(args.param), args.seed, domain,
                        base=base, measure=measure)
    return w, domain, base


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_constant(args, cfg: RunConfig) -> int:
    w, domain, base = _resolve_weight(args)
    measure = Measure.uniform(domain)
    payload: dict = {"kind": args.kind, "weight_digest": w.digest,
                     "grid": list(domain.sides)}
    if args.kind == "doubling":
        payload["value"] = doubling_constant(w, measure)
    else:
        if base is None:
            base = build_base(domain, measure, args.base, args.min_scale)
        payload["base"] = {"kind": base.kind, "id": base.base_id,
                           "sets": len(base)}
        if args.kind == "ap":
            payload["p"] = args.p
            payload["value"] = muckenhoupt_constant(w, args.p, base, measure)
        elif args.kind == "rh":
            payload["delta"] = args.delta
            payload["value"] = reverse_holder_constant(w, args.delta, base,
                                                       measure)
        else:
            payload["mode"] = args.mode
            payload["value"] = a1_constant(w, base, measure, mode=args.mode)
        payload["constants_cache"] = w.cached_constants()
    _emit(_dump(_envelope(cfg, payload)), args.out)
    return 0


def cmd_norm(args, cfg: RunConfig) -> int:
    domain, values = read_field_csv(args.field)
    if args.weight:
        w = read_weight(args.weight)
        if w.domain != domain:
            raise BadParams("field and weight live on different grids")
    else:
        w = Weight.unit(domain)
    if args.spec == "reciprocal":
        measure = Measure.density(domain, w.values)
        base = build_base(domain, measure, args.base, args.min_scale)
        rep = oscillation_norm(values, DualHardy(w), Weight.unit(domain),
                               args.p, base, measure)
    else:
        measure = Measure.uniform(domain)
        base = build_base(domain, measure, args.base, args.min_scale)
        rep = oscillation_norm(values, CenteredDiff(), w, args.p, base, measure)
    if not math.isfinite(rep.value):
        raise OverflowGuard("the norm left the representable float range; "
                            "rescale the field")
    payload = {"norm": rep.value, "p": rep.p, "spec": args.spec,
               "weight_digest": rep.weight_id,
               "extremal_set": rep.extremal_set.label(),
               "base": {"kind": base.kind, "sets": len(base)}}
    _emit(_dump(_envelope(cfg, payload)), args.out)
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    if cfg.suite == "all":
        suites = list(TheoremId)
    else:
        try:
            suites = [theorem_from_string(cfg.suite)]
        except BadParams as exc:
            # A misspelled suite is a usage error, same class as bad flags.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for tid in suites:
        run = run_suite(tid, cfg.trials, seed=cfg.seed, tol=cfg.tol)
        suite_dir = out_dir / tid.value
        suite_dir.mkdir(parents=True, exist_ok=True)
        for i, record in enumerate(run["records"]):
            res = ({"degenerate": record} if isinstance(record, str)
                   else record.to_dict())
            res["trial"] = i
            (suite_dir / f"trial_{i:04d}.json").write_text(
                _dump(_envelope(cfg, res)))
        slack = run["min_relative_slack"]
        rows.append({"suite": tid.value, "trials": run["trials"],
                     "failures": run["failures"],
                     "degenerate_skipped": run["degenerate_skipped"],
                     "min_relative_slack": "" if slack is None else slack})
    lines = ["suite,trials,failures,degenerate_skipped,min_relative_slack"]
    for r in rows:
        slack = r["min_relative_slack"]
        lines.append(",".join([r["suite"], str(r["trials"]), str(r["failures"]),
                               str(r["degenerate_skipped"]),
                               _num(slack) if isinstance(slack, float) else ""]))
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
    passed = all(r["failures"] == 0 for r in rows)
    summary = _envelope(cfg, {"suites": rows, "pass": passed})
    (out_dir / "summary.json").write_text(_dump(summary))
    sys.stdout.write(_dump(summary))
    return 0 if passed else 1


def _num(x) -> str:
    """Full-precision, locale-independent CSV scalar."""
    return repr(float(x))


def _load_corpus_dir(path) -> list[dict]:
    """Read every ``*.csv`` in a directory as a field over uniform measure,
    dyadic-cube base, unit weight: a user-supplied estimation corpus."""
    files = sorted(Path(path).glob("*.csv"))
    if not files:
        raise EmptyCorpus(f"no field CSVs under {path}")
    items = []
    for fp in files:
        domain, values = read_field_csv(fp)
        measure = Measure.uniform(domain)
        base = build_base(domain, measure, "dyadic-cubes")
        items.append({"f": values, "w": Weight.unit(domain), "base": base,
                      "measure": measure})
    return items


def _sweep_corpus(args, cfg: RunConfig) -> list[dict]:
    from .corpus import make_standard_corpus

    if getattr(args, "corpus", None):
        return _load_corpus_dir(args.corpus)
    return make_standard_corpus(cfg.seed, args.size)


def _sweep_c1p(args, cfg: RunConfig):
    corpus = _sweep_corpus(args, cfg)
    powers = [float(tok) for tok in args.powers.split(",") if tok.strip()]
    header = ("p,c_hat,upper,upper_realized,gain_exponent,gain_dual,kcap,"
              "tbound,corpus_digest,n_used")
    rows = []
    spec = CenteredDiff()
    for p in powers:
        est = estimate_constant("c_pq", corpus, {"p": p, "q": 1.0})
        # Upper column from the configured closed form.  The majorant route
        # runs the iterated-maximal series at the conjugate exponent, whose
        # norm bound over dyadic cubes is p, so the strength ceiling is
        # t = 2p; the gain pair (delta, kcap) at that ceiling then caps the
        # weighted-to-plain bridge, giving c_hat(p) <= 2*kcap*c_hat(dual).
        params = SelfImprovementParams(setting="euclidean-cubes", dims=1)
        tbound = 2.0 * p
        gain, kcap = self_improvement(params, conjugate(p), tbound)
        dual = conjugate(gain)
        est_hi = estimate_constant("c_pq", corpus, {"p": dual, "q": 1.0})
        upper = 2.0 * kcap * est_hi.value
        # Tighter diagnostic: per item, measure the reverse-Holder constant
        # the majorant actually achieves instead of using the cap.
        uppers = []
        for item in corpus:
            f, base, measure = item["f"], item["base"], item["measure"]
            unit = Weight.unit(base.domain)
            try:
                u = build_majorant(f, base, measure, p)[0]
            except DegenerateInput:
                continue
            rh_u = reverse_holder_constant(u, gain, base, measure)
            denom = oscillation_norm(f, spec, unit, 1.0, base, measure).value
            if denom <= 0.0:
                continue
            hi = oscillation_norm(f, spec, unit, dual, base, measure).value
            uppers.append(2.0 * rh_u * hi / denom)
        rows.append([_num(p), _num(est.value), _num(upper),
                     _num(max(uppers)) if uppers else "",
                     _num(gain), _num(dual), _num(kcap), _num(tbound),
                     est.corpus_digest, str(est.n_used)])
    return header, rows


def _sweep_psi(args, cfg: RunConfig):
    corpus = _sweep_corpus(args, cfg)
    header = "p,t,psi_hat,corpus_digest,n_used,n_skipped"
    rows = []
    for p in (1.5, 2.0, 3.0):
        for t in (1.5, 3.0, 8.0):
            try:
                est = estimate_constant("psi", corpus, {"p": p, "t": t})
                rows.append([_num(p), _num(t), _num(est.value),
                             est.corpus_digest, str(est.n_used),
                             str(est.n_skipped)])
            except AllDegenerate:
                rows.append([_num(p), _num(t), "", "", "0", str(len(corpus))])
    return header, rows


def _sweep_jn(args, cfg: RunConfig):
    from . import corpus as corpus_mod

    header = "trial,inputs_digest,doubling,eta,exp_moment,cap,tail_c1,tail_c2"
    rows = []
    done = 0
    trial = 0
    while done < args.size and trial < 10 * args.size:
        inputs = corpus_mod.sample_inputs(TheoremId.RECTANGLE_DECAY, cfg.seed,
                                          trial)
        trial += 1
        try:
            rep = jn_exp_moment(inputs["f"], inputs["base"], inputs["w"],
                                inputs["measure"])
        except (DegenerateInput, OscillabError):
            continue
        digest = inputs_digest(TheoremId.RECTANGLE_DECAY, inputs)
        rows.append([str(done), digest, _num(rep.dw), _num(rep.eta),
                     _num(rep.t_value), _num(2.0 * math.e), _num(rep.c1_hat),
                     _num(rep.c2_hat)])
        done += 1
    return header, rows


def _sweep_tl(args, cfg: RunConfig):
    from . import corpus as corpus_mod

    header = "trial,inputs_digest,alpha,q,p,plain_nu,weighted_nu,ratio"
    rows = []
    for trial in range(args.size):
        inputs = corpus_mod.sample_inputs(TheoremId.SEQUENCE_SPACES, cfg.seed,
                                          trial)
        probe = tl_equivalence_probe(inputs["seq"], inputs["alpha"],
                                     inputs["q"], inputs["p"], inputs["w"],
                                     inputs["base"], inputs["measure"])
        digest = inputs_digest(TheoremId.SEQUENCE_SPACES, inputs)
        rows.append([str(trial), digest, _num(probe.alpha), _num(probe.q),
                     _num(probe.p), _num(probe.unweighted_nu),
                     _num(probe.weighted_nu), _num(probe.ratio)])
    return header, rows


_SWEEPS = {"c1p": _sweep_c1p, "psi": _sweep_psi, "jn-decay": _sweep_jn,
           "tl-ratio": _sweep_tl}


def cmd_sweep(args, cfg: RunConfig) -> int:
    if args.quantity == "c1p" and not any(
            tok.strip() for tok in args.powers.split(",")):
        print("error: empty exponent grid", file=sys.stderr)
        return 2
    if args.size < 1:
        print(f"error: corpus size must be positive, got {args.size}",
              file=sys.stderr)
        return 2
    header, rows = _SWEEPS[args.quantity](args, cfg)
    lines = [f"# version={__version__} config_digest={cfg.digest()}",
             f"# generated_at={_now()}", header]
    lines.extend(",".join(row) for row in rows)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gen(args, cfg: RunConfig) -> int:
    w, domain, _ = _resolve_weight(args)
    write_weight(args.out, w)
    payload = {"written": str(args.out), "weight_digest": w.digest,
               "grid": list(domain.sides),
               "provenance": {k: v for k, v in w.provenance.items()
                              if k != "checks"}}
    sys.stdout.write(_dump(_envelope(cfg, payload)))
    return 0


def cmd_info(args, cfg: RunConfig) -> int:
    payload = {
        "package": "oscillab",
        "suites": [t.value for t in TheoremId],
        "constant_kinds": list(_CONSTANT_KINDS),
        "config": {"seed": cfg.seed, "trials": cfg.trials, "tol": cfg.tol,
                   "out": cfg.out, "suite": cfg.suite},
    }
    sys.stdout.write(_dump(_envelope(cfg, payload)))
    return 0


# ---------------------------------------------------------------------------
# Parser.

def _add_weight_source(sub, with_base=True):
    sub.add_argument("--weight", help="weight CSV (with optional JSON sidecar)")
    sub.add_argument("--gen", help="generate instead: power, "
                     "random-log-bounded, checkerboard, rubio-a1")
    sub.add_argument("--param", action="append",
                     help="generator parameter key=value (repeatable)")
    sub.add_argument("--grid", default="64", help="grid sides, e.g. 64 or 16x16")
    sub.add_argument("--split", action="store_true",
                     help="declare a 2-d grid as a two-factor product")
    sub.add_argument("--seed", type=int, default=0)
    if with_base:
        sub.add_argument("--base", default="dyadic-cubes",
                         help="base family kind")
        sub.add_argument("--min-scale", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscillab",
        description="Discrete oscillation-space toolkit: weighted norms, "
                    "weight constants, and per-instance certificates.")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constant", help="compute one weight constant")
    c.add_argument("--kind", required=True, choices=_CONSTANT_KINDS)
    c.add_argument("--p", type=float, default=2.0)
    c.add_argument("--delta", type=float, default=2.0)
    c.add_argument("--mode", default="auto",
                   choices=("auto", "dyadic", "centered", "uncentered"))
    c.add_argument("--out")
    _add_weight_source(c)
    c.set_defaults(handler=cmd_constant)

    n = sub.add_parser("norm", help="compute an oscillation norm")
    n.add_argument("--field", required=True, help="field CSV")
    n.add_argument("--p", type=float, default=1.0)
    n.add_argument("--spec", default="centered",
                   choices=("centered", "reciprocal"))
    n.add_argument("--weight")
    n.add_argument("--base", default="dyadic-cubes")
    n.add_argument("--min-scale", type=int, default=0)
    n.add_argument("--out")
    n.set_defaults(handler=cmd_norm)

    v = sub.add_parser("verify", help="run certificate suites on sampled corpora")
    v.add_argument("--suite", help="suite name or 'all'")
    v.add_argument("--trials", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--tol", type=float)
    v.add_argument("--out", help="output directory")
    v.set_defaults(handler=cmd_verify)

    s = sub.add_parser("sweep", help="tabulate empirical constants")
    s.add_argument("--quantity", required=True, choices=sorted(_SWEEPS))
    s.add_argument("--size", type=int, default=20)
    s.add_argument("--powers", default="2,4,8,16",
                   help="comma list of exponents (c1p only)")
    s.add_argument("--corpus", help="directory of field CSVs to estimate "
                   "from instead of the built-in corpus (c1p, psi)")
    s.add_argument("--out")
    s.set_defaults(handler=cmd_sweep)

    g = sub.add_parser("gen", help="generate a weight and write it to CSV")
    g.add_argument("--out", required=True)
    _add_weight_source(g)
    g.set_defaults(handler=cmd_gen)

    i = sub.add_parser("info", help="environment and configuration summary")
    i.set_defaults(handler=cmd_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.command == "verify":
            cfg = cfg.with_overrides(seed=args.seed, trials=args.trials,
                                     tol=args.tol, out=args.out,
                                     suite=args.suite)
        return args.handler(args, cfg)
    except (EmptyCorpus, AllDegenerate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OscillabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        # The condition OverflowGuard names, so it shares its exit code.
        print(f"error: a sum or power left the float range ({exc}); "
              "rescale the input", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
