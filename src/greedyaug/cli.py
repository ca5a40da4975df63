"""Command-line surface: traces, audits, ratio tables, verification, instances.

Commands

  trace         greedy chain of a described objective as CSV
  audit         weak ratio / augmentability audits as a JSON bundle
  ratio-table   per-k measured + closed-form ratios with the large-k limit
  verify-paper  run the built-in verification matrix of known exact results
  gen-instance  emit an instance description (flow JSON or family descriptor)

Objectives come either from ``--family TAG --params JSON`` descriptors or
from ``--instance FILE`` holding a flow-instance JSON.  Exact rationals are
rendered as "p/q"; decimal columns are derived for plotting convenience and
never authoritative.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import cache

from .core import (
    GroundSetTooLarge,
    ParameterError,
    approximation_ratio,
    format_rational,
    greedy_adaptive,
    indices_of,
    parse_rational,
)
from .audit import (
    check_alpha_augmentable,
    check_gamma_alpha_augmentable,
    min_alpha_for,
    weak_submodularity_ratio,
)
from .families import FAMILIES, describe_flow, family_entry, limit_ratio, oracle_from_descriptor
from .independence import rank_quotient
from . import exactlp, flows, verify

TRACE_HEADER = ("step", "pick", "gain", "value", "ties")
RATIO_HEADER = ("k", "measured", "closed_form", "closed_form_dec", "limit", "converging", "note")


def _parse_params(text: str | None) -> dict:
    if not text:
        return {}
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--params is not valid JSON (line {exc.lineno}, col {exc.colno}): {exc.msg}")
    except RecursionError as exc:
        raise SystemExit(f"--params is nested too deeply: {exc}")
    if not isinstance(params, dict):
        raise SystemExit("--params must be a JSON object")
    return params


def _load_instance(args) -> "flows.FlowInstance | None":
    if not args.instance:
        return None
    try:
        with open(args.instance) as handle:
            return flows.FlowInstance.from_json(handle.read())
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise SystemExit(f"--instance {args.instance}: {exc}")


def _parse_k(text: str, what: str = "--k") -> int:
    try:
        return int(text)
    except ValueError:
        raise ParameterError(f"{what} must be an integer, got {text!r}") from None


def _descriptor(args) -> dict:
    return {"family": args.family, **_parse_params(args.params)}


def _described(args):
    inst = _load_instance(args)
    if inst is not None:
        return describe_flow(inst)
    if not args.family:
        raise SystemExit("need --family TAG or --instance FILE")
    return oracle_from_descriptor(_descriptor(args))


def _write_text(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def cmd_trace(args) -> int:
    bundle = _described(args)
    f = bundle.oracle
    k = f.n if args.k is None else _parse_k(args.k)
    trace = greedy_adaptive(f, k, tie=args.tie)
    _write_text(args, _csv_text(TRACE_HEADER, trace.rows(f.ground)))
    return 0


def cmd_audit(args) -> int:
    bundle = _described(args)
    f = bundle.oracle
    params = _parse_params(args.params)
    gamma = parse_rational(params.get("gamma", 1), "gamma")
    alphas = params.get("alphas", [1, 2])
    if not isinstance(alphas, list):
        raise SystemExit(f"--params alphas must be a JSON list, got {alphas!r}")
    alphas = [parse_rational(a, "alphas entry") for a in alphas]
    scope = args.scope
    tie = args.tie
    out: dict = {"oracle": f.name, "scope": scope, "tie": tie}

    def guarded(label, fn):
        try:
            out[label] = fn()
        except GroundSetTooLarge as exc:
            out[label] = {"error": str(exc)}

    def ratio_section():
        r = weak_submodularity_ratio(f, tie=tie)
        return {
            "value": format_rational(r.value),
            "X": list(indices_of(r.x_set)),
            "Y": list(indices_of(r.y_set)),
        }

    guarded("weak_ratio", ratio_section)
    guarded(
        "alpha_augmentable",
        lambda: {
            format_rational(a): check_alpha_augmentable(f, a, scope=scope, tie=tie).to_json_dict()
            for a in alphas
            if a >= 1
        },
    )
    guarded(
        "gamma_alpha",
        lambda: {
            format_rational(a): check_gamma_alpha_augmentable(
                f, gamma, a, scope=scope, tie=tie
            ).to_json_dict()
            for a in alphas
            if a >= gamma
        },
    )
    guarded("min_alpha", lambda: format_rational(min_alpha_for(f, gamma, scope=scope, tie=tie)))
    if bundle.system is not None:
        def rank_section():
            rq = rank_quotient(bundle.system)
            return {
                "quotient": format_rational(rq.quotient),
                "set": list(indices_of(rq.witness_set)),
                "smallest_basis": list(indices_of(rq.small_basis)),
                "largest_basis": list(indices_of(rq.large_basis)),
            }

        guarded("rank_quotient", rank_section)
    _write_text(args, json.dumps(out, sort_keys=True, indent=2) + "\n")
    return 0


def _ratio_rows(entry, params, ks, tie, max_measure):
    """``ratio-table`` rows; "converging" is decided on Fractions, not floats.

    Both closed forms lie strictly below their limit (alpha/gamma)/(1 - e**-alpha),
    with gamma = 1 for gk: critical is (alpha/gamma)/(1 - (1 - alpha/k)**k) with
    k > alpha, gk is alpha/(1 - (1 - 1/k)**(alpha*k)) with k >= 2, and
    0 < 1 - t < e**-t for 0 < t < 1 gives (1 - alpha/k)**k < e**-alpha and
    (1 - 1/k)**(alpha*k) < e**-alpha.  So the gap to the limit shrinks from one
    k to the next exactly when the closed form grows.

    A k is refused when its closed form has more digits than
    ``sys.get_int_max_str_digits()`` lets ``format_rational`` print.  Both
    closed forms are c/(1 - s**m) with c = alpha/gamma, s = p/q in lowest terms
    in (0, 1), and m = size/2 the cardinality greedy is measured at (k, or
    alpha*k for gk).  As q**m and q**m - p**m are coprime, the reduced
    numerator is at least q**m/den(c) >= 2**m/den(c).  So a k with
    2**m >= 10**digits * den(c) is refused before its closed form is computed,
    which keeps the refusal of a huge k immediate; any other k is refused when
    its computed closed form does not print.
    """
    gamma, alpha = entry.shape(params)
    limit = limit_ratio(gamma, alpha)
    # Interpreters older than the conversion limit (before 3.10.7) have none: 0.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_long = (10**digits * Fraction(alpha, gamma).denominator).bit_length()
    rows = []
    previous = None
    for k in ks:
        refusal = ParameterError(
            f"k={k}: the exact closed form has more than {digits} digits, "
            f"the most an integer may print (sys.get_int_max_str_digits())"
        )
        if digits and entry.size(alpha, k) // 2 >= too_long:
            raise refusal
        closed = entry.ratio(gamma, alpha, k)
        try:
            closed_text = format_rational(closed)
        except ValueError:
            raise refusal from None
        converging = "" if previous is None else ("yes" if closed > previous else "no")
        previous = closed
        measured = ""
        note = ""
        if entry.size(alpha, k) <= max_measure:
            f = entry.build({"gamma": gamma, "alpha": alpha, "k": k}).oracle
            ratio, _ = approximation_ratio(f, tie=tie)
            measured = format_rational(ratio)
        else:
            note = "closed-form-only"
        rows.append(
            (str(k), measured, closed_text, f"{float(closed):.15g}",
             f"{limit:.15g}", converging, note)
        )
    return rows


def cmd_ratio_table(args) -> int:
    if args.gnuplot and not args.out:
        raise ParameterError("--gnuplot writes its script beside --out and needs it")
    params = _parse_params(args.params)
    ks = [_parse_k(part, "--k entry") for part in str(args.k or "").replace(",", " ").split()]
    if not ks:
        raise ParameterError("needs --k, a comma list of k values")
    for before, k in zip(ks, ks[1:]):
        if k <= before:  # "converging" compares each k with the one before it
            raise ParameterError(f"--k entries must increase: {k} follows {before}")
    entry = FAMILIES.get(args.family)
    if entry is None or entry.ratio is None:
        tabulable = ", ".join(repr(tag) for tag, e in FAMILIES.items() if e.ratio is not None)
        raise SystemExit(f"ratio-table supports families {tabulable}, not {args.family!r}")
    max_measure = entry.measure_limit if args.max_measure is None else args.max_measure
    rows = _ratio_rows(entry, params, ks, args.tie, max_measure)
    _write_text(args, _csv_text(RATIO_HEADER, rows))
    if args.gnuplot:
        script = (
            f'set datafile separator ","\n'
            f'set key autotitle columnhead\n'
            f'plot "{args.out}" using 1:4 with linespoints, "" using 1:5 with lines\n'
        )
        with open(args.out + ".gp", "w", newline="") as handle:
            handle.write(script)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_checks(args.filter)
    for result in results:
        if result.ok:
            print(f"PASS {result.check_id}")
        else:
            print(f"FAIL {result.check_id}: {result.detail}")
    summary = {
        "checks": {r.check_id: {"ok": r.ok, "detail": r.detail} for r in results},
        "failures": sum(1 for r in results if not r.ok),
    }
    if args.out:
        with open(args.out, "w", newline="") as handle:
            json.dump(summary, handle, sort_keys=True, indent=2)
            handle.write("\n")
    return 0 if summary["failures"] == 0 else 1


def cmd_gen_instance(args) -> int:
    descriptor = _descriptor(args)
    entry = family_entry(descriptor["family"])
    if entry.flow is not None:
        _write_text(args, entry.flow(descriptor).to_json())
    else:
        entry.build(descriptor)  # validate before writing
        _write_text(args, json.dumps(descriptor, sort_keys=True, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="greedyaug", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    instance = dict(help="path to a flow-instance JSON file")
    tie = dict(default="low", choices=("low", "high"), help="tie policy")

    def common(p, scope=False, k=False):
        p.add_argument("--family", help="family tag (see gen-instance)")
        p.add_argument("--params", help="JSON object of family/audit parameters")
        p.add_argument("--out", help="output path (default: stdout)")
        if scope:
            p.add_argument("--scope", default="strong", choices=("weak", "strong"))
        if k:
            p.add_argument("--k", help="cardinality (trace) or comma list of k values (table)")

    p_trace = sub.add_parser("trace", help="greedy chain as CSV")
    common(p_trace, k=True)
    p_trace.add_argument("--instance", **instance)
    p_trace.add_argument("--tie", **tie)
    p_trace.set_defaults(fn=cmd_trace)

    p_audit = sub.add_parser("audit", help="class audits as a JSON bundle")
    common(p_audit, scope=True)
    p_audit.add_argument("--instance", **instance)
    p_audit.add_argument("--tie", **tie)
    p_audit.set_defaults(fn=cmd_audit)

    p_table = sub.add_parser("ratio-table", help="measured and closed-form ratios per k")
    common(p_table, k=True)
    p_table.add_argument("--tie", **tie)
    p_table.add_argument("--max-measure", type=int, help="largest ground size to measure exactly")
    p_table.add_argument("--gnuplot", action="store_true", help="with --out, also write OUT.gp")
    p_table.set_defaults(fn=cmd_ratio_table)

    p_verify = sub.add_parser(
        "verify-paper", help="run the built-in verification matrix of known exact results"
    )
    p_verify.add_argument("--filter", default=None, help="only run checks whose id contains this")
    p_verify.add_argument("--out", help="write a JSON summary here")
    p_verify.set_defaults(fn=cmd_verify)

    p_gen = sub.add_parser("gen-instance", help="emit an instance description")
    common(p_gen)
    p_gen.set_defaults(fn=cmd_gen_instance)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, TypeError, ValueError, exactlp.Unbounded) as exc:
        # Bad descriptors, parameters and --k values all surface here, and so does a
        # flow whose objective is unbounded; a CertificateError, a solver fault, does not.
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise SystemExit(f"greedyaug {args.command}: {reason}") from exc


if __name__ == "__main__":
    sys.exit(main())
