"""Batch front door: subcommands that run verification suites, reproduce
the slope and tangent tables, sweep the interpolation function, and emit
machine-readable reports.

Each subcommand has one option table (`_OPTIONS`: option to dest, converter
or choices, default and help), read by one loop over argv with argparse's
rules for prefixes, "--opt=value", repeated options and values that start
with "-".  `-h`/`--help` prints every subcommand's options.

Exit status: 0 when every selected verdict passes or help was asked for, 1
on partial failures (failing claims listed on standard error), 2 on
malformed input or an unwritable output path, with one `error: <message>`
line on standard error; `main` returns the status and never raises
SystemExit.  Identical config and seed give byte-identical output.
"""
from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import haagerup, lemmas, schur
from .exactprob import (
    StepLawParams,
    convolve_weighted,
    first_abs_moment,
    gaussian_norm,
    make_step_law,
    second_moment,
)
from .reports import VerdictReport, format_reports, sig12, to_json, to_jsonable

__all__ = ["DEFAULT_SEED", "RunConfig", "build_config", "main", "parse_weights", "run"]

DEFAULT_SEED = 1729
_VERIFY_CLAIMS = ("all", "two-point", "dominance", "schur", "comparison",
                  "l1l2", "power-floor", "ostrowski", "concavity")


class CliInputError(ValueError):
    """Malformed input; mapped to exit status 2."""


def parse_weights(text: str) -> list:
    """Comma-separated weights; "1/3" stays rational, "0.5" becomes float."""
    if text is None or text.strip() == "":
        raise CliInputError("weights: empty list")
    out = []
    for pos, piece in enumerate(text.split(","), start=1):
        p = piece.strip()
        if not p:
            raise CliInputError(f"weights entry {pos}: empty")
        try:
            if "/" in p:
                out.append(Fraction(p))
            else:
                try:
                    out.append(Fraction(int(p)))
                except ValueError:
                    val = float(p)
                    if not math.isfinite(val):
                        raise ValueError("not finite")
                    out.append(val)
        except (ValueError, ZeroDivisionError) as exc:
            raise CliInputError(f"weights entry {pos} ({p!r}): {exc}") from None
    return out


def _parse_rational(text: str, name: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"{name}: {exc}") from None


def _parse_p(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        val = float(text)
    except ValueError as exc:
        raise CliInputError(f"p: {exc}") from None
    if not math.isfinite(val):
        raise CliInputError("p: not finite")
    return val


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    params: dict = field(default_factory=dict)
    output_format: str = "json"
    output_path: str | None = None
    seed: int = DEFAULT_SEED


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path}: {exc}") from None


def _finish(reports: list[VerdictReport], config: RunConfig) -> int:
    _emit(format_reports(reports, config.output_format), config.output_path)
    failed = [r.claim for r in reports if not r.passed]
    if failed:
        print("failed claims: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _law(params) -> "object":
    return make_step_law(StepLawParams(params["rho0"], params["L"]))


def _quad_kwargs(params) -> dict:
    """`--budget` as the evaluation cap of each quadrature, when given."""
    return {"max_evals": params["budget"]} if params.get("budget") else {}


def _cmd_constants(config: RunConfig) -> int:
    p = config.params
    law = _law(p)
    crit = haagerup.solve_critical_exponent()
    m1 = first_abs_moment(law)
    m2 = second_moment(law)
    sigma = math.sqrt(float(m2))
    entries: dict[str, object] = {
        "p": p["p"],
        "rho0": p["rho0"],
        "L": p["L"],
        "gaussian_norm": gaussian_norm(float(p["p"])),
        "critical_exponent": crit.value,
        "critical_residual": crit.residual,
        "schur_zero_mass_threshold": schur.SCHUR_ZERO_MASS_THRESHOLD,
        "comparison_zero_mass_limit": schur.COMPARISON_ZERO_MASS_LIMIT,
        "two_weight_threshold_closed_form": haagerup.two_weight_closed_form(p["L"]),
        "sigma": sigma,
        "first_abs_moment": m1,
        "second_moment": m2,
    }
    if m2 != 0:
        entries["c1"] = float(m1) / sigma
    if p.get("n_given"):
        entries["ratio_sequence"] = schur.equal_weight_ratio_sequence(
            law, p["p"], p["n"])
    if config.output_format == "csv":
        lines = ["name,value"]
        for k, v in entries.items():
            if isinstance(v, list):
                for i, item in enumerate(v, start=1):
                    lines.append(f"{k}_{i},{_csv_scalar(item)}")
            else:
                lines.append(f"{k},{_csv_scalar(v)}")
        _emit("\n".join(lines) + "\n", config.output_path)
    else:
        _emit(to_json(to_jsonable(entries)), config.output_path)
    return 0


def _csv_scalar(v) -> str:
    v = to_jsonable(v)
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _cmd_table1(config: RunConfig) -> int:
    p = config.params
    if p.get("tangents"):
        vals = lemmas.tangent_values()
        ok = all(v > lemmas.TANGENT_LOWER_BOUNDS[L] for L, v in vals.items())
        if config.output_format == "csv":
            _emit(lemmas.tangent_csv(), config.output_path)
        else:
            rows = [{"L": L, "v": sig12(v),
                     "lower_bound": lemmas.TANGENT_LOWER_BOUNDS[L],
                     "exceeds": v > lemmas.TANGENT_LOWER_BOUNDS[L]}
                    for L, v in sorted(vals.items())]
            _emit(to_json(rows), config.output_path)
        if not ok:
            print("failed claims: tangent-table-bounds", file=sys.stderr)
            return 1
        return 0
    table = lemmas.slope_table()
    ok, _ = table.check_lower_bounds()
    if config.output_format == "csv":
        _emit(table.to_csv(), config.output_path)
    else:
        rows = [{"L": L, "b": b, "theta": sig12(theta),
                 "lower_bound": lemmas.SLOPE_LOWER_BOUNDS[(L, b)],
                 "exceeds": theta > lemmas.SLOPE_LOWER_BOUNDS[(L, b)]}
                for L, b, theta in table.entries]
        _emit(to_json(rows), config.output_path)
    if not ok:
        print("failed claims: slope-table-bounds", file=sys.stderr)
        return 1
    return 0


def _verify_tasks(config: RunConfig) -> list:
    p = config.params
    claim = p["claim"]
    rho0: Fraction = p["rho0"]
    L: int = p["L"]
    weights = p.get("weights") or [1] * p["n"]
    quad_kwargs = _quad_kwargs(p)
    tasks = []

    def with_claim(name, fn):
        if claim in ("all", name):
            tasks.append(fn)

    # "all" selects only claims whose hypotheses the parameters satisfy;
    # naming a claim explicitly runs it regardless (exploratory ranges are
    # flagged in the report and may legitimately fail).
    with_claim("two-point", lambda: lemmas.verify_two_point(p["a"]))
    with_claim("dominance", lambda: lemmas.verify_convex_dominance(L))
    schur_proved = L == 1 and rho0 <= Fraction(1, 2) and float(p["p"]) >= 3
    if claim == "schur" or (claim == "all" and schur_proved):
        tasks.append(lambda: schur.majorization_report(
            p["n"], _law(p), p["p"], p["trials"], config.seed))
    if claim == "comparison" or (claim == "all" and rho0 == 0):
        tasks.append(lambda: schur.verify_gaussian_comparison(
            weights, [_law(p)] * len(weights), p["p"]))
    elif claim == "comparison":
        raise CliInputError("comparison claim needs --rho0 0")
    if claim == "l1l2" or (claim == "all" and rho0 >= Fraction(1, 2)):
        tasks.append(lambda: haagerup.l1_l2_verdict(_law(p), weights))
    if claim == "power-floor" or (claim == "all" and rho0 >= Fraction(1, 2)):
        tasks.append(lambda: haagerup.verify_charfn_power_floor(
            _law(p), (1.0, 1.5, 2.0, 3.0, 5.0), tol=p["tol"], **quad_kwargs))
    elif claim == "power-floor":
        raise CliInputError("power-floor claim needs --rho0 at least 1/2")
    if claim == "ostrowski":
        tasks.append(lambda: schur.ostrowski_check(
            [float(w) for w in weights], _law(p), p["p"]))
    if claim == "concavity":
        grid = [Fraction(k, 8) for k in range(0, 8)]
        tasks.append(lambda: haagerup.concavity_in_zero_mass(L, 2.0, grid, tol=p["tol"],
                                                             **quad_kwargs))
    if not tasks:
        raise CliInputError(f"no applicable checks for claim {claim!r}")
    return tasks


def _cmd_verify(config: RunConfig) -> int:
    return _finish([task() for task in _verify_tasks(config)], config)


def _cmd_haagerup(config: RunConfig) -> int:
    p = config.params
    law = _law(p)
    weights = p.get("weights") or [1] * p["n"]
    budget = p.get("budget")
    conv_kwargs = {"max_atoms": budget} if budget else {}
    s_law = convolve_weighted([law] * len(weights), list(weights), **conv_kwargs)
    res = haagerup.first_abs_moment_integral(weights, law, tol=p["tol"], sum_law=s_law,
                                             **_quad_kwargs(p))
    enum = first_abs_moment(s_law)
    diff = abs(res.value - float(enum))
    agree_tol = max(10 * p["tol"], 4 * res.abs_error, 1e-9)
    report = VerdictReport(
        claim="abs-moment-dual-route",
        params={"n": len(weights), "rho0": p["rho0"], "L": p["L"], "tol": p["tol"]},
        passed=bool(diff <= agree_tol and res.converged),
        margin=agree_tol - diff,
        witness={"integral": res.value, "integral_err": res.abs_error,
                 "enumeration": enum, "difference": diff, "converged": res.converged,
                 "tail": None if res.tail is None else dict(zip(("T", "M", "K"), res.tail))},
    )
    return _finish([report], config)


def _cmd_necessity(config: RunConfig) -> int:
    sizes = (10, 100, 1000, 10000)
    # the threshold sequence converges like 1/L, so the sweep tolerance
    # is fixed at 1e-4 rather than tied to the generic --tol
    sweep_tol = 1e-4

    def checked(claim, params, side):
        """side()'s (margin, witness) as a passing report, or a failing one
        carrying the ArithmeticError it raised."""
        try:
            (margin, witness), passed = side(), True
        except ArithmeticError as exc:
            margin, witness, passed = -1.0, {"error": str(exc)}, False
        return VerdictReport(claim=claim, params=params, passed=passed, margin=margin,
                             witness=witness)

    def comparison_side():
        limit = schur.comparison_zero_mass_limit(sizes, tol=sweep_tol)
        thresholds = {str(s): schur.comparison_threshold_by_L(s) for s in sizes}
        gap = abs(thresholds[str(sizes[-1])] - limit)
        return sweep_tol - gap, {"limit": limit, "thresholds": thresholds,
                                 "single_block": schur.comparison_threshold_by_L(1)}

    reports = [
        checked("schur-zero-mass-threshold", {"p": 3, "L": 1},
                lambda: (0.0, {"threshold": schur.schur_zero_mass_threshold()})),
        checked("comparison-zero-mass-limit", {"sizes": list(sizes), "tol": sweep_tol},
                comparison_side),
        haagerup.two_weight_threshold(config.params["L"]),
    ]
    crit = haagerup.solve_critical_exponent()
    reports.append(VerdictReport(
        claim="critical-exponent", params={"tol": 1e-12},
        passed=crit.residual <= 1e-12, margin=1e-12 - crit.residual,
        witness={"value": crit.value, "residual": crit.residual,
                 "bracket": list(crit.bracket), "width": crit.bracket[1] - crit.bracket[0]}))
    return _finish(reports, config)


def _cmd_sweep(config: RunConfig) -> int:
    p = config.params
    law = _law(p)
    n = p["n"]
    if n < 2:
        raise CliInputError("sweep needs --n at least 2")
    lo, hi = p["s_min"], p["s_max"]
    if not (1.0 <= lo < hi):
        raise CliInputError("sweep needs 1 <= s-min < s-max")
    quad_kwargs = _quad_kwargs(p)
    ss = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    results = haagerup.charfn_power_integrals(law, ss, tol=p["tol"], **quad_kwargs)
    rows = [{"s": sig12(s), "F_value": sig12(r.value), "err": sig12(r.abs_error)}
            for s, r in zip(ss, results)]
    if config.output_format == "csv":
        lines = ["s,F_value,err"]
        lines += [f"{row['s']:.12g},{row['F_value']:.12g},{row['err']:.12g}" for row in rows]
        _emit("\n".join(lines) + "\n", config.output_path)
    else:
        _emit(to_json(rows), config.output_path)
    bad = [s for s, r in zip(ss, results) if not r.converged]
    if bad:
        print(f"failed claims: sweep-convergence at s = {bad}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "constants": _cmd_constants,
    "table1": _cmd_table1,
    "verify": _cmd_verify,
    "haagerup": _cmd_haagerup,
    "necessity": _cmd_necessity,
    "sweep": _cmd_sweep,
}


#: the table entry of -h and --help
_HELP = ("help", None, False, "print every subcommand's options and exit")

#: option -> (dest, converter or tuple of choices (None for a flag), default, help);
#: rho0, p, weights and a stay text until `build_config`, so the last of
#: repeated options is the one parsed
_COMMON = {
    "-h": _HELP,
    "--help": _HELP,
    "--rho0": ("rho0", str, "0", "zero mass, rational like 1/3"),
    "--L": ("L", int, 1, "block size"),
    "--p": ("p", str, "3", "moment order"),
    "--weights": ("weights", str, None, "comma list, e.g. 1/3,0.5"),
    "--n": ("n", int, None, "count (weights, points, trials base)"),
    "--trials": ("trials", int, 200, "sampled majorization trials"),
    "--seed": ("seed", int, DEFAULT_SEED, "seed of the sampled trials"),
    "--tol": ("tol", float, 1e-8, "quadrature tolerance"),
    "--format": ("format", ("json", "csv"), "json", "output format"),
    "--out": ("out", str, None, "output file instead of standard output"),
    "--budget": ("budget", int, None,
                 "cap on integrand evaluations and on one convolution step's entries; "
                 "a Gauss-Kronrod route needs at least 15"),
}
_OWN = {
    "table1": {
        "--format": ("format", ("json", "csv"), "csv", "output format"),
        "--tangents": ("tangents", None, False,
                       "emit last-branch tangent values instead of slopes"),
    },
    "verify": {
        "--claim": ("claim", _VERIFY_CLAIMS, "all", "claim to check"),
        "--a": ("a", str, "1/2", "two-point weight, rational in (0,1)"),
    },
    "sweep": {
        "--s-min": ("s_min", float, 1.0, "first s"),
        "--s-max": ("s_max", float, 20.0, "last s"),
    },
}
_OPTIONS = {name: {**_COMMON, **_OWN.get(name, {})} for name in _COMMANDS}
_TOP = {"-h": _HELP, "--help": _HELP}

#: a token that starts with "-" and still reads as a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _classify(token: str, table: dict):
    """How one token reads against an option table: None for a value, else
    (option, text after "=" or None), with option None when unknown.  A long
    option may be cut to a unique prefix; "-h" takes more letters only as
    further "h"s.  These are argparse's rules."""
    if not token.startswith("-") or token == "-":
        return None
    if token in table:
        return token, None
    name, eq, text = token.partition("=")
    if eq and name in table:
        return name, text
    if token.startswith("--") and token != "--":
        matches = [option for option in table if option.startswith(name)]
        if len(matches) > 1:
            raise CliInputError(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0], text if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _parse_options(tokens: list, table: dict) -> dict | None:
    """Values by dest of the options in `tokens`, defaults filled in, or
    None when help comes before any error."""
    # every token after "--" is a value; "--" itself is left over
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_classify(token, table) for token in tokens[:cut]]
    if cut < len(tokens):
        kinds += [(None, None)] + [None] * (len(tokens) - cut - 1)
    values = {dest: default for dest, _, default, _ in table.values()}
    unknown = []
    i = 0
    while i < len(tokens):
        kind = kinds[i]
        i += 1
        if kind is None or kind[0] is None:
            unknown.append(tokens[i - 1])
            continue
        option, text = kind
        dest, convert, _, _ = table[option]
        if convert is None:
            # "-hh" is two helps; any other text after a flag is an error
            if text is not None and not (option == "-h" and text and not text.strip("h")):
                raise CliInputError(f"argument {option}: ignored explicit argument {text!r}")
            if dest == "help":
                return None
            values[dest] = True
            continue
        if text is None:
            if i == len(tokens) or kinds[i] is not None:
                raise CliInputError(f"argument {option}: expected one argument")
            text = tokens[i]
            i += 1
        values[dest] = _convert(option, convert, text)
    if unknown:
        raise CliInputError("unrecognized arguments: " + " ".join(unknown))
    return values


def _convert(option: str, convert, text: str):
    if isinstance(convert, tuple):
        if text not in convert:
            raise CliInputError(f"argument {option}: invalid choice: {text!r} "
                                f"(choose from {', '.join(convert)})")
        return text
    try:
        return convert(text)
    except ValueError:
        raise CliInputError(
            f"argument {option}: invalid {convert.__name__} value: {text!r}") from None


def _help() -> str:
    """Usage text: the options every subcommand takes, then each
    subcommand's own options and defaults."""
    def describe(option, entry):
        dest, convert, default, text = entry
        head = "  " + option
        if convert is not None:
            head += " " + ("{" + ",".join(convert) + "}" if isinstance(convert, tuple)
                           else dest.upper())
        if default is not None and convert is not None:
            text += f" (default {default})"
        return f"{head:<24}{text}" if len(head) < 24 else f"{head}\n{'':<24}{text}"

    lines = ["usage: khinchin-lab {" + ",".join(_COMMANDS) + "} [options]", "",
             "Verify moment-comparison inequalities for weighted sums of symmetric",
             "discrete laws.  Exit status: 0 when every verdict passes, 1 when one",
             "fails, 2 on malformed input.", "",
             "options of every subcommand:", describe("-h, --help", _HELP)]
    lines += [describe(option, entry) for option, entry in _COMMON.items()
              if entry is not _HELP]
    for name, table in _OPTIONS.items():
        lines += ["", f"{name}:"]
        own = [describe(option, entry) for option, entry in table.items()
               if _COMMON.get(option) != entry]
        lines += own or ["  no options of its own"]
    return "\n".join(lines) + "\n"


def _parse_argv(argv: list):
    """(subcommand, option values) of an argv, or None when it asks for help."""
    unknown = []
    for i, token in enumerate(argv):
        kind = _classify(token, _TOP)
        if kind is None or token == "--":
            if token not in _COMMANDS:
                raise CliInputError(f"invalid subcommand {token!r} "
                                    f"(choose from {', '.join(_COMMANDS)})")
            values = _parse_options(argv[i + 1:], _OPTIONS[token])
            if values is None:
                return None
            if unknown:
                raise CliInputError("unrecognized arguments: " + " ".join(unknown))
            return token, values
        if kind[0] is not None:  # help, or an error for text after it
            return _parse_options([token], _TOP)
        unknown.append(token)
    raise CliInputError(f"missing subcommand (choose from {', '.join(_COMMANDS)})")


def build_config(argv) -> RunConfig | None:
    """The run an argv asks for, or None when it asks for help."""
    parsed = _parse_argv(list(argv))
    if parsed is None:
        return None
    subcommand, opts = parsed
    params: dict = {
        "rho0": _parse_rational(opts["rho0"], "rho0"),
        "L": opts["L"],
        "p": _parse_p(opts["p"]),
        "weights": parse_weights(opts["weights"]) if opts["weights"] is not None else None,
        "n": opts["n"] if opts["n"] is not None else (20 if subcommand == "sweep" else 4),
        "n_given": opts["n"] is not None,
        "trials": opts["trials"],
        "tol": opts["tol"],
        "budget": opts["budget"],
    }
    if opts["L"] < 1:
        raise CliInputError("L must be at least 1")
    if not (0 <= params["rho0"] <= 1):
        raise CliInputError("rho0 must lie in [0, 1]")
    if params["budget"] is not None and params["budget"] < 1:
        raise CliInputError("budget must be positive")
    if not (0.0 < params["tol"] < math.inf):
        raise CliInputError("tol must be positive and finite")
    if subcommand == "table1":
        params["tangents"] = opts["tangents"]
    if subcommand == "verify":
        params["claim"] = opts["claim"]
        params["a"] = _parse_rational(opts["a"], "a")
    if subcommand == "sweep":
        for option, dest in (("s-min", "s_min"), ("s-max", "s_max")):
            if not math.isfinite(opts[dest]):
                raise CliInputError(f"{option} must be finite")
            params[dest] = opts[dest]
    return RunConfig(
        subcommand=subcommand,
        params=params,
        output_format=opts["format"],
        output_path=opts["out"],
        seed=opts["seed"],
    )


def run(config: RunConfig) -> int:
    try:
        return _COMMANDS[config.subcommand](config)
    except CliInputError:
        raise
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run one command line (`sys.argv[1:]` when argv is None) and return
    its exit status; malformed input returns 2, help 0."""
    try:
        config = build_config(sys.argv[1:] if argv is None else argv)
        if config is None:
            sys.stdout.write(_help())
            return 0
        return run(config)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
