"""Command-line front end.

Subcommands:
  prob    -- absorption probabilities for one start site, by any method
  table   -- the reference probability table for n up to a bound
  gf      -- the path-count generating function f_j^(n)(z)
  verify  -- run a named suite of identity checks
  roots   -- certified pole classification for one row

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
precision failure.  Every failure path writes one line of the form
"error: <category>: <reason>" to stderr.

Output is deterministic: cells are ordered by n then j, roots are
sorted, JSON is compact with sorted keys (parse + re-serialize is
byte-identical), and decimal expansions are correctly rounded to 30
significant digits.  Cells are computed sequentially; nothing in the
output depends on evaluation order.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import groupby
from typing import TYPE_CHECKING, NamedTuple, NoReturn, Sequence

from .cells import METHODS, _quotient, _validate, significant
from .errors import (
    MAX_BITS,
    START_BITS,
    ConsistencyError,
    PrecisionError,
    StepBudgetExceeded,
)

# The r family's integers (rfamily), the polynomial layer (walk_core,
# exactq), the contour route, the simulator and the verification suite
# are imported by the runner that uses them, so a process loads only its
# route: the residue and contour routes add rfamily to cells but neither
# walk_core nor exactq, and `prob --method simulate` adds the simulator
# alone.  No route loads csv: _csv_table writes its unquoted fields
# itself.
if TYPE_CHECKING:
    from .exactq import Rational
    from .simulator import SimulationReport

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

_DEFAULT_TAIL = Fraction(1, 10 ** 10)

# The keys of verification.SUITES, sorted (a test keeps the two equal).
SUITE_NAMES = ("all", "identities", "limits", "methods", "oracles", "structure")

_DIV_CTX = decimal.Context(prec=30, rounding=decimal.ROUND_HALF_EVEN)
_PAD_CTX = decimal.Context(prec=40)


def decimal_expansion(x: Rational) -> str:
    """Correctly rounded 30-significant-digit decimal string for a
    rational; exact short expansions are zero-padded so the width is
    uniform across a table."""
    if x == 0:
        return "0"
    d = _quotient(x, _DIV_CTX)
    target = decimal.Decimal((0, (1,), d.adjusted() - 29))
    return str(d.quantize(target, context=_PAD_CTX))


_LEAD_CTX = decimal.Context(prec=1, rounding=decimal.ROUND_DOWN)


def _floor_log10(x: Fraction) -> int:
    """floor(log10 x) for x > 0: truncating x to its leading digit never
    crosses a power of ten."""
    return _quotient(x, _LEAD_CTX).adjusted()


@contextmanager
def _all_digits():
    """Lift Python's limit on int <-> str conversion (3.11 and later) while
    a parsed command runs: p_j^(n) has more than 4,300 digits from about
    n = 11,000, and the only conversions left after argument parsing are
    the renderings of such exact integers.  Parsing keeps the limit."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


def canonical_json(obj) -> str:
    """Compact, key-sorted serialization; loads() + canonical_json()
    reproduces the bytes exactly (no floats anywhere in the tree)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------ configuration


class _CommandFields(NamedTuple):
    subcommand: str
    n: int | None = None
    j: int | None = None
    n_max: int = 9
    method: str = "residue"
    format: str = "frac"
    precision_bits: int = START_BITS
    tail_eps: Rational = _DEFAULT_TAIL
    common_denominator: bool = False
    suite: str = "all"


class CommandConfig(_CommandFields):
    """Validated invocation: every field satisfies the preconditions of
    the target operation before dispatch, on every construction
    (``_replace`` included)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CommandConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.subcommand in ("prob", "gf", "roots"):
            if self.n is None or self.n < 2:
                raise ValueError(f"need a barrier position --n >= 2, got {self.n}")
        if self.subcommand in ("table", "verify") and self.n_max < 2:
            raise ValueError(f"need --n-max >= 2, got {self.n_max}")
        if self.subcommand in ("prob", "gf"):
            if self.j is None:
                raise ValueError("need a start site --j")
            _validate(self.j, self.n, *self._j_range())
        if not 16 <= self.precision_bits <= MAX_BITS:
            raise ValueError(
                f"--precision-bits must lie in 16..{MAX_BITS}, "
                f"got {self.precision_bits}"
            )
        if not 0 < self.tail_eps < 1:
            raise ValueError(f"--tail-eps must lie in (0, 1), got {self.tail_eps}")
        return self

    @classmethod
    def _make(cls, fields) -> CommandConfig:
        return cls(*fields)

    def _j_range(self) -> tuple[int, int]:
        # The evaluated formula covers the j = 0 and j = n conventions;
        # the closed form and f_j^(n) start at 1; the contour and the
        # simulator need an interior start.
        assert self.n is not None
        if self.subcommand == "gf" or self.method == "closed":
            return 1, self.n
        if self.method == "residue":
            return 0, self.n
        return 1, self.n - 1


class _SingleLineParser(argparse.ArgumentParser):
    """argparse with one-line machine-parsable usage errors."""

    def error(self, message: str) -> NoReturn:
        sys.stderr.write(f"error: usage: {message}\n")
        raise SystemExit(EXIT_USAGE)


_ECHO_CHARS = 32


def _check_exponent(text: str) -> None:
    """Refuse the exponent form d.ddE±N for |N| above Python's int <-> str
    digit limit (3.11 and later, unless lifted): Fraction builds 10^|N|
    outright, so the exponent must not get round the limit that bounds
    every digit string it parses."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    _, mark, exponent = text.strip().lower().rpartition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if limit and mark and digits.isdecimal() and (
            len(digits) > len(str(limit)) or int(digits) > limit):
        raise ValueError(f"exponent exceeds the limit ({limit} digits)")


def _fraction_arg(text: str) -> Fraction:
    try:
        _check_exponent(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # The argument and the parser's message (which may quote it) are
        # cut short, so the error stays one short line whatever was passed.
        shown = repr(text) if len(text) <= _ECHO_CHARS else (
            f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)")
        reason = str(exc)
        if len(reason) > 2 * _ECHO_CHARS:
            reason = reason[:2 * _ECHO_CHARS] + "..."
        raise argparse.ArgumentTypeError(f"bad fraction {shown}: {reason}")


def build_parser() -> argparse.ArgumentParser:
    top = _SingleLineParser(
        prog="hadwalk",
        description="Exact absorption probabilities of the two-barrier "
        "Hadamard walk, by four independent methods.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def subcommand(name: str, summary: str) -> argparse.ArgumentParser:
        # An absent option stays out of the namespace, so it keeps the
        # CommandConfig default; only --format differs by subcommand.
        return sub.add_parser(name, help=summary,
                              argument_default=argparse.SUPPRESS)

    prob = subcommand("prob", "absorption probabilities for one start site")
    prob.add_argument("--n", type=int, required=True,
                      help="right barrier position (n >= 2)")
    prob.add_argument("--j", type=int, required=True, help="start site")
    prob.add_argument("--method", choices=METHODS + ("all",),
                      help="computation pipeline "
                      f"(default: {CommandConfig._field_defaults['method']})")
    prob.add_argument("--format",
                      choices=("frac", "dec", "text", "csv", "json"),
                      default="frac")
    prob.add_argument("--precision-bits", type=int,
                      help="starting precision for the numeric contour method")
    prob.add_argument("--tail-eps", type=_fraction_arg, metavar="EPS",
                      help="unabsorbed-tail target for simulate "
                      "(fraction or decimal string)")

    table = subcommand("table", "probability table for n = 2..n_max")
    table.add_argument("--n-max", type=int)
    table.add_argument("--common-denominator", action="store_true",
                       help="present each row over its common denominator "
                       "(unreduced, reference-table style)")
    table.add_argument("--format",
                       choices=("frac", "dec", "text", "csv", "json"),
                       default="frac")

    gfp = subcommand("gf", "path-count generating function f_j^(n)")
    gfp.add_argument("--n", type=int, required=True)
    gfp.add_argument("--j", type=int, required=True)
    gfp.add_argument("--format", choices=("text", "json"), default="text")

    verify = subcommand("verify", "run an identity-check suite")
    verify.add_argument("--n-max", type=int)
    verify.add_argument("--suite", choices=SUITE_NAMES)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--tail-eps", type=_fraction_arg, metavar="EPS")

    roots = subcommand("roots", "certified pole classification for one row")
    roots.add_argument("--n", type=int, required=True)
    roots.add_argument("--precision-bits", type=int)
    roots.add_argument("--format", choices=("text", "json"), default="text")
    return top


def parse_argv(argv: Sequence[str]) -> CommandConfig:
    ns = build_parser().parse_args(argv)
    # Every dest is a field; an option that was not given keeps the
    # field's default.
    return CommandConfig(**vars(ns))


# ----------------------------------------------------------------- renderers


# The renderers take (num, den) pairs, so a table row can keep its
# shared, unreduced denominator; _nd turns a rational into its pair.
Pair = tuple[int, int]


def _nd(x: Rational) -> Pair:
    return x.numerator, x.denominator


def _frac(x: Pair) -> str:
    num, den = x
    return f"{num}/{den}" if den != 1 else str(num)


def _pair(x: Pair) -> dict:
    num, den = x
    return {"num": str(num), "den": str(den)}


def _cell_json(n: int, j: int, p: Pair, q: Pair, method: str) -> dict:
    return {
        "n": n,
        "j": j,
        "p": _pair(p),
        "q": _pair(q),
        "decimal": decimal_expansion(Fraction(*p)),
        "method": method,
    }


def _csv_table(rows: list[tuple[int, int, Pair, Pair, str]]) -> str:
    # Ints and method names: no field needs quoting.
    lines = [("n", "j", "p_num", "p_den", "q_num", "q_den", "method")]
    lines += [(n, j, *p, *q, method) for n, j, p, q, method in rows]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


# ------------------------------------------------------------------ prob


def _one_method(cfg: CommandConfig, method: str):
    """(p_left, p_right, SimulationReport | None) for one pipeline: the
    simulator's two lower bounds and its report, or an exact p and 1 - p.
    Each route checks its own value, so nothing is checked here."""
    n, j = cfg.n, cfg.j
    if method == "simulate":
        from .simulator import simulate

        report = simulate(j, n, cfg.tail_eps)
        return report.p_left_lower, report.p_right_lower, report
    if method == "numeric":
        from .residue_engine import build_integrand, integrate_exact

        p = integrate_exact(build_integrand(j, n), start_bits=cfg.precision_bits)
    elif method == "closed":
        from .walk_core import p_closed

        p = p_closed(j, n)
    else:
        from .rfamily import p_exact

        p = p_exact(j, n)
    return p, 1 - p, None


def _prob_line(p: Rational, q: Rational, rep: SimulationReport | None,
               fmt: str) -> str:
    if rep is not None:
        if fmt == "frac":
            return " ".join(_frac(_nd(x)) for x in (p, q, rep.residual))
        return (f"≈ {decimal_expansion(p)} "
                f"≈ {decimal_expansion(q)} "
                f"≈ {decimal_expansion(rep.residual)}")
    if fmt == "frac":
        return _frac(_nd(p))
    return f"≈ {decimal_expansion(p)}"


def _prob_text(cfg: CommandConfig, method: str, p: Rational, q: Rational,
               rep: SimulationReport | None) -> list[str]:
    lines = [f"n = {cfg.n}  j = {cfg.j}  method = {method}"]
    if rep is None:
        lines.append(f"p_left  = {_frac(_nd(p))}  ≈ {decimal_expansion(p)}")
        lines.append(f"p_right = {_frac(_nd(q))}  ≈ {decimal_expansion(q)}")
    else:
        lines[0] += f"  steps = {rep.steps_run}"
        lines.append(f"p_left  >= {_frac(_nd(p))}  ≈ {decimal_expansion(p)}")
        lines.append(f"p_right >= {_frac(_nd(q))}  ≈ {decimal_expansion(q)}")
        lines.append(f"residual <= {_frac(_nd(rep.residual))}"
                     f"  ≈ {decimal_expansion(rep.residual)}")
    return lines


def _run_prob(cfg: CommandConfig) -> int:
    methods = METHODS if cfg.method == "all" else (cfg.method,)
    computed = [(m, *_one_method(cfg, m)) for m in methods]

    if cfg.format in ("frac", "dec"):
        for m, p, q, rep in computed:
            prefix = f"{m} " if cfg.method == "all" else ""
            print(prefix + _prob_line(p, q, rep, cfg.format))
    elif cfg.format == "text":
        blocks = ["\n".join(_prob_text(cfg, *cell)) for cell in computed]
        print("\n\n".join(blocks))
    elif cfg.format == "csv":
        print(_csv_table(
            [(cfg.n, cfg.j, _nd(p), _nd(q), m) for m, p, q, _ in computed]
        ), end="")
    else:
        cells = []
        for m, p, q, rep in computed:
            cell = _cell_json(cfg.n, cfg.j, _nd(p), _nd(q), m)
            if rep is not None:
                cell["residual"] = _pair(_nd(rep.residual))
                cell["steps"] = rep.steps_run
            cells.append(cell)
        print(canonical_json(cells if cfg.method == "all" else cells[0]))

    if cfg.method == "all":
        exact = {p for m, p, _, _ in computed if m != "simulate"}
        if len(exact) != 1:
            sys.stderr.write(
                f"error: verification: exact methods disagree at "
                f"j={cfg.j}, n={cfg.n}\n"
            )
            return EXIT_VERIFICATION
        p = exact.pop()
        _, sim_p, _, sim_rep = next(c for c in computed if c[0] == "simulate")
        if not sim_p <= p <= sim_p + sim_rep.residual:
            sys.stderr.write(
                f"error: verification: simulate interval misses the exact "
                f"value at j={cfg.j}, n={cfg.n}\n"
            )
            return EXIT_VERIFICATION
    return EXIT_OK


# ----------------------------------------------------------------- table


def _table_rows(cfg: CommandConfig) -> list[tuple[int, int, Pair, Pair]]:
    """(n, j, p, q) for every cell, p and q as (num, den) pairs: reduced,
    or over the row's shared denominator with --common-denominator."""
    from .walk_core import row_common_denominator, row_table

    out = []
    for n in range(2, cfg.n_max + 1):
        if cfg.common_denominator:
            shared, nums = row_common_denominator(n)
            pairs = [(m, shared) for m in nums]
        else:
            pairs = [_nd(p) for p in row_table(n)]
        # q = 1 - p over the same denominator, reduced whenever p is.
        for j, (num, den) in enumerate(pairs, start=1):
            out.append((n, j, (num, den), (den - num, den)))
    return out


def _run_table(cfg: CommandConfig) -> int:
    cells = _table_rows(cfg)
    if cfg.format in ("frac", "text", "dec"):
        width = len(f"n={cfg.n_max}")
        for n, row in groupby(cells, key=lambda cell: cell[0]):
            if cfg.format == "dec":
                shown = ["≈" + decimal_expansion(Fraction(*p))
                         for _, _, p, _ in row]
            else:
                shown = [_frac(p) for _, _, p, _ in row]
            print(f"n={n}".ljust(width) + "  " + "  ".join(shown))
    elif cfg.format == "csv":
        print(_csv_table([(n, j, p, q, "residue") for n, j, p, q in cells]),
              end="")
    else:
        print(canonical_json(
            [_cell_json(n, j, p, q, "residue") for n, j, p, q in cells]
        ))
    return EXIT_OK


# -------------------------------------------------------------------- gf


def _run_gf(cfg: CommandConfig) -> int:
    from .walk_core import gf

    f = gf(cfg.j, cfg.n)
    if cfg.format == "text":
        print(f"f_{cfg.j}^({cfg.n})(z) = {f}")
    else:
        print(canonical_json({
            "n": cfg.n,
            "j": cfg.j,
            "var": "z",
            "num": [str(c) for c in f.num.coeffs],
            "den": [str(c) for c in f.den.coeffs],
        }))
    return EXIT_OK


# ------------------------------------------------------------------ verify


def _run_verify(cfg: CommandConfig) -> int:
    # The contour route first, then the suite that imports it: in this
    # order `verify --n-max 14` peaks at 16.9 MB RSS, against 17.1 MB when
    # the suite's import pulls it in (medians of 20 alternating runs, each
    # started from a bare Python parent, quartile spread at most 0.07 MB,
    # Python 3.11, 2-vCPU VM).
    from . import residue_engine  # noqa: F401
    from .verification import run_suite

    results = run_suite(cfg.suite, cfg.n_max, cfg.tail_eps)
    failures = [r for r in results if not r.passed]
    if cfg.format == "text":
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        print(f"{len(results) - len(failures)}/{len(results)} checks passed "
              f"(suite {cfg.suite}, n <= {cfg.n_max})")
    else:
        print(canonical_json({
            "suite": cfg.suite,
            "n_max": cfg.n_max,
            "results": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        }))
    if failures:
        sys.stderr.write(
            f"error: verification: {failures[0].name}: {failures[0].detail}\n"
        )
        return EXIT_VERIFICATION
    return EXIT_OK


# ------------------------------------------------------------------- roots


_ROOT_DIGITS = 20


def _certified_part(x: Fraction, radius: Fraction) -> str:
    """One coordinate of a root known to within ``radius``: ``0.0`` if
    it lies within the radius of 0, else at most _ROOT_DIGITS significant
    digits and none finer than the radius.  A part within a decade of
    the radius keeps its leading digit although that digit is finer."""
    if abs(x) <= radius:
        return "0.0"
    finest = -_floor_log10(1 / radius)  # ceil(log10 radius)
    lead = _floor_log10(abs(x))
    return significant(x, max(1, min(_ROOT_DIGITS, lead - finest + 1)))


def _root_entries(poly, poles, role: str):
    """The factor's JSON block."""
    rs, inside, _ = poles
    # Fixed-point pairs (X, Y) at F bits stand for (X + iY) 2^-F.
    unit = 1 << rs.precision_bits
    ordered = sorted(rs.approximations,
                     key=lambda x: (x[0] / unit, x[1] / unit))
    radius = rs.error_radius
    entries = [{
        "re": _certified_part(Fraction(x[0], unit), radius),
        "im": _certified_part(Fraction(x[1], unit), radius),
        "location": "inside" if x in inside else "outside",
    } for x in ordered]
    return {"role": role, "poly": str(poly),
            "error_radius": significant(radius, 5), "roots": entries}


def _run_roots(cfg: CommandConfig) -> int:
    # The engine gives each factor as its integer coefficient tuple; only
    # the display of the factors needs the polynomial layer.
    from .exactq import Polynomial
    from .residue_engine import row_poles

    n = cfg.n
    (d, d_poles), (c, c_poles) = row_poles(n, cfg.precision_bits)
    d, c = Polynomial(d, var="t"), Polynomial(c, var="t")
    blocks = [_root_entries(d, d_poles, "inside-factor")]
    if c_poles is not None:
        blocks.append(_root_entries(c, c_poles, "outside-factor"))
    # The header covers every printed root, so it states the larger radius.
    shown = significant(max(poles[0].error_radius
                            for poles in (d_poles, c_poles) if poles), 5)
    if cfg.format == "text":
        print(f"n = {n}  contour |t| = 1/2  error radius <= {shown}")
        for block in blocks:
            print(f"{block['role']}: {block['poly']}")
            for e in block["roots"]:
                print(f"  {e['re']:>28} {e['im']:>28}i  {e['location']}")
        if c_poles is None:
            print(f"outside-factor: {c} (constant, no roots)")
    else:
        print(canonical_json({
            "n": n,
            "contour_radius": "1/2",
            "error_radius": shown,
            "factors": blocks,
        }))
    return EXIT_OK


# ------------------------------------------------------------------ driver


_DISPATCH = {
    "prob": _run_prob,
    "table": _run_table,
    "gf": _run_gf,
    "verify": _run_verify,
    "roots": _run_roots,
}


def run(argv: Sequence[str]) -> int:
    """Parse and execute; returns the exit code instead of exiting."""
    try:
        cfg = parse_argv(argv)
    except SystemExit as exc:  # argparse --help or usage error
        return int(exc.code or 0)
    except ValueError as exc:
        sys.stderr.write(f"error: usage: {exc}\n")
        return EXIT_USAGE
    try:
        with _all_digits():
            return _DISPATCH[cfg.subcommand](cfg)
    except ValueError as exc:
        sys.stderr.write(f"error: usage: {exc}\n")
        return EXIT_USAGE
    except (PrecisionError, StepBudgetExceeded) as exc:
        sys.stderr.write(f"error: precision: {exc}\n")
        return EXIT_PRECISION
    except ConsistencyError as exc:
        sys.stderr.write(f"error: verification: {exc}\n")
        return EXIT_VERIFICATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
