"""Command-line front end.

Every subcommand's handler returns a header and columns, and `_write_csv`
writes them to stdout or --out in the one CSV format its docstring states.
Exit codes: 0 on success, 2 for configuration problems, 3 for numerical
failures.

Parameters resolve in three layers: built-in defaults, then a --config
file of `key = value` lines, then individual flags. --delta positions
the cavity frequency as omega_c = omega + delta, and --chi fixes the
drive amplitude as A = chi * nu; both are conveniences over the raw
fields.
"""

import argparse
import functools
import math
import os
import sys
import warnings
from itertools import chain, starmap

import numpy as np

from . import bath, decay, oracle
from .bath import MomentumGrid, build_grid, spectral_density
from .errors import ConfigError, NonFiniteResult, NumericalError, SecondSideband
from .floquet import build_floquet_matrix, default_truncation, edge_weights, quasi_energies
from .params import CONFIG_KEYS, SystemParams, check_size, default_sideband, from_mapping, nearest_sideband, parse_config
from .specfun import MAX_ORDER, _bessel_column, _checked, bessel_j_zero

DEFAULTS = {
    "omega": 2.0,
    "omega_c": 3.0,
    "xi": 1.0,
    "g": 0.25,
    "n_cavities": 41,
    "drive_amp": 6.0,
    "drive_freq": 6.0,
}

SWEEPABLE = CONFIG_KEYS + ("chi", "delta")

# Ceiling on --t-steps and --count, the CSV rows of a table. A 10^6-row
# decay-rate table at the defaults takes about 1 s and 61 MB; a 10^5-point
# sweep about 0.4-0.6 s and 55-66 MB, most of it its columns (see the README).
MAX_ROWS = 1 << 20

# Rows per block of a written table, and points per block of a regime or golden-rate sweep's per-point calls.
BLOCK = 1 << 12

# Python float arithmetic raises OverflowError or ZeroDivisionError
# (1 / underflowed x) where numpy would return inf;
# either way the point cannot be computed. Argument checks raise InvalidArgument,
# a ConfigError, so any other ValueError comes from inside a computation.
NUMERICAL_FAILURES = (NumericalError, ArithmeticError, ValueError)


def _floating(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def _text(columns) -> str:
    """CSV lines of finite cells in one % pass: %.12g for a float column (+ 0.0 clears -0.0), str for any other."""
    floats = [_floating(c) for c in columns]
    row = ",".join("%.12g" if f else "%s" for f in floats) + "\n"
    cells = [(c + 0.0).tolist() if f else list(c) for c, f in zip(columns, floats)]
    return row * len(cells[0]) % tuple(chain.from_iterable(zip(*cells)))


def _write_csv(header: str, columns: list, path: str | None) -> None:
    """Write a table as the one CSV format of every subcommand, to path or to stdout.

    The format: UTF-8, a header row, then one row per entry of the equal-length
    columns, cells joined by commas and every row, the last too, ended by LF;
    no quoting and no locale formatting, so identical invocations produce
    byte-identical output. A column is a float array, whose cells print with
    12 significant digits (%.12g, -0.0 as 0), an int array, whose cells print
    in full, or a list of ready string cells. Before any byte is written (and
    before path is opened) a float that is not finite is refused with
    NonFiniteResult, naming the first such cell in row order. The rows go out
    BLOCK at a time, so no more than a block's text is held at once.
    """
    bad = [(int(np.argmin(np.isfinite(c))), j) for j, c in enumerate(columns)
           if _floating(c) and not np.isfinite(c).all()]
    if bad:
        row, j = min(bad)
        raise NonFiniteResult(f"non-finite result {float(columns[j][row])!r}")
    rows = range(0, len(columns[0]), BLOCK)
    blocks = chain([header + "\n"], (_text([c[lo : lo + BLOCK] for c in columns]) for lo in rows))
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="parameter file, one key = value per line")
    for key in CONFIG_KEYS:
        flag = "--" + key.replace("_", "-")
        kind = int if key == "n_cavities" else float
        sub.add_argument(flag, dest=key, type=kind, default=None)
    sub.add_argument("--delta", type=float, default=None, help="sets omega_c = omega + delta")
    sub.add_argument("--chi", type=float, default=None, help="sets drive_amp = chi * drive_freq")


def _param_fields(args) -> dict:
    # Defaults, then the --config file, then the flags; --delta and --chi stay
    # separate until _resolve_params, so a swept value can be laid over any field.
    fields = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        fields.update(parse_config(text))
    for key in SWEEPABLE:
        value = getattr(args, key, None)
        if value is not None:
            fields[key] = value
    return fields


def _laid(fields: dict) -> dict:
    # The fields with --delta laid over omega_c and --chi over drive_amp; a sweep passes arrays.
    fields = dict(fields)
    if "delta" in fields:
        fields["omega_c"] = fields["omega"] + fields.pop("delta")
    if "chi" in fields:
        fields["drive_amp"] = fields.pop("chi") * fields["drive_freq"]
    return fields


def _resolve_params(fields: dict) -> SystemParams:
    return from_mapping(_laid(fields))


def _sideband(args, params: SystemParams) -> int:
    if getattr(args, "sideband", None) is not None:
        return args.sideband
    n = default_sideband(params)
    decay.check_single_sideband(params, n)
    return n


def _time_grid(args) -> np.ndarray:
    if not 0.0 < args.t_max < math.inf:
        raise ConfigError(f"--t-max must be finite and > 0, got {args.t_max!r}")
    if args.t_steps < 1:
        raise ConfigError(f"--t-steps must be >= 1, got {args.t_steps!r}")
    t_min = args.t_min if args.t_min is not None else args.t_max / args.t_steps
    if not 0.0 < t_min <= args.t_max:
        raise ConfigError(f"--t-min must lie in (0, t-max], got {t_min!r}")
    check_size("--t-steps", args.t_steps, MAX_ROWS)
    return np.linspace(t_min, args.t_max, args.t_steps)


def _observation_time(t: float) -> float:
    # classify reports delta_f = 1 / t, so a t too small for 1 / t to be
    # finite is refused along with a non-finite one.
    if not 0.0 < t < math.inf or 1.0 / t == math.inf:
        raise ConfigError(f"--t must be finite and > 0 with a finite 1/t, got {t!r}")
    return t


def _rate_table(params: SystemParams, grid: MomentumGrid, n: int, times: np.ndarray) -> tuple[str, list]:
    curve = decay.decay_curve(params, grid, n, times)
    return "t,R", [curve.times, curve.rates]


def _cmd_decay_rate(args) -> tuple[str, list]:
    params = _resolve_params(_param_fields(args))
    grid = build_grid(params)
    n = _sideband(args, params)
    return _rate_table(params, grid, n, _time_grid(args))


def _cmd_survival(args) -> tuple[str, list]:
    params = _resolve_params(_param_fields(args))
    grid = build_grid(params)
    times = _time_grid(args)
    if args.method == "oracle":
        curve = oracle.survival_curve_exact(params, grid, times)
    else:
        n = _sideband(args, params)
        # A perturbative overshoot warning becomes one stderr line, as in reproduce-fig3.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            curve = decay.survival_curve(params, grid, n, times, args.method)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
    return "t,P_e", [curve.times, curve.probabilities]


def _cmd_spectral_density(args) -> tuple[str, list]:
    params = _resolve_params(_param_fields(args))
    rho = spectral_density(params.xi, args.omega_eval)
    return "omega,rho", [*np.array([[args.omega_eval, rho]]).T]


def _cmd_floquet_spectrum(args) -> tuple[str, list]:
    params = _resolve_params(_param_fields(args))
    grid = build_grid(params)
    m_max = args.truncation if args.truncation is not None else default_truncation(params)
    fm = build_floquet_matrix(params, grid, m_max)
    spectrum = quasi_energies(fm)
    weights = edge_weights(fm, spectrum)
    return "index,quasi_energy,edge_weight", [np.arange(weights.size), spectrum.eigenvalues, weights]


def _cmd_classify(args) -> tuple[str, list]:
    params = _resolve_params(_param_fields(args))
    n = _sideband(args, params)
    report = decay.classify_regime(params, n, _observation_time(args.t))
    fields = (report.delta_f, report.omega_f, report.delta_g, report.omega_g)
    return "regime,delta_f,omega_f,delta_g,omega_g", [[report.regime], *np.array([fields]).T]


def _sweep_values(args) -> np.ndarray:
    if args.count < 2:
        raise ConfigError(f"--count must be >= 2, got {args.count}")
    if not (math.isfinite(args.start) and math.isfinite(args.stop)):
        raise ConfigError(f"--start and --stop must be finite, got {args.start!r} and {args.stop!r}")
    if args.start == args.stop:
        raise ConfigError("--start and --stop must differ")
    if not math.isfinite(args.stop - args.start):  # linspace would step by inf and return nan
        raise ConfigError(f"--stop - --start must be finite, got {args.stop!r} - {args.start!r}")
    check_size("--count", args.count, MAX_ROWS)
    values = np.linspace(args.start, args.stop, args.count)
    if args.param == "n_cavities":  # Python ints, which numpy would turn to float past 2**63
        values = np.array([int(round(v)) for v in values], dtype=object)
    return values


def _sweep_cells(args, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sweep's quantity and error columns of string cells: each point's quantity or the error's type name.

    The points resolve as columns. One that array comparisons do not clear of a check
    a fresh call makes resolves on its own, so its error is a fresh call's. Then one pass
    over the runs of equal sideband n takes J_n(chi) from one column over the chi that
    _checked passes. A rate run writes the error cells of the chi it refuses and stages
    its rows for the kernel, which takes each run of points that share N on one grid;
    a regime or golden-rate run evaluates its points, BLOCK at a time, and a point at a
    refused chi meets the refusal in its own call. The rates print as the writer prints
    a float column.
    """
    fields, size, rate, regime = _param_fields(args), values.size, args.quantity == "rate", args.quantity == "regime"
    cols = _laid({**fields, args.param: values})
    cavities = np.broadcast_to(cols["n_cavities"], values.shape)
    table = np.stack([np.broadcast_to(np.asarray(cols[k], float), size) for k in CONFIG_KEYS if k != "n_cavities"], axis=1)
    omega, omega_c, xi, g, amp, nu = table.T
    delta, chi = omega_c - omega, amp / nu
    orders = nearest_sideband(delta, nu) if args.sideband is None else np.zeros(size)  # nan where a fresh call raises
    clear = np.isfinite(table).all(axis=1) & np.isfinite(orders) & (xi > 0.0) & (nu > 0.0) & (g >= 0.0) & (amp >= 0.0)
    clear &= np.asarray((cavities >= 1) & (cavities <= bath.MAX_CAVITIES if rate else True), bool)
    if args.sideband is None:
        # check_single_sideband's search, m != n in resonant_sidebands within its reach, as float bounds.
        reach, big = np.trunc(np.minimum(math.e * chi / 2.0 + 20.0, MAX_ORDER + 1.0)), sys.float_info.max
        first = np.maximum(np.floor(np.clip((-2.0 * xi - delta) / nu, -big, big)) + 1.0, -reach)
        stop = np.minimum(np.ceil(np.clip((2.0 * xi - delta) / nu, -big, big)), reach + 1.0)
        clear &= (stop <= first) | ((stop - first == 1.0) & (first == orders))
    quantity, errors = np.full(size, "", dtype=object), np.full(size, "", dtype=object)
    for i in np.flatnonzero(~clear).tolist():
        try:
            params = _resolve_params({**fields, args.param: values[i]})
            n = _sideband(args, params)
            if rate:  # build_grid's ceiling, checked before J_n(chi) as in a fresh call
                check_size("n_cavities", params.n_cavities, bath.MAX_CAVITIES)
            clear[i], orders[i] = True, n if args.sideband is None else 0.0
        except (ConfigError, *NUMERICAL_FAILURES) as exc:
            errors[i] = type(exc).__name__

    ranked = np.flatnonzero(clear)[np.argsort(orders[clear], kind="stable")]
    out, valued = np.empty(size), np.zeros(size, bool)
    # The kernel's rows of decay._point, (delta, xi, n nu, g^2, J_n(chi)); each run sets n nu and J_n(chi).
    rows = np.stack([delta, xi, nu, np.float_power(g, 2.0), chi], axis=1) if rate else None
    for where in np.split(ranked, np.flatnonzero(np.diff(orders[ranked])) + 1) if ranked.size else []:
        n = int(orders[where[0]]) if args.sideband is None else args.sideband  # n < 2**1024, so int(float(n)) acts as n
        chis, inverse = np.unique(chi[where], return_inverse=True)
        column, ok = np.full(chis.size, math.nan), np.ones(chis.size, bool)
        if _refusal(n, chis[-1]):  # chi >= 0 at a resolved point, so each chi passes _checked when the largest does
            names = [_refusal(n, c) for c in chis.tolist()]
            ok[:] = [not name for name in names]
            if rate:  # a regime or golden-rate point's own call below meets its refusal itself
                errors[where[~ok[inverse]]] = [names[j] for j in inverse[~ok[inverse]].tolist()]
        if ok.any():  # n nu waits for a key that passes, as an n past the order ceiling may pass the float range
            column[ok] = _bessel_column(n, chis[ok])
            if rate:  # a refused key's row holds nan and its point keeps its error cell
                rows[where, 2], rows[where, 4], valued[where] = n * nu[where], column[inverse], ok[inverse]
        # Regime or golden rate: each point a fresh call on SystemParams from fields listed BLOCK at a time.
        for lo in range(0, 0 if rate else where.size, BLOCK):
            block, found = where[lo : lo + BLOCK], []
            listed = table[block].T.tolist()
            points = starmap(SystemParams, zip(*listed[:4], cavities[block].tolist(), *listed[4:]))
            jns = [None if math.isnan(j) else j for j in column[inverse[lo : lo + BLOCK]].tolist()]
            for i, params, jn in zip(block.tolist(), points, jns):
                try:
                    if regime:
                        found.append(decay.classify_regime(params, n, args.t, jn=jn).regime)
                    else:
                        out[i], valued[i] = decay.decay_rate_longtime(params, n, jn=jn).rate, True
                        found.append("")  # the rate is formatted with the others below
                except (ConfigError, *NUMERICAL_FAILURES) as exc:
                    found.append("")
                    errors[i] = type(exc).__name__
            quantity[block] = found
    staged = np.flatnonzero(valued & rate)  # a rate sweep's valued points, none of another quantity's
    for run in np.split(staged, np.flatnonzero(np.diff(cavities[staged])) + 1) if staged.size else []:
        grid = build_grid(_resolve_params({**fields, args.param: values[run[0]]}))
        out[run] = decay._rates(grid.nodes, grid.end, rows[run], np.array([args.t]))[0][:, 0]
    finite = valued & np.isfinite(out)
    quantity[finite] = np.array(_text([out[finite]]).split("\n")[:-1], dtype=object)  # no copy of each string
    errors[valued & ~finite] = NonFiniteResult.__name__
    return quantity, errors


def _refusal(n: int, chi: float) -> str:
    # The type name of the error bessel_j(n, chi) raises on its arguments, or "".
    try:
        _checked(n, chi)
    except (ConfigError, *NUMERICAL_FAILURES) as exc:
        return type(exc).__name__
    return ""


def _cmd_sweep(args) -> tuple[str, list]:
    values = _sweep_values(args)
    quantity_col = {"rate": "R", "golden-rate": "golden_rate", "regime": "regime"}[args.quantity]
    if args.quantity != "golden-rate":
        _observation_time(args.t)
    return f"{args.param},{quantity_col},error", [values, *_sweep_cells(args, values)]


def _cmd_reproduce_fig3(args) -> None:
    # decay-rate at the defaults with --sideband 0 for three (delta, chi):
    # climbing (1, 1), descending (3, 1) and suppressed (3, first root of
    # J_0). At sideband 0 only chi = A/nu enters R(t), so --nu only picks
    # how chi is realized; a curve with a second sideband in band at that
    # nu gets a warning instead of the refusal.
    if not args.nu > 0.0:
        raise ConfigError(f"--nu must be > 0, got {args.nu!r}")
    times = _time_grid(args)
    cases = [
        ("fig3_blue.csv", 1.0, 1.0),
        ("fig3_red.csv", 3.0, 1.0),
        ("fig3_green.csv", 3.0, bessel_j_zero(0, 1)),
    ]
    os.makedirs(args.out_dir, exist_ok=True)
    for name, delta, chi in cases:
        params = _resolve_params({**DEFAULTS, "drive_freq": args.nu, "delta": delta, "chi": chi})
        try:
            decay.check_single_sideband(params, 0)
        except SecondSideband as exc:
            print(f"warning: {name}: {exc}", file=sys.stderr)
        path = os.path.join(args.out_dir, name)
        _write_csv(*_rate_table(params, build_grid(params), 0, times), path)
        print(f"wrote {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floquet-zeno",
        description="Decay control of a driven emitter in a coupled-cavity waveguide",
    )
    parser.add_argument("--out", help="write CSV here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decay-rate", help="finite-time decay rate R(t) on a time grid")
    _add_param_flags(p)
    p.add_argument("--sideband", type=int, default=None, help="default: nearest-resonance n")
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--t-steps", type=int, default=200)
    p.add_argument("--t-min", type=float, default=None, help="default: t-max / t-steps")

    p = sub.add_parser("survival", help="survival probability P_e(t)")
    _add_param_flags(p)
    p.add_argument("--sideband", type=int, default=None)
    p.add_argument("--method", choices=("perturbative", "exponential", "oracle"), default="perturbative")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-steps", type=int, default=100)
    p.add_argument("--t-min", type=float, default=None)

    p = sub.add_parser("spectral-density", help="reservoir density of states at one frequency")
    # rho depends only on xi; --omega is the evaluation frequency here, not
    # the emitter splitting, so the full parameter flag set would collide.
    p.add_argument("--config", help="parameter file, one key = value per line")
    p.add_argument("--xi", dest="xi", type=float, default=None)
    p.add_argument("--omega", dest="omega_eval", type=float, required=True,
                   help="frequency measured from the band center")

    p = sub.add_parser("floquet-spectrum", help="quasi-energies with truncation-edge weights")
    _add_param_flags(p)
    p.add_argument("--truncation", type=int, default=None, help="Fourier cutoff M")

    p = sub.add_parser("classify", help="Zeno / anti-Zeno / decoupled regime report")
    _add_param_flags(p)
    p.add_argument("--sideband", type=int, default=None)
    p.add_argument("--t", type=float, default=10.0)

    p = sub.add_parser("sweep", help="scan one parameter")
    _add_param_flags(p)
    p.add_argument("--param", choices=SWEEPABLE, required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--quantity", choices=("rate", "golden-rate", "regime"), default="rate")
    p.add_argument("--t", type=float, default=10.0, help="observation time for rate/regime")
    p.add_argument("--sideband", type=int, default=None)

    p = sub.add_parser("reproduce-fig3", help="write the three reference decay curves as CSV files")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--nu", type=float, default=6.0,
                   help="drive frequency realizing chi; warns for a curve with another sideband in band")
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--t-steps", type=int, default=200)
    p.set_defaults(t_min=None)

    return parser


# Built on the first run, the one parser serves every later run in the process;
# parse_args leaves it unchanged.
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Looked up per run, so a handler replaced after import is the one called.
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        # numpy's overflow warnings would only repeat the writer's NonFiniteResult (exit 3).
        with np.errstate(all="ignore"):
            table = handler(args)
        if table:
            _write_csv(*table, args.out)
    except (ConfigError, OSError) as exc:
        # OSError: an --out or --out-dir that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_FAILURES as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
