"""Command-line front end.

Four subcommands: `cohomology` (one group, up to three routes with
agreement flags), `extensions` (class enumeration), `verify` (the
verification suites for one family member), `table` (a sweep over all
family members up to a carrier bound, one member per CPU of the
affinity mask).  One job per invocation; output is a single report in
json, tsv or pretty form, byte-identical for a fixed job and seed
(timing is only included on request).

Exit codes: 0 success, 2 parameter/usage error or resource limit, 3 route
disagreement or a failed self-check (an identity the computation
verifies about its own output, such as the axioms of a constructed
extension); both signal a bug.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pickle
import random
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .abelian import FinAbGroup, IntegerMatrix
from .cycleset import (
    CyclicFamilyParams,
    ParameterDomainError,
    derived_ybe_solution,
    family_members,
    invariant_elements,
    make_cyclic_lcs,
    verify_cycle_set,
    verify_linear,
    verify_ybe,
)
from .cyclic_resolution import dl_agreement_suite
from .extensions import enumerate_extension_classes
from .lcs_cohomology import (
    ROUTES,
    admitted_routes,
    cohomology,
    full_double_complex,
    reduced_complex,
)
from .modular import ResourceLimitError, local_smith

COHOMOLOGY_METHODS = (*ROUTES, "all")
EXTENSION_METHODS = ("theorem", "brute", "all")


class RouteDisagreement(RuntimeError):
    pass


@dataclass
class JobSpec:
    command: str
    p: int = None
    nu: int = None
    eta: int = None
    coeff: tuple = ()
    degree: int = None
    method: str = None
    output: str = "json"
    seed: int = 0
    max_v: int = None
    timing: bool = False

    def params(self):
        return CyclicFamilyParams(self.p, self.nu, self.eta)

    def gamma(self):
        return FinAbGroup.from_cyclic_orders(self.coeff)

    def echo(self):
        out = {
            "command": self.command,
            "coeff": list(self.gamma().factors) if self.coeff else [],
            "seed": self.seed,
        }
        for key in ("p", "nu", "eta", "degree", "method", "max_v"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


@dataclass
class Report:
    job: dict
    results: list
    agreement: dict = field(default_factory=dict)
    version: str = __version__
    timing_seconds: float = None

    def as_dict(self, with_timing=False):
        out = {
            "job": self.job,
            "results": self.results,
            "agreement": self.agreement,
            "version": self.version,
        }
        if with_timing and self.timing_seconds is not None:
            out["timing_seconds"] = round(self.timing_seconds, 3)
        return out


def parse_coeff(text):
    """Comma-separated cyclic orders; 0 denotes an infinite cyclic factor."""
    if not text:
        raise ParameterDomainError("empty coefficient list")
    try:
        orders = [int(x) for x in text.split(",")]
    except ValueError:
        raise ParameterDomainError(f"cannot parse coefficients {text!r}")
    if any(o < 0 for o in orders):
        raise ParameterDomainError("cyclic orders must be nonnegative")
    return tuple(orders)


# ---------------------------------------------------------------------------
# the four commands
# ---------------------------------------------------------------------------


def compare_routes(params, gamma, degree, method):
    """H^degree by `method`, or with "all" by every route that gamma
    admits, and the pairwise agreement of their groups ("all" is true
    when no pair disagrees, so also when one route ran)."""
    methods = admitted_routes(gamma) if method == "all" else (method,)
    results = {m: cohomology(params, gamma, degree, m) for m in methods}
    names = sorted(results)
    agreement = {
        f"{a}={b}": results[a].group == results[b].group
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    agreement["all"] = all(agreement.values())
    return results, agreement


def run_cohomology(spec):
    degree = spec.degree if spec.degree is not None else 2
    results, agreement = compare_routes(spec.params(), spec.gamma(), degree, spec.method or "all")
    rows = [
        {
            "method": m,
            "invariant_factors": list(res.group.factors),
            "representatives": len(res.representatives),
        }
        for m, res in results.items()
    ]
    report = Report(spec.echo(), rows, agreement)
    if not agreement["all"]:
        raise RouteDisagreement(render(report, spec))
    return report


def _render_parameters(tup):
    return [list(x.coords) for x in tup]


def run_extensions(spec):
    params = spec.params()
    gamma = spec.gamma()
    method = spec.method or "theorem"
    methods = ["theorem", "brute"] if method == "all" else [method]
    results = []
    counts = {}
    h2 = cohomology(params, gamma, 2, "closed").group.order()
    for m in methods:
        classes = enumerate_extension_classes(gamma, params, m)
        counts[m] = len(classes)
        reps = []
        for ext in classes:
            if ext.family is not None:
                reps.append(
                    {
                        "case": ext.family[0],
                        "parameters": _render_parameters(ext.family[1]),
                    }
                )
            else:
                reps.append({"cocycle_key": list(ext.pair.flat_key())})
        results.append({"method": m, "classes": len(classes), "representatives": reps})
    agreement = {"count=h2_order": all(c == h2 for c in counts.values())}
    if len(counts) == 2:
        agreement["theorem=brute"] = counts["theorem"] == counts["brute"]
    agreement["all"] = all(agreement.values())
    report = Report(spec.echo(), results, agreement)
    if not agreement["all"]:
        raise RouteDisagreement(render(report, spec))
    return report


def _local_smith_contract_holds(M, p, k):
    """Whether `local_smith(M, p, k)` keeps its documented contract:
    min(rows, cols) exponents, ascending; column i of M @ V divisible by
    p^exps[i] and the columns past min(rows, cols) by p^k; and
    V @ Vinv = I mod p^k; and, from below, the columns with exps[i] < k,
    divided by p^exps[i], independent mod p: no nonzero combination of
    them over F_p vanishes (M has at most five columns).  V and Vinv are
    read as the sparse matrices they are."""
    m = p**k
    n = M.shape[1]
    exps, V, Vinv = local_smith(M, p, k)
    V, Vinv = (
        IntegerMatrix._from_coo(n, n, *np.divmod(key, n), values, canonical=True)
        for key, values in (V, Vinv)
    )
    MV = (IntegerMatrix.from_rows(M.tolist(), n) @ V).to_numpy_mod(m)
    pe = p ** np.array(exps + [k] * (n - len(exps)), dtype=np.int64)
    low = (MV // pe % p)[:, pe < m]
    combos = np.array(list(itertools.product(range(p), repeat=low.shape[1])), dtype=np.int64)[1:]
    return (
        len(exps) == min(M.shape)
        and exps == sorted(exps)
        and not (MV % pe).any()
        and not ((V @ Vinv - IntegerMatrix.identity(n)).values % m).any()
        and (low @ combos.T % p).any(axis=0).all()
    )


def run_verify(spec):
    params = spec.params()
    rng = random.Random(spec.seed)
    lcs = make_cyclic_lcs(params)
    suites = []

    def record(name, finding):
        suites.append({"suite": name, "status": finding})

    record("cycle-set-axioms", "pass" if verify_cycle_set(lcs) else "fail")
    record("linearity", "pass" if verify_linear(lcs) else "fail")
    inv = invariant_elements(lcs)
    ok = inv == [params.t * k for k in range(params.u)]
    record("invariant-elements", "pass" if ok else "fail")
    try:
        verify_ybe(derived_ybe_solution(lcs))
        record("yang-baxter", "pass")
    except (ValueError, AssertionError):
        record("yang-baxter", "fail")
    try:
        full_double_complex(lcs)
        record("full-complex", "pass")
    except AssertionError:
        record("full-complex", "fail")
    try:
        reduced_complex(params)
        record("reduced-transfer-agreement", "pass")
    except AssertionError:
        record("reduced-transfer-agreement", "fail")
    try:
        dl_agreement_suite(params)
        record("dl-closed-forms", "pass")
    except AssertionError:
        record("dl-closed-forms", "fail")
    snf_ok = True
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = np.array([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        snf_ok &= _local_smith_contract_holds(M, 2, 3)
    record("smith-normal-form", "pass" if snf_ok else "fail")
    if spec.coeff:
        checks = [compare_routes(params, spec.gamma(), n, "all") for n in (1, 2)]
        if len(checks[0][0]) < 2:
            # one admitted route (the closed one, for a free factor): no
            # routes are compared
            record("route-agreement", "skipped")
        else:
            agree = all(agreement["all"] for _, agreement in checks)
            record("route-agreement", "pass" if agree else "fail")
    failed = [s for s in suites if s["status"] == "fail"]
    report = Report(spec.echo(), suites, {"all": not failed})
    if failed:
        raise RouteDisagreement(render(report, spec))
    return report


def _table_rows(member, gamma, degrees, method):
    """The report rows of one family member: every degree, every route."""
    rows = []
    for degree in degrees:
        results, agreement = compare_routes(member, gamma, degree, method)
        factors = results["closed"].group.factors
        if len(results) < 2:
            word = "closed-only"
        else:
            word = "all-agree" if agreement["all"] else "DISAGREE"
        rows.append(
            {
                "p": member.p,
                "nu": member.nu,
                "eta": member.eta,
                "coeff": list(gamma.factors),
                "degree": degree,
                "invariant_factors": list(factors),
                "agreement": word,
            }
        )
    return rows


def run_table(spec):
    method = spec.method or "closed"
    degrees = (spec.degree,) if spec.degree else (1, 2)
    gamma = spec.gamma()
    members = family_members(spec.max_v)

    def rows_of(member):
        return _table_rows(member, gamma, degrees, method)

    rows = None
    if method == "all" and len(admitted_routes(gamma)) > 1:
        rows = _parallel_rows(members, rows_of)
    if rows is None:
        # one member at a time: the module caches hold only the current member
        rows = [row for member in members for row in rows_of(member)]
    rows.sort(key=lambda r: (r["p"], r["nu"], r["eta"], r["degree"]))
    bad = [r for r in rows if r["agreement"] == "DISAGREE"]
    report = Report(spec.echo(), rows, {"all": not bad})
    if bad:
        raise RouteDisagreement(render(report, spec))
    return report


def _parallel_rows(members, rows_of):
    """The rows of every member, computed by this process and one forked
    worker per further CPU of its affinity mask; None, for the serial
    loop, when there is one CPU or one member, or the queue does not fit
    in a pipe.

    The queue is a pipe of 4-byte member indices, largest carrier first,
    filled before the first fork; every process reads one index at a time
    until it is empty (the pipe holds whole indices and serves one read at
    a time, so no index is split or read twice).  A worker sends its rows
    and its failure back pickled on its own pipe and leaves through
    os._exit, writing nothing to stdout or stderr.  The exception raised is the serial loop's, that
    of the first failing member in family order; a worker that dies
    before it reports is a ResourceLimitError.  Every worker is reaped on
    every path, killed first when this process fails.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = min(cpus, len(members))
    if processes < 2:
        return None
    import signal

    order = sorted(range(len(members)), key=lambda i: -members[i].v)
    queue = b"".join(i.to_bytes(4, "little") for i in order)
    queue_r, queue_w = os.pipe()
    os.set_blocking(queue_w, False)
    try:
        queued = os.write(queue_w, queue)
    except BlockingIOError:
        queued = 0
    os.close(queue_w)
    if queued < len(queue):
        os.close(queue_r)
        return None
    workers = {}  # pid -> read end of its result pipe
    reports = {}  # pid -> (exit code, what it sent), once reaped
    try:
        for _ in range(processes - 1):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: the ones started share the queue
                os.close(result_r)
                os.close(result_w)
                break
            if pid == 0:
                _serve_queue(queue_r, result_w, members, rows_of)
            os.close(result_w)
            workers[pid] = result_r
        rows, failed = _pull_members(queue_r, members, rows_of)
        for pid, result_r in workers.items():
            with open(result_r, "rb", closefd=False) as fh:
                payload = fh.read()
            reports[pid] = (os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), payload)
    finally:
        for pid, result_r in workers.items():
            if pid not in reports:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(result_r)
        os.close(queue_r)
    failures = [failed] if failed else []
    for code, payload in reports.values():
        if code < 0:
            raise ResourceLimitError(
                f"a table worker was killed by {signal.Signals(-code).name} before it reported its members"
            )
        if code:
            raise ResourceLimitError(f"a table worker exited with status {code} before it reported its members")
        worker_rows, failed = pickle.loads(payload)
        rows += worker_rows
        failures += [failed] if failed else []
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return rows


def _pull_members(queue_r, members, rows_of):
    """Rows of the members read from the queue until it is empty, and the
    first failure in family order as (index, exception), or None.  Like
    the serial loop, a member after a failure in family order is not
    computed."""
    rows, failed = [], None
    while chunk := os.read(queue_r, 4):
        i = int.from_bytes(chunk, "little")
        if failed and i > failed[0]:
            continue
        try:
            rows += rows_of(members[i])
        except Exception as exc:
            # without its traceback, which would keep the member's data alive
            failed = (i, exc.with_traceback(None))
    return rows, failed


def _serve_queue(queue_r, result_w, members, rows_of):
    """A forked worker's life: pull members, send back what
    `_pull_members` returns, and leave through os._exit, never returning
    into the caller."""
    code = 1
    try:
        result = _pull_members(queue_r, members, rows_of)
        with open(result_w, "wb") as fh:
            pickle.dump(result, fh)
        code = 0
    finally:
        os._exit(code)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render(report, spec):
    data = report.as_dict(with_timing=spec.timing)
    if spec.output == "json":
        return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if spec.output == "tsv":
        return render_tsv(report, spec)
    return render_pretty(report, spec)


def _fmt_factors(factors):
    return "[" + ",".join(str(f) for f in factors) + "]"


def render_tsv(report, spec):
    lines = []
    if spec.command in ("cohomology",):
        word = "all-agree" if report.agreement.get("all") else "DISAGREE"
        for res in report.results:
            lines.append(
                "\t".join(
                    str(x)
                    for x in (
                        spec.p,
                        spec.nu,
                        spec.eta,
                        _fmt_factors(report.job["coeff"]),
                        report.job.get("degree", 2),
                        _fmt_factors(res["invariant_factors"]),
                        word,
                    )
                )
            )
    elif spec.command == "table":
        for row in report.results:
            lines.append(
                "\t".join(
                    str(x)
                    for x in (
                        row["p"],
                        row["nu"],
                        row["eta"],
                        _fmt_factors(row["coeff"]),
                        row["degree"],
                        _fmt_factors(row["invariant_factors"]),
                        row["agreement"],
                    )
                )
            )
    elif spec.command == "extensions":
        for res in report.results:
            lines.append("\t".join(str(x) for x in (spec.p, spec.nu, spec.eta, res["method"], res["classes"])))
    else:
        for s in report.results:
            lines.append(f"{s['suite']}\t{s['status']}")
    return "\n".join(lines) + "\n"


def render_pretty(report, spec):
    lines = [f"# {spec.command} (version {report.version})"]
    lines.append(f"job: {json.dumps(report.job, sort_keys=True)}")
    if spec.command == "verify":
        width = max(len(s["suite"]) for s in report.results)
        for s in report.results:
            lines.append(f"  {s['suite']:<{width}}  {s['status']}")
    elif spec.command == "table":
        lines.append(f"  {'p':>2} {'nu':>2} {'eta':>3}  {'coeff':<10} {'n':>1}  {'H^n':<14} agreement")
        for row in report.results:
            lines.append(
                f"  {row['p']:>2} {row['nu']:>2} {row['eta']:>3}  "
                f"{_fmt_factors(row['coeff']):<10} {row['degree']:>1}  "
                f"{_fmt_factors(row['invariant_factors']):<14} {row['agreement']}"
            )
    elif spec.command == "extensions":
        for res in report.results:
            lines.append(f"  method {res['method']}: {res['classes']} classes")
            for rep in res["representatives"]:
                lines.append(f"    {json.dumps(rep, sort_keys=True)}")
    else:
        for res in report.results:
            lines.append(
                f"  {res['method']:<8} H^{report.job.get('degree', 2)} = "
                f"{_fmt_factors(res['invariant_factors'])}"
            )
        lines.append(f"agreement: {json.dumps(report.agreement, sort_keys=True)}")
    if spec.timing and report.timing_seconds is not None:
        lines.append(f"timing: {report.timing_seconds:.3f}s")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParameterDomainError (a JSON error and exit 2 in
    `main`) instead of printing usage and exiting; subcommand parsers
    inherit the class."""

    def error(self, message):
        raise ParameterDomainError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="cyclecoh",
        description="Exact cohomology and central extensions of cyclic linear cycle sets",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_params=True):
        if with_params:
            sp.add_argument("--p", type=int, required=True, help="prime")
            sp.add_argument("--nu", type=int, required=True)
            sp.add_argument("--eta", type=int, required=True)
        sp.add_argument("--coeff", type=str, default=None, help="coefficients, e.g. 2,4 (0 = Z)")
        sp.add_argument("--output", choices=("json", "tsv", "pretty"), default="json")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--timing", action="store_true", help="include timing in the report")

    sp = sub.add_parser("cohomology", help="compute H^n by one or all routes")
    common(sp)
    sp.add_argument("--degree", type=int, choices=(1, 2), default=2)
    sp.add_argument("--method", choices=COHOMOLOGY_METHODS, default="all")

    sp = sub.add_parser("extensions", help="enumerate central extension classes")
    common(sp)
    sp.add_argument("--method", choices=EXTENSION_METHODS, default="theorem")

    sp = sub.add_parser("verify", help="run the verification suites")
    common(sp)

    sp = sub.add_parser("table", help="sweep all family members up to a carrier bound")
    common(sp, with_params=False)
    sp.add_argument("--max-v", type=int, default=9, dest="max_v")
    sp.add_argument("--degree", type=int, choices=(1, 2), default=None)
    sp.add_argument("--method", choices=("closed", "all"), default="closed")
    return parser


def spec_from_args(args):
    coeff = parse_coeff(args.coeff) if args.coeff else ()
    if args.command != "table" and not coeff:
        raise ParameterDomainError("--coeff is required")
    if args.command == "table" and not coeff:
        coeff = (2,)
    if args.command == "table" and args.max_v < 2:
        raise ParameterDomainError(f"--max-v must be at least 2, got {args.max_v}")
    return JobSpec(
        command=args.command,
        p=getattr(args, "p", None),
        nu=getattr(args, "nu", None),
        eta=getattr(args, "eta", None),
        coeff=coeff,
        degree=getattr(args, "degree", None),
        method=getattr(args, "method", None),
        output=args.output,
        seed=args.seed,
        max_v=getattr(args, "max_v", None),
        timing=args.timing,
    )


RUNNERS = {
    "cohomology": run_cohomology,
    "extensions": run_extensions,
    "verify": run_verify,
    "table": run_table,
}


def run(spec):
    """Dispatch a job; returns the report (raises on domain errors and
    route disagreement, which the CLI turns into exit codes 2 and 3)."""
    start = time.monotonic()
    report = RUNNERS[spec.command](spec)
    report.timing_seconds = time.monotonic() - start
    return report


def main(argv=None):
    try:
        spec = spec_from_args(build_parser().parse_args(argv))
    except ParameterDomainError as exc:
        _emit_error("parameter-domain", str(exc))
        return 2
    try:
        report = run(spec)
    except ResourceLimitError as exc:
        _emit_error("resource-limit", str(exc))
        return 2
    except ValueError as exc:
        _emit_error("parameter-domain", str(exc))
        return 2
    except RouteDisagreement as exc:
        sys.stdout.write(str(exc))
        _emit_error("route-disagreement", "independent routes disagree; this is a bug signal")
        return 3
    except AssertionError as exc:
        _emit_error("self-check", str(exc) or "an internal self-check failed")
        return 3
    sys.stdout.write(render(report, spec))
    return 0


def _emit_error(kind, message):
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
