import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from cyclecoh import __version__
from cyclecoh.cli import main, parse_coeff
from cyclecoh.cycleset import ParameterDomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_coeff():
    assert parse_coeff("2,4") == (2, 4)
    assert parse_coeff("0") == (0,)
    with pytest.raises(ParameterDomainError):
        parse_coeff("two")
    with pytest.raises(ParameterDomainError):
        parse_coeff("-3")


def test_cohomology_json_report(capsys):
    code, out, err = run_cli(
        capsys,
        "cohomology", "--p", "2", "--nu", "1", "--eta", "2",
        "--coeff", "2", "--degree", "2", "--method", "all",
    )
    assert code == 0
    report = json.loads(out)
    assert report["agreement"]["all"] is True
    by_method = {r["method"]: r["invariant_factors"] for r in report["results"]}
    assert by_method["full"] == [2, 2, 2]
    assert by_method["reduced"] == [2, 2, 2]
    assert by_method["closed"] == [2, 2, 2]
    assert report["version"]
    assert "timing_seconds" not in report


@pytest.mark.parametrize("argv", [
    ["cohomology", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2", "--method", "all"],
    ["table", "--max-v", "4", "--method", "all"],
], ids=["cohomology", "table"])
def test_route_disagreement_exits_3_with_the_report(capsys, monkeypatch, argv):
    """When the reduced route returns another group, the report, with
    agreement.all false, goes to stdout, a route-disagreement error to
    stderr, and the exit status is 3 (table workers are forked, so they
    see the patch too)."""
    import dataclasses

    import cyclecoh.cli
    from cyclecoh.abelian import FinAbGroup

    cohomology = cyclecoh.cli.cohomology

    def another_reduced_group(params, gamma, n, method):
        res = cohomology(params, gamma, n, method)
        if method != "reduced":
            return res
        return dataclasses.replace(res, group=res.group.direct_sum(FinAbGroup((2,))))

    monkeypatch.setattr(cyclecoh.cli, "cohomology", another_reduced_group)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(out)["agreement"]["all"] is False
    assert json.loads(err)["error"]["type"] == "route-disagreement"


def test_cohomology_h1_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "cohomology", "--p", "3", "--nu", "1", "--eta", "1",
        "--coeff", "9", "--degree", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert all(r["invariant_factors"] == [3] for r in report["results"])


def test_reports_are_byte_identical(capsys):
    argv = [
        "cohomology", "--p", "2", "--nu", "1", "--eta", "1",
        "--coeff", "2,4", "--degree", "2",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    # round-trip: the report parses back losslessly
    assert json.dumps(json.loads(out1), sort_keys=True, separators=(",", ":")) + "\n" == out1


def test_coefficients_are_normalized_in_echo(capsys):
    code, out, _ = run_cli(
        capsys,
        "cohomology", "--p", "2", "--nu", "1", "--eta", "1",
        "--coeff", "2,3", "--degree", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["job"]["coeff"] == [6]


def test_parameter_domain_error_exit_2(capsys):
    code, out, err = run_cli(
        capsys,
        "cohomology", "--p", "4", "--nu", "1", "--eta", "1", "--coeff", "2",
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "parameter-domain"

    code, out, err = run_cli(
        capsys,
        "cohomology", "--p", "2", "--nu", "1", "--eta", "3", "--coeff", "2",
    )
    assert code == 2


def test_brute_force_cap_is_a_resource_limit(capsys):
    code, out, err = run_cli(
        capsys,
        "extensions", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "4",
        "--method", "all",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "resource-limit",
        "message": "cochain space of size 1073741824 exceeds the cap 1048576",
    }


def test_int64_modulus_cap_is_a_resource_limit(capsys):
    code, out, err = run_cli(
        capsys,
        "cohomology", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "32768",
        "--degree", "2", "--method", "full",
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "resource-limit",
        "message": "modulus 32768 too large for the int64 fast path",
    }


def test_failed_self_check_is_a_structured_error(capsys, monkeypatch):
    import cyclecoh.extensions
    from cyclecoh.cycleset import Verdict

    # every constructed extension now fails its axiom check
    monkeypatch.setattr(
        cyclecoh.extensions,
        "verify_central_extension",
        lambda ext: Verdict(False, "kernel invariance", ((1,), 0)),
    )
    argv = ["extensions", "--p", "2", "--nu", "1", "--eta", "1", "--coeff", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "self-check",
        "message": "constructed extension fails: fail [kernel invariance] at ((1,), 0)",
    }

    def bare_assertion(*args, **kwargs):
        raise AssertionError

    monkeypatch.setattr(cyclecoh.cli, "enumerate_extension_classes", bare_assertion)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert json.loads(err)["error"] == {
        "type": "self-check",
        "message": "an internal self-check failed",
    }


def test_extensions_brute_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "extensions", "--p", "2", "--nu", "1", "--eta", "1",
        "--coeff", "2", "--method", "brute",
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["classes"] == 4
    assert len(report["results"][0]["representatives"]) == 4
    assert report["agreement"]["all"] is True


# the cocycle_key lists of `extensions --method brute`, one string of
# coordinates (xi1, then xi2, row by row) per representative
BRUTE_KEYS = {
    ("1", "1"): ["00000000", "00000001", "00010000", "00010001"],
    ("1", "2"): [
        "00000000000000000000000000000000",
        "00000000000000000000000001010101",
        "00000000000000000000010100000101",
        "00000000000000000000010101010000",
        "00000001001101110000001000000010",
        "00000001001101110000001001010111",
        "00000001001101110000011100000111",
        "00000001001101110000011101010010",
    ],
}


@pytest.mark.parametrize("nu, eta", sorted(BRUTE_KEYS))
def test_brute_representatives_are_pinned(capsys, nu, eta):
    code, out, _ = run_cli(
        capsys,
        "extensions", "--p", "2", "--nu", nu, "--eta", eta, "--coeff", "2", "--method", "brute",
    )
    assert code == 0
    reps = json.loads(out)["results"][0]["representatives"]
    assert reps == [{"cocycle_key": [int(c) for c in key]} for key in BRUTE_KEYS[nu, eta]]


def test_extensions_all_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys,
        "extensions", "--p", "2", "--nu", "1", "--eta", "1",
        "--coeff", "4", "--method", "all",
    )
    assert code == 0
    report = json.loads(out)
    assert report["agreement"]["theorem=brute"] is True


def test_tsv_row_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "cohomology", "--p", "2", "--nu", "1", "--eta", "2",
        "--coeff", "2", "--degree", "2", "--output", "tsv",
    )
    assert code == 0
    first = out.splitlines()[0]
    assert first == "2\t1\t2\t[2]\t2\t[2,2,2]\tall-agree"


def test_verify_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2",
    )
    assert code == 0
    report = json.loads(out)
    statuses = {r["suite"]: r["status"] for r in report["results"]}
    assert statuses["cycle-set-axioms"] == "pass"
    assert statuses["route-agreement"] == "pass"


def test_verify_checks_the_closed_forms_at_t_1(capsys):
    # at t = 1 (nu = eta) the closed-form d^2 is zero, as the recursion's
    code, out, _ = run_cli(
        capsys,
        "verify", "--p", "2", "--nu", "1", "--eta", "1", "--coeff", "2",
    )
    assert code == 0
    statuses = {r["suite"]: r["status"] for r in json.loads(out)["results"]}
    assert statuses["dl-closed-forms"] == "pass"
    assert statuses["route-agreement"] == "pass"


def test_verify_pins_smith_exponents_from_below(capsys, monkeypatch):
    import cyclecoh.cli
    from cyclecoh import modular

    argv = ["verify", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    statuses = {r["suite"]: r["status"] for r in json.loads(out)["results"]}
    assert statuses["smith-normal-form"] == "pass"

    def under_reported(M, p, k):
        # the same V and V^{-1}, with every exponent reported as 0
        exps, V, Vinv = modular.local_smith(M, p, k)
        return [0] * len(exps), V, Vinv

    monkeypatch.setattr(cyclecoh.cli, "local_smith", under_reported)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    statuses = {r["suite"]: r["status"] for r in json.loads(out)["results"]}
    assert statuses["smith-normal-form"] == "fail"
    assert statuses["route-agreement"] == "pass"


def test_verify_with_free_coefficients_skips_route_agreement(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "0",
    )
    assert code == 0
    report = json.loads(out)
    statuses = {r["suite"]: r["status"] for r in report["results"]}
    assert statuses["route-agreement"] == "skipped"
    assert report["agreement"]["all"] is True


# reports of the routes a coefficient group admits: a free factor gets the
# closed route only, and `table --method closed` runs no other route
ROUTE_REPORTS = {
    ("cohomology", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "0,4", "--method", "all"): (
        '{"agreement":{"all":true},"job":{"coeff":[4,0],"command":"cohomology","degree":2,'
        '"eta":2,"method":"all","nu":1,"p":2,"seed":0},"results":[{"invariant_factors":'
        '[2,2,2,2],"method":"closed","representatives":0}],"version":"0.1.0"}\n'
    ),
    ("table", "--max-v", "4", "--coeff", "0,4", "--method", "all"): (
        '{"agreement":{"all":true},"job":{"coeff":[4,0],"command":"table","max_v":4,'
        '"method":"all","seed":0},"results":['
        '{"agreement":"closed-only","coeff":[4,0],"degree":1,"eta":1,"invariant_factors":[2],"nu":1,"p":2},'
        '{"agreement":"closed-only","coeff":[4,0],"degree":2,"eta":1,"invariant_factors":[2,2,2],"nu":1,"p":2},'
        '{"agreement":"closed-only","coeff":[4,0],"degree":1,"eta":2,"invariant_factors":[2],"nu":1,"p":2},'
        '{"agreement":"closed-only","coeff":[4,0],"degree":2,"eta":2,"invariant_factors":[2,2,2,2],"nu":1,"p":2},'
        '{"agreement":"closed-only","coeff":[4,0],"degree":1,"eta":2,"invariant_factors":[4],"nu":2,"p":2},'
        '{"agreement":"closed-only","coeff":[4,0],"degree":2,"eta":2,"invariant_factors":[4,4,4],"nu":2,"p":2},'
        '{"agreement":"closed-only","coeff":[4,0],"degree":1,"eta":1,"invariant_factors":[],"nu":1,"p":3},'
        '{"agreement":"closed-only","coeff":[4,0],"degree":2,"eta":1,"invariant_factors":[3],"nu":1,"p":3}'
        '],"version":"0.1.0"}\n'
    ),
    ("table", "--max-v", "4", "--coeff", "2", "--method", "closed"): (
        '{"agreement":{"all":true},"job":{"coeff":[2],"command":"table","max_v":4,'
        '"method":"closed","seed":0},"results":['
        '{"agreement":"closed-only","coeff":[2],"degree":1,"eta":1,"invariant_factors":[2],"nu":1,"p":2},'
        '{"agreement":"closed-only","coeff":[2],"degree":2,"eta":1,"invariant_factors":[2,2],"nu":1,"p":2},'
        '{"agreement":"closed-only","coeff":[2],"degree":1,"eta":2,"invariant_factors":[2],"nu":1,"p":2},'
        '{"agreement":"closed-only","coeff":[2],"degree":2,"eta":2,"invariant_factors":[2,2,2],"nu":1,"p":2},'
        '{"agreement":"closed-only","coeff":[2],"degree":1,"eta":2,"invariant_factors":[2],"nu":2,"p":2},'
        '{"agreement":"closed-only","coeff":[2],"degree":2,"eta":2,"invariant_factors":[2,2],"nu":2,"p":2},'
        '{"agreement":"closed-only","coeff":[2],"degree":1,"eta":1,"invariant_factors":[],"nu":1,"p":3},'
        '{"agreement":"closed-only","coeff":[2],"degree":2,"eta":1,"invariant_factors":[],"nu":1,"p":3}'
        '],"version":"0.1.0"}\n'
    ),
}


@pytest.mark.parametrize("argv", sorted(ROUTE_REPORTS), ids=lambda a: " ".join(a))
def test_route_decision_reports_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, ROUTE_REPORTS[argv], "")


def test_table_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--max-v", "4", "--coeff", "2", "--output", "json",
    )
    assert code == 0
    report = json.loads(out)
    keys = {(r["p"], r["nu"], r["eta"], r["degree"]) for r in report["results"]}
    assert (2, 1, 2, 2) in keys
    assert (3, 1, 1, 1) in keys


_TABLE_JOBS = [
    ["table", "--max-v", "9", "--coeff", "2,4,9", "--method", "all", "--output", "json"],
    ["table", "--max-v", "9", "--coeff", "2,4,9", "--method", "all", "--output", "tsv"],
    ["table", "--max-v", "9", "--coeff", "2,4,9", "--method", "all", "--output", "pretty"],
    ["table", "--max-v", "4", "--coeff", "32771", "--method", "all"],
    ["table", "--max-v", "4", "--coeff", "0,4", "--method", "all"],  # closed only: serial
]
needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask")
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2, reason="one CPU: the table runs serially"
)


def _cli_subprocess(argv, one_cpu):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if one_cpu else None
    return subprocess.run(
        [sys.executable, "-m", "cyclecoh.cli", *argv],
        env=env, capture_output=True, timeout=300, preexec_fn=pin,
    )


@needs_affinity
@pytest.mark.parametrize("argv", _TABLE_JOBS, ids=lambda a: " ".join(a[1:]))
def test_table_report_does_not_depend_on_the_cpu_count(argv):
    # `table` runs its members on every CPU of the affinity mask; one CPU
    # gives the serial loop, whose report is the reference
    serial = _cli_subprocess(argv, one_cpu=True)
    spread = _cli_subprocess(argv, one_cpu=False)
    assert (spread.returncode, spread.stdout, spread.stderr) == (serial.returncode, serial.stdout, serial.stderr)
    if "32771" in argv:
        assert spread.returncode == 2
        assert spread.stdout == b""
        assert [json.loads(line)["error"]["type"] for line in spread.stderr.splitlines()] == ["resource-limit"]
    else:
        assert spread.returncode == 0


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_table_leaves_no_process(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-v", "9", "--coeff", "2", "--method", "all")
    assert code == 0
    assert json.loads(out)["agreement"]["all"] is True
    _assert_no_child_left()
    code, out, err = run_cli(capsys, "table", "--max-v", "4", "--coeff", "32771", "--method", "all")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "resource-limit"
    _assert_no_child_left()


@pytest.fixture
def alarm():
    """Fail a test that runs longer than the given seconds instead of hanging."""
    import signal

    def expire(signum, frame):
        raise TimeoutError("the table did not finish in time")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@needs_two_cpus
def test_a_killed_table_worker_is_a_resource_limit(capsys, monkeypatch, alarm):
    import signal

    import cyclecoh.cli

    parent_pid = os.getpid()
    rows_of = cyclecoh.cli._table_rows

    def killed_in_a_worker(member, *args):
        if os.getpid() != parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return rows_of(member, *args)

    monkeypatch.setattr(cyclecoh.cli, "_table_rows", killed_in_a_worker)
    alarm(120)
    code, out, err = run_cli(capsys, "table", "--max-v", "9", "--coeff", "2", "--method", "all")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "resource-limit",
        "message": "a table worker was killed by SIGKILL before it reported its members",
    }
    _assert_no_child_left()


@needs_two_cpus
def test_a_failing_table_kills_and_reaps_its_workers(monkeypatch, alarm):
    import time

    import cyclecoh.cli

    class Abort(BaseException):
        pass

    parent_pid = os.getpid()

    def stuck_in_a_worker(member, *args):
        if os.getpid() == parent_pid:
            raise Abort
        time.sleep(600)

    monkeypatch.setattr(cyclecoh.cli, "_table_rows", stuck_in_a_worker)
    alarm(120)
    with pytest.raises(Abort):
        main(["table", "--max-v", "9", "--coeff", "2", "--method", "all"])
    _assert_no_child_left()


@pytest.mark.parametrize("slow", ["every-member", "first-pulled"])
def test_a_table_failure_is_the_first_in_family_order(capsys, monkeypatch, slow):
    # every member fails, and the queue hands out the largest carriers
    # first, so each process meets failures out of family order; the one
    # reported is the serial loop's, (2,1,1).  With equal durations the
    # process that pulls first ends up holding (2,1,1); with a slow first
    # member (3,1,2) the other one does
    import time

    import cyclecoh.cli
    from cyclecoh.modular import ResourceLimitError

    def failing(member, *args):
        if slow == "every-member" or (member.p, member.nu, member.eta) == (3, 1, 2):
            time.sleep(0.3 if slow == "first-pulled" else 0.05)
        raise ResourceLimitError(f"member {member.p},{member.nu},{member.eta}")

    monkeypatch.setattr(cyclecoh.cli, "_table_rows", failing)
    code, out, err = run_cli(capsys, "table", "--max-v", "9", "--coeff", "2", "--method", "all")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "resource-limit", "message": "member 2,1,1"}
    _assert_no_child_left()


def test_a_process_skips_members_after_its_first_failure_in_family_order():
    # one process's share of the queue: family indices 6, 1, 7, 0; 6 and 1
    # fail, so 7 is skipped, 0 is computed and 1 is the failure to report
    from cyclecoh.cli import _pull_members
    from cyclecoh.cycleset import family_members

    members = family_members(9)
    computed = []

    def rows_of(member):
        i = members.index(member)
        computed.append(i)
        if i in (6, 1):
            raise ValueError(f"member {i}")
        return [i]

    queue_r, queue_w = os.pipe()
    os.write(queue_w, b"".join(i.to_bytes(4, "little") for i in (6, 1, 7, 0)))
    os.close(queue_w)
    try:
        rows, (index, exc) = _pull_members(queue_r, members, rows_of)
    finally:
        os.close(queue_r)
    assert computed == [6, 1, 0]
    assert rows == [0]
    assert (index, str(exc)) == (1, "member 1")


def test_timing_flag_is_opt_in(capsys):
    argv = [
        "cohomology", "--p", "2", "--nu", "1", "--eta", "1",
        "--coeff", "2", "--degree", "1", "--timing",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "timing_seconds" in json.loads(out)


PARAMS = ["--p", "2", "--nu", "1", "--eta", "1", "--coeff", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cohomology", *PARAMS, "--degree", "two"], "argument --degree: invalid int value: 'two'"),
        (["cohomology", *PARAMS, "--method", "fancy"], "argument --method: invalid choice: 'fancy'"),
        (["verify", *PARAMS[2:]], "the following arguments are required: --p"),
        (["frobnicate", *PARAMS], "argument command: invalid choice: 'frobnicate'"),
    ],
    ids=["bad-int", "bad-choice", "missing-required", "unknown-subcommand"],
)
def test_usage_errors_are_parameter_domain_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "parameter-domain"
    assert message in error["message"]


@pytest.mark.parametrize("max_v", ["0", "-3"])
def test_table_max_v_below_2_is_a_parameter_domain_error(capsys, max_v):
    # 0 used to sweep v <= 9 and -3 to print an empty table with exit 0
    code, out, err = run_cli(capsys, "table", "--max-v", max_v)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "parameter-domain",
        "message": f"--max-v must be at least 2, got {max_v}",
    }


LARGE_PRIME = "1000000000000000003"


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", *PARAMS[:6], "--coeff", LARGE_PRIME, "--method", "closed"],
        ["cohomology", "--p", LARGE_PRIME, *PARAMS[2:]],
    ],
    ids=["coeff", "p"],
)
def test_a_large_prime_factor_is_a_resource_limit(capsys, argv):
    # trial division stops at its bound instead of running for hours
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "resource-limit",
        "message": f"factoring {LARGE_PRIME} needs trial divisors above 1048576",
    }


def test_version_and_help_exit_0(capsys):
    for argv, start in ((["--version"], __version__ + "\n"), (["extensions", "--help"], "usage: ")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(start) and err == ""
    assert out.startswith("usage: cyclecoh extensions")


def test_errors_match_the_schema(capsys, monkeypatch):
    import cyclecoh.extensions
    from cyclecoh.cycleset import Verdict

    schema = json.loads((Path(__file__).resolve().parent.parent / "docs" / "report_schema.json").read_text())
    error_schema = {"$ref": "#/$defs/error", "$defs": schema["$defs"]}
    jobs = [
        ("parameter-domain", 2, ["cohomology", "--p", "4", "--nu", "1", "--eta", "1", "--coeff", "2"]),
        ("parameter-domain", 2, ["cohomology", *PARAMS, "--degree", "two"]),
        ("resource-limit", 2, ["extensions", *PARAMS[:4], "--eta", "2", "--coeff", "4", "--method", "brute"]),
        # a free coefficient factor is valid, beyond the routes that eliminate mod p^k
        ("resource-limit", 2, ["cohomology", *PARAMS[:6], "--coeff", "0,2", "--method", "full"]),
        ("resource-limit", 2, ["extensions", *PARAMS[:6], "--coeff", "0"]),
    ]
    for kind, expected_code, argv in jobs:
        code, out, err = run_cli(capsys, *argv)
        assert code == expected_code and out == ""
        payload = json.loads(err)
        jsonschema.validate(payload, error_schema)
        assert payload["error"]["type"] == kind
    monkeypatch.setattr(
        cyclecoh.extensions, "verify_central_extension", lambda ext: Verdict(False, "exactness", None)
    )
    code, out, err = run_cli(capsys, "extensions", *PARAMS)
    assert code == 3
    payload = json.loads(err)
    jsonschema.validate(payload, error_schema)
    assert payload["error"]["type"] == "self-check"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"error": {"type": "crash", "message": ""}}, error_schema)


# runs one CLI job, then prints the scipy modules the process imported
_IMPORTED_SCIPY = """
import sys
from cyclecoh.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["cohomology", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2"]],
)
def test_scipy_is_never_imported(argv):
    # scipy costs every job start-up time and memory; numpy is the only
    # declared dependency
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTED_SCIPY, *argv],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"


_BLAS_THREADS = """
import os
import cyclecoh
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads)
"""


@pytest.mark.parametrize("preset", [None, "3"])
def test_blas_pool_defaults_to_one_thread(preset):
    # cyclecoh's arithmetic needs no BLAS pool, and an idle one spins a
    # core at start-up; importing the package sets the default before
    # numpy loads and keeps a value the user set
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS], env=env, capture_output=True, text=True, timeout=300, check=True
    )
    value, threads = done.stdout.split()
    assert value == (preset or "1")
    if preset is None and threads != "None":
        assert threads == "1"


def test_a_corrupted_d3_block_fails_verify_and_the_job(capsys, monkeypatch):
    # one entry added to the rows of d_3^T on cell (1, 2): the d o d check
    # of the full complex, which `verify`'s full-complex suite runs, fails
    # and names the identity and the cell; `verify` and the cohomology job
    # end with that self-check error
    from cyclecoh import lcs_cohomology
    from cyclecoh.abelian import IntegerMatrix
    from cyclecoh.cycleset import CyclicFamilyParams, make_cyclic_lcs

    original = lcs_cohomology._full_d_rows

    def corrupted(dot, cell, c0, c1):
        block = original(dot, cell, c0, c1)
        if cell != (1, 2):
            return block
        return block + IntegerMatrix(block.rows, block.cols, {(0, 0): 1})

    monkeypatch.setattr(lcs_cohomology, "_full_d_rows", corrupted)
    lcs_cohomology._full_slice.cache_clear()
    message = "full complex is inconsistent: fail [d_h d_v + d_v d_h = 0] at (1, 2)"
    with pytest.raises(AssertionError) as failed:
        lcs_cohomology.full_double_complex(make_cyclic_lcs(CyclicFamilyParams(2, 1, 2)))
    assert str(failed.value) == message
    member = ["--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2"]
    for argv in (["verify", *member], ["cohomology", *member, "--method", "full"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert json.loads(err) == {"error": {"type": "self-check", "message": message}}
    monkeypatch.undo()
    lcs_cohomology._full_slice.cache_clear()
    code, out, err = run_cli(capsys, "verify", *member)
    assert code == 0 and err == ""


# runs one CLI job, then prints whether the process imported numpy.random
_IMPORTED_NUMPY_RANDOM = """
import sys
from cyclecoh.cli import main
imported = "numpy.random" in sys.modules
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(imported, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv",
    [["--version"], ["cohomology", "--p", "2", "--nu", "1", "--eta", "2", "--coeff", "2,8", "--method", "all"]],
)
def test_numpy_random_is_never_imported(argv):
    # importing numpy.random costs every job about 5 MB of RSS; the row
    # sample of the sampled elimination is drawn by the standard library
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTED_NUMPY_RANDOM, *argv],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    assert done.stdout.splitlines()[-1] == "False False"
