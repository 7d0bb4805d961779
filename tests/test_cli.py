import hashlib
import json
import shlex

import pytest

from qcong import congruence, eta, hecke
from qcong.basis import NotPolynomialError, PhiPolynomial
from qcong.cli import UsageError, parse_tau, run
from qcong.primes import PrimeContext


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpand:
    def test_psi_text(self, capsys):
        code, out, _ = capture(capsys, ["expand", "--p", "2", "--psi", "--precision", "4"])
        assert code == 0
        assert "q^-1" in out and "- 24" in out and "276" in out

    def test_basis_json_round_trip(self, capsys):
        argv = ["expand", "--p", "2", "--basis", "3", "--precision", "4", "--format", "json"]
        code, out, _ = capture(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 2
        assert payload["object"] == "basis-3"
        assert payload["valuation"] == -3
        coeffs = dict(payload["coefficients"])
        assert coeffs["-3"] == "1"
        assert coeffs["0"] == "-96"
        assert coeffs["4"] == "-648216576"
        # serialization is canonical: re-dumping the parsed payload is stable
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    def test_j_expansion(self, capsys):
        code, out, _ = capture(
            capsys, ["expand", "--j", "--precision", "1", "--format", "csv"]
        )
        assert code == 0
        lines = out.split("\r\n")
        assert lines[0] == "exponent,coefficient"
        assert lines[1] == "-1,1"
        assert lines[2] == "0,744"
        assert lines[3] == "1,196884"

    def test_csv_line_endings(self, capsys):
        code, out, _ = capture(
            capsys, ["expand", "--p", "3", "--phi", "--precision", "3", "--format", "csv"]
        )
        assert code == 0
        assert out.endswith("\r\n")

    def test_precision_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("QCONG_PRECISION", "2")
        code, out, _ = capture(capsys, ["expand", "--p", "2", "--psi"])
        assert code == 0
        assert "11202" not in out  # precision 2 stops before the q^3 term

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QCONG_PRECISION", "2")
        code, out, _ = capture(capsys, ["expand", "--p", "2", "--psi", "--precision", "3"])
        assert code == 0
        assert "11202" in out

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "psi.json"
        code, out, _ = capture(
            capsys,
            ["expand", "--psi", "--precision", "2", "--format", "json", "--output", str(dest)],
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["object"] == "psi"

    def test_exploratory_level13(self, capsys):
        code, out, _ = capture(
            capsys, ["expand", "--p", "13", "--exploratory", "--psi", "--precision", "2"]
        )
        assert code == 0 and "q^-1" in out

    def test_level13_without_flag_is_usage_error(self, capsys):
        code, _, err = capture(capsys, ["expand", "--p", "13", "--psi", "--precision", "2"])
        assert code == 2 and "exploratory" in err


class TestVerify:
    def test_modeq_pass(self, capsys):
        code, out, _ = capture(capsys, ["verify", "modeq", "--p", "3", "--precision", "64"])
        assert code == 0
        assert "b_1 = 30" in out and "b_2 = 2916" in out and "b_3 = 59049" in out
        assert out.strip().endswith("PASS")

    def test_modeq_json(self, capsys):
        code, out, _ = capture(
            capsys, ["verify", "modeq", "--p", "5", "--precision", "128", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["b"] == ["63", "6500", "196875", "2343750", "9765625"]

    def test_hrelation(self, capsys):
        code, out, _ = capture(capsys, ["verify", "hrelation", "--p", "2", "--precision", "64"])
        assert code == 0 and "PASS" in out

    def test_powersums(self, capsys):
        code, out, _ = capture(capsys, ["verify", "powersums", "--p", "7", "--n-max", "3"])
        assert code == 0
        assert "n=1" in out and "n=3" in out and "PASS" in out

    def test_lehner(self, capsys):
        code, out, _ = capture(
            capsys, ["verify", "lehner", "--p", "5", "--m", "2", "--d-max", "1", "--n-max", "20"]
        )
        assert code == 0 and "PASS" in out

    def test_theorem2_small(self, capsys):
        code, out, _ = capture(
            capsys,
            ["verify", "theorem2", "--p", "7", "--m-max", "3", "--d-max", "1",
             "--n-max", "10", "--precision", "128"],
        )
        assert code == 0 and "PASS" in out

    def test_closure_small(self, capsys):
        code, out, _ = capture(
            capsys, ["verify", "closure", "--p", "2", "--trials", "3", "--deg-max", "2"]
        )
        assert code == 0 and "PASS" in out

    def test_cusp(self, capsys):
        code, out, _ = capture(capsys, ["verify", "cusp", "--p", "3", "--tau", "0+1i"])
        assert code == 0 and "PASS" in out

    def test_cusp_unreachable_tolerance_fails(self, capsys):
        code, out, _ = capture(
            capsys, ["verify", "cusp", "--p", "3", "--tau", "0+1i", "--tol", "1e-300"]
        )
        assert code == 1 and "FAIL" in out

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("tau", ["0+0.1i", "0+0.01i"])
    def test_cusp_residual_is_scale_free(self, capsys, p, tau):
        # |p^(lam/2) phi(tau)| reaches 3e136 here, so an absolute residual
        # of round-off alone would exceed the tolerance
        code, out, _ = capture(capsys, ["verify", "cusp", "--p", str(p), "--tau", tau])
        assert code == 0 and "PASS" in out

    def test_cusp_scaled_residual_still_fails(self, capsys, monkeypatch):
        code, out, _ = capture(
            capsys, ["verify", "cusp", "--p", "2", "--tau", "0+0.1i", "--tol", "1e-300"]
        )
        assert code == 1 and "FAIL" in out
        phi_eval = eta.phi_eval
        monkeypatch.setattr(eta, "phi_eval", lambda ctx, tau: phi_eval(ctx, tau) * (1 + 1e-6))
        code, out, _ = capture(capsys, ["verify", "cusp", "--p", "2", "--tau", "0+0.1i"])
        assert code == 1 and "FAIL" in out

    def test_verify_rejects_level13(self, capsys):
        code, _, err = capture(capsys, ["verify", "modeq", "--p", "13", "--exploratory"])
        assert code == 2

    def test_too_low_precision_is_usage_error(self, capsys):
        code, _, err = capture(capsys, ["verify", "modeq", "--p", "2", "--precision", "4"])
        assert code == 2 and "precision" in err


class TestVerifiersFail:
    """Each verifier, fed one wrong input, exits 1 and prints its FAIL lines."""

    def test_theorem2(self, capsys, monkeypatch):
        bound = congruence.bound
        monkeypatch.setattr(congruence, "bound", lambda ctx, d: bound(ctx, d) + 1000)
        code, out, _ = capture(
            capsys,
            ["verify", "theorem2", "--p", "7", "--m-max", "3", "--d-max", "1",
             "--n-max", "10", "--precision", "128"],
        )
        lines = out.splitlines()
        assert code == 1
        assert lines[2].startswith("FAIL m=1 beta=1 n=1: v_7=")
        assert sum(line.startswith("FAIL m=") for line in lines) == 5
        assert lines[-1] == "FAIL (30 counterexamples)"

    def test_closure_misses_delta(self, capsys, monkeypatch):
        monkeypatch.setattr(PrimeContext, "delta", property(lambda self: 99))
        code, out, _ = capture(
            capsys, ["verify", "closure", "--p", "2", "--trials", "3", "--deg-max", "2"]
        )
        lines = out.splitlines()
        assert code == 1 and "delta=99: 3 failures, FAIL" in lines[0]
        assert [line.split(":")[0] for line in lines[1:]] == [f"FAIL trial {i}" for i in range(3)]
        assert "(" not in out

    @pytest.mark.parametrize("outcome, reason", [
        ((1, PhiPolynomial()), "nonzero constant"),
        (NotPolynomialError("deliberate residual", 5), "deliberate residual"),
    ])
    def test_closure_trial_errors(self, capsys, monkeypatch, outcome, reason):
        def express(ctx, s, maxdeg):
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(hecke, "express_in_phi", express)
        code, out, _ = capture(
            capsys, ["verify", "closure", "--p", "3", "--trials", "2", "--deg-max", "1"]
        )
        assert code == 1
        assert out.splitlines()[1:] == [f"FAIL trial {i}: t=None ({reason})" for i in range(2)]

    def test_powersums(self, capsys, monkeypatch):
        monkeypatch.setattr(hecke, "power_sum_target", lambda ctx, n: 10**6)
        code, out, _ = capture(capsys, ["verify", "powersums", "--p", "5", "--n-max", "2"])
        lines = out.splitlines()
        assert code == 1
        assert lines[1].startswith("n=1: observed t=") and lines[1].endswith("required>=1000000 FAIL")
        assert lines[-1] == "FAIL"

    def test_modeq(self, capsys, monkeypatch):
        monkeypatch.setitem(hecke.BJ_TABLE, 3, (30, 2916, 59048))
        code, out, _ = capture(capsys, ["verify", "modeq", "--p", "3"])
        assert code == 1
        assert out.splitlines()[-1] == "FAIL (expected (30, 2916, 59048))"


class TestTable:
    def test_bj_text(self, capsys):
        code, out, _ = capture(capsys, ["table", "bj", "--p", "3", "--precision", "64"])
        assert code == 0
        assert "1  30" in out and "2  2916" in out and "3  59049" in out

    def test_bj_level13_rejected(self, capsys):
        code, _, _ = capture(capsys, ["table", "bj", "--p", "13", "--exploratory"])
        assert code == 2

    def test_valuations_csv(self, capsys):
        code, out, _ = capture(
            capsys,
            ["table", "valuations", "--p", "2", "--rows", "1,3", "--cols", "2,4",
             "--with-j", "--format", "csv"],
        )
        assert code == 0
        lines = [ln for ln in out.split("\r\n") if ln]
        assert lines[0] == "m\\n,2,4"
        assert lines[1] == "1,11,14"
        assert lines[2] == "3,13,16"
        assert lines[3] == "min,11,14"
        assert lines[4] == "j,11,14"

    def test_bad_rows_list(self, capsys):
        code, _, err = capture(capsys, ["table", "valuations", "--rows", "1,x"])
        assert code == 2 and "rows" in err


class TestScan:
    def test_alpha_scan_csv(self, capsys):
        code, out, _ = capture(
            capsys, ["scan", "alpha-gt-beta", "--p", "2", "--m-max", "4", "--n-max", "6"]
        )
        assert code == 0
        lines = [ln for ln in out.split("\r\n") if ln]
        assert lines[0] == "m,beta,n,v_2"
        assert all(len(ln.split(",")) == 4 for ln in lines[1:])

    def test_phi_scan_json(self, capsys):
        code, out, _ = capture(
            capsys,
            ["scan", "phi-powers", "--p", "3", "--pow-max", "1", "--d-max", "1",
             "--n-max", "4", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["scan"] == "phi-powers"
        assert payload["columns"] == ["k", "beta", "n", "v_3"]

    def test_phi_scan_beyond_the_precision(self, capsys):
        # base precision 17 here: phi^18 .. phi^20 are zero to it
        argv = "scan phi-powers --p 2 --pow-max 20 --d-max 0 --n-max 1".split()
        code, out, _ = capture(capsys, argv)
        lines = out.split("\r\n")
        assert code == 0 and lines[0] == "k,beta,n,v_2" and lines[-1] == ""
        assert len(lines[1:-1]) == 21 and lines[-2] == "20,0,1,inf"


# a flag before the full command is named, not read as the command
MISPLACED = {
    argv: "error: misplaced flag --p: flags follow the full command"
    for argv in ("verify --p 3 modeq", "table --p 3 bj")
}


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert run([]) == 2

    def test_unknown_level(self, capsys):
        code, _, err = capture(capsys, ["expand", "--p", "11", "--psi"])
        assert code == 2 and "unsupported level" in err

    def test_unknown_target(self, capsys):
        assert run(["verify", "nonsense"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            "verify closure --trials 0",
            "verify closure --deg-max 0",
            "verify theorem2 --m-max -1",
            "verify lehner --m 5",
            "verify cusp --tau 1-i",
            "scan phi-powers --d-max -1",
            "verify theorem2 --p 7 --n-max 0 --m-max 2 --d-max 1",
            "verify theorem2 --p 7 --m-max 0 --d-max 1 --precision 64",
            "verify theorem2 --p 7 --m-max 2 --d-max 0 --precision 64",
            "verify powersums --p 3 --n-max -3",
            "verify powersums --n-max 0",
            "verify lehner --p 5 --m 1 --n-max 0",
            "verify lehner --p 5 --m 1 --precision 8",
            "verify closure --p 2 --precision 16",
            "table valuations --p 2 --rows 3,-1 --cols 1,2,3",
            "scan phi-powers --p 3 --precision 17",
            "table valuations --p 2 --rows 1 --cols 2 --precision 17",
            "verify cusp --p 3 --precision 17",
            "verify powersums --p 2 --precision 17",
            "scan alpha-gt-beta --m-max -1",
            "scan alpha-gt-beta --n-max 0",
            "scan phi-powers --n-max 0",
            "scan phi-powers --pow-max -1",
            "table valuations --p 2 --rows 1 --cols 2,-3",
            "verify modeq --trials 5",
            "expand --psi --seed 3 --precision 2",
            "verify modeq --exploratory",
            "table bj --with-j",
            "scan phi-powers --m-max 3",
            "verify modeq --prec 64",
            "verify --p 3 modeq",
            "table --p 3 bj",
            "verify cusp --p 3 --tol 0",
            "verify cusp --p 3 --tol -1",
            "verify cusp --p 3 --tol nan",
            "verify lehner --p 5 --m 1 --precision 16",
            "verify theorem2 --p 7 --m-max 3 --d-max 3 --n-max 10 --precision 128",
            "verify cusp --tau 0+0.001i",
            "verify cusp --tau 0+1e-30i",
            "verify cusp --tau 0+1e5i",
            "verify cusp --tau 0+1e400i",
            "verify cusp --tau 1e400+1i",
            "expand --basis -1",
            "table valuations --rows ,",
            "table valuations --cols ,",
        ],
        ids=["trials-0", "deg-max-0", "m-max-negative", "lehner-m-not-below-p",
             "tau-lower-half-plane", "d-max-negative", "theorem2-n-max-0",
             "theorem2-m-max-0", "theorem2-d-max-0", "powersums-n-max-negative",
             "powersums-n-max-0", "lehner-n-max-0", "lehner-precision-below-minimum",
             "closure-precision-too-low", "valuations-negative-row",
             "scan-precision-ignored", "valuations-precision-ignored",
             "cusp-precision-ignored", "powersums-precision-ignored",
             "alpha-scan-m-max-negative", "alpha-scan-n-max-0", "phi-scan-n-max-0",
             "phi-scan-pow-max-negative", "valuations-negative-col",
             "modeq-trials-unread", "expand-seed-unread", "modeq-exploratory-unread",
             "bj-with-j-unread", "phi-scan-m-max-unread", "abbreviated-flag",
             "flag-before-target", "table-flag-before-target", "cusp-tol-0", "cusp-tol-negative", "cusp-tol-nan",
             "lehner-n-max-beyond-precision", "theorem2-n-max-beyond-precision",
             "cusp-eta-underflows-small-tau", "cusp-eta-underflows-tiny-tau",
             "cusp-eta-underflows-large-tau", "cusp-imag-overflows", "cusp-real-overflows",
             "expand-basis-negative", "valuations-rows-empty", "valuations-cols-empty"],
    )
    def test_bad_argument_exits_2(self, capsys, argv):
        code, out, err = capture(capsys, argv.split())
        assert code == 2 and out == ""
        assert err.startswith(MISPLACED.get(argv, "error: ")) and err.count("\n") == 1

    def test_negative_column_names_the_flag(self, capsys):
        code, out, err = capture(capsys, "table valuations --cols -3".split())
        assert code == 2 and out == ""
        assert err == "error: --cols takes coefficient indices n >= 0, got -3\n"

    @pytest.mark.parametrize("flag", ["--rows", "--cols"])
    def test_empty_list_names_the_flag(self, capsys, flag):
        code, out, err = capture(capsys, ["table", "valuations", flag, " , "])
        assert code == 2 and out == ""
        assert err == f"error: {flag} must list at least one integer\n"

    def test_bad_tolerance_names_the_flag(self, capsys):
        code, out, err = capture(capsys, "verify cusp --p 3 --tol 0".split())
        assert code == 2 and out == ""
        assert err == "error: --tol must be a positive finite number, got 0\n"

    def test_lehner_reads_the_precision_env(self, capsys, monkeypatch):
        argv = ["verify", "lehner", "--p", "5", "--m", "1"]
        monkeypatch.setenv("QCONG_PRECISION", "8")
        code, out, err = capture(capsys, argv)
        assert code == 2 and out == "" and "precision must be at least 16" in err
        monkeypatch.setenv("QCONG_PRECISION", "16")
        from_env = capture(capsys, argv)
        monkeypatch.delenv("QCONG_PRECISION")
        assert from_env == capture(capsys, argv + ["--precision", "16"])
        # without an override the precision follows from n_max = 32
        assert from_env != capture(capsys, argv)

    def test_closure_reads_the_precision(self, capsys, monkeypatch):
        argv = ["verify", "closure", "--p", "2", "--trials", "3"]
        monkeypatch.setenv("QCONG_PRECISION", "16")
        code, out, err = capture(capsys, argv)
        assert code == 2 and out == "" and "too low for degree 8" in err
        monkeypatch.setenv("QCONG_PRECISION", "600")
        from_env = capture(capsys, argv)
        monkeypatch.delenv("QCONG_PRECISION")
        assert from_env[0] == 0
        assert from_env == capture(capsys, argv + ["--precision", "600"])

    @pytest.mark.parametrize(
        "argv",
        [
            "verify modeq --format csv",
            "verify closure --trials 1 --format csv",
            "scan phi-powers --format text",
            "scan alpha-gt-beta --format text",
        ],
        ids=["verify-modeq-csv", "verify-closure-csv", "scan-phi-powers-text",
             "scan-alpha-gt-beta-text"],
    )
    def test_format_not_rendered_exits_2(self, capsys, argv):
        code, out, err = capture(capsys, argv.split())
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "invalid choice" in err

    @pytest.mark.parametrize(
        "argv, default_format",
        [("verify modeq --p 3", "text"), ("scan phi-powers --p 3 --n-max 8", "csv")],
    )
    def test_default_format_is_the_first_rendered(self, capsys, argv, default_format):
        argv = argv.split()
        assert capture(capsys, argv) == capture(capsys, argv + ["--format", default_format])

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        dest = tmp_path / "missing" / "psi.txt"
        code, _, err = capture(capsys, ["expand", "--psi", "--output", str(dest)])
        assert code == 2 and err.startswith("error: cannot write")

    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("deliberate")

        monkeypatch.setattr("qcong.hecke.derive_bj", broken)
        code, _, err = capture(capsys, ["verify", "modeq", "--p", "3"])
        assert code == 3 and "internal error: ZeroDivisionError: deliberate" in err


# sha256 of the stdout of each README example: the printed output of the
# documented commands is pinned byte for byte
README_EXAMPLES = {
    "expand --p 2 --psi --precision 8":
        "0c19e96a5ce803ea47d25a98e0db189500255b3db43ddf8aa67cf11bb06f1ebd",
    "expand --p 3 --basis 5 --format json":
        "11f4a932ffea662e5d185becb5b0aab852f5182478aa0412a7471d1c80b51f86",
    "verify theorem2 --p 5 --m-max 12 --d-max 3":
        "0f4c2adf6e81ce1458278209e6cb3c94404694e5e66ac61791830c95fdeb0b3d",
    "verify modeq --p 7":
        "4658a6a133dc28d132ff78cd04581ec29437d5fd0e03a2437ebacb6086a94640",
    "verify closure --p 2 --trials 100 --seed 0":
        "efd0e270f3b099e0e97f8058ab851b3005ad0cd8534b05707757fab47ea25933",
    # the printed residual is round-off of the platform's complex exp
    "verify cusp --p 3 --tau '1/3+i'":
        "72f5af37dce6d3493310cdecdb66c4bbadb7a5b2c2e970021b70ab8f0565b0ec",
    "table valuations --p 2 --rows 1,3,5,7 --cols 2,4,6,8,10,12 --with-j":
        "8fca2fb207d92013cb805fc69c375b8bd892b9d1e2dc5eadd93b260794244075",
    "table bj --p 3":
        "e604a9659f7a7d01effe076a32e48c16e396e0cebd6cd78a1850ebc6c0edc553",
    "scan phi-powers --p 3 --pow-max 3 --n-max 32":
        "48033791868448d3a5bca40b1822f58c67b598618c44337e860cdaa97d86cb9b",
}


@pytest.mark.parametrize("command", list(README_EXAMPLES))
def test_readme_example_output_is_unchanged(capsys, monkeypatch, command):
    monkeypatch.delenv("QCONG_PRECISION", raising=False)
    code, out, _ = capture(capsys, shlex.split(command))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == README_EXAMPLES[command]


class TestParseTau:
    def test_forms(self):
        assert parse_tau("0+1i") == 1j
        assert parse_tau("i") == 1j
        assert parse_tau("2j") == 2j
        assert parse_tau("1/3+i") == complex(1 / 3, 1)
        assert parse_tau("-1/2+0.5i") == complex(-0.5, 0.5)
        assert parse_tau("0.25") == complex(0.25, 0)
        assert parse_tau("1-2i") == complex(1, -2)

    @pytest.mark.parametrize("text, value", [
        ("1/3+i", complex(1 / 3, 1)),
        ("-i", -1j),
        ("2i", 2j),
        ("3", complex(3, 0)),
        ("0+1e-3i", 0.001j),
        ("1--2i", complex(1, 2)),  # a sign after a sign belongs to the imaginary part
    ])
    def test_table(self, text, value):
        assert parse_tau(text) == value

    @pytest.mark.parametrize("text, message", [
        ("--2i", "cannot parse tau component '--2'"),
        ("1e400+1i", "tau component '1e400' is beyond double range"),
    ])
    def test_table_usage_errors(self, text, message):
        with pytest.raises(UsageError) as err:
            parse_tau(text)
        assert str(err.value) == message

    def test_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_tau("")
        with pytest.raises(UsageError):
            parse_tau("foo+bari")
