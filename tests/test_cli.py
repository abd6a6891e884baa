import math

import pytest

import numpy as np

from absq import channels, classify, cli, entropy, errors, linalg, states, swap, sweep
from absq.cli import SpecError, build_state, main, parse_spec, table2_rows, table3_rows, table4_rows
from absq.tolerances import BISECTION_TOL

from conftest import bits


class TestSpecGrammar:
    def test_parse_name_only(self):
        assert parse_spec("ghzw") == ("ghzw", {})

    def test_parse_params(self):
        name, params = parse_spec("acin:lambda=0.9,theta=0.7853981633974483")
        assert name == "acin"
        assert params["lambda"] == pytest.approx(0.9)

    def test_error_reports_position(self):
        with pytest.raises(SpecError, match="position"):
            parse_spec("acin:lambda")
        with pytest.raises(SpecError, match="position"):
            parse_spec("acin:lambda=abc")

    def test_unknown_state(self):
        with pytest.raises(SpecError, match="unknown state"):
            build_state("nope:p=1")

    def test_missing_parameter(self):
        with pytest.raises(SpecError, match="needs parameters"):
            build_state("iso:d=3")

    def test_integral_float_accepted_as_integer(self):
        assert build_state("iso:d=3.0,beta=0.5").dims == (3, 3)

    def test_builds_every_family(self):
        for spec in (
            "pure-schmidt:theta=0.8",
            "depolarized-schmidt:theta=0.8,p=0.4",
            "acin:lambda=0.9,theta=0.785",
            "iso:d=3,beta=0.5",
            "acin3:x0=0.6,x1=0.8,x2=0,x3=0,x4=0,theta=1.0",
            "ghzw:p=0.3",
            "bell:index=2",
        ):
            build_state(spec)


class TestClassifyCommand:
    def test_depolarized_schmidt_verdicts(self, capsys):
        code = main(
            [
                "classify",
                "--state", "pure-schmidt:theta=0.7854",
                "--channel", "global-depolarizing:p=0.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # channel weight 0.5 leaves surviving weight 0.5: lambda_max 0.625
        assert "AFEF     False" in out
        assert "0.625" in out
        assert "ACVENN   True" in out

    def test_maximally_mixed_all_member(self, capsys):
        code = main(["classify", "--state", "iso:d=3,beta=0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "False" not in out

    def test_ghzw_marginal(self, capsys):
        code = main(["classify", "--state", "ghzw:p=0.5", "--marginal", "23"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ACRE2NN True" in out

    def test_tripartite_pure_marginal(self, capsys):
        # GHZ amplitudes: any two-qubit marginal has purity exactly 1/2,
        # an inclusive-boundary membership for both verdict routes
        code = main(
            [
                "classify",
                "--state",
                "acin3:x0=0.7071067811865476,x1=0,x2=0,x3=0,x4=0.7071067811865476,theta=0.3",
                "--marginal", "13",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ACRE2NN True" in out
        assert "direct verdict True" in out

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        code = main(["classify", "--state", "bell:index=0", "--csv", str(path)])
        capsys.readouterr()
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "criterion,member,witness"
        assert any(line.startswith("afef,false,1") for line in lines)

    def test_large_order_keeps_its_case(self, tmp_path, capsys):
        # only the class name is upper-cased on stdout; the verdict at
        # alpha = 1e10 is the Renyi entropy's, though Tr rho^alpha underflows
        path = tmp_path / "report.csv"
        argv = ["classify", "--state", "bell:index=0", "--channel", "global-depolarizing:p=0.3"]
        code = main(argv + ["--alpha", "1e10", "--csv", str(path)])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "ACRENN[1e+10] False  trace_power = 0 (threshold 0)" in out.splitlines()
        assert "acrenn[1e+10],false,0" in path.read_text().splitlines()

    def test_bad_spec_exits_nonzero(self, capsys):
        code = main(["classify", "--state", "iso:d=3,beta=9"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "spec", ["pure-schmidt:theta=nan", "iso:d=3,beta=inf", "depolarized-schmidt:theta=0.3,p=-inf"]
    )
    def test_non_finite_spec_exits_nonzero(self, spec, capsys):
        code = main(["classify", "--state", spec])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: expected a finite number")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("acin:lambda=0.5,theta=0.3,lambda=0.6", "error: repeated key 'lambda' at position 26"),
            ("iso:d=2.7,beta=0.5", "error: expected an integer for iso parameter d, got 2.7"),
            ("bell:index=1.9", "error: expected an integer for bell parameter index, got 1.9"),
        ],
    )
    def test_bad_spec_one_line_error(self, spec, message, capsys):
        code = main(["classify", "--state", spec])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(message)
        assert err.count("\n") == 1

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])  # missing --state
        assert exc.value.code == 2

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0.5,nan"])
    def test_non_finite_alpha_one_line_error(self, alpha, capsys):
        code = main(["classify", "--state", "bell:index=0", "--alpha", alpha])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: alpha=")
        assert err.count("\n") == 1

    def test_empty_alpha_one_line_error(self, capsys):
        # an empty list is not the default list
        code = main(["classify", "--state", "iso:d=2,beta=0.5", "--alpha", ""])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: --alpha expects comma-separated numbers, got ''\n"

    def test_repeated_alpha_one_line_error(self, tmp_path, capsys):
        # a repeated order would print and write one ACRENN row for two
        path = tmp_path / "report.csv"
        code = main(["classify", "--state", "iso:d=2,beta=0.5", "--alpha", "2,2.0", "--csv", str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: --alpha repeats the order 2 in '2,2.0'\n"
        assert not path.exists()


TOO_BIG = " of the state is too big to allocate\n"

# argv (OUT: a file in the test's directory, MISSING: one in a directory
# that does not exist), exit status, and the start of the one stderr line,
# all of it where the message ends in a newline
EXIT_STATUS = [
    # a UsageError: what the command line asks for is refused
    (["classify", "--state", "nosuch:x=1"], 2, "error: unknown state 'nosuch'"),
    (["classify", "--state", "bell:index=0", "--channel", "nosuch:p=0.1"], 2, "error: unknown channel 'nosuch'"),
    (["classify", "--state", "iso:d=2.5,beta=0.5"], 2, "error: expected an integer for iso parameter d"),
    (["classify", "--state", "iso:d=2,beta=0.5,d=3"], 2, "error: repeated key 'd'"),
    (["classify", "--state", "bell:index=0", "--alpha", ""], 2, "error: --alpha expects comma-separated"),
    (["classify", "--state", "bell:index=0", "--alpha", "2,2.0"], 2, "error: --alpha repeats the order 2"),
    (["classify", "--state", "bell:index=0", "--marginal", "12"], 2, "error: --marginal needs a tripartite"),
    (["classify", "--state", "ghzw:p=0.5", "--channel", "bit-flip:p=0.3"], 2, "error: channel bit-flip needs"),
    (["swap-scan", "--family", "phase-damping", "--out", "OUT"], 2, "error: phase-damping leaves"),
    # any other AbsqError, or an OSError: the computation failed
    (["classify", "--state", "bell:index=0", "--alpha", "1"], 1, "error: alpha=1.0 outside"),
    (["swap-scan", "--family", "global-depolarizing", "--p2", "2", "--out", "OUT"], 1, "error: p=2.0 outside"),
    (["classify", "--state", "iso:d=3,beta=9"], 1, "error: beta=9.0 outside"),
    # a state too big to address: refused before any allocation (whole lines)
    (["classify", "--state", "iso:d=1e9,beta=0.5"], 1,
     "error: d=1000000000: the 1000000000000000000 x 1000000000000000000 matrix" + TOO_BIG),
    (["classify", "--state", "iso:d=100000,beta=0.5"], 1, "error: d=100000: the 10000000000 x 10000000000 matrix" + TOO_BIG),
    # d * d beyond a float: no OverflowError on the way to that refusal, and
    # d and d^2 in three digits (test_iso_beyond_a_float_one_short_line)
    (["classify", "--state", "iso:d=1e308,beta=0"], 1, "error: d=1.00e+308: the 1.00e+616 x 1.00e+616 matrix" + TOO_BIG),
    # refused by the range check, with d in three digits as well
    (["classify", "--state", "iso:d=-1e308,beta=0"], 1, "error: d=-1.00e+308 must be >= 2\n"),
    (["table3", "--out", "MISSING"], 1, "io error: "),
]


@pytest.mark.parametrize(
    "argv, code, message",
    EXIT_STATUS,
    ids=[
        "state", "channel", "fraction", "repeated-key", "empty-alpha", "repeated-alpha",
        "marginal", "channel-on-ghzw", "phase-damping", "alpha-1", "p2", "beta", "iso-d-1e9",
        "iso-d-100000", "iso-d-1e308", "iso-d--1e308", "unwritable",
    ],
)
def test_exit_status_from_error_class(argv, code, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    paths = {"OUT": str(out), "MISSING": str(tmp_path / "missing" / "out.csv")}
    assert main([paths.get(arg, arg) for arg in argv]) == code
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(message)
    assert err.count("\n") == 1
    assert not out.exists()


def test_iso_beyond_a_float_one_short_line(capsys):
    assert main(["classify", "--state", "iso:d=1e308,beta=0"]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert len(err.rstrip("\n")) < 120


class TestErrorHandling:
    def test_every_exception_is_an_absq_value_error(self):
        raised = [
            obj for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, Exception)
        ]
        for cls in raised + [SpecError]:
            assert issubclass(cls, errors.AbsqError)
            assert issubclass(cls, ValueError)

    def test_invalid_state_one_line_error(self, monkeypatch, tmp_path, capsys):
        def bad_rows():
            return states.DensityMatrix(np.eye(4) / 2, (2, 2))

        monkeypatch.setattr(cli, "table3_rows", bad_rows)
        code = main(["table3", "--out", str(tmp_path / "t3.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: trace = 2")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["classify", "--state", "bell:index=0", "--alpha", "-inf"], "error: alpha=-inf"),
            (["classify", "--state", "bell:index=0", "--alpha", "-nan"], "error: alpha=nan"),
            (["classify", "--state", "bell:index=0", "--alpha", "-1e3"], "error: alpha=-1000.0"),
            (["classify", "--state", "bell:index=0", "--alpha", "-0.5,2"], "error: alpha=-0.5"),
            (["swap-scan", "--family", "global-depolarizing", "--p2", "-1e-3"], "error: p=-0.001"),
            (["swap-scan", "--family", "amplitude-damping", "--p4", "-1e-3"], "error: p=-0.001"),
        ],
        ids=["alpha-inf", "alpha-nan", "alpha-1e3", "alpha-list", "p2", "p4"],
    )
    def test_negative_literal_value_one_line_error(self, argv, message, tmp_path, capsys):
        # argparse alone reads these values as options and exits 2
        path = tmp_path / "out.csv"
        extra = ["--out", str(path)] if argv[0] == "swap-scan" else []
        code = main(argv + extra)
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize(
        "exc,message",
        [
            (
                MemoryError("Unable to allocate 23.8 GiB for an array with shape (40000, 40000)"),
                "error: Unable to allocate 23.8 GiB for an array with shape (40000, 40000)\n",
            ),
            (MemoryError(), "error: out of memory\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_out_of_memory_one_line_error(self, exc, message, monkeypatch, capsys):
        # iso:d=200 asks for a 40000 x 40000 complex matrix; the factory
        # refuses it here instead, so nothing is allocated
        def refuse(d, beta):
            raise exc

        monkeypatch.setattr(states, "isotropic", refuse)
        code = main(["classify", "--state", "iso:d=200,beta=0.5"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == message

    def test_solver_failure_one_line_error(self, monkeypatch, tmp_path, capsys):
        # one sweep cannot diagonalize this dense 9x9 state: the CLI exits 1
        # with one line, and writes no CSV
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        path = tmp_path / "report.csv"
        code = main(["classify", "--state", "iso:d=3,beta=0.5", "--csv", str(path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "error: Jacobi iteration failed to converge\n"
        assert not path.exists()
        assert issubclass(errors.NotConverged, RuntimeError)

    def test_channel_on_three_qubits_one_line_error(self, capsys):
        code = main(["classify", "--state", "ghzw:p=0.5", "--channel", "bit-flip:p=0.3"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: channel bit-flip needs a two-qubit state, got dims (2, 2, 2)\n"


class TestTableCommands:
    def test_table2(self, tmp_path, capsys):
        path = tmp_path / "t2.csv"
        code = main(["table2", "--out", str(path), "--points", "401"])
        capsys.readouterr()
        assert code == 0
        lines = path.read_text().splitlines()
        # 4 channels x 2 criteria, depolarizing doubled for both side readings
        assert len(lines) == 1 + 10
        rows = {}
        for line in lines[1:]:
            f = line.split(",")
            rows[(f[0], f[1], f[2])] = f
        bf = rows[("bit_flip", "ac", "2")]
        assert float(bf[4]) == pytest.approx(0.0890506, abs=1e-4)
        assert float(bf[5]) == pytest.approx(0.910949, abs=1e-4)
        assert float(bf[8]) < 1e-4 and float(bf[9]) < 1e-4
        pf = rows[("phase_flip", "af", "2")]
        assert float(pf[4]) == pytest.approx(1 / 3, abs=1e-4)
        dep = rows[("depolarizing", "ac", "2")]
        assert dep[3] == "false"  # computed interval is nonempty, flagged as such

    def test_table3(self, tmp_path, capsys):
        path = tmp_path / "t3.csv"
        code = main(["table3", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "d,beta,lambda_lo,ref,delta"
        assert len(lines) == 5
        for line in lines[1:]:
            assert float(line.split(",")[4]) < 1e-4

    def test_table4(self, tmp_path, capsys):
        path = tmp_path / "t4.csv"
        code = main(["table4", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        for line in path.read_text().splitlines()[1:]:
            assert float(line.split(",")[5]) < 1e-3

    def test_table4_without_crossing_names_the_case(self, tmp_path, capsys):
        # with 20 terms the d = 3 surrogate peaks just below log2(3)
        path = tmp_path / "t4.csv"
        code = main(["table4", "--terms", "20", "--out", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: d = 3: the 20-term series surrogate does not cross log2(3)")
        assert "lambda in [0, 1]" in err
        assert err.count("\n") == 1
        assert not path.exists()


    @pytest.mark.parametrize(
        "terms,message",
        [
            (5, "d = 4: the 5-term series surrogate does not cross log2(4) = 2"),
            (8, "d = 6: the 8-term series surrogate does not cross log2(6) = 2.5849625"),
        ],
    )
    def test_table4_names_the_first_case_in_table_order(self, terms, message, tmp_path, capsys):
        # the dims are bisected side by side; the message still names the
        # first d without a crossing, as a loop over d would
        path = tmp_path / "t4.csv"
        code = main(["table4", "--terms", str(terms), "--out", str(path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: {message} for lambda in [0, 1]\n"
        assert not path.exists()


class TestSwapScanCommand:
    def test_global_depolarizing_success_region(self, tmp_path, capsys):
        path = tmp_path / "scan.csv"
        code = main(
            ["swap-scan", "--family", "global-depolarizing", "--resolution", "7", "--out", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("p1,theta1,theta2,S_ab,S_bc")
        assert len(lines) == 1 + 7**3
        assert "success points" in out
        # the default operating point admits retrievals even on this grid
        assert sum(line.endswith(",true") for line in lines[1:]) > 0

    def test_amplitude_damping_success_region(self, tmp_path, capsys):
        path = tmp_path / "scan.csv"
        code = main(
            ["swap-scan", "--family", "amplitude-damping", "--resolution", "5", "--out", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("p1,p2,p3,S_ab,S_bc")
        assert sum(line.endswith(",true") for line in lines[1:]) > 0

    def test_phase_damping_refused(self, capsys):
        code = main(["swap-scan", "--family", "phase-damping", "--out", "unused.csv"])
        err = capsys.readouterr().err
        assert code == 2
        assert "retrieve" in err

    def test_reproducible_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            main(["swap-scan", "--family", "amplitude-damping", "--resolution", "4", "--out", str(path)])
            capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("family", ["global-depolarizing", "amplitude-damping"])
    def test_eigensolver_calls_do_not_grow_with_resolution(self, family, monkeypatch, tmp_path, capsys):
        # the inputs and the conditional states are solved as whole stacks
        calls = []
        solve = linalg.eigvals_hermitian

        def counted(m):
            calls.append(m.shape)
            return solve(m)

        for module in (states, entropy, classify, swap):
            monkeypatch.setattr(module, "eigvals_hermitian", counted)
        counts = []
        for r in ("2", "5"):
            calls.clear()
            code = main(["swap-scan", "--family", family, "--resolution", r, "--out", str(tmp_path / "s.csv")])
            assert code == 0
            counts.append(len(calls))
        capsys.readouterr()
        assert counts[0] == counts[1] > 0


class TestBadArguments:
    # each is an argparse usage error: exit 2, nothing written
    @pytest.mark.parametrize(
        "argv",
        [
            ["table4", "--terms", "0"],
            ["table2", "--points", "1"],
            ["table2", "--points", "many"],
            ["swap-scan", "--family", "amplitude-damping", "--resolution", "0"],
            ["swap-scan", "--family", "global-depolarizing", "--p2", "nan"],
            # the Bloch-vector marginal test takes no Renyi order
            ["classify", "--state", "ghzw:p=0.5", "--marginal", "12", "--alpha", "1"],
        ],
    )
    def test_usage_error(self, argv, tmp_path, capsys):
        path = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--csv" if argv[0] == "classify" else "--out", str(path)])
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err
        assert not path.exists()

    def test_resolution_one_accepted(self, tmp_path, capsys):
        path = tmp_path / "scan.csv"
        code = main(["swap-scan", "--family", "global-depolarizing", "--resolution", "1", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        assert len(path.read_text().splitlines()) == 2


class TestParser:
    def test_one_parser_for_every_invocation(self, monkeypatch, tmp_path, capsys):
        # main parses every command line with the parser built at import;
        # one invocation after another, usage errors included, each runs
        # as it does under a freshly built parser
        out = str(tmp_path / "out.csv")
        argvs = [
            ["classify", "--state", "bell:index=0", "--alpha", "0.5,3", "--csv", out],
            ["table3", "--out", out],
            ["table4", "--terms", "0", "--out", out],
            ["swap-scan", "--family", "amplitude-damping", "--resolution", "2", "--out", out],
            ["classify", "--state", "ghzw:p=0.5", "--marginal", "13"],
            ["table2", "--points", "2", "--out", out],
            ["swap-scan", "--family", "global-depolarizing", "--resolution", "2", "--p2", "-1e-3", "--out", out],
            ["classify", "--state", "iso:d=3,beta=0.5", "--channel", "global-depolarizing:p=0.3"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # an argparse usage error
                code = exc.code
            written = tmp_path.joinpath("out.csv")
            data = written.read_bytes() if written.exists() else None
            written.unlink(missing_ok=True)
            return code, capsys.readouterr(), data

        module_parser = cli.PARSER
        for argv in argvs:
            ran = run(argv)
            with monkeypatch.context() as patched:
                patched.setattr(cli, "PARSER", cli.build_parser())
                assert run(argv) == ran, argv
            assert cli.PARSER is module_parser


class TestTableRowHelpers:
    def test_table3_matches_known_boundaries(self):
        rows = table3_rows()
        assert [r["d"] for r in rows] == [2, 3, 4, 5]
        for r in rows:
            assert r["delta"] < 1e-4

    def test_table4_beta_columns(self):
        rows = table4_rows()
        assert rows[0]["beta_lo"] == pytest.approx(-0.125)
        assert all(r["beta_hi"] == 1.0 for r in rows)

    def test_table2_builds_each_distinct_state_once(self, monkeypatch):
        # every call of the witness, on the grids of all five (channel,
        # sides) scans or on one bisection step of all their brackets, is
        # solved as one stack holding exactly the (scan, p) states not
        # solved before; criterion 2k is AC and 2k + 1 is AF on scan k
        calls, solved = [], []
        intervals = sweep.intervals
        solve = cli.eigvals_hermitian

        def traced(f, *args, **kwargs):
            def witness(which, ps):
                calls.append(list(zip((which // 2).tolist(), ps.tolist())))
                return f(which, ps)

            return intervals(witness, *args, **kwargs)

        def counted(m):
            solved.append(m.shape[0])
            return solve(m)

        monkeypatch.setattr(sweep, "intervals", traced)
        monkeypatch.setattr(cli, "eigvals_hermitian", counted)
        table2_rows(points=7)
        # the grid, then each step of the brackets, 1/6 wide: 9 steps, at
        # most the ITP bound of one more than bisection would take
        assert len(calls) == len(solved) == 1 + 9
        assert 9 <= math.ceil(math.log2((1 / 6) / BISECTION_TOL)) + 1
        seen = set()
        for keys, count in zip(calls, solved):
            new = set(keys) - seen
            assert count == len(new)
            seen |= new
        # the AC and AF scans share the grid states
        grid = list(np.linspace(0.0, 1.0, 7))
        assert calls[0] == [(c // 2, p) for c in range(10) for p in grid]
        assert solved[0] == 5 * 7

    def test_table2_one_transfer_call_per_step(self, monkeypatch):
        # each witness call builds the Kraus sets of its channels, zero-padded
        # to four operators, and makes one _transfer call on them, bitwise the
        # per-channel transfer_stack tensors one after the other
        kraus_stack, transfer = channels._kraus_stack, channels._transfer
        groups, calls = [], []

        def traced_kraus(name, ps):
            groups.append((name, list(ps)))
            return kraus_stack(name, ps)

        def traced_transfer(kraus):
            s = transfer(kraus)
            calls.append((list(groups), kraus.shape, s))
            groups.clear()
            return s

        monkeypatch.setattr(channels, "_kraus_stack", traced_kraus)
        monkeypatch.setattr(channels, "_transfer", traced_transfer)
        table2_rows(points=7)
        monkeypatch.undo()
        # the identity map of the one-sided scan, then one call per witness
        # call: the grid and 9 steps
        assert calls[0][0] == [("depolarizing", [0.0])]
        assert len(calls) == 1 + 10
        assert {name for group, _, _ in calls[1:] for name, _ in group} == set(cli.TABLE2_CHANNELS)
        for group, shape, s in calls[1:]:
            assert shape == (sum(len(ps) for _, ps in group), 4, 2, 2)
            assert bits(s) == bits(np.concatenate([channels.transfer_stack(name, ps) for name, ps in group]))

    @staticmethod
    def _per_d_boundaries(beta, dims, functional):
        """Each d found alone by find_boundary, as the tables did before
        their dims were found side by side."""
        found = []
        for d in dims:
            eigs = states.isotropic_spectrum(d, beta)

            def witness(lam, eigs=eigs):
                return functional(channels.global_depolarize_spectrum(eigs, lam))

            found.append(sweep.find_boundary(witness, (0.0, 1.0), math.log2(d)))
        return found

    @pytest.mark.parametrize(
        "rows,beta,functional",
        [
            (table3_rows, 0.8, entropy.spectrum_entropy),
            (table4_rows, 1.0, lambda e: entropy.spectrum_series_flat(e, 10)),
            (lambda: table4_rows(terms=12), 1.0, lambda e: entropy.spectrum_series_flat(e, 12)),
        ],
        ids=["table3", "table4", "table4-terms12"],
    )
    def test_isotropic_tables_equal_per_d_bisection(self, rows, beta, functional):
        result = rows()
        reference = self._per_d_boundaries(beta, [r["d"] for r in result], functional)
        assert bits([r["lambda_lo"] for r in result]) == bits(reference)

    @pytest.mark.parametrize(
        "rows,name,dims,steps",
        [
            (table3_rows, "spectrum_entropy", cli.TABLE3_REFERENCE, 9),
            (table4_rows, "spectrum_series_flat", cli.TABLE4_REFERENCE, 12),
        ],
        ids=["table3", "table4"],
    )
    def test_isotropic_tables_one_witness_call_per_step(self, rows, name, dims, steps, monkeypatch):
        # one call on the 2k ends, then one per step on the points of the
        # brackets still open, each a stack zero-padded to the largest d^2;
        # a bracket of [0, 1] takes at most the ITP bound of steps, one more
        # than bisection would take
        shapes = []
        functional = getattr(entropy, name)

        def counted(stack, *args):
            shapes.append(stack.shape)
            return functional(stack, *args)

        monkeypatch.setattr(entropy, name, counted)
        rows()
        k, width = len(dims), max(d * d for d in dims)
        assert shapes[0] == (2 * k, width)
        open_brackets = [n for n, w in shapes[1:] if w == width]
        assert len(open_brackets) == len(shapes) - 1 == steps
        assert steps <= math.ceil(math.log2(1.0 / BISECTION_TOL)) + 1
        assert open_brackets[0] == k
        assert open_brackets == sorted(open_brackets, reverse=True)

    @pytest.mark.parametrize("rows", [table3_rows, table4_rows])
    def test_isotropic_tables_solve_no_matrix(self, rows, monkeypatch):
        shapes = []

        def counting(module, name):
            solve = getattr(module, name)

            def counted(m):
                shapes.append(m.shape)
                return solve(m)

            monkeypatch.setattr(module, name, counted)

        for module in (cli, entropy):
            counting(module, "eigvals_hermitian")
        rows()
        assert shapes == []
