import contextlib
import copy
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wachkit import cli, cyclo, errors, serialize, wach
from wachkit.cli import main
from wachkit.cyclo import get_context
from wachkit.flmod import make_fl
from wachkit.serialize import (
    dumps_canonical,
    fl_from_dict,
    fl_to_dict,
    wach_from_dict,
    wach_to_dict,
    _matrix_to_json,
)
from wachkit.errors import NoConvergence, SchemaError, WachkitError
from wachkit.series import SeriesMat
from wachkit.suite import random_unit_matrix
from wachkit.wach import WachModule, tensor_wach


FL_SIMPLE = {"kind": "fl", "p": 3, "N": 4, "weights": [0, 1], "A": [["1", "0"], ["0", "1"]]}
# C = A*diag(q^r) = diag(1, 3 + pi0): already normal, P = Id
PERTURBED_SIMPLE = {"kind": "perturbed", "fl": FL_SIMPLE, "C": [[["1"], ["0"]], [["0"], ["3", "1"]]]}


# every command that reads a file; roundtrip reads one with -i
FILE_COMMANDS = ["build", "verify", "reduce", "tensor", "normalize", "roundtrip"]


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps_canonical(payload), encoding="utf-8")
    return str(path)


def build_p5(tmp_path_factory, weights):
    """A genuine build artifact for p = 5, the given weights and A = Id."""
    tmp = tmp_path_factory.mktemp("wach_p5")
    src = write(tmp, "m.json", {**FL_SIMPLE, "p": 5, "N": 16, "weights": weights})
    out = tmp / "w.json"
    assert main(["build", "-i", src, "--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def wach_p5(tmp_path_factory):
    return build_p5(tmp_path_factory, [0, 1])


@pytest.fixture(scope="module")
def wach_p5_weights_00(tmp_path_factory):
    return build_p5(tmp_path_factory, [0, 0])


def replaced(data, path, value):
    """A deep copy of data with the item at the key path replaced by value."""
    data = copy.deepcopy(data)
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    return data


def truncated(data):
    """data with every C and G series cut to its constant term, M_pi0 kept."""
    data = copy.deepcopy(data)
    for name in ("C", "G"):
        data[name] = [[s[:1] for s in row] for row in data[name]]
    return data


class TestParse:
    def test_simple_fl(self):
        m = fl_from_dict(FL_SIMPLE)
        assert m.weights == (0, 1) and m.rank == 2

    def test_missing_field(self):
        bad = {k: v for k, v in FL_SIMPLE.items() if k != "weights"}
        with pytest.raises(SchemaError):
            fl_from_dict(bad)

    def test_decimal_strings_reduced(self):
        data = dict(FL_SIMPLE)
        data["A"] = [["82", "0"], ["0", "1"]]  # 82 = 1 mod 81
        m = fl_from_dict(data)
        assert m.A.at(0, 0) == 1

    def test_fl_roundtrip(self):
        rng = random.Random(0)
        m = make_fl(5, 6, (0, 2, 3), random_unit_matrix(rng, 3, 5, 6))
        assert fl_from_dict(fl_to_dict(m)) == m

    def test_labels_follow_their_weights(self):
        data = {**FL_SIMPLE, "p": 5, "weights": [2, 0], "A": [["1", "2"], ["3", "4"]], "labels": ["x", "y"]}
        out = fl_to_dict(fl_from_dict(data))
        assert out["weights"] == [0, 2]
        assert dict(zip(out["labels"], out["weights"])) == {"x": 2, "y": 0}

    def test_wach_roundtrip(self, ctx3):
        from wachkit.flmod import unit_fl
        from wachkit.wach import solve_wach

        w = solve_wach(unit_fl(3, 16, 1, 2), ctx3)
        again = wach_from_dict(wach_to_dict(w))
        assert again.C == w.C and again.G == w.G
        assert again.weights == w.weights


class TestCommands:
    def test_build_verify_reduce(self, tmp_path):
        src = write(tmp_path, "m.json", FL_SIMPLE)
        out = str(tmp_path / "w.json")
        assert main(["build", "-i", src, "--out", out]) == 0
        data = json.loads(Path(out).read_text(encoding="utf-8"))
        assert data["kind"] == "wach"
        assert data["meta"]["weights"] == [0, 1]
        rep = str(tmp_path / "rep.json")
        assert main(["verify", "-i", out, "--out", rep]) == 0
        report = json.loads(Path(rep).read_text(encoding="utf-8"))
        assert list(report) == ["checks"]
        assert all(c["pass"] for c in report["checks"])
        red = str(tmp_path / "red.json")
        assert main(["reduce", "-i", src, "--out", red]) == 0
        rdata = json.loads(Path(red).read_text(encoding="utf-8"))
        assert rdata["fil_ranks"] == [2, 1, 0]

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_negative_chi_gamma_builds_and_verifies(self, tmp_path, p):
        # --chi-gamma 1-p is a topological generator; build exited 2
        src = write(tmp_path, "m.json", {**FL_SIMPLE, "p": p, "N": 6})
        out = str(tmp_path / "w.json")
        assert main(["build", "-i", src, "--out", out, "--chi-gamma", str(1 - p)]) == 0
        assert json.loads(Path(out).read_text(encoding="utf-8"))["chi_gamma"] == str(1 - p)
        assert main(["verify", "-i", out, "--out", str(tmp_path / "rep.json")]) == 0

    def test_build_rank_one_trivial(self, tmp_path, capsys):
        src = write(
            tmp_path,
            "m.json",
            {"kind": "fl", "p": 3, "N": 4, "weights": [0], "A": [["1"]]},
        )
        assert main(["build", "-i", src]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["C"] == [[["1"] + ["0"] * 3]]
        assert data["G"] == [[["1"] + ["0"] * 3]]

    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["build", "-i", str(bad)]) == 1
        missing = write(tmp_path, "missing.json", {"kind": "fl", "p": 5, "N": 4})
        assert main(["build", "-i", missing]) == 1

    def test_validation_exit(self, tmp_path):
        src = write(
            tmp_path,
            "m.json",
            {"kind": "fl", "p": 5, "N": 4, "weights": [0, 4], "A": [["1", "0"], ["0", "1"]]},
        )
        assert main(["build", "-i", src]) == 2

    @pytest.mark.parametrize("command", ["build", "reduce", "normalize", "roundtrip"])
    def test_invalid_module_lists_every_failure(self, tmp_path, capsys, command):
        # a weight above p-2 and a singular A: each command reports both,
        # in validate_fl's order, the singular A found by its one inversion
        fl = {"kind": "fl", "p": 5, "N": 4, "weights": [0, 4], "A": [["1", "0"], ["0", "5"]]}
        failures = "max weight 4 exceeds p-2 = 3; A is singular mod p"
        if command == "normalize":
            fl = {"kind": "perturbed", "fl": fl, "C": [[["1"], ["0"]], [["0"], ["5"]]]}
        src = write(tmp_path, "m.json", fl)
        code = main([command, "-i", src])
        out, err = capsys.readouterr()
        if command == "roundtrip":
            assert (code, err) == (4, "")
            detail = {"detail": f"validate:FAIL {failures}", "name": "module_0_p5_d2", "pass": False}
            assert json.loads(out)["checks"] == [detail]
        else:
            assert (code, out, err) == (2, "", f"error: {failures}\n")

    def test_roundtrip_needs_an_input(self, capsys):
        assert main(["roundtrip"]) == 1
        assert capsys.readouterr().err == "error: roundtrip needs -i FILE or --generate\n"

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("N, M", [(16, 16), (4, 9)])
    def test_chi_gamma_artifacts_satisfy_the_cocycle(self, tmp_path, p, N, M):
        # gamma^a acts by G * gamma(G) * ... * gamma^(a-1)(G), so build at
        # --chi-gamma (1+p)^a (p not dividing a) must write that matrix, and
        # at (1+p)^(-1) mod p^60 a G_inv with G_inv * gamma^(-1)(G) = Id,
        # with == on the files read back; one moved coefficient of G breaks
        # both identities
        m = make_fl(p, 16, (0, p - 2), random_unit_matrix(random.Random(p * N), 2, p, 16))
        src = write(tmp_path, "m.json", fl_to_dict(m))

        def build(*chi):
            out = tmp_path / "w.json"
            flags = ["--prec-p", str(N), "--prec-pi0", str(M), *chi]
            assert main(["build", "-i", src, "--out", str(out), *flags]) == 0
            return wach_from_dict(json.loads(out.read_text(encoding="utf-8")))

        def cocycle(G, gamma, a):
            product, image = G, G
            for _ in range(a - 1):
                image = image.substitute(gamma, M)
                product = product @ image
            return product

        w = build()
        rows = [[list(e) for e in row] for row in w.G.rows]
        rows[0][1][1] = (rows[0][1][1] + 1) % p**N
        moved = SeriesMat._trusted(p, N, rows)
        for a in (2, 3):
            if a % p:
                G_a = build("--chi-gamma", str((1 + p) ** a)).G
                assert G_a == cocycle(w.G, w.ctx.gamma_sub, a), a
                assert G_a != cocycle(moved, w.ctx.gamma_sub, a), a
        inverse = build("--chi-gamma", str(pow(1 + p, -1, p**60)))
        identity = SeriesMat.identity(2, p, N, M)
        assert inverse.G @ w.G.substitute(inverse.ctx.gamma_sub, M) == identity
        assert inverse.G @ moved.substitute(inverse.ctx.gamma_sub, M) != identity

    def test_tampered_verify_exit(self, tmp_path):
        src = write(tmp_path, "m.json", FL_SIMPLE)
        out = str(tmp_path / "w.json")
        main(["build", "-i", src, "--out", out])
        data = json.loads(Path(out).read_text(encoding="utf-8"))
        g = data["G"][1][1]
        g[1] = str((int(g[1]) + 1) % 3**4)
        bad = write(tmp_path, "tampered.json", data)
        rep = str(tmp_path / "rep.json")
        assert main(["verify", "-i", bad, "--out", rep]) == 4
        checks = json.loads(Path(rep).read_text(encoding="utf-8"))["checks"]
        failed = [c["name"] for c in checks if not c["pass"]]
        assert failed == ["gamma_fixed_point"]

    def test_tensor_of_valid_modules_verifies(self, tmp_path):
        # weights (0, 1, 2) twice: the product has sum of weights 18 > M_pi0 = 16
        rng = random.Random(3)
        files = []
        for name in ("a", "b"):
            m = make_fl(7, 16, (0, 1, 2), random_unit_matrix(rng, 3, 7, 16))
            out = str(tmp_path / f"{name}.wach.json")
            assert main(["build", "-i", write(tmp_path, f"{name}.json", fl_to_dict(m)), "--out", out]) == 0
            files.append(out)
        product = str(tmp_path / "ab.json")
        assert main(["tensor", *files, "--out", product]) == 0
        assert main(["verify", "-i", product, "--out", str(tmp_path / "rep.json")]) == 0

    def test_forged_weights_with_the_same_sum_fail_verify(self, tmp_path_factory, tmp_path):
        bad = write(tmp_path, "forged.json", replaced(build_p5(tmp_path_factory, [0, 2]), ("meta", "weights"), [1, 1]))
        rep = str(tmp_path / "rep.json")
        assert main(["verify", "-i", bad, "--out", rep]) == 4
        checks = json.loads(Path(rep).read_text(encoding="utf-8"))["checks"]
        assert [c["name"] for c in checks if not c["pass"]] == ["phi_canonical", "gamma_fixed_point"]

    def test_reduce_wach_input(self, tmp_path):
        src = write(tmp_path, "m.json", FL_SIMPLE)
        wout = str(tmp_path / "w.json")
        main(["build", "-i", src, "--out", wout])
        red = str(tmp_path / "red.json")
        assert main(["reduce", "-i", wout, "--h-max", "1", "--out", red]) == 0
        data = json.loads(Path(red).read_text(encoding="utf-8"))
        assert data["fil_ranks"] == [2, 1, 0] and data["weights"] == [0, 1]

    @pytest.mark.parametrize("flag", ["--prec-p", "--prec-pi0", "--chi-gamma"])
    def test_solve_flags_on_a_wach_input_are_validation_errors(self, tmp_path, capsys, flag):
        # a solved input has nothing for these flags to act on; they used to
        # be ignored
        src = write(tmp_path, "m.json", FL_SIMPLE)
        wout = str(tmp_path / "w.json")
        assert main(["build", "-i", src, "--out", wout]) == 0
        capsys.readouterr()
        assert main(["reduce", "-i", wout, flag, "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and err.count("\n") == 1

    def test_normalize_wrong_shape_is_a_validation_error(self, tmp_path, capsys):
        # a 1x1 C for a rank-2 module used to end in an IndexError traceback
        src = write(tmp_path, "pert.json", PERTURBED_SIMPLE | {"C": [[["1"]]]})
        assert main(["normalize", "-i", src]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1 and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["build", "verify", "reduce", "tensor", "normalize"])
    def test_non_object_file_is_a_parse_error(self, tmp_path, capsys, command):
        # reduce and tensor read the kind of a top-level [1] with .get, which
        # ended in an AttributeError traceback
        src = write(tmp_path, "top.json", [1])
        argv = [command, src, src] if command == "tensor" else [command, "-i", src]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "top level" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command, kind", [("verify", "fl"), ("normalize", "wach"), ("build", None)])
    def test_wrong_kind_or_missing_file_is_a_parse_error(self, wach_p5, tmp_path, capsys, command, kind):
        # each loader names the kind it expects, and a missing file is named
        inputs = {"fl": FL_SIMPLE, "wach": wach_p5}
        src = write(tmp_path, "in.json", inputs[kind]) if kind else str(tmp_path / "absent.json")
        assert main([command, "-i", src]) == 1
        err = capsys.readouterr().err
        expect = "no such file" if kind is None else "kind must be"
        assert err.startswith("error: ") and expect in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    @pytest.mark.parametrize("case", ["directory", "latin-1"])
    def test_unreadable_input_is_a_parse_error(self, tmp_path, capsys, command, case):
        # a directory and a file that is not UTF-8 ended in IsADirectoryError
        # and UnicodeDecodeError tracebacks
        if case == "directory":
            src = str(tmp_path)
        else:
            src = str(tmp_path / "latin.json")
            Path(src).write_bytes('{"kind": "fl", "label": "\u00e9"}'.encode("latin-1"))
        argv = [command, src, src] if command == "tensor" else [command, "-i", src]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", FILE_COMMANDS)
    @pytest.mark.parametrize("case", ["missing directory", "directory"])
    def test_unwritable_out_is_a_validation_error(self, wach_p5, tmp_path, capsys, command, case):
        # the output was opened after the solve, and a missing directory or
        # a directory as --out ended in a traceback
        inputs = {"verify": wach_p5, "normalize": PERTURBED_SIMPLE, "tensor": FL_SIMPLE | {"weights": [0, 0]}}
        src = write(tmp_path, "in.json", inputs.get(command, FL_SIMPLE))
        out = str(tmp_path / "absent" / "x.json") if case == "missing directory" else str(tmp_path)
        argv = [command, src, src] if command == "tensor" else [command, "-i", src]
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [("--primes", "x"), ("--primes", ""), ("--primes", "3,9"), ("--primes", "0"),
         ("--max-rank", "0"), ("--count", "-1")],
    )
    def test_bad_suite_arguments_are_validation_errors(self, capsys, flags):
        # --primes x ended in a ValueError traceback from int(), and a prime
        # below 3 or --max-rank 0 in one from random.randint
        assert main(["roundtrip", "--generate", "--count", "1", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "base, tamper",
        [
            ("wach_p5", lambda d: replaced(d, ("C", 0, 0), 7)),
            ("wach_p5", lambda d: replaced(d, ("meta",), 5)),
            ("wach_p5", lambda d: replaced(d, ("meta", "weights"), 3)),
            ("wach_p5_weights_00", truncated),
            ("wach_p5", lambda d: replaced(d, ("C", 0, 0, 0), 1.9)),
            ("wach_p5", lambda d: replaced(d, ("meta", "weights"), [True, 1.5])),
            ("wach_p5", lambda d: replaced(d, ("G",), [d["G"][0][:1]])),
        ],
        ids=[
            "series-as-integer",
            "meta-as-integer",
            "weights-as-integer",
            "truncated-series",
            "float-coefficient",
            "weights-bool-and-float",
            "G-of-another-rank",
        ],
    )
    def test_malformed_wach_is_a_parse_error(self, request, tmp_path, capsys, base, tamper):
        # the first three used to end verify with a TypeError traceback; the
        # truncated series and the float coefficient passed verify, and the
        # weights loaded as (1, 1)
        bad = write(tmp_path, "bad.json", tamper(request.getfixturevalue(base)))
        assert main(["verify", "-i", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("weights", [[-2, -2], [7, 7]])
    def test_weights_outside_the_range_are_a_parse_error(self, wach_p5, tmp_path, capsys, weights):
        # p = 5 allows weights in [0, 3]; [-2, -2] used to exit 2 with an
        # internal "division exponent out of range", [7, 7] exit 4 at det_q_height
        bad = write(tmp_path, "bad.json", replaced(wach_p5, ("meta", "weights"), weights))
        for argv in (["verify", "-i", bad], ["reduce", "-i", bad]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "[0, p-2]" in err and err.count("\n") == 1

    @pytest.mark.parametrize("p", [4, 9])
    def test_composite_prime_is_a_validation_error(self, tmp_path, capsys, p):
        # a composite p used to die in the bootstrap with a ValueError traceback
        src = write(tmp_path, "m.json", {**FL_SIMPLE, "p": p})
        assert main(["build", "-i", src]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["tensor", "a.json", "b.json", "--chi-gamma", "99"],
            ["tensor", "a.json", "b.json", "--max-iter", "0"],
            ["verify", "-i", "w.json", "--prec-p", "1"],
            ["verify", "-i", "w.json", "--seed", "1"],
            ["roundtrip", "--generate", "--prec-p", "1"],
            ["roundtrip", "--generate", "--max-iter", "0"],
            ["build", "-i", "m.json", "--seed", "1"],
            ["normalize", "-i", "p.json", "--seed", "1"],
            ["build", "-i", "m.json", "--max-iter", "5"],
            ["reduce", "-i", "m.json", "--max-iter", "5"],
            ["normalize", "-i", "p.json", "--max-iter", "5"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_unread_flag_is_a_usage_error(self, capsys, argv):
        # the subcommand reads none of these flags: most used to be accepted
        # and ignored, and --max-iter is gone, as a solve stops within its
        # proved bound
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_profile_override_validated_before_compute(self, tmp_path):
        src = write(tmp_path, "m.json", FL_SIMPLE)
        # M_pi0 < N violates the profile invariant; must fail as validation
        assert main(["build", "-i", src, "--prec-pi0", "2"]) == 2

    @pytest.mark.parametrize(
        "command, flags",
        [
            (command, flags)
            for command in ("build", "reduce", "normalize")
            for flags in ("--prec-p 0", "--prec-p -1", "--prec-pi0 0")
        ]
        + [("roundtrip", "--prec-pi0 0"), ("roundtrip", "--prec-pi0 -1")],
    )
    def test_zero_and_negative_budgets_are_validation_errors(self, tmp_path, capsys, command, flags):
        # the flags were read by truthiness: a 0 was ignored and the artifact
        # written at the input's precision
        src = write(tmp_path, "m.json", PERTURBED_SIMPLE if command == "normalize" else FL_SIMPLE)
        assert main([command, "-i", src, *flags.split()]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["build", "reduce", "normalize"])
    def test_solve_past_its_bound_is_a_convergence_failure(self, tmp_path, capsys, monkeypatch, command):
        # a solve that does not stop within its proved bound is a fault of
        # wachkit: main reports it as exit 3 with one line, not a traceback
        def stuck(step, X, budget):
            raise NoConvergence(f"no stabilization within {budget} iterations")

        monkeypatch.setattr(wach, "iterate_to_window", stuck)
        src = write(tmp_path, "m.json", PERTURBED_SIMPLE if command == "normalize" else FL_SIMPLE)
        assert main([command, "-i", src]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: no stabilization within 7 iterations") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [-1, 16 + 16])
    def test_iterations_used_beyond_the_proved_bound_is_a_parse_error(self, wach_p5, tmp_path, capsys, value):
        # a solve stops within N + M_pi0 - 1 = 31 steps; -7 and 10**30 used
        # to pass verify, and tensor wrote them into its output
        bad = write(tmp_path, "bad.json", replaced(wach_p5, ("meta", "iterations_used"), value))
        for argv in (["verify", "-i", bad], ["tensor", bad, bad]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "iterations_used" in err and err.count("\n") == 1
        for edge in (0, 16 + 16 - 1):
            ok = write(tmp_path, "ok.json", replaced(wach_p5, ("meta", "iterations_used"), edge))
            assert main(["verify", "-i", ok]) == 0

    def test_prec_p_above_input_is_a_validation_error(self, tmp_path, capsys):
        # A is known mod 3^4 only: an N = 16 artifact would claim precision
        # the input does not carry
        src = write(tmp_path, "m.json", FL_SIMPLE)
        for cmd in ("build", "reduce"):
            assert main([cmd, "-i", src, "--prec-p", "16"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "--prec-p 16" in err

    def test_prec_p_below_input_lowers_precision(self, tmp_path, capsys):
        src = write(tmp_path, "m.json", FL_SIMPLE)
        assert main(["build", "-i", src]) == 0
        full = json.loads(capsys.readouterr().out)
        assert main(["build", "-i", src, "--prec-p", "2"]) == 0
        low = json.loads(capsys.readouterr().out)
        assert low["N"] == 2
        # the N = 2 artifact is the N = 4 one reduced mod 3^2 on its window
        for name in ("C", "G"):
            for row_low, row_full in zip(low[name], full[name]):
                for e_low, e_full in zip(row_low, row_full):
                    assert [int(c) for c in e_low] == [int(c) % 9 for c in e_full[: len(e_low)]]

    @pytest.mark.parametrize("command", ["build", "reduce", "normalize"])
    def test_prec_p_reads_the_input_at_the_lowered_precision(self, tmp_path, capsys, command):
        # --prec-p 2 gives what the same file written at N = 2 gives; reduce
        # used to solve the N = 4 module over an N = 2 context and exit 2
        if command == "normalize":
            data, at_2 = PERTURBED_SIMPLE, {**PERTURBED_SIMPLE, "fl": {**FL_SIMPLE, "N": 2}}
        else:
            data, at_2 = FL_SIMPLE, {**FL_SIMPLE, "N": 2}
        src, src_2 = write(tmp_path, "m.json", data), write(tmp_path, "m2.json", at_2)
        assert main([command, "-i", src, "--prec-p", "2"]) == 0
        lowered = capsys.readouterr().out
        assert main([command, "-i", src_2]) == 0
        assert lowered == capsys.readouterr().out
        if command == "reduce":
            # and it is the reduction of the artifact that build --prec-p 2 writes
            artifact = str(tmp_path / "w.json")
            assert main(["build", "-i", src, "--prec-p", "2", "--out", artifact]) == 0
            assert main(["reduce", "-i", artifact]) == 0
            assert lowered == capsys.readouterr().out

    @pytest.mark.parametrize("prec_p", [[], ["--prec-p", "2"], ["--prec-p", "4"]], ids=["N", "prec-p-2", "prec-p-4"])
    @pytest.mark.parametrize("command", ["build", "reduce", "normalize"])
    def test_the_input_is_parsed_once(self, tmp_path, monkeypatch, command, prec_p):
        # a lowered precision reduces what was read, it does not read the
        # file again: one FL module parse, and one of a perturbed file's C
        calls = []

        def counted(name, parse):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return parse(*args, **kwargs)

            return wrapper

        fl = counted("fl", serialize.fl_from_dict)
        monkeypatch.setattr(serialize, "fl_from_dict", fl)
        monkeypatch.setattr(cli, "fl_from_dict", fl)
        monkeypatch.setattr(serialize, "_matrix_from_json", counted("C", serialize._matrix_from_json))
        src = write(tmp_path, "m.json", PERTURBED_SIMPLE if command == "normalize" else FL_SIMPLE)
        assert main([command, "-i", src, *prec_p, "--out", str(tmp_path / "out.json")]) == 0
        assert calls == (["fl", "C"] if command == "normalize" else ["fl"])

    @pytest.mark.parametrize("labels", [[], ["x"], ["x", "y", "z"]])
    def test_labels_of_the_wrong_length_are_a_parse_error(self, tmp_path, capsys, labels):
        src = write(tmp_path, "m.json", {**FL_SIMPLE, "labels": labels})
        assert main(["build", "-i", src]) == 1
        assert capsys.readouterr().err.startswith("error: fl.labels: ")

    def test_wach_file_is_checked_before_its_bootstrap(self, tmp_path, capsys):
        # a short file claiming a long series order is refused for its C,
        # and no context is built or kept for the profile it names
        key = (3, 16, 150, 4)
        data = {
            "kind": "wach", "p": 3, "N": 16, "M_pi0": 150, "chi_gamma": "4",
            "C": [[["1"]]], "G": [[["1"]]], "meta": {"weights": [0]},
        }
        src = write(tmp_path, "w.json", data)
        cyclo._CONTEXT_CACHE.pop(key, None)
        assert main(["verify", "-i", src]) == 1
        assert capsys.readouterr().err == "error: wach.C[0][0]: expected 150 coefficients, got 1\n"
        assert key not in cyclo._CONTEXT_CACHE

    def test_tensor_wach(self, wach_p5, tmp_path, capsys):
        # two solved files: the artifact is tensor_wach's, and it verifies
        one = write(tmp_path, "one.json", wach_p5)
        two = str(tmp_path / "two.json")
        fl = write(tmp_path, "m.json", {"kind": "fl", "p": 5, "N": 16, "weights": [2], "A": [["3"]]})
        assert main(["build", "-i", fl, "--out", two]) == 0
        out = str(tmp_path / "t.json")
        assert main(["tensor", one, two, "--out", out]) == 0
        second = json.loads(Path(two).read_text(encoding="utf-8"))
        expect = tensor_wach(wach_from_dict(wach_p5), wach_from_dict(second))
        assert Path(out).read_text(encoding="utf-8") == dumps_canonical(wach_to_dict(expect))
        assert main(["verify", "-i", out]) == 0

    def test_tensor_fl(self, tmp_path):
        a = write(tmp_path, "a.json", {"kind": "fl", "p": 5, "N": 4, "weights": [1], "A": [["2"]]})
        b = write(tmp_path, "b.json", {"kind": "fl", "p": 5, "N": 4, "weights": [2], "A": [["3"]]})
        out = str(tmp_path / "t.json")
        assert main(["tensor", a, b, "--out", out]) == 0
        data = json.loads(Path(out).read_text(encoding="utf-8"))
        assert data["weights"] == [3] and data["A"] == [["6"]]

    def test_normalize_command(self, tmp_path):
        p = 3
        ctx = get_context(p, 4, 6)
        rng = random.Random(5)
        m = make_fl(p, 4, (0, 1), random_unit_matrix(rng, 2, p, 4))
        from test_reduction import planted_perturbation

        C_pert, _, _ = planted_perturbation(ctx, m, seed=2)
        payload = {
            "kind": "perturbed",
            "fl": fl_to_dict(m),
            "C": _matrix_to_json(C_pert),
        }
        src = write(tmp_path, "pert.json", payload)
        out = str(tmp_path / "P.json")
        code = main(["normalize", "-i", src, "--prec-pi0", "6", "--out", out])
        assert code == 0
        data = json.loads(Path(out).read_text(encoding="utf-8"))
        assert data["checks"][0]["pass"]

    def test_normalize_prec_p_lowers_precision(self, tmp_path):
        # the base change at N = 2 is the N = 4 one reduced mod 3^2: P is
        # unique, and the reduction of the finer one solves the coarser equation
        ctx = get_context(3, 4, 6)
        m = make_fl(3, 4, (0, 1), random_unit_matrix(random.Random(8), 2, 3, 4))
        from test_reduction import planted_perturbation

        C_pert, _, _ = planted_perturbation(ctx, m, seed=3)
        src = write(tmp_path, "pert.json", {"kind": "perturbed", "fl": fl_to_dict(m), "C": _matrix_to_json(C_pert)})
        full, low = str(tmp_path / "full.json"), str(tmp_path / "low.json")
        assert main(["normalize", "-i", src, "--prec-pi0", "6", "--out", full]) == 0
        assert main(["normalize", "-i", src, "--prec-pi0", "6", "--prec-p", "2", "--out", low]) == 0
        P_full = json.loads(Path(full).read_text(encoding="utf-8"))["P"]
        P_low = json.loads(Path(low).read_text(encoding="utf-8"))["P"]
        assert any(int(c) >= 9 for row in P_full for e in row for c in e)
        assert P_low == [[[str(int(c) % 9) for c in e] for e in row] for row in P_full]

    def test_roundtrip_generated(self, tmp_path):
        out = str(tmp_path / "rt.json")
        code = main(
            [
                "roundtrip",
                "--generate",
                "--seed",
                "7",
                "--count",
                "4",
                "--primes",
                "3,5",
                "--max-rank",
                "2",
                "--prec-pi0",
                "16",
                "--out",
                out,
            ]
        )
        assert code == 0
        data = json.loads(Path(out).read_text(encoding="utf-8"))
        assert data["seed"] == 7
        assert all(c["pass"] for c in data["checks"])


class TestDeterminism:
    def test_byte_identical_artifacts(self, tmp_path):
        src = write(tmp_path, "m.json", FL_SIMPLE)
        out1, out2 = str(tmp_path / "w1.json"), str(tmp_path / "w2.json")
        main(["build", "-i", src, "--out", out1])
        main(["build", "-i", src, "--out", out2])
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_seeded_roundtrip_identical(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = str(tmp_path / name)
            main(
                ["roundtrip", "--generate", "--seed", "3", "--count", "2",
                 "--primes", "3", "--max-rank", "2", "--out", out]
            )
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=12,
)

# the C, G and meta slots, and positions inside them
WACH_SLOTS = [
    ("C",), ("C", 0), ("C", 0, 0), ("C", 1, 1, 0),
    ("G",), ("G", 1), ("G", 0, 1), ("G", 0, 0, 1),
    ("meta",), ("meta", "weights"), ("meta", "weights", 0), ("meta", "iterations_used"),
]


@given(path=st.sampled_from(WACH_SLOTS), value=JSON_VALUES)
@settings(max_examples=150, deadline=None)
def test_wach_loader_raises_only_wachkit_errors(wach_p5, path, value):
    data = replaced(wach_p5, path, value)
    try:
        w = wach_from_dict(data)
    except WachkitError:
        return
    assert isinstance(w, WachModule)


def _assert_typed_exit(argv):
    """main(argv) exits with a code in 0..4, and a nonzero one prints one error: line.

    The one exception is an exit 4 of verify or roundtrip with nothing on
    stderr: a failed check, reported on stdout.
    """
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    assert code in range(5)
    if code == 4 and not err.getvalue():
        assert argv[0] in ("verify", "roundtrip")
        assert not all(c["pass"] for c in json.loads(out.getvalue())["checks"])
    elif code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def _write_case(tmp_path_factory, name, base, case):
    """base with the slot at case's path replaced by its value; the empty path replaces the file."""
    path, value = case
    src = tmp_path_factory.getbasetemp() / name
    src.write_text(dumps_canonical(replaced(base, path, value) if path else value), encoding="utf-8")
    return str(src)


# the C and fl slots of a perturbed file, and positions inside them
PERTURBED_SLOTS = [
    ("C",), ("C", 0), ("C", 1), ("C", 0, 0), ("C", 1, 1), ("C", 1, 1, 0), ("C", 0, 1, 0),
    ("fl",), ("fl", "kind"), ("fl", "weights"), ("fl", "weights", 0), ("fl", "weights", 1),
    ("fl", "A"), ("fl", "A", 0), ("fl", "A", 1, 1), ("fl", "labels"),
]
# p and N take small values: a large prime is a valid input whose bootstrap
# runs for minutes
SMALL = st.integers(-2, 12) | st.sampled_from([None, True, 2.5, "5", "x", [3], {}])
PERTURBED_CASES = st.tuples(st.sampled_from(PERTURBED_SLOTS), JSON_VALUES) | st.tuples(
    st.sampled_from([("fl", "p"), ("fl", "N")]), SMALL
)
# the slots of an fl file, and the whole file (the empty path)
FL_SLOTS = [("kind",), ("weights",), ("weights", 0), ("weights", 1), ("A",), ("A", 0), ("A", 1, 1), ("labels",)]
FL_CASES = (
    st.tuples(st.sampled_from(FL_SLOTS), JSON_VALUES)
    | st.tuples(st.sampled_from([("p",), ("N",)]), SMALL)
    | st.tuples(st.just(()), JSON_VALUES)
)
WACH_CASES = st.tuples(st.sampled_from(WACH_SLOTS), JSON_VALUES)


@given(case=PERTURBED_CASES)
@example(case=(("C",), [[["1"]]]))
@example(case=(("fl", "labels"), 5))
@settings(max_examples=200, deadline=None)
def test_normalize_exits_with_a_code_on_any_perturbed_file(tmp_path_factory, case):
    src = _write_case(tmp_path_factory, "perturbed.json", PERTURBED_SIMPLE, case)
    _assert_typed_exit(["normalize", "-i", src])


@given(case=st.tuples(st.just("fl"), FL_CASES) | st.tuples(st.just("wach"), WACH_CASES))
@example(case=("fl", ((), [1])))
@example(case=("wach", (("meta", "weights"), [-2, -2])))
@settings(max_examples=150, deadline=None)
def test_reduce_exits_with_a_code_on_any_input(tmp_path_factory, wach_p5, case):
    # a top-level [1] ended in an AttributeError traceback
    kind, slot = case
    src = _write_case(tmp_path_factory, "reduce.json", FL_SIMPLE if kind == "fl" else wach_p5, slot)
    _assert_typed_exit(["reduce", "-i", src])


@given(first=FL_CASES, second=FL_CASES)
@example(first=((), [1]), second=((), [1]))
@settings(max_examples=100, deadline=None)
def test_tensor_exits_with_a_code_on_any_pair_of_files(tmp_path_factory, first, second):
    one = _write_case(tmp_path_factory, "tensor1.json", FL_SIMPLE, first)
    two = _write_case(tmp_path_factory, "tensor2.json", FL_SIMPLE, second)
    _assert_typed_exit(["tensor", one, two])


@given(case=WACH_CASES | st.tuples(st.sampled_from([("p",), ("N",), ("M_pi0",), ("chi_gamma",)]), SMALL))
@example(case=(("chi_gamma",), 11))  # another generator: a failed check, exit 4 with its report
@settings(max_examples=150, deadline=None)
def test_verify_exits_with_a_code_on_any_wach_file(tmp_path_factory, wach_p5, case):
    src = _write_case(tmp_path_factory, "verify.json", wach_p5, case)
    _assert_typed_exit(["verify", "-i", src])


@given(case=FL_CASES)
@settings(max_examples=150, deadline=None)
def test_build_exits_with_a_code_on_any_fl_file(tmp_path_factory, case):
    src = _write_case(tmp_path_factory, "build.json", FL_SIMPLE, case)
    _assert_typed_exit(["build", "-i", src])


@given(case=FL_CASES)
@settings(max_examples=150, deadline=None)
def test_roundtrip_exits_with_a_code_on_any_fl_file(tmp_path_factory, case):
    src = _write_case(tmp_path_factory, "roundtrip.json", FL_SIMPLE, case)
    _assert_typed_exit(["roundtrip", "-i", src])


# README's exit codes: 1 parse/schema error, 2 validation error, 3 convergence
# failure, 4 axiom/check failure; every other library error is a validation error
EXIT_CODES = {
    "SchemaError": 1,
    "NoConvergence": 3,
    **dict.fromkeys(("AxiomViolation", "NotCongruent", "NotDivisible", "PrecisionExhausted"), 4),
    **dict.fromkeys(
        (
            "WachkitError", "ValidationFailed", "WeightOverflow", "InvalidInput", "NotInS0",
            "NonUnit", "SingularModP", "SingularBasis", "ProfileMismatch", "VariableMismatch",
            "NonUnitSeries", "NonzeroConstant", "InsufficientExponentPrecision",
        ),
        2,
    ),
}


def test_every_error_class_has_an_exit_code():
    classes = {n for n, c in vars(errors).items() if isinstance(c, type) and issubclass(c, WachkitError)}
    assert classes == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_an_error_from_a_handler_exits_with_its_code(monkeypatch, capsys, name):
    # main maps the class alone to the code, with one error: line and no
    # traceback, whichever handler raised it
    def handler(args):
        raise getattr(errors, name)(f"planted {name}")

    monkeypatch.setitem(cli._HANDLERS, "verify", handler)
    assert main(["verify", "-i", "unread.json"]) == EXIT_CODES[name]
    assert capsys.readouterr() == ("", f"error: planted {name}\n")
