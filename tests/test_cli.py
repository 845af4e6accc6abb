import csv
import json
import math

import pytest

from meanmotion.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    main,
)
from meanmotion.core import ExpPolynomial
from meanmotion.errors import PolynomialLoadError
from meanmotion.io import (
    parse_polynomial,
    parse_polynomial_file,
    polynomial_to_dict,
    write_polynomial_file,
)


@pytest.fixture
def sin_file(tmp_path, sin_poly):
    path = tmp_path / "sin.json"
    write_polynomial_file(sin_poly, path)
    return str(path)


class TestIo:
    def test_round_trip_bit_equal(self, tmp_path, sin_poly):
        path = tmp_path / "p.json"
        write_polynomial_file(sin_poly, path)
        again = parse_polynomial_file(path)
        assert again == sin_poly
        path2 = tmp_path / "p2.json"
        write_polynomial_file(again, path2)
        assert path.read_text() == path2.read_text()

    def test_round_trip_awkward_exponents(self, tmp_path):
        P = ExpPolynomial.from_pairs(
            3,
            [
                (1.25 - 0.5j, ["-7/3", "0", "22/7"]),
                (2.0j, ["1/2", "-1", "0"]),
            ],
        )
        path = tmp_path / "p.json"
        write_polynomial_file(P, path)
        assert parse_polynomial_file(path) == P

    def test_duplicate_exponents_name_both_terms(self):
        obj = {
            "dimension": 1,
            "terms": [
                {"re": 1, "im": 0, "exponent": ["1"]},
                {"re": 2, "im": 0, "exponent": ["2"]},
                {"re": 3, "im": 0, "exponent": ["1"]},
            ],
        }
        with pytest.raises(PolynomialLoadError, match="terms 0 and 2"):
            parse_polynomial(obj)

    def test_malformed_rational_names_term(self):
        obj = {
            "dimension": 1,
            "terms": [{"re": 1, "im": 0, "exponent": ["1/0"]}],
        }
        with pytest.raises(PolynomialLoadError, match="term 0"):
            parse_polynomial(obj)

    def test_wrong_exponent_length(self):
        obj = {
            "dimension": 2,
            "terms": [{"re": 1, "im": 0, "exponent": ["1"]}],
        }
        with pytest.raises(PolynomialLoadError, match="length 1"):
            parse_polynomial(obj)

    def test_zero_coefficient_rejected(self):
        obj = {
            "dimension": 1,
            "terms": [{"re": 0, "im": 0, "exponent": ["1"]}],
        }
        with pytest.raises(PolynomialLoadError, match="zero coefficient"):
            parse_polynomial(obj)

    def test_dict_form_uses_exact_strings(self, sin_poly):
        d = polynomial_to_dict(sin_poly)
        assert d["terms"][0]["exponent"] == ["1"]
        assert d["terms"][1]["exponent"] == ["-1"]


class TestEval:
    def test_value(self, sin_file, capsys):
        code = main(
            ["eval", "--poly", sin_file, "--z", str(math.pi / 2)]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["re"] == pytest.approx(1.0)
        assert out["im"] == pytest.approx(0.0, abs=1e-12)

    def test_missing_file(self, capsys):
        code = main(["eval", "--poly", "/no/such.json", "--z", "0"])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "PolynomialLoadError"

    @pytest.mark.parametrize("z", ["nan", "inf", "1+nanj", "-infj"])
    def test_non_finite_point(self, sin_file, capsys, z):
        assert main(["eval", "--poly", sin_file, f"--z={z}"]) == EXIT_INPUT_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == "ValueError"

    def test_overflowing_value_is_input_error(self, sin_file, capsys):
        # sin(800i) overflows a double: an error, not {"im": Infinity, ...}
        assert main(["eval", "--poly", sin_file, "--z", "800j"]) == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "DegenerateInputError"
        assert "not finite" in out["message"]

    def test_non_finite_coefficient(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"dimension": 1, "terms": [{"re": NaN, "im": 0, "exponent": ["1"]},'
            ' {"re": 1, "im": 0, "exponent": ["-1"]}]}'
        )
        code = main(["mm", "--poly", str(path), "--torus-samples", "20"])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "PolynomialLoadError"
        assert "term 0" in out["message"]


class TestBasis:
    def test_sin_basis(self, sin_file, capsys):
        assert main(["basis", "--poly", sin_file]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == 1
        assert out["basis"] == [["1"]]
        assert out["coords"] == [[1], [-1]]


class TestZerosAndTrack:
    def test_zeros(self, sin_file, capsys):
        code = main(
            ["zeros", "--poly", sin_file, "--interval=-1,1"]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert len(out["zeros"]) == 1
        assert out["zeros"][0]["location"] == pytest.approx(0.0, abs=1e-8)
        assert out["zeros"][0]["multiplicity"] == 1

    @pytest.mark.parametrize(
        "convention, total",
        [("plus", -math.pi), ("minus", math.pi)],
        ids=["plus", "minus"],
    )
    def test_track_with_csv(self, sin_file, capsys, tmp_path, convention, total):
        trace_path = tmp_path / "trace.csv"
        code = main(
            [
                "track",
                "--poly",
                sin_file,
                "--interval=-0.5,0.5",
                "--convention",
                convention,
                "--trace-csv",
                str(trace_path),
            ]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["convention"] == convention
        assert out["total_increment"] == pytest.approx(total, abs=1e-9)
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["s", "phase_radians"]
        assert len(rows) > 10

    def test_endpoint_zero_is_input_error(self, sin_file, capsys):
        code = main(["zeros", "--poly", sin_file, "--interval", "0,1"])
        assert code == EXIT_INPUT_ERROR
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "EndpointZeroError"


class TestMm:
    def test_sin_report(self, sin_file, capsys):
        code = main(
            [
                "mm",
                "--poly",
                sin_file,
                "--windows",
                "25,50",
                "--lines",
                "32",
                "--torus-samples",
                "400",
            ]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["pass"]
        assert "timestamp" in out
        assert set(out["box"]) == {"plus", "minus"}

    def test_single_convention_filter(self, sin_file, capsys):
        code = main(
            [
                "mm",
                "--poly",
                sin_file,
                "--convention",
                "plus",
                "--windows",
                "25,50",
                "--lines",
                "32",
                "--torus-samples",
                "200",
            ]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert set(out["box"]) == {"plus"}
        assert set(out["diff"]) == {"plus"}

    def test_deterministic_apart_from_timestamp(self, sin_file, capsys):
        argv = [
            "mm",
            "--poly",
            sin_file,
            "--windows",
            "25,50",
            "--lines",
            "32",
            "--torus-samples",
            "200",
            "--seed",
            "5",
        ]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        first.pop("timestamp")
        second.pop("timestamp")
        assert first == second

    def test_bad_y_length(self, sin_file, capsys):
        code = main(["mm", "--poly", sin_file, "--y", "0,0"])
        assert code == EXIT_INPUT_ERROR
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value",
        [("--y", "nan"), ("--y", "inf"), ("--y", "-inf"),
         ("--windows", "25,nan"), ("--windows", "25,inf")],
    )
    def test_non_finite_input(self, sin_file, capsys, flag, value):
        code = main(
            ["mm", "--poly", sin_file, f"{flag}={value}", "--torus-samples", "20"]
        )
        assert code == EXIT_INPUT_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == "ValueError"

    def test_no_torus_samples(self, sin_file, capsys):
        code = main(["mm", "--poly", sin_file, "--windows", "25", "--lines", "16",
                     "--torus-samples", "0"])
        assert code == EXIT_INPUT_ERROR
        assert "samples" in json.loads(capsys.readouterr().out)["message"]


class TestVerify:
    def test_every_case_passes(self, capsys):
        assert main(["verify"]) == EXIT_OK
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == [
            "case", "convention", "box", "torus", "diff", "tolerance", "pass"
        ]
        assert len(rows) == 13
        assert all(row[-1] == "pass" for row in rows[1:])
