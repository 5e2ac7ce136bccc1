"""Exit codes, JSON payloads, and verify-file round trips for the CLI."""

import json
from fractions import Fraction

import pytest

from hassettmax import hassett_rep, local_global
from hassettmax.cli import _digits, _short_int, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# --- hassett ---


def test_hassett_verify_json(capsys):
    code, payload, _ = run_json(capsys, "hassett", "verify", "--max", "60", "--json")
    assert code == 0
    assert payload["verified"] is True
    assert payload["checked"][:3] == ["8", "12", "14"]
    assert "10" not in payload["checked"]


def test_hassett_verify_text(capsys):
    code, out, _ = run(capsys, "hassett", "verify", "--max", "60")
    assert code == 0
    assert out == "primitive image up to 60: 18 values\nverified\n"


def test_hassett_verify_fails_without_containment(capsys, monkeypatch):
    monkeypatch.setattr(hassett_rep, "values_in_hassett", lambda form: False)
    code, out, _ = run(capsys, "hassett", "verify", "--max", "60")
    assert code == 1 and out.endswith("NOT verified\n")
    code, payload, _ = run_json(capsys, "hassett", "verify", "--max", "60", "--json")
    assert code == 1 and payload["verified"] is False


def test_hassett_represent_text(capsys):
    code, out, _ = run(capsys, "hassett", "represent", "14")
    assert code == 0
    assert "v = (1, 1, 1, 1)" in out
    assert "k = 55" in out


def test_hassett_represent_json(capsys):
    code, payload, _ = run_json(capsys, "hassett", "represent", "14", "--json")
    assert code == 0
    assert payload["n"] == "14" and payload["k"] == "55"
    assert payload["valid"] is True
    assert payload["v"] == ["1", "1", "1", "1"]


def test_hassett_represent_rejects_non_members(capsys):
    code, _, err = run(capsys, "hassett", "represent", "10")
    assert code == 1
    assert "4 (mod 6)" in err
    code, _, err = run(capsys, "hassett", "represent", "6")
    assert code == 1
    assert "below the minimum" in err


def test_hassett_represent_needs_an_argument(capsys):
    code, _, err = run(capsys, "hassett", "represent")
    assert code == 2
    assert "need n or --verify-file" in err


def test_hassett_verify_file_round_trip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "hassett", "represent", "78", "--json")
    assert code == 0
    path.write_text(out)
    code, out, _ = run(capsys, "hassett", "represent", "--verify-file", str(path))
    assert code == 0 and "valid" in out

    payload = json.loads(path.read_text())
    payload["v"] = ["0", "0", "0", "2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "hassett", "represent", "--verify-file", str(bad))
    assert code == 1 and "INVALID" in out

    code, _, err = run(capsys, "hassett", "represent", "--verify-file", str(tmp_path / "gone.json"))
    assert code == 1 and "unreadable" in err


@pytest.mark.parametrize("n", ["24", "7986"], ids=["special", "general"])
@pytest.mark.parametrize("key", ["checks", "u"])
def test_hassett_verify_file_needs_every_key(capsys, tmp_path, n, key):
    # a special certificate's checks are null: a missing key is no null
    code, payload, _ = run_json(capsys, "hassett", "represent", n, "--json")
    assert code == 0
    del payload[key]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "hassett", "represent", "--verify-file", str(path))
    assert code == 1 and out == ""
    assert err == f"unreadable certificate: '{key}'\n"


# --- adc ---


def test_adc_check(capsys):
    code, payload, _ = run_json(
        capsys, "adc", "check", "--form", "q3", "--max", "60", "--json"
    )
    assert code == 0
    assert payload == {"form": "Q3", "max": "60", "violations": []}
    code, out, _ = run(capsys, "adc", "check", "--form", "g", "--max", "40")
    assert code == 0
    assert "no ADC violations" in out


def test_scan_bounds_are_refused_before_any_loop(capsys):
    # exit 2 (usage), not 1: adc check uses 1 for "violations found"
    code, _, err = run(capsys, "adc", "check", "--form", "q3", "--max", "3000000000")
    assert code == 2 and "above the limit 10000000" in err
    code, _, err = run(capsys, "hassett", "verify", "--max", "100001")
    assert code == 2 and "above the limit 100000" in err
    code, _, err = run(capsys, "hassett", "represent", "60000000000000002")
    assert code == 2 and "above the limit 10000000000000" in err
    code, _, err = run(capsys, "local", "certify", "--k", "7", "--precision", "100000")
    assert code == 2 and "above the limit 1000" in err
    code, _, err = run(capsys, "adc", "check", "--form", "g", "--max", "many")
    assert code == 2 and "invalid int value" in err


@pytest.mark.parametrize("n_max", ["0", "-5", str(-10**30)])
def test_empty_scan_ranges_are_refused(capsys, n_max):
    # exit 2 (usage), not a vacuous "no violations" or "verified"
    code, out, err = run(capsys, "adc", "check", "--form", "q3", "--max", n_max)
    assert code == 2 and out == "" and f"{n_max} is below the limit 1" in err
    code, out, err = run(capsys, "hassett", "verify", f"--max={n_max}")
    assert code == 2 and out == "" and f"{n_max} is below the limit 1" in err


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_precision_below_one_is_a_usage_error(capsys, precision):
    code, out, err = run(capsys, "local", "certify", "--k", "7", f"--precision={precision}")
    assert code == 2 and out == "" and f"{precision} is below the limit 1" in err


@pytest.mark.parametrize("prime, precision", [
    (10**100 + 267, 1000),
    (10**2150, 2),  # 10**4300, 4301 digits
])
def test_local_certify_refuses_a_witness_too_long_to_print(capsys, monkeypatch, prime, precision):
    monkeypatch.setattr(local_global, "certify_global", None)  # refused before any work
    code, out, err = run(capsys, "local", "certify", "--k", "7", f"--primes=5,{prime}",
                         f"--precision={precision}")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.endswith(f"**{precision} has more than 4300 digits\n")


def test_local_certify_takes_a_witness_of_4300_digits(capsys, monkeypatch):
    # (10**2150 - 1)**2 has 4300 digits: the run goes on to certify_global
    calls, report = [], local_global.certify_global(7)
    monkeypatch.setattr(local_global, "certify_global", lambda *args: calls.append(args) or report)
    code, _, _ = run(capsys, "local", "certify", "--k", "7", f"--primes={10**2150 - 1}",
                     "--precision=2")
    assert code == 0 and calls == [(7, [10**2150 - 1], 2)]


def test_local_certify_prints_a_4201_digit_witness(capsys):
    code, payload, _ = run_json(capsys, "local", "certify", "--k", "7", "--primes", "1000003",
                                "--precision", "700", "--json")
    assert code == 0 and payload["overall"] == "solvable"
    (cert,) = [c for c in payload["certificates"] if c["place"] == "1000003"]
    # 1000003**700 has 4201 digits, under the limit; the witness mod it prints
    assert len(str(1000003**700)) == 4201
    assert 4000 < max(len(x) for x in cert["witness"]) <= 4201


def test_hassett_verify_file_takes_n_above_the_represent_limit(capsys, tmp_path):
    n = 10**13 + 14
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(hassett_rep.certificate_to_dict(hassett_rep.represent(n))))
    code, out, _ = run(capsys, "hassett", "represent", "--verify-file", str(path))
    assert code == 0 and out == f"certificate for n = {n}: valid\n"


def test_adc_descend_text(capsys):
    code, out, _ = run(
        capsys, "adc", "descend", "--form", "g", "--num", "5,9,12", "--den", "10"
    )
    assert code == 0
    assert "terminal (-2, 1, 0)/1" in out


def test_adc_descend_json_and_round_trip(capsys, tmp_path):
    code, payload, _ = run_json(
        capsys,
        "adc", "descend", "--form", "g", "--num", "5,9,12", "--den", "10", "--json",
    )
    assert code == 0
    assert payload["form"] == "G"
    assert [s["kind"] for s in payload["steps"]] == ["secant", "trivial", "divide4"]
    assert payload["terminal"]["t"] == "1"

    path = tmp_path / "trace.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "adc", "descend", "--verify-file", str(path))
    assert code == 0 and "valid" in out

    payload["terminal"]["v"] = ["1", "1", "1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "adc", "descend", "--verify-file", str(bad))
    assert code == 1 and "INVALID" in out


def test_adc_descend_usage_errors(capsys):
    code, _, err = run(capsys, "adc", "descend", "--form", "q3")
    assert code == 2
    assert "need --num and --den" in err
    code, _, _ = run(capsys, "adc", "descend", "--num", "1,1", "--den", "5")
    assert code == 2  # wrong arity


# t = p*q, both primes 1 mod 4, and v = t*(1,0,0) - 2x*(x,y,0) with
# x^2 + y^2 = t: a chord point of Q3 whose denominator Pollard rho must split
_T121 = 1152921504606847009 * 1152956688978935917
_V121 = "306854148502237791751373089302625915,-1293365933430104119616166796754843028,0"
_T80 = 999999999989 * 999998999957
_V80 = "710742528045900768991385,-703450821820489515889248,0"


@pytest.mark.parametrize("num, den, message", [
    ("1,0,0", str(10**24 + 1), f"{10**24 + 1} is above the limit {10**24}"),
    (_V121, str(_T121), f"{_T121} is above the limit"),
    ("1,1,0", "0", "0 is below the limit 1"),
    ("1,1,0", "-5", "-5 is below the limit 1"),
])
def test_adc_descend_bounds_the_denominator(capsys, num, den, message):
    code, out, err = run(capsys, "adc", "descend", f"--num={num}", f"--den={den}")
    assert code == 2 and out == "" and message in err


def test_adc_descend_at_the_denominator_bound(capsys):
    assert _T80 < 10**24
    code, payload, _ = run_json(capsys, "adc", "descend", f"--num={_V80}", f"--den={_T80}",
                                "--json")
    assert code == 0 and payload["terminal"]["t"] == "1"


@pytest.mark.parametrize("num, code", [
    ("9" * 3000 + ",1,1", 2),
    (f"{10**2150},0,0", 2),  # Q(v) = 10**4300, 4301 digits
    (f"{10**2150 - 1},0,0", 0),  # 4300 digits, which the JSON still prints
])
def test_adc_descend_bounds_the_start_value(capsys, num, code):
    got, out, err = run(capsys, "adc", "descend", "--num", num, "--den", "1", "--json")
    assert got == code
    if code:
        assert out == "" and err == "error: Q(v/t) has more than 4300 digits\n"
    else:
        assert json.loads(out)["start"]["m"] == str((10**2150 - 1) ** 2)


def test_adc_descend_rejects_off_form_points(capsys):
    # value 2/25 has odd 5-adic valuation, no integer equivalent exists
    code, _, err = run(capsys, "adc", "descend", "--num", "1,1,0", "--den", "5")
    assert code == 1
    assert "error:" in err


# --- local ---


def test_local_certify_solvable(capsys):
    code, payload, _ = run_json(capsys, "local", "certify", "--k", "7", "--json")
    assert code == 0
    assert payload["overall"] == "solvable"
    assert [c["place"] for c in payload["certificates"]] == ["real", "2", "3", "5", "7"]


def test_local_certify_unsolvable(capsys):
    code, out, _ = run(capsys, "local", "certify", "--k", "5")
    assert code == 1
    assert "overall: unsolvable" in out


def test_local_certify_usage(capsys):
    code, _, err = run(capsys, "local", "certify")
    assert code == 2
    assert "need --k or --verify-file" in err


def test_local_verify_file_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "local", "certify", "--k", "111", "--json")
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, _ = run(capsys, "local", "certify", "--verify-file", str(path))
    assert code == 0 and "valid" in out

    payload = json.loads(path.read_text())
    payload["k"] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "local", "certify", "--verify-file", str(bad))
    assert code == 1 and "INVALID" in out


_DEEP_K = str(2 * 9**1500)


@pytest.mark.parametrize("k, code, overall, shown", [
    ("5", 1, "unsolvable", "5"),  # 5 = 2 mod 3 is not a 3-adic value of G
    (_DEEP_K, 1, "unsolvable", "46216191562238185453... (1432 digits)"),
    ("0", 0, "solvable", "0"),  # G(0, 0, 0) = 0
], ids=["5", "2*9**1500", "0"])
def test_local_verify_file_accepts_every_honest_report(capsys, tmp_path, k, code, overall, shown):
    # certify exits 1 for an unsolvable k; the replay exits 0 when the claims hold
    got, out, _ = run(capsys, "local", "certify", "--k", k, "--json")
    assert got == code and json.loads(out)["overall"] == overall
    assert json.loads(out)["k"] == k  # JSON keeps k whole
    path = tmp_path / "report.json"
    path.write_text(out)
    got, out, _ = run(capsys, "local", "certify", "--verify-file", str(path))
    assert got == 0 and out == f"report for k = {shown}, overall {overall}: valid\n"
    got, out, _ = run(capsys, "local", "certify", "--k", k)
    assert got == code and out.splitlines()[0] == f"k = {shown}"


@pytest.mark.parametrize("n, shown", [
    (10**39, str(10**39)),  # 40 digits: whole
    (-(10**39), str(-(10**39))),
    (10**40, "10000000000000000000... (41 digits)"),
    (-(10**40), "-1000000000000000000... (41 digits)"),
])
def test_short_int_keeps_up_to_40_digits(n, shown):
    assert _short_int(n) == shown


def test_local_verify_file_rejects_forged_and_oversized_reports(capsys, tmp_path):
    code, out, _ = run(capsys, "local", "certify", "--k", "162", "--json")
    assert code == 1
    payload = json.loads(out)
    # G(0, 0, 0) = 162 mod 27, yet G does not represent 162 over Q_3
    for cert in payload["certificates"]:
        if cert["place"] == "3":
            cert["verdict"], cert["witness"] = "solvable", ["0", "0", "0"]
    payload["overall"] = "solvable"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "local", "certify", "--verify-file", str(path))
    assert code == 1 and "INVALID" in out

    code, out, _ = run(capsys, "local", "certify", "--k", "7", "--json")
    payload = json.loads(out)
    for cert in payload["certificates"]:
        cert["precision"] = "100000000"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "local", "certify", "--verify-file", str(path))
    assert code == 1 and "above the limit 1000" in err and "valid" not in out


def test_local_verify_file_holds_the_producers_modulus_limit(capsys, tmp_path):
    # 1000003**700 has 4201 digits: the producer writes it, and it replays
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "local", "certify", "--k", "7", "--primes", "1000003",
                       "--precision", "700", "--json")
    assert code == 0
    path.write_text(out)
    code, out, err = run(capsys, "local", "certify", "--verify-file", str(path))
    assert code == 0 and out == "report for k = 7, overall solvable: valid\n" and err == ""
    # 1000003**1000 has 6001 digits, which the producer refuses; G(2, 1, 0) = 7 holds
    # at every precision, so the claim is true, but the report is unreadable
    assert run(capsys, "local", "certify", "--k", "7", "--primes", "1000003",
               "--precision", "1000")[0] == 2
    _, payload, _ = run_json(capsys, "local", "certify", "--k", "7", "--json")
    payload["certificates"][-1].update(place="1000003", precision="1000",
                                       witness=["2", "1", "0"], verdict="solvable")
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "local", "certify", "--verify-file", str(path))
    assert code == 1 and out == ""
    assert err == "unreadable report: 1000003**1000 has more than 4300 digits\n"
    # nor does the producer write a precision below 1, which is no modulus
    payload["certificates"][-1].update(place="0", precision="-1")
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "local", "certify", "--verify-file", str(path))
    assert code == 1 and out == "" and err == "unreadable report: precision -1 is below the limit 1\n"


@pytest.mark.parametrize("kept", [["real", "2", "5", "7"], []], ids=["no-3", "empty"])
def test_local_verify_file_rejects_a_report_without_its_obstruction(capsys, tmp_path, kept):
    # G fails only at 3 for k = 5; with that place gone every listed one is solvable
    _, out, _ = run(capsys, "local", "certify", "--k", "5", "--json")
    payload = json.loads(out)
    payload["certificates"] = [c for c in payload["certificates"] if c["place"] in kept]
    payload["overall"] = "solvable"
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "local", "certify", "--verify-file", str(path))
    assert code == 1 and out == "report for k = 5, overall solvable: INVALID\n"


@pytest.mark.parametrize("k, flipped", [("7", "unsolvable"), ("5", "solvable")])
def test_local_verify_file_rejects_a_flipped_overall(capsys, tmp_path, k, flipped):
    _, out, _ = run(capsys, "local", "certify", "--k", k, "--json")
    payload = json.loads(out)
    assert payload["overall"] != flipped
    payload["overall"] = flipped
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "local", "certify", "--verify-file", str(path))
    assert code == 1 and out == f"report for k = {k}, overall {flipped}: INVALID\n"


# --- lattice ---


def test_lattice_gram(capsys):
    code, payload, _ = run_json(
        capsys, "lattice", "gram", "--alpha", "0", "--beta", "1", "--json"
    )
    assert code == 0
    assert payload["entries"][2][4] == "0"  # alpha slot
    assert payload["entries"][3][4] == "1"  # beta slot
    assert len(payload["entries"]) == 5
    code, _, _ = run(capsys, "lattice", "gram", "--alpha", "2", "--beta", "0")
    assert code == 2


@pytest.mark.parametrize("alpha, beta", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_lattice_gram_prints_the_papers_matrices(capsys, alpha, beta):
    # built from how the four planes meet; frozen from the paper's template
    entries = [[3, 1, 1, 1, 1], [1, 3, -1, -1, 0], [1, -1, 3, 1, alpha], [1, -1, 1, 3, beta],
               [1, 0, alpha, beta, 3]]
    code, payload, _ = run_json(capsys, "lattice", "gram", f"--alpha={alpha}", f"--beta={beta}",
                                "--json")
    assert code == 0
    assert payload == {"alpha": str(alpha), "beta": str(beta),
                       "entries": [[str(x) for x in row] for row in entries]}


def test_lattice_isometry(capsys):
    code, payload, _ = run_json(
        capsys, "lattice", "isometry", "--from", "0,0", "--to", "1,1", "--json"
    )
    assert code == 0
    assert payload["unimodular"] is True
    assert payload["congruent"] is True
    assert len(payload["matrix"]) == 5


@pytest.mark.parametrize("pair", [("0,2", "1,1"), ("1,1", "3,0"), ("0,1", "1,1,0")])
def test_lattice_isometry_rejects_a_pair_off_0_1_at_parse_time(capsys, pair):
    code, out, err = run(capsys, "lattice", "isometry", "--from", pair[0], "--to", pair[1])
    assert code == 2 and out == ""
    assert "usage:" in err


# --- geometry ---


def test_geometry_dims(capsys):
    code, payload, _ = run_json(
        capsys, "geometry", "dims", "--a", "0", "--b", "1", "--json"
    )
    assert code == 0
    assert payload["alpha"] == "1" and payload["beta"] == "0"
    assert payload["fiber_dim"] == "24"
    assert payload["methods_agree"] is True


def test_geometry_dims_accepts_fractions(capsys):
    code, payload, _ = run_json(
        capsys, "geometry", "dims", "--a", "2/3", "--b=-7/5", "--json"
    )
    assert code == 0
    assert payload["alpha"] == "0" and payload["beta"] == "0"
    code, _, _ = run(capsys, "geometry", "dims", "--a", "1/0")
    assert code == 2
    # exponent notation would stand for a 100001-digit parameter
    code, _, err = run(capsys, "geometry", "dims", "--a", "1e100000")
    assert code == 2 and "invalid" in err


def test_geometry_options_take_any_spelling_of_a_rational(capsys, tmp_path):
    # only payloads are held to str(Fraction)'s spelling; the cubic written
    # for --a=0.5 --b=-2/4 spells them 1/2 and -1/2, and replays
    code, payload, _ = run_json(capsys, "geometry", "cubic", "--a=0.5", "--b=-2/4", "--json")
    assert code == 0 and (payload["a"], payload["b"]) == ("1/2", "-1/2")
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, "geometry", "cubic", "--verify-file", str(path))[0] == 0


def test_geometry_cubic_round_trip(capsys, tmp_path):
    path = tmp_path / "cubic.json"
    code, out, _ = run(
        capsys, "geometry", "cubic", "--seed", "3", "--out", str(path)
    )
    assert code == 0 and "wrote cubic" in out
    code, out, _ = run(capsys, "geometry", "cubic", "--verify-file", str(path))
    assert code == 0 and "valid" in out

    payload = json.loads(path.read_text())
    payload["seed"] = "4"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "geometry", "cubic", "--verify-file", str(bad))
    assert code == 1 and "INVALID" in out


def test_geometry_cubic_out_into_a_missing_directory(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "geometry", "cubic", "--out", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert not path.exists()


@pytest.mark.parametrize("mode", [["--json"], [], ["--out", "x.json"]])
def test_geometry_cubic_refuses_coefficients_too_long_to_print(capsys, tmp_path,
                                                              monkeypatch, mode):
    # the coefficients grow to about twice the parameter's digits
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "geometry", "cubic", f"--a={10**2200 + 7}", "--b=1",
                         "--seed=5", *mode)
    assert code == 1 and out == ""
    assert err == "error: a coefficient has 4401 digits, above the limit 4300\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("a, b, longest", [
    (10**2000 + 7, 1, 4002),
    # numerator and denominator of 1100 digits each
    (Fraction(10**1099 + 7, 10**1099 + 3), Fraction(-(10**1099 + 9), 10**1099 + 3), 4401),
])
def test_geometry_cubic_prints_coefficients_up_to_the_limit(capsys, tmp_path, a, b, longest):
    code, payload, _ = run_json(capsys, "geometry", "cubic", f"--a={a}", f"--b={b}",
                                "--seed=5", "--json")
    assert code == 0 and max(map(len, payload["coeffs"])) == longest
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "geometry", "cubic", "--verify-file", str(path))
    assert code == 0 and out == "cubic: valid\n"


def test_digits_counts_past_the_str_limit():
    for n in (0, 1, 9, 10, 99, 100, 10**4300 - 1, 10**4300, 3**20000):
        digits = _digits(n)
        assert 10 ** (digits - 1) <= max(n, 1) < 10**digits and _digits(-n) == digits


# --- forged --verify-file payloads ---


_DELETED = object()  # as a field's value: the key is removed

# command -> (arguments that produce a payload, fields set to a wrong type,
# each as (path into the payload, value))
REPLAYS = {
    "hassett represent": (["14", "--json"], [(["v"], 5)]),
    "adc descend": (
        ["--form", "g", "--num", "5,9,12", "--den", "10", "--json"],
        [(["steps", 0, "data"], "x"), (["form"], ["G"]), (["form"], "F"),
         (["start", "v"], ["5", "9", "12", "0"])],
    ),
    "local certify": (["--k", "7", "--json"], [(["certificates", 0, "witness"], 5)]),
    "geometry cubic": (
        ["--json"],
        [(["coeffs"], 5), (["a"], "1/0"), (["a"], "1e64000"), (["a"], 5), (["seed"], _DELETED)],
    ),
}


def forged(payload, shape, fields):
    if shape == "string":
        return ["x"]
    if shape == "list":
        return [[payload]]
    out = []
    for (*parents, key), value in fields:
        copy = json.loads(json.dumps(payload))
        node = copy
        for k in parents:
            node = node[k]
        if value is _DELETED:
            del node[key]
        else:
            node[key] = value
        out.append(copy)
    return out


@pytest.mark.parametrize("shape", ["string", "list", "wrong-typed-field"])
@pytest.mark.parametrize("command", sorted(REPLAYS), ids=lambda c: c.replace(" ", "-"))
def test_verify_file_rejects_malformed_payloads(capsys, tmp_path, command, shape):
    produce, fields = REPLAYS[command]
    code, payload, _ = run_json(capsys, *command.split(), *produce)
    assert code == 0
    path = tmp_path / "forged.json"
    for bad in forged(payload, shape, fields):
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, *command.split(), "--verify-file", str(path))
        assert code == 1 and out == "", bad
        assert err.startswith("unreadable ") and err.count("\n") == 1, bad


@pytest.mark.parametrize("command, produce, field, value", [
    ("geometry cubic", ["--a", "0", "--seed", "1"], ("seed",), 1.7),
    ("geometry cubic", ["--a", "0", "--seed", "1"], ("a",), "0.0"),
    ("local certify", ["--k", "7"], ("certificates", 0, "precision"), 3.9),
    ("geometry cubic", ["--a", "0", "--seed", "1"], ("monomials", 0, 0), 3.0),
    ("hassett represent", ["7986"], ("n",), " 7986\n"),
    ("hassett represent", ["7986"], ("n",), 7986.9),
    ("hassett represent", ["7986"], ("n",), "07986"),
    ("hassett represent", ["7986"], ("checks", "mod8"), 1),
    ("adc descend", ["--form", "g", "--num", "5,9,12", "--den", "10"], ("start", "t"), " 10\n"),
    ("adc descend", ["--form", "g", "--num", "5,9,12", "--den", "10"], ("start", "t"), "010"),
], ids=["seed-1.7", "a-0.0", "precision-3.9", "exponent-3.0", "n-spaced", "n-7986.9",
        "n-07986", "mod8-1", "t-spaced", "t-010"])
def test_verify_file_refuses_noncanonical_spellings(capsys, tmp_path, command, produce,
                                                    field, value):
    # each forged field has the value of the honest one, spelled otherwise
    code, payload, _ = run_json(capsys, *command.split(), *produce, "--json")
    assert code == 0
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    assert run(capsys, *command.split(), "--verify-file", str(path))[0] == 0
    *parents, key = field
    node = payload
    for step in parents:
        node = node[step]
    node[key] = value
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, *command.split(), "--verify-file", str(path))
    assert code == 1 and ": valid" not in out


@pytest.mark.parametrize("command, field, what", [
    ("adc descend", "steps", "trace"), ("local certify", "certificates", "report"),
], ids=["steps", "certificates"])
@pytest.mark.parametrize("value", [{}, ""], ids=["object", "string"])
def test_verify_file_refuses_a_list_written_as_another_shape(capsys, tmp_path, command, field,
                                                             what, value):
    # each would otherwise decode as a trace or report with nothing in it
    code, payload, _ = run_json(capsys, *command.split(), *REPLAYS[command][0])
    assert code == 0
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(dict(payload, **{field: value})))
    code, out, err = run(capsys, *command.split(), "--verify-file", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"unreadable {what}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(REPLAYS), ids=lambda c: c.replace(" ", "-"))
def test_verify_file_reports_deeply_nested_json_as_unreadable(capsys, tmp_path, command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000)
    code, out, err = run(capsys, *command.split(), "--verify-file", str(path))
    assert code == 1 and out == ""
    assert err.startswith("unreadable ") and err.count("\n") == 1


# --- argparse plumbing ---


def test_unknown_commands_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "hassett", "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
