"""Exit codes, JSON payloads, and verify-file round trips for the CLI."""

import json

import pytest

from hassettmax.cli import main


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


def test_lattice_isometry(capsys):
    code, payload, _ = run_json(
        capsys, "lattice", "isometry", "--from", "0,0", "--to", "1,1", "--json"
    )
    assert code == 0
    assert payload["unimodular"] is True
    assert payload["congruent"] is True
    assert len(payload["matrix"]) == 5


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


# --- forged --verify-file payloads ---


# command -> (arguments that produce a payload, fields set to a wrong type,
# each as (path into the payload, value))
REPLAYS = {
    "hassett represent": (["14", "--json"], [(["v"], 5)]),
    "adc descend": (
        ["--form", "g", "--num", "5,9,12", "--den", "10", "--json"],
        [(["steps", 0, "data"], "x"), (["form"], ["G"])],
    ),
    "local certify": (["--k", "7", "--json"], [(["certificates", 0, "witness"], 5)]),
    "geometry cubic": (["--json"], [(["coeffs"], 5)]),
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
        code, out, _ = run(capsys, *command.split(), "--verify-file", str(path))
        assert code == 1, bad
        assert ": valid" not in out


# --- argparse plumbing ---


def test_unknown_commands_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "hassett", "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
