"""Representation pipeline for the rank-one discriminant values.

Oracles: direct enumeration of the quaternary image, exhaustive parity
sweeps, and replay of every certificate through the verifier.
"""

import json

import pytest

from hassettmax.arith import SplitMix64
from hassettmax.hassett_rep import (
    SPECIAL_VECTORS,
    certificate_from_dict,
    certificate_to_dict,
    check_k_properties,
    choose_branch,
    in_hassett,
    invert_T,
    k_value,
    odd_representation,
    parity_fix,
    represent,
    sign_normalize,
    values_in_hassett,
    verify_certificate,
)
from hassettmax.qforms import (
    QuadraticForm,
    builtin_form,
    evaluate,
    integer_image_upto,
    is_primitive,
    primitive_image,
)

F = builtin_form("F")
G = builtin_form("G")


def g_val(x, y, z):
    return x * x + 3 * y * y + 3 * z * z


# --- membership and branch selection ---


def test_in_hassett_matches_direct_condition():
    for n in range(-10, 500):
        expected = n >= 8 and n % 6 in (0, 2)
        assert in_hassett(n) == expected


def test_values_in_hassett_accepts_f():
    assert values_in_hassett(F)
    # what it proves, against enumeration
    assert set(primitive_image(F, 600)) <= {n for n in range(601) if in_hassett(n)}


@pytest.mark.parametrize("gram, v", [
    # F with B[0][1] = -3, not 2 mod 3: Q(1, 1, 0, 0) = 10
    (((8, -3, -4, -1), (-3, 8, 2, -1), (-4, 2, 8, -1), (-1, -1, -1, 8)), (1, 1, 0, 0)),
    # F with an odd last diagonal entry: Q(0, 0, 0, 1) = 11
    (((8, -4, -4, -1), (-4, 8, 2, -1), (-4, 2, 8, -1), (-1, -1, -1, 11)), (0, 0, 0, 1)),
    # entries 2 mod 3 and an even diagonal, but Q(1, 0) = 2 is below 8
    (((2, -1), (-1, 2)), (1, 0)),
], ids=["mod3", "odd", "small"])
def test_values_in_hassett_rejects_a_broken_condition(gram, v):
    form = QuadraticForm(len(gram), gram)
    assert not values_in_hassett(form)
    assert not in_hassett(evaluate(form, v))


def branch_ks(n_limit):
    """k = k_value(n, u) at the branch u of each non-special member n <= n_limit."""
    return [k_value(n, choose_branch(n).u) for n in range(8, n_limit + 1)
            if in_hassett(n) and choose_branch(n).kind != "special"]


def test_k_set_prefix():
    ks = branch_ks(78)
    assert ks[:5] == sorted(ks)[:5] == [7, 39, 55, 87, 103]
    assert ks[-1] == 111  # n = 78, the first u = -3 member


def test_choose_branch():
    assert choose_branch(24).kind == "special"
    assert choose_branch(42).kind == "special"
    assert choose_branch(60).kind == "special"
    assert choose_branch(8).kind == "u_one" and choose_branch(8).u == 1
    assert choose_branch(78).kind == "u_minus3" and choose_branch(78).u == -3
    assert choose_branch(42 + 18).kind == "special"  # 60 is special before u_minus3
    with pytest.raises(ValueError):
        choose_branch(10)


def test_k_value():
    assert k_value(8, 1) == 7
    assert k_value(78, -3) == 8 * 78 - 57 * 9
    assert k_value(14, 1) == 55


def test_k_properties():
    assert check_k_properties(7) == (True, True, True, True)
    assert check_k_properties(111) == (True, True, True, True)
    positive, mod8, mod3, mod9 = check_k_properties(9)
    assert (positive, mod8, mod3, mod9) == (True, False, True, False)
    assert check_k_properties(-1)[0] is False


def test_k_properties_hold_on_k_set():
    for k in branch_ks(2000):
        assert check_k_properties(k) == (True, True, True, True), k


# --- odd representation ---


def test_odd_representation_frozen():
    assert odd_representation(7) == (1, 1, 1)
    assert odd_representation(31) == (1, 1, 3)
    assert odd_representation(55) == (1, 3, 3)
    assert odd_representation(111) == (9, 1, -3)


def test_odd_representation_properties():
    for k in branch_ks(3000):
        x, y, z = odd_representation(k)
        assert g_val(x, y, z) == k
        assert x % 2 == 1 and y % 2 == 1 and z % 2 == 1


def test_odd_representation_rejects_wrong_class():
    with pytest.raises(ValueError):
        odd_representation(9)  # 9 = 1 mod 8 fails
    with pytest.raises(ValueError):
        odd_representation(23)  # 23 = 2 mod 3, not represented by G


# --- parity fix ---


def test_parity_fix_frozen():
    assert parity_fix((4, 1, 2)) == (5, 1, 1)


def test_parity_fix_sweep():
    # every representation with value 7 mod 8 converts to an all-odd one
    for x in range(-15, 16):
        for y in range(-15, 16):
            for z in range(-15, 16):
                if g_val(x, y, z) % 8 != 7:
                    continue
                a, b, c = parity_fix((x, y, z))
                assert g_val(a, b, c) == g_val(x, y, z)
                assert a % 2 == 1 and b % 2 == 1 and c % 2 == 1


def test_parity_fix_rejects_wrong_class():
    with pytest.raises(ValueError):
        parity_fix((2, 2, 1))  # value 19 = 3 mod 8


# --- sign normalization and the inverse substitution ---


def test_sign_normalize_frozen():
    assert sign_normalize((1, 1, 1), 1) == (-1, -1, -1)
    assert sign_normalize((5, 1, 3), 1) == (-5, -1, 3)
    assert sign_normalize((1, 1, 1), -3) == (-1, -1, -1)


def test_sign_normalize_congruences():
    rng = SplitMix64(11)
    for _ in range(200):
        g = tuple(2 * rng.randint(-20, 20) + 1 for _ in range(3))
        for u in (1, -3):
            out = sign_normalize(g, u)
            assert {abs(a) for a in out} == {abs(a) for a in g}
            for a in out:
                assert (a + u) % 4 == 0  # target residue is -u mod 4
    with pytest.raises(ValueError):
        sign_normalize((2, 1, 1), 1)
    with pytest.raises(ValueError):
        sign_normalize((1, 1, 1), 5)


def test_invert_T_round_trip():
    rng = SplitMix64(12)
    for _ in range(300):
        u = 1 if rng.randint(0, 1) else -3
        g = tuple(
            4 * rng.randint(-25, 25) - u for _ in range(3)
        )  # components = -u mod 4
        x, y, z = invert_T(g, u)
        g1 = (4 * (x - y - z) - u, 4 * y - u, 4 * z - u)
        assert g1 == g
    with pytest.raises(ValueError):
        invert_T((2, 1, 1), 1)


# --- full pipeline ---


def test_represent_frozen_small_cases():
    cert8 = represent(8)
    assert cert8.v == (0, 0, 0, 1) and cert8.k == 7 and cert8.g == (-1, -1, -1)
    cert14 = represent(14)
    assert cert14.v == (1, 1, 1, 1) and cert14.k == 55
    cert24 = represent(24)
    assert cert24.branch == "special" and cert24.v == (1, 0, -1, 0)
    cert78 = represent(78)
    assert cert78.branch == "u_minus3" and cert78.u == -3
    assert cert78.k == 111 and evaluate(F, cert78.v) == 78


def test_special_vectors_evaluate_correctly():
    for n, v in SPECIAL_VECTORS.items():
        assert evaluate(F, v) == n
        assert is_primitive(v)


def test_represent_verifies_over_a_range():
    for n in range(8, 700):
        if not in_hassett(n):
            with pytest.raises(ValueError):
                represent(n)
            continue
        cert = represent(n)
        assert evaluate(F, cert.v) == n
        assert is_primitive(cert.v)
        assert verify_certificate(cert)


def test_verify_rejects_tampering():
    cert = represent(14)
    bad = type(cert)(
        n=cert.n,
        branch=cert.branch,
        u=cert.u,
        k=cert.k,
        g=cert.g,
        xyz=cert.xyz,
        v=(0, 0, 0, 2),
        property_checks=cert.property_checks,
    )
    assert not verify_certificate(bad)
    wrong_k = type(cert)(
        n=cert.n,
        branch=cert.branch,
        u=cert.u,
        k=cert.k + 8,
        g=cert.g,
        xyz=cert.xyz,
        v=cert.v,
        property_checks=cert.property_checks,
    )
    assert not verify_certificate(wrong_k)


def test_represent_raises_when_its_certificate_does_not_replay(monkeypatch):
    # the special table's vector for 42 has F-value 42, not 24
    monkeypatch.setitem(SPECIAL_VECTORS, 24, SPECIAL_VECTORS[42])
    with pytest.raises(AssertionError, match="n = 24"):
        represent(24)
    # for n = 14, k = 55; the all-odd (3, 3, 3) represents 63 instead
    monkeypatch.setattr("hassettmax.hassett_rep.odd_representation", lambda k: (3, 3, 3))
    with pytest.raises(AssertionError, match="n = 14"):
        represent(14)
    monkeypatch.undo()
    assert represent(24).v == (1, 0, -1, 0) and represent(14).v == (1, 1, 1, 1)


def test_image_identity_small():
    # positive F-values = Hassett values, by enumeration on both sides
    image = integer_image_upto(F, 1200)
    expected = {n for n in range(1, 1201) if in_hassett(n)}
    assert image == expected


def test_certificate_serialization_round_trip():
    for n in (8, 14, 24, 78, 1002):
        cert = represent(n)
        payload = certificate_to_dict(cert)
        assert payload["valid"] is True
        blob = json.dumps(payload)
        back = certificate_from_dict(json.loads(blob))
        assert back == cert
        assert verify_certificate(back)


def _set(payload, path, value):
    *parents, key = path
    node = payload
    for step in parents:
        node = node[step]
    node[key] = value


@pytest.mark.parametrize("path, value", [
    (("n",), " 7986\n"), (("n",), 7986.9), (("n",), "07986"), (("n",), 7986), (("n",), "+7986"),
    (("u",), "1.0"), (("k",), "0_63855"), (("g", 0), True), (("xyz", 1), "-0"),
    (("v", 0), 1), (("v",), "1111"), (("g",), "111"), (("xyz",), {"0": "1"}),
    (("checks", "mod8"), 1), (("checks", "positive"), "true"), (("checks", "mod9"), None),
], ids=repr)
def test_certificate_from_dict_refuses_noncanonical_fields(path, value):
    # each forged field is equal in value to the honest one, or was read so
    payload = json.loads(json.dumps(certificate_to_dict(represent(7986))))
    assert verify_certificate(certificate_from_dict(payload))
    _set(payload, path, value)
    with pytest.raises((ValueError, TypeError)):
        certificate_from_dict(payload)


def test_certificate_from_dict_reads_a_special_certificate():
    payload = json.loads(json.dumps(certificate_to_dict(represent(24))))
    assert payload["checks"] is None and payload["g"] is None
    assert certificate_from_dict(payload) == represent(24)
    _set(payload, ("v", 2), "-01")
    with pytest.raises(ValueError):
        certificate_from_dict(payload)
