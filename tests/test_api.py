"""The public API, pinned: a change to it has to be an edit here."""

import inspect
from dataclasses import fields

import hypergf
from hypergf import Character, FieldContext, IdentityReport, make_field

PUBLIC_NAMES = [
    "Character", "CurveCount", "EdwardsParams", "FieldContext", "FieldError",
    "GeneralHuffParams", "HuffParams", "HypSpec", "Identity",
    "IdentityReport", "MapReport", "NonRationalValueError", "ParameterError",
    "PointRecord", "Q_CAP", "TwoSquares", "WeierstrassParams", "audit_identity",
    "cornacchia", "count_edwards_affine", "count_general_huff", "count_general_huff_quartic",
    "count_huff", "count_weierstrass", "cyclotomic_polynomial", "emit", "emit_chunks",
    "hyp_eval", "identity_by_key", "make_field", "map_points",
    "odd_prime_powers", "ono_value_minus1", "phi_at_minus_one", "quadratic_character",
    "registry", "sweep", "trivial_character", "two_f_one",
]

FIELD_ATTRIBUTES = ["p", "r", "q", "modulus", "gen", "exp", "log"]
FIELD_METHODS = [
    "zero", "one", "check_code", "coeffs", "from_coeffs", "element",
    "add", "sub", "neg", "mul", "inv",
]

REPORT_FIELDS = ["identity", "provenance", "columns"]


def test_public_names_are_pinned():
    assert sorted(hypergf.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(hypergf, name) is not None, name


def test_field_context_members_are_pinned():
    public = [name for name in vars(FieldContext) if not name.startswith("_")]
    assert sorted(public) == sorted(FIELD_ATTRIBUTES + FIELD_METHODS)
    assert [name for name in FieldContext.__slots__ if not name.startswith("_")] == FIELD_ATTRIBUTES
    params = inspect.signature(make_field).parameters
    assert [(name, par.default) for name, par in params.items()] == [
        ("p", inspect.Parameter.empty), ("r", 1)]


def test_identity_report_fields_are_pinned():
    assert [f.name for f in fields(IdentityReport)] == REPORT_FIELDS


def test_a_character_is_not_evaluated_at_an_element():
    assert "__call__" not in vars(Character)
    assert not callable(Character(make_field(5), 1))
