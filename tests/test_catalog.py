"""Catalog contents, table cross-validation, and the claims ledger."""

from fractions import Fraction

import pytest

from homalgebra import catalog
from homalgebra.algebra import (
    LinMap,
    is_endomorphism,
    is_morphism,
    mul,
    opposite,
    polarize,
    yau_twist,
)
from homalgebra.errors import UnknownKey
from homalgebra.identities import check_builtin
from homalgebra.scalars import Scalar


EXPECTED_KEYS = (
    "hom_assoc_3d",
    "alt4_mu1",
    "alt4_mu2",
    "alt4_mu1_twist_alpha1",
    "alt4_mu2_twist_alpha1",
    "alt4_mu1_twist_alpha2",
    "alt4_mu2_twist_alpha2",
    "octonions",
    "octonions_twist_diag",
    "hom_jordan_3d",
)

TWIST_TRIPLES = (
    ("alt4_mu1_twist_alpha1", "alt4_mu1", "alpha1"),
    ("alt4_mu2_twist_alpha1", "alt4_mu2", "alpha1"),
    ("alt4_mu1_twist_alpha2", "alt4_mu1", "alpha2"),
    ("alt4_mu2_twist_alpha2", "alt4_mu2", "alpha2"),
    ("octonions_twist_diag", "octonions", "oct_diag"),
)


def test_listing_is_exact():
    assert catalog.list_keys() == EXPECTED_KEYS


def test_unknown_key():
    with pytest.raises(UnknownKey) as info:
        catalog.get("nonsense")
    assert str(info.value) == "no catalog entry named 'nonsense'"


@pytest.fixture
def built(monkeypatch):
    """The keys whose builder ran, in order, from an empty cache."""
    keys = []

    def spy(key, build):
        def spied():
            keys.append(key)
            return build()
        return spied

    monkeypatch.setattr(catalog, "_BUILDERS", {
        key: spy(key, build) for key, build in catalog._BUILDERS.items()})
    monkeypatch.setattr(catalog, "_ENTRIES", {})
    return keys


def test_listing_builds_nothing(built):
    assert catalog.list_keys() == EXPECTED_KEYS
    assert built == []


@pytest.mark.parametrize("key", EXPECTED_KEYS)
def test_get_builds_only_its_entry_once(built, key):
    entry = catalog.get(key)
    assert entry.key == key and built == [key]
    assert catalog.get(key) is entry and built == [key]


def test_unknown_key_builds_nothing(built):
    with pytest.raises(UnknownKey):
        catalog.get("nonsense")
    assert built == []


@pytest.mark.parametrize("tkey, bkey, mkey", TWIST_TRIPLES[:4])
def test_twist_entries_share_their_map(tkey, bkey, mkey):
    entry = catalog.get(tkey)
    assert entry.algebra.alpha is entry.maps[mkey]


def test_mu1_sample_entry():
    A = catalog.get("alt4_mu1").algebra
    got = mul(A, A.basis_vector("e3"), A.basis_vector("e2"))
    assert got == -A.basis_vector("e1")


def test_twisted_octonion_sample_entry():
    A = catalog.get("octonions_twist_diag").algebra
    got = mul(A, A.basis_vector("e6"), A.basis_vector("e7"))
    assert got == A.basis_vector("e2").scale(Scalar.var("b"))


def test_jordan_table_is_commutative_at_e3_e2():
    # polarization forces (e3, e2) = b/2 e3, matching (e2, e3)
    A = catalog.get("hom_jordan_3d").algebra
    half_b = Scalar.from_fraction(Fraction(1, 2)) * Scalar.var("b")
    assert mul(A, A.basis_vector("e3"), A.basis_vector("e2")) == \
        A.basis_vector("e3").scale(half_b)
    assert mul(A, A.basis_vector("e2"), A.basis_vector("e3")) == \
        A.basis_vector("e3").scale(half_b)


@pytest.mark.parametrize("tkey,bkey,mkey", TWIST_TRIPLES)
def test_stored_twists_match_recomputation(tkey, bkey, mkey):
    stored = catalog.get(tkey).algebra
    base = catalog.get(bkey)
    recomputed = yau_twist(base.algebra, base.maps[mkey], force=True)
    assert stored.same_table(recomputed)
    assert stored.alpha == base.maps[mkey]


def test_octonion_table_sanity():
    A = catalog.get("octonions").algebra
    u = A.basis_vector("u")
    for j in range(A.dim):
        bj = A.basis_vector(j)
        assert mul(A, u, bj) == bj
        assert mul(A, bj, u) == bj
    for j in range(1, A.dim):
        bj = A.basis_vector(j)
        assert mul(A, bj, bj) == -u


def test_anti_isomorphism_entry():
    mu1 = catalog.get("alt4_mu1").algebra
    mu2 = catalog.get("alt4_mu2").algebra
    phi = LinMap.diagonal([Scalar.one(), -Scalar.one(),
                           Scalar.one(), Scalar.one()])
    assert is_morphism(opposite(mu1), mu2, phi).holds


def test_polarization_matches_stored_jordan_table():
    pol = polarize(catalog.get("hom_assoc_3d").algebra)
    assert pol.same_table(catalog.get("hom_jordan_3d").algebra)


def test_expected_claims_recorded():
    # each entry carries the verdicts claimed by its source; the acceptance
    # suite compares them against computed truth
    for key in EXPECTED_KEYS:
        entry = catalog.get(key)
        for name, verdict in entry.expected:
            assert verdict in ("holds", "fails")
            assert isinstance(name, str)


def test_known_claim_defects_are_reproducible():
    # the two endomorphism-family defects this catalog documents:
    # oct_diag fails on the unit octonions at (e1, e1) ...
    oct_e = catalog.get("octonions")
    r = is_endomorphism(oct_e.algebra, oct_e.maps["oct_diag"])
    assert r.verdict == "fails" and r.witness.at == ("e1", "e1")
    # ... and alpha2 is an endomorphism of mu1 but not of mu2
    mu1 = catalog.get("alt4_mu1")
    mu2 = catalog.get("alt4_mu2")
    assert is_endomorphism(mu1.algebra, mu1.maps["alpha2"]).holds
    r2 = is_endomorphism(mu2.algebra, mu2.maps["alpha2"])
    assert r2.verdict == "fails" and r2.witness.at == ("e0", "e3")
    assert r2.witness.residual == Scalar.from_fraction(2) * Scalar.var("a5")


def test_alpha2_sign_flip_fixes_mu2():
    # flipping the e1-coefficient of alpha2(e3) from a5 to -a5 yields a
    # genuine endomorphism family of mu2 (conjugation by the
    # anti-isomorphism phi: e1 -> -e1 explains the sign)
    mu2 = catalog.get("alt4_mu2")
    a2 = mu2.maps["alpha2"]
    rows = [list(row) for row in a2.rows]
    rows[1][3] = -rows[1][3]
    fixed = LinMap(rows)
    assert is_endomorphism(mu2.algebra, fixed).holds


def test_provenance_notes_present():
    for key in EXPECTED_KEYS:
        assert catalog.get(key).provenance
