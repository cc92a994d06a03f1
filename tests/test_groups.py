import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gindexlab.errors import InvalidParameter, UnsupportedGroup
from gindexlab.groups import build_group


def check_axioms(group):
    """Exhaustive check of the group axioms of a finite group: O(|G|^3)."""
    els = group.elements()
    e = group.identity
    for a in els:
        assert group.mul(a, e) == a and group.mul(e, a) == a
        assert group.mul(a, group.inv(a)) == e
        for b in els:
            ab = group.mul(a, b)
            assert group.contains(ab)
            for c in els:
                assert group.mul(ab, c) == group.mul(a, group.mul(b, c))


class TestBuild:
    def test_cyclic4(self):
        g = build_group("cyclic", m=4)
        assert g.order == 4
        classes = g.conjugacy_classes()
        assert len(classes) == 4
        assert all(len(c) == 1 for c in classes)
        assert g.torsion_elements() == g.elements()

    def test_dihedral3(self):
        g = build_group("dihedral", m=3)
        assert g.order == 6
        classes = {frozenset(g.label(x) for x in c) for c in g.conjugacy_classes()}
        assert classes == {frozenset({"e"}), frozenset({"r", "r2"}),
                           frozenset({"s", "rs", "r2s"})}

    def test_classes_meeting_support(self):
        g = build_group("dihedral", m=3)
        assert g.conjugacy_classes(support=[(2, 1)]) == [((0, 1), (1, 1), (2, 1))]
        assert g.conjugacy_classes(support=[(0, 0), (1, 0)]) == [((0, 0),), ((1, 0), (2, 0))]

    def test_dihedral4_has_five_classes(self):
        assert len(build_group("dihedral", m=4).conjugacy_classes()) == 5

    def test_integer_shift(self):
        g = build_group("integer_shift", theta=1.0)
        assert g.chi(5) == 5
        assert g.torsion_elements() == [0]
        assert g.conjugacy_classes(support=[-1, 0, 2]) == [(-1,), (0,), (2,)]
        with pytest.raises(UnsupportedGroup):
            g.conjugacy_classes()

    def test_invalid(self):
        with pytest.raises(InvalidParameter):
            build_group("cyclic", m=0)
        with pytest.raises(InvalidParameter):
            build_group("integer_shift", theta=7.0)
        with pytest.raises(InvalidParameter):
            build_group("frieze")


class TestStructure:
    @pytest.mark.parametrize("kind,m", [("trivial", 1), ("cyclic", 5), ("dihedral", 4)])
    def test_axioms(self, kind, m):
        check_axioms(build_group(kind, m=m))

    def test_dihedral_relation(self):
        g = build_group("dihedral", m=5)
        r, s = (1, 0), (0, 1)
        # s r s = r^{-1}
        assert g.mul(g.mul(s, r), s) == g.inv(r)

    def test_chi_vanishes_on_torsion(self):
        for kind, m in [("trivial", 1), ("cyclic", 3), ("dihedral", 3)]:
            g = build_group(kind, m=m)
            assert all(g.chi(x) == 0 for x in g.elements())
        z = build_group("integer_shift", theta=0.5)
        assert z.chi(0) == 0 and z.chi(3) == 3

    def test_labels_round_trip(self):
        for kind, m in [("cyclic", 4), ("dihedral", 3)]:
            g = build_group(kind, m=m)
            for x in g.elements():
                assert g.parse(g.label(x)) == x
        z = build_group("integer_shift", theta=1.0)
        assert z.parse("-3") == -3

    @pytest.mark.parametrize("kind, m", [("trivial", 1)] + [
        (kind, m) for kind in ("cyclic", "dihedral") for m in range(1, 7)])
    def test_parse_accepts_exactly_the_labels(self, kind, m):
        group = build_group(kind, m=m)
        oracle = {group.label(g): g for g in group.elements()}
        candidates = {"".join(t) for n in range(4) for t in itertools.product("ers0167 ", repeat=n)}
        for label in candidates | {"r07", "r10", "es", "r1s", "r0s", "r\u0663", "r\u00b2"}:
            try:
                got = group.parse(label)
            except InvalidParameter:
                got = None
            assert got == oracle.get(label.strip()), label


finite_groups = st.one_of(st.just(("trivial", 1)),
                          st.tuples(st.just("cyclic"), st.integers(1, 8)),
                          st.tuples(st.just("dihedral"), st.integers(1, 8)))


class TestIrreps:
    @settings(max_examples=12, deadline=None)
    @given(finite_groups)
    def test_complete_unitary_homomorphisms(self, spec):
        g = build_group(spec[0], m=spec[1])
        els = g.elements()
        irreps = g.irreps()
        assert sum(len(rep[g.identity]) ** 2 for rep in irreps) == g.order
        for rep in irreps:
            d = len(rep[g.identity])
            for a in els:
                assert np.allclose(rep[a].conj().T @ rep[a], np.eye(d), atol=1e-12)
                for b in els:
                    assert np.allclose(rep[a] @ rep[b], rep[g.mul(a, b)], atol=1e-12)

    @settings(max_examples=12, deadline=None)
    @given(finite_groups)
    def test_characters_orthonormal(self, spec):
        g = build_group(spec[0], m=spec[1])
        chars = np.array([[np.trace(rep[x]) for x in g.elements()] for rep in g.irreps()])
        gram = chars.conj() @ chars.T / g.order
        assert np.allclose(gram, np.eye(len(chars)), atol=1e-12)

    def test_integer_shift_has_none(self):
        with pytest.raises(UnsupportedGroup):
            build_group("integer_shift", theta=1.0).irreps()
