"""Value semantics of the engine's record classes: GradedSlice, Pencil,
CocyclePair and NontrivialAtDegreeZero.

They behave as the dataclasses they once were: keyword repr, class-strict
==, a hash only for the frozen two, no assignment to the frozen two, the
same constructor defaults, and GradedSlice's validation and growth.
"""

import copy
import pickle

import pytest

from jetbrackets import (
    AlgebraError,
    CocyclePair,
    GradedSlice,
    MultiVector,
    NontrivialAtDegreeZero,
    Pencil,
    SuperPolynomial as SP,
    canonical_class,
    dkdv_pencil,
)


u, u1, th, th1 = SP.u(0), SP.u(1), SP.theta(0), SP.theta(1)


class TestGradedSlice:
    def test_defaults_and_repr(self):
        sl = GradedSlice()
        assert (sl.max_order, sl.max_udeg, sl.laurent_depth) == (4, 4, 0)
        assert repr(sl) == "GradedSlice(max_order=4, max_udeg=4, laurent_depth=0)"
        assert repr(GradedSlice(2, laurent_depth=1)) == \
            "GradedSlice(max_order=2, max_udeg=4, laurent_depth=1)"

    def test_constructor_signature(self):
        assert GradedSlice(3, 2, 1) == GradedSlice(laurent_depth=1, max_udeg=2, max_order=3)
        with pytest.raises(TypeError):
            GradedSlice(1, 2, 3, 4)
        with pytest.raises(TypeError):
            GradedSlice(depth=1)

    def test_equality_is_class_strict(self):
        class Sub(GradedSlice):
            pass

        assert GradedSlice(2, 2) == GradedSlice(2, 2)
        assert GradedSlice(2, 2) != GradedSlice(2, 3)
        assert GradedSlice() != Sub()
        assert GradedSlice() != (4, 4, 0)
        assert GradedSlice().__eq__((4, 4, 0)) is NotImplemented

    def test_hashable(self):
        assert hash(GradedSlice(2, 3, 1)) == hash(GradedSlice(2, 3, 1))
        assert len({GradedSlice(), GradedSlice(4, 4, 0), GradedSlice(5)}) == 2
        assert {GradedSlice(1, 1): "a"}[GradedSlice(1, 1)] == "a"

    def test_frozen(self):
        sl = GradedSlice()
        with pytest.raises(AttributeError):
            sl.max_order = 5
        with pytest.raises(AttributeError):
            del sl.max_udeg
        with pytest.raises(AttributeError):
            sl.other = 1
        assert sl == GradedSlice()

    @pytest.mark.parametrize("kwargs, message", [
        ({"max_order": -1}, "GradedSlice max_order must be at least 0, got -1"),
        ({"max_udeg": -2}, "GradedSlice max_udeg must be at least 0, got -2"),
        ({"laurent_depth": -3}, "GradedSlice laurent_depth must be at least 0, got -3"),
        # fields are checked in order: the first negative one is named
        ({"max_udeg": -1, "max_order": -5}, "GradedSlice max_order must be at least 0, got -5"),
    ])
    def test_validation_messages(self, kwargs, message):
        with pytest.raises(AlgebraError) as err:
            GradedSlice(**kwargs)
        assert str(err.value) == message

    def test_grown(self):
        assert GradedSlice().grown() == GradedSlice(6, 10, 0)
        assert GradedSlice(2, 1, 3).grown() == GradedSlice(4, 4, 8)
        assert GradedSlice(0, 0, 0).grown() == GradedSlice(2, 2, 0)
        sl = GradedSlice(1, 1, 1)
        assert sl.grown() is not sl and sl == GradedSlice(1, 1, 1)

    def test_copy_and_pickle(self):
        sl = GradedSlice(3, 2, 1)
        for other in (copy.copy(sl), copy.deepcopy(sl), pickle.loads(pickle.dumps(sl))):
            assert other == sl and type(other) is GradedSlice


class TestPencil:
    def test_defaults_and_repr(self):
        pen = dkdv_pencil()
        bare = Pencil(pen.P, pen.Q)
        assert bare.certified is False and bare.P is pen.P and bare.Q is pen.Q
        assert repr(bare) == f"Pencil(P={pen.P!r}, Q={pen.Q!r}, certified=False)"
        assert repr(pen) == ("Pencil(P=MultiVector(int(1/2*theta*theta_1) dx, k=2), "
                             "Q=MultiVector(int(1/2*u*theta*theta_1) dx, k=2), certified=True)")

    def test_equality_is_class_strict(self):
        pen = dkdv_pencil()
        assert pen == dkdv_pencil()
        assert pen == Pencil(pen.P, pen.Q, certified=True)
        assert pen != Pencil(pen.P, pen.Q)
        assert pen != Pencil(pen.Q, pen.P, True)
        assert pen != (pen.P, pen.Q, True)

    def test_hash_is_that_of_the_fields(self):
        # frozen records hash their fields, and a MultiVector has no hash
        pen = dkdv_pencil()
        with pytest.raises(TypeError, match="unhashable type: 'MultiVector'"):
            hash(pen)

    def test_frozen(self):
        pen = dkdv_pencil()
        with pytest.raises(AttributeError):
            pen.certified = False
        with pytest.raises(AttributeError):
            del pen.P
        assert pen.certified is True

    def test_make_certifies(self):
        P = canonical_class(th * th1 / 2)
        Q = canonical_class(u * th * th1 / 2)
        assert Pencil.make(P, Q) == Pencil(P, Q, True)
        with pytest.raises(AlgebraError, match="not Hamiltonian"):
            Pencil.make(P, canonical_class(u1 * th * th1))


class TestCocyclePair:
    def pair(self, n=6):
        return CocyclePair(u * u1, u1, n)

    def test_repr_and_signature(self):
        assert repr(self.pair()) == f"CocyclePair(f={u * u1!r}, g={u1!r}, n=6)"
        assert CocyclePair(f=u, g=u1, n=2) == CocyclePair(u, u1, 2)
        with pytest.raises(TypeError):
            CocyclePair(u, u1)

    def test_equality_and_no_hash(self):
        assert self.pair() == self.pair()
        assert self.pair() != self.pair(4)
        assert self.pair() != (u * u1, u1, 6)
        assert CocyclePair.__hash__ is None
        with pytest.raises(TypeError):
            hash(self.pair())

    def test_mutable(self):
        pair = self.pair()
        pair.n = 4
        assert pair == self.pair(4)


class TestNontrivialAtDegreeZero:
    def test_falsy_repr_equality_no_hash(self):
        c = canonical_class(u * th * th1)
        marker = NontrivialAtDegreeZero(c)
        assert not marker and bool(marker) is False
        assert repr(marker) == f"NontrivialAtDegreeZero(cocycle={c!r})"
        assert marker == NontrivialAtDegreeZero(cocycle=canonical_class(u * th * th1))
        assert marker != NontrivialAtDegreeZero(MultiVector(SP(), 2))
        assert NontrivialAtDegreeZero.__hash__ is None
        with pytest.raises(TypeError):
            hash(marker)
        marker.cocycle = None
        assert marker.cocycle is None
        with pytest.raises(TypeError):
            NontrivialAtDegreeZero()
