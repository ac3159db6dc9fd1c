"""The value classes keep the equality, hashing, printing and read-only
fields they had as dataclasses."""

import pickle

import pytest

from dwlink import braids, congruence, gf, groups, holonomy
from dwlink.errors import BadBraid, DimMismatch


def test_braid_word_coerces_letters_to_a_tuple():
    a, b = braids.BraidWord(2, [1]), braids.BraidWord(2, (1,))
    assert a == b and hash(a) == hash(b)
    assert a.letters == (1,)
    assert a != braids.BraidWord(2, (-1,)) and a != braids.BraidWord(3, (1,))
    assert a != (2, (1,))  # not a tuple


@pytest.mark.parametrize("strands, letters", [(0, ()), (2, (2,)), (3, (0,)), (3, (-3,))])
def test_braid_word_validation(strands, letters):
    with pytest.raises(BadBraid):
        braids.BraidWord(strands, letters)


def test_non_square_matrix_raises():
    F = gf.field_make(3, 1)
    with pytest.raises(DimMismatch):
        gf.FqMatrix(F, ((1, 2), (0,)))
    with pytest.raises(DimMismatch):
        gf.FqMatrix(F, ((1, 2),))


def test_repr_names_the_fields():
    assert repr(braids.BraidWord(2, [1, -1])) == "BraidWord(strands=2, letters=(1, -1))"
    F = gf.field_make(2, 1)
    assert repr(gf.FqMatrix(F, ((1,),))) == f"FqMatrix(field={F!r}, entries=((1,),))"
    comp = braids.components(braids.parse_braid("2: 1 1"))
    assert repr(comp) == (
        "ComponentData(count=2, cycles=((0,), (1,)), basepoints=(0, 1), "
        "self_writhe=(0, 0), crossings=(((0, 1), 2),))"
    )


def frozen_records():
    G = groups.symmetric(3)
    beta = braids.parse_braid("2: 1 1")
    return [
        (beta, "letters"),
        (braids.components(beta), "count"),
        (gf.mat_identity(gf.field_make(3, 1), 2), "entries"),
        (G.classes[0], "members"),
        (holonomy.enumerate_homs(beta, G)[0], "meridian"),
        (congruence.check_preconditions(beta, 5, 1, G), "p"),
    ]


def test_frozen_fields_are_read_only():
    for record, field in frozen_records():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)


def test_frozen_records_pickle_and_hash():
    # the last holds a FiniteGroup, which compares by identity
    for record, _ in frozen_records()[:-1]:
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and hash(copy) == hash(record)


def test_linking_is_built_on_first_read():
    comp = braids.components(braids.parse_braid("2: 1 1"))
    assert "linking" not in vars(comp)
    assert comp.linking == ((0, 1), (1, 0))
    assert vars(comp)["linking"] is comp.linking
    assert comp == braids.components(braids.parse_braid("2: 1 1"))
