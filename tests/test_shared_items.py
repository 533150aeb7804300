"""The items of the derivation tables' entries, shared through one table.

`algebra._store` files every entry of the derivative table and the filing
table.  It rebuilds a stored entry from `algebra._ITEMS`, so that each
(step, multiplier) pair of `_derive_key` and each (k, bit or unit, signed
multiplier) triple of `_filing_entries` is kept once however many entries
hold it.  The item table is emptied whenever `_store` empties a full table,
and a part wider than 64 fields, which is never stored, never reaches it.
The tables' results are pinned elsewhere (`tests/test_deriv_table.py`);
these tests pin the sharing and its bound.
"""

from contextlib import contextmanager

import pytest

from jetbrackets import SuperPolynomial as SP
from jetbrackets import algebra
from jetbrackets.algebra import _WIDE, _derive_key, _filing_entries, _store
from conftest import rand_density


def key(p):
    (m,) = p._nums
    return m


@contextmanager
def cold_tables(limit=algebra._DERIV_LIMIT):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_DERIV_CACHE", {})
        mp.setattr(algebra, "_FILE_CACHE", {})
        mp.setattr(algebra, "_ITEMS", {})
        mp.setattr(algebra, "_DERIV_LIMIT", limit)
        yield algebra._DERIV_CACHE, algebra._FILE_CACHE


def test_equal_items_of_two_entries_are_one_object():
    u1u3, u1u2 = key(SP.u(1) * SP.u(3)), key(SP.u(1) * SP.u(2, power=2))
    with cold_tables() as (deriv, filing):
        # through the engine's own readers: d and the filing sweep
        (SP.u(1) * SP.u(3) + SP.u(1) * SP.u(2, power=2)).dx()
        algebra._file({u1u3: 1, u1u2: 1}, False, 0)
        for table in (deriv, filing):
            first, second = table[u1u3], table[u1u2]
            assert first[0] == second[0]
            assert first[0] is second[0]
        # _derive_key and _filing_entries build fresh items: the table's
        # entries are equal to theirs, with items taken from _ITEMS
        assert deriv[u1u3] == _derive_key(u1u3)
        assert _derive_key(u1u3)[0] is not deriv[u1u3][0]
        assert filing[u1u2] == _filing_entries(u1u2, False)
        items = algebra._ITEMS
        assert all(items[item] is item for table in (deriv, filing)
                   for ents in table.values() for item in ents)


def test_odd_parts_share_their_filing_items():
    t1, t2 = key(SP.theta(0) * SP.theta(2)), key(SP.theta(0) * SP.theta(3))
    with cold_tables() as (_, filing):
        for t in (t1, t2):
            _store(filing, t, _filing_entries(t, True))
        assert filing[t1][0] == filing[t2][0] == (0, 1, 1)
        assert filing[t1][0] is filing[t2][0]


@pytest.mark.parametrize("which", ["deriv", "filing"])
def test_emptying_a_full_table_empties_the_items(which):
    parts = [key(SP.u(k, power=e)) for k in range(2, 6) for e in (1, 2)]
    with cold_tables(limit=3) as tables:
        table = dict(zip(("deriv", "filing"), tables))[which]
        entries = _derive_key if which == "deriv" else lambda m: _filing_entries(m, False)
        for m in parts[:3]:
            _store(table, m, entries(m))
        assert len(table) == 3
        assert len(algebra._ITEMS) == 3
        last = _store(table, parts[3], entries(parts[3]))
        # the table held its limit, so both it and the items were emptied
        # before the new entry was stored
        assert table == {parts[3]: last}
        assert algebra._ITEMS == {item: item for item in last}


def test_items_stay_within_the_stored_entries_under_a_low_limit(rng):
    with cold_tables(limit=5) as (deriv, filing):
        for _ in range(20):
            a = rand_density(rng, 2)
            a.dx(2)
            algebra._file(a._nums, True, 0)
        assert 0 < len(deriv) <= 5 and 0 < len(filing) <= 5
        stored = {item for table in (deriv, filing) for ents in table.values() for item in ents}
        assert algebra._ITEMS.keys() <= stored


def test_a_wide_part_leaves_the_items_untouched():
    wide = key(SP.u(70) * SP.u(2))
    assert wide >= _WIDE
    with cold_tables() as (deriv, filing):
        SP.u(1).dx()
        before = dict(algebra._ITEMS)
        ents = _derive_key(wide)
        assert _store(deriv, wide, ents) is ents
        assert _store(filing, wide, _filing_entries(wide, False))
        # and through d, whose wide part is derived on each use
        assert (SP.u(70) * SP.u(2)).dx() == SP.u(71) * SP.u(2) + SP.u(70) * SP.u(3)
        assert wide not in deriv and wide not in filing
        assert algebra._ITEMS == before
