"""Plain records: slotted classes whose fields are their __slots__.

A subclass lists its fields in __slots__ and sets them in its own
__init__.  Two records are equal when they are of the same class and their
fields are equal; a record hashes as the tuple of its fields, and its repr
reads Name(field=value, ...).  A record whose fields are meant to change
sets __hash__ = None, so it cannot be a dict key or a set member.
"""


class Record:
    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))
