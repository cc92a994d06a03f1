"""Finite extensions of Z^d used as symmetry groups: trivial, cyclic, dihedral,
and the integer shift group, with conjugacy classes, torsion data, and the
integer homomorphism chi where it exists.

Element encodings (plain hashable values, no wrapper class):

* trivial:        ``()``
* cyclic(m):      ``j`` in ``0..m-1``          (r^j)
* dihedral(m):    ``(j, f)``, ``f in {0,1}``   (r^j s^f)
* integer_shift:  any ``int``                  (generator^n)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from .errors import InvalidParameter, UnsupportedGroup

Element = Any


@dataclass(frozen=True)
class GroupSpec:
    """A group given by kind + parameters with explicit multiplication."""

    kind: str                      # trivial | cyclic | dihedral | integer_shift
    m: int = 1                     # order parameter for cyclic/dihedral
    theta: float = 0.0             # shift angle for integer_shift

    def __post_init__(self):
        if self.kind not in ("trivial", "cyclic", "dihedral", "integer_shift"):
            raise InvalidParameter(f"unknown group kind {self.kind!r}")
        if self.kind in ("cyclic", "dihedral") and self.m < 1:
            raise InvalidParameter(f"{self.kind} requires m >= 1, got {self.m}")
        if self.kind == "integer_shift" and not (0.0 < self.theta < 2.0 * math.pi):
            raise InvalidParameter(f"integer_shift requires theta in (0, 2 pi), got {self.theta}")

    # -- structure ---------------------------------------------------------

    @property
    def identity(self) -> Element:
        return {"trivial": (), "cyclic": 0, "dihedral": (0, 0), "integer_shift": 0}[self.kind]

    @property
    def is_finite(self) -> bool:
        return self.kind != "integer_shift"

    @property
    def order(self) -> int | None:
        if self.kind == "trivial":
            return 1
        if self.kind == "cyclic":
            return self.m
        if self.kind == "dihedral":
            return 2 * self.m
        return None

    def elements(self) -> list[Element]:
        if self.kind == "trivial":
            return [()]
        if self.kind == "cyclic":
            return list(range(self.m))
        if self.kind == "dihedral":
            return [(j, f) for f in (0, 1) for j in range(self.m)]
        raise UnsupportedGroup("integer_shift has infinitely many elements")

    def mul(self, a: Element, b: Element) -> Element:
        if self.kind == "trivial":
            return ()
        if self.kind == "cyclic":
            return (a + b) % self.m
        if self.kind == "dihedral":
            j1, f1 = a
            j2, f2 = b
            return ((j1 + (j2 if f1 == 0 else -j2)) % self.m, (f1 + f2) % 2)
        return a + b

    def inv(self, a: Element) -> Element:
        if self.kind == "trivial":
            return ()
        if self.kind == "cyclic":
            return (-a) % self.m
        if self.kind == "dihedral":
            j, f = a
            return ((-j) % self.m, 0) if f == 0 else (j, 1)
        return -a

    def contains(self, a: Element) -> bool:
        if self.kind == "trivial":
            return a == ()
        if self.kind == "cyclic":
            return isinstance(a, int) and 0 <= a < self.m
        if self.kind == "dihedral":
            return (
                isinstance(a, tuple) and len(a) == 2
                and 0 <= a[0] < self.m and a[1] in (0, 1)
            )
        return isinstance(a, int)

    # -- conjugacy and torsion ----------------------------------------------

    def conjugacy_class(self, g: Element) -> tuple[Element, ...]:
        """The conjugacy class of g, sorted for determinism."""
        if self.kind == "integer_shift":
            return (g,)
        els = self.elements()
        cls = {self.mul(self.mul(x, g), self.inv(x)) for x in els}
        return tuple(sorted(cls, key=repr))

    def conjugacy_classes(self, support: Iterable[Element] | None = None) -> list[tuple[Element, ...]]:
        """The conjugacy classes that meet ``support`` (all of them when None).

        Finite kinds: classes in partition order.  integer_shift: classes are
        singletons, so a finite ``support`` must be supplied.
        """
        if self.kind == "integer_shift":
            if support is None:
                raise UnsupportedGroup("integer_shift needs an explicit support")
            return [(g,) for g in sorted(set(support))]
        wanted = set(self.elements() if support is None else support)
        seen: set[Element] = set()
        classes = []
        for g in self.elements():
            if g in seen:
                continue
            cls = self.conjugacy_class(g)
            seen.update(cls)
            if wanted.intersection(cls):
                classes.append(cls)
        return classes

    def torsion_elements(self) -> list[Element]:
        if self.kind == "integer_shift":
            return [0]
        return self.elements()

    # -- irreducible representations ------------------------------------------

    def irreps(self) -> list[dict[Element, np.ndarray]]:
        """The irreducible unitary representations, each as g -> (d, d) matrix.

        trivial: the unit; cyclic(m): the m characters r^j -> e^{2 pi i q j/m};
        dihedral(m): r^j s^f -> R^j S^f with (R, S) = (+-1, +-1) in dimension
        one (R = -1 only for even m) and, for 1 <= q <= (m - 1) // 2,
        R = rotation by 2 pi q / m, S = diag(1, -1) in dimension two.
        """
        if self.kind == "integer_shift":
            raise UnsupportedGroup("integer_shift has no finite set of irreps")
        if self.kind == "trivial":
            return [{(): np.ones((1, 1), dtype=complex)}]
        m = self.m
        if self.kind == "cyclic":
            return [{j: np.full((1, 1), np.exp(2j * math.pi * q * j / m)) for j in range(m)}
                    for q in range(m)]
        signs = [(r, s) for r in ((1, -1) if m % 2 == 0 else (1,)) for s in (1, -1)]
        out = [{(j, f): np.full((1, 1), complex(r ** j * s ** f)) for j, f in self.elements()}
               for r, s in signs]
        for q in range(1, (m - 1) // 2 + 1):
            rep = {}
            for j, f in self.elements():
                t = 2 * math.pi * q * j / m
                rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]],
                               dtype=complex)
                rep[(j, f)] = rot @ np.diag([1.0, -1.0]) if f else rot
            out.append(rep)
        return out

    # -- the homomorphism chi: G -> Z ---------------------------------------

    def chi(self, g: Element) -> int:
        """Integer homomorphism: identity on integer_shift, zero otherwise."""
        if self.kind == "integer_shift":
            return g
        return 0

    @property
    def has_nonzero_chi(self) -> bool:
        return self.kind == "integer_shift"

    # -- labels for configs and reports ---------------------------------------

    def label(self, g: Element) -> str:
        if self.kind == "trivial":
            return "e"
        if self.kind == "cyclic":
            return "e" if g == 0 else ("r" if g == 1 else f"r{g}")
        if self.kind == "dihedral":
            j, f = g
            rot = "" if j == 0 else ("r" if j == 1 else f"r{j}")
            ref = "s" if f == 1 else ""
            return (rot + ref) or "e"
        return str(g)

    def parse(self, label: str) -> Element:
        label = label.strip()
        if self.kind == "integer_shift":
            try:
                return int(label)
            except ValueError as exc:
                raise InvalidParameter(f"bad integer_shift element {label!r}") from exc
        # read r^j s^f off the label without listing the group; keep it only
        # if ``label`` gives the same string back, so "r1" and "r07" stay refused
        rot, f = (label[:-1], 1) if self.kind == "dihedral" and label.endswith("s") else (label, 0)
        j = {"": 0, "e": 0, "r": 1}.get(rot)
        digits = rot[1:]
        if j is None and rot[:1] == "r" and digits.isdecimal() and len(digits) <= len(str(self.m)):
            j = int(digits)     # a j with more digits than m is no element anyway
        g = {"trivial": (), "cyclic": j, "dihedral": (j, f)}[self.kind]
        if j is None or not self.contains(g) or self.label(g) != label:
            raise InvalidParameter(f"unknown element {label!r} for {self.kind} group")
        return g


def build_group(kind: str, **params) -> GroupSpec:
    """A validated GroupSpec from a kind and GroupSpec's ``m`` / ``theta``, e.g.
    ``build_group("cyclic", m=4)``; ``theta`` defaults to 1 on integer_shift."""
    if kind == "integer_shift":
        params["theta"] = float(params.get("theta", 1.0))
    return GroupSpec(kind, **params)
