"""Every named group the tests check, registered once and built on first use.

An entry is a name, the group's order, a zero-argument builder and tags.
A test picks its groups with `names(*tags)`, the names carrying every
given tag in registration order, and gets each one with `group(name)`,
which builds it on first use and shares it between tests.  The
collector's `_image_memo` and the `power_series_memo` of a shared group
carry over between tests, so a test that pins collector work builds its
own with `fresh(name)`.  A reference whose cost grows as |G|^3, such as
the oracle's dense every-element chains, bounds the order with `most`.

Tags:
    catalog  - `standard_catalog()`, under its entry names
    shipped  - a table row under `DATA_DIR`, named by its file stem
    builder  - built from a `--builder` spec; every family of
               `catalog._BUILDERS` has one
    oracle   - order <= 256, the oracle's default cap; set from the order
    cap3125  - checked by the oracle at cap 3125, which admits every
               shipped row
    carry    - the power relation g1^p is not central in G_2 = <g2, ..., gn>
    prime    - p >= 7
    nonpc    - closures are checked from generating sequences that are
               not pc generators
    scan     - small enough for element-by-element scans; with them the
               edge cases of the centre and power maps noted below
    orbit    - an edge case of the lower chain's orbit representatives,
               too large for the scans that every-element brackets make

PRIME_FAMILIES draws groups for the hypothesis tests: the oracle-sized
groups here and builder families at random primes.

To add a group, add one line below with its order and the tags it meets,
and update its tags' sizes in `test_catalog.py::test_the_group_registry`.
"""

import functools
from typing import Callable, NamedTuple

from hypothesis import strategies as st

from lienil.catalog import (
    DATA_DIR,
    build_abelian,
    build_free_class2,
    build_heisenberg,
    build_named,
    import_presentation,
)
from lienil.pcgroup import PcGroup, parse_presentation

ORACLE_CAP = 256


class Entry(NamedTuple):
    name: str
    order: int
    build: Callable[[], PcGroup]
    tags: frozenset
    spec: tuple  # (spec, p) for build_named, or () for other builders


REGISTRY: list[Entry] = []


def _add(name, order, build, *tags, spec=()):
    if order <= ORACLE_CAP:
        tags += ("oracle",)
    REGISTRY.append(Entry(name, order, build, frozenset(tags), spec))


def _spec(name, order, spec, p=None, *tags):
    _add(name, order, lambda: build_named(spec, p).group, "builder", *tags, spec=(spec, p))


def names(*tags, most=None):
    """The registered names carrying every tag in `tags`, of order at most
    `most` when it is given; a set of tags there asks for any one of them."""
    return [e.name for e in REGISTRY if (most is None or e.order <= most)
            and all(e.tags & ({t} if isinstance(t, str) else t) for t in tags)]


def fresh(name):
    """A newly built copy of the named group, shared with no other test."""
    return _BY_NAME[name].build()


@functools.lru_cache(maxsize=None)
def group(name):
    """The named group, built on first use and then shared."""
    return fresh(name)


def semidihedral(k):
    """SD_(2^k) = <a, b | a^(2^(k-1)) = b^2 = 1, a^b = a^(2^(k-2) - 1)> on
    g1 = a, g2 = b and g_(i+2) = a^(2^i): the power relation g1^2 = g3 is
    not central in G_2 = <g2, ..., gk>, since [g3, g2] = a^-4."""
    powers = {0: ((2, 1),), **{j: ((j + 1, 1),) for j in range(2, k - 1)}}
    comms = {(1, 0): ((2, 1), (k - 1, 1)),
             **{(j, 1): tuple((i, 1) for i in range(j + 1, k)) for j in range(2, k - 1)}}
    return PcGroup(2, k, powers, comms)


# Order 2^7, class 4, with a non-abelian derived subgroup G' of order 16
# and class 2: Z(G') has order 4, larger than [G', G'], and its power chain
# enumerates the 4 coset representatives of Z(G').
NONABELIAN_DERIVED = ("p 2\ngens 7\ncomm 2 1 : g4^1\ncomm 3 1 : g5^1\ncomm 4 3 : g6^1 g7^1\n"
                      "comm 5 2 : g6^1\ncomm 5 4 : g7^1\ncomm 6 1 : g7^1\n")


def _partitions(n, top=None):
    """The partitions of n into parts of at most `top`, largest part first."""
    if n == 0:
        yield ()
    for part in range(min(n, top or n), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


# standard_catalog(): every abelian p-group of order up to 64, 27 and 25;
# in an abelian H, Z(H) = H and the power maps are generator powers
for p, top in ((2, 6), (3, 3), (5, 2)):
    for n in range(1, top + 1):
        for exps in _partitions(n):
            factors = [p**e for e in exps]
            name = "abelian-" + "x".join(f"C{f}" for f in factors) + f"-p{p}"
            if (p, factors) == (3, [9, 3]):
                _spec(name, 27, "abelian:9x3", 3, "catalog", "scan")
                continue
            _add(name, p**n, lambda p=p, factors=factors: build_abelian(p, factors).group,
                 "catalog", *(("scan",) if (p, factors) == (2, [8, 4, 2]) else ()))
_spec("dihedral-8", 8, "dihedral:8", None, "catalog")
_spec("dihedral-16", 16, "dihedral:16", None, "catalog", "nonpc", "scan")
_spec("dihedral-32", 32, "dihedral:32", None, "catalog")
_spec("quaternion-8", 8, "quaternion:8", None, "catalog")
_spec("quaternion-16", 16, "quaternion:16", None, "catalog", "scan")
_spec("heisenberg-3", 27, "heisenberg:3", None, "catalog", "nonpc", "scan")
_spec("heisenberg-5", 125, "heisenberg:5", None, "catalog", "nonpc", "scan")
# a large centre: 8 representatives of non-central classes for 243 elements
_spec("cond65-quotient-p3", 243, "condition-quotient:65", 3, "catalog", "orbit")
_spec("cond66-quotient-p3", 243, "condition-quotient:66", 3, "catalog")
_spec("free-class2-rank5-p2", 2**15, "free_class2:5", 2, "catalog")

# every builder family, with large members whose whole group keeps few of
# its pc generators
_spec("dihedral-64", 64, "dihedral:64")
_spec("dihedral-128", 128, "dihedral:128")
_spec("dihedral-256", 256, "dihedral:256")
_spec("dihedral-1024", 1024, "dihedral:1024")
_spec("quaternion-32", 32, "quaternion:32")
_spec("quaternion-64", 64, "quaternion:64")
_spec("quaternion-128", 128, "quaternion:128")
_spec("quaternion-256", 256, "quaternion:256")
_spec("quaternion-512", 512, "quaternion:512")
_spec("heisenberg-7", 343, "heisenberg:7", None, "prime")
_spec("free-class2-rank2-p2", 8, "free_class2:2", 2)
_spec("free-class2-rank3-p2", 64, "free_class2:3", 2, "scan")
_spec("free-class2-rank3-p3", 729, "free_class2:3", 3, "nonpc", "scan")
_spec("free-class2-rank3-p5", 5**6, "free_class2:3", 5)
_spec("free-class2-rank4-p3", 3**10, "free_class2:4", 3)
_spec("cond46-p5", 5**5, "condition:46", 5, "cap3125")
_spec("cond65-p3", 3**7, "condition:65", 3, "cap3125")
_spec("cond66-p3", 3**7, "condition:66", 3, "cap3125")

_add("abelian-C49-p7", 49, lambda: build_abelian(7, [49]).group, "prime")
_add("abelian-C13xC13-p13", 169, lambda: build_abelian(13, [13, 13]).group, "prime")
_add("abelian-C251-p251", 251, lambda: build_abelian(251, [251]).group, "prime")
_add("abelian-C25xC5-p5", 125, lambda: build_abelian(5, [25, 5]).group, "scan")
for k in (4, 5, 6, 8):
    _add(f"semidihedral-{2**k}", 2**k, lambda k=k: semidihedral(k), "carry",
         *(("scan",) if k <= 6 else ()))
_add("nonabelian-derived-128", 128, lambda: parse_presentation(NONABELIAN_DERIVED), "scan")
# D8 x C8 with the C8 letters first.  Every coset of the centre
# Z = <r^2> x C8 has a representative in D8, and those representatives
# have squares in <r^2> and orders at most 4: the factor Z^2 ~ C4 and
# exp(Z) = 8 must come from the centre itself.
_add("dihedral-8-x-C8", 64, lambda: parse_presentation(
    "p 2\ngens 6\npow 1 : g2^1\npow 2 : g3^1\npow 3 : 1\npow 4 : 1\n"
    "pow 5 : g6^1\npow 6 : 1\ncomm 5 4 : g6^1\n"), "scan")

# s243_22 has the longest lower chain of the rows, t_L = 10, and s3125_41
# a centre of order 125
_ROW_TAGS = {"s243_13": ("nonpc",), "s2187_5868": ("nonpc",), "s243_19": ("scan",),
             "s243_22": ("orbit",), "s3125_41": ("nonpc", "scan")}
for path in sorted(DATA_DIR.glob("*.pres")):
    _add(path.stem, int(path.stem[1:].partition("_")[0]),
         lambda path=path: import_presentation(path).group, "shipped", "cap3125",
         *_ROW_TAGS.get(path.stem, ()))

_BY_NAME = {e.name: e for e in REGISTRY}


def _primes(upto):
    return [q for q in range(2, upto + 1) if all(q % d for d in range(2, int(q**0.5) + 1))]


# every oracle-sized group above, builder families at random primes up to
# order 1331, and semidihedral groups up to order 512
PRIME_FAMILIES = st.one_of(
    st.sampled_from(names("oracle")).map(group),
    st.integers(4, 9).map(semidihedral),
    st.sampled_from(_primes(1000)).map(lambda q: build_abelian(q, [q]).group),
    st.sampled_from(_primes(37)).map(lambda q: build_abelian(q, [q * q]).group),
    st.sampled_from(_primes(11)[1:]).map(lambda q: build_heisenberg(q).group),
    st.builds(lambda make, q: make(q), st.sampled_from((
        lambda q: build_free_class2(2, q).group,
        lambda q: build_abelian(q, [q, q, q]).group,
        lambda q: build_abelian(q, [q * q, q]).group)), st.sampled_from(_primes(11))),
    st.sampled_from([2, 3]).map(lambda q: build_free_class2(3, q).group),
)
