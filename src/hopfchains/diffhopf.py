"""Differential carriers and the Hopf ring they induce.

An object D whose self-braiding is minus the identity induces a Hopf
ring on I + D: the only nonzero multiplication components are the
unitors, squares of D-elements vanish, and the antipode negates D.  Over
the grading ring the self-braiding condition becomes arithmetic on the
carrier's cyclic summands, decided by ``check_differential_carrier``.

Tensor products of cyclic groups are gcds: Z/a (x) Z/b = Z/gcd(a, b)
with order 0 standing for Z and order 1 for the zero module.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

from .grading import Bicharacter, GradedModule, graded_to_comodule, sign_coelement
from .laws import VALIDATION_WINDOW, Bimonoid, Comodule, comodule_braiding
from .linalg import (
    UNIT, UNIT_SPACE, CheckResult, LinMap, Vec, equal_on_window, finite_space,
    identity_map, left, pair, right, scale_map, split_label, tensor_space,
)
from .semidirect import ComoduleBimonoid


class RankMismatch(Exception):
    "Carrier degrees and bicharacter rank disagree."


class NotAdmissible(Exception):
    "The self-braiding of the proposed carrier is not minus the identity."


def cyclic_tensor(a, b):
    """Order of Z/a (x) Z/b, with 0 meaning Z and 1 meaning the zero module.

    >>> cyclic_tensor(2, 2), cyclic_tensor(8, 0), cyclic_tensor(4, 6)
    (2, 8, 2)
    """
    return math.gcd(a, b)


def _cyclic_name(n):
    "Z/n by its order, with 0 meaning Z."
    return "Z" if n == 0 else "Z/%d" % n


def _is_int(value):
    "Is a parsed JSON value an integer (not a boolean)?"
    return isinstance(value, int) and not isinstance(value, bool)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _json_type(value):
    "How a parsed JSON value reads in a message, e.g. ``a list``."
    return _JSON_TYPES.get(type(value), type(value).__name__)


@dataclass(frozen=True)
class GradedCarrier:
    """A finite list of cyclic summands (degree vector, order).

    Order 0 encodes Z, order n >= 2 encodes Z/n; order-1 (zero) summands
    are normalised away and the list is kept sorted.
    """
    rank: int
    summands: tuple

    @classmethod
    def of(cls, summands, rank=None):
        """Normalise summands; degrees, orders and the rank must be integers.

        ``True`` is not accepted as the integer 1: a boolean order would
        otherwise be read as Z/1 and dropped.
        """
        cleaned = []
        for deg, order in summands:
            deg = (deg,) if isinstance(deg, int) else tuple(deg)
            if not all(_is_int(c) for c in deg):
                raise ValueError("degree %r is not a vector of integers" % (deg,))
            if not _is_int(order):
                raise ValueError("order %r is not an integer" % (order,))
            if order < 0:
                raise ValueError("orders are nonnegative")
            if order != 1:
                cleaned.append((deg, order))
        cleaned.sort()
        if rank is None:
            rank = len(cleaned[0][0]) if cleaned else 1
        if not _is_int(rank) or rank < 1:
            raise ValueError("rank must be an integer >= 1, not %r" % (rank,))
        for deg, _ in cleaned:
            if len(deg) != rank:
                raise ValueError("degree %s has wrong rank" % (deg,))
        return cls(rank, tuple(cleaned))

    @classmethod
    def from_json(cls, doc):
        """Read ``{"rank": r, "summands": [{"degree": [...], "order": n}, ...]}``.

        A document of any other shape raises a ``ValueError`` naming the
        missing key or the expected shape.
        """
        if not isinstance(doc, dict):
            raise ValueError('a carrier is a JSON object with "rank" and "summands", '
                             'not %s' % _json_type(doc))
        for key in ("rank", "summands"):
            if key not in doc:
                raise ValueError('the carrier has no "%s" key' % key)
        if not isinstance(doc["summands"], list):
            raise ValueError('"summands" is a list of objects, not %s'
                             % _json_type(doc["summands"]))
        summands = []
        for s in doc["summands"]:
            if not (isinstance(s, dict) and isinstance(s.get("degree"), list)
                    and "order" in s):
                raise ValueError('a summand is an object with a "degree" list and an '
                                 '"order", not %r' % (s,))
            summands.append((tuple(s["degree"]), s["order"]))
        return cls.of(summands, rank=doc["rank"])


def _vanishes(order, n):
    "Does multiplication by ``order`` kill Z/n (n = 0 meaning Z)?"
    return order == 0 if n == 0 else order % n == 0


def check_differential_carrier(D, bich):
    """Decide whether the carrier's self-braiding is minus the identity.

    Off-diagonal summand pairs must tensor to zero; on each summand of
    order n at degree g the plain swap is the identity, so the braiding
    sign gamma(g, g) must act as -1 there, i.e. 1 + gamma(g, g) must
    vanish mod n (exactly, for n = 0).

    The verdict is the ``carrier-decision`` row, ``accept`` or
    ``reject``, over the summands (at least one instance); a rejection's
    counterexample is ``{"diagnostics": [...]}``, one line per failure.
    """
    if D.rank != bich.rank:
        raise RankMismatch("carrier rank %d vs bicharacter rank %d"
                           % (D.rank, bich.rank))
    started = time.perf_counter()
    diagnostics = []
    summands = D.summands
    for i, (gi, ni) in enumerate(summands):
        for gj, nj in summands[i + 1:]:
            t = cyclic_tensor(ni, nj)
            if t != 1:
                where = ("degrees %s,%s" % (gi, gj) if gi != gj
                         else "degree %s" % (gi,))
                diagnostics.append(
                    "summands of orders %d and %d at %s tensor to %s != 0"
                    % (ni, nj, where, _cyclic_name(t)))
    for g, n in summands:
        sign = bich.pairing(g, g)
        if not _vanishes(1 + sign, n):
            diagnostics.append(
                "swap sign %+d at degree %s: braiding cannot be -1 on %s"
                % (sign, g, _cyclic_name(n)))
    return CheckResult("carrier-decision", "reject" if diagnostics else "accept",
                       len(summands) or 1,
                       {"diagnostics": diagnostics} if diagnostics else None,
                       time.perf_counter() - started)


def brute_force_carrier_check(D, bich):
    """Independent oracle: evaluate the braiding on every summand pair.

    The braiding component S_i (x) S_j -> S_j (x) S_i is gamma(g_i, g_j)
    times the swap; for it to be a component of minus the identity, the
    off-diagonal components must vanish and each diagonal one must be
    -1 on Z/gcd(n, n).
    """
    if D.rank != bich.rank:
        raise RankMismatch("carrier rank %d vs bicharacter rank %d"
                           % (D.rank, bich.rank))
    for i, (gi, ni) in enumerate(D.summands):
        for j, (gj, nj) in enumerate(D.summands):
            if i == j:
                if not _vanishes(1 + bich.pairing(gi, gi), ni):
                    return False
            elif cyclic_tensor(ni, nj) != 1:
                return False
    return True


def build_differential_hopf(D, coelement, window=VALIDATION_WINDOW):
    """The Hopf ring on Left(D) + Right(I) from an admissible comodule D,
    whose carrier is finite.

    Nonzero multiplication components are unitor relabelings (D.D = 0),
    comultiplication components their inverses, and the antipode is -1
    on D and +1 on I.  The hypothesis "self-braiding of D is -1" is
    verified on ``window`` before building and the ring after it;
    ``window=None`` skips both (the interchange law may then fail).
    """
    braid = comodule_braiding(D, D, coelement)
    if window is not None:
        dd = tensor_space(D.carrier, D.carrier)
        verdict = equal_on_window(braid, scale_map(identity_map(dd), -1),
                                  window, law="self-braiding")
        if not verdict.equal:
            raise NotAdmissible(verdict)

    A = coelement.ring
    Ds = D.carrier
    H = finite_space("(%s+I)" % Ds.name, [left(d) for d in Ds.enumerate(0)] + [right(UNIT)])
    HH = tensor_space(H, H)

    def mu_fn(label):
        x, y = split_label(H, H, label)
        xl, yl = x[0] == "L", y[0] == "L"
        if xl and yl:
            return Vec.zero()
        if xl:
            return Vec.basis(x)
        if yl:
            return Vec.basis(y)
        return Vec.basis(right(UNIT))

    def delta_fn(label):
        if label[0] == "L":
            return (Vec.basis(pair(label, right(UNIT)))
                    + Vec.basis(pair(right(UNIT), label)))
        return Vec.basis(pair(label, label))

    def epsilon_fn(label):
        return Vec.zero() if label[0] == "L" else Vec.basis(UNIT)

    def antipode_fn(label):
        return Vec.basis(label, -1 if label[0] == "L" else 1)

    mu = LinMap(HH, H, mu_fn, name="mu")
    eta = LinMap(UNIT_SPACE, H, lambda l: Vec.basis(right(UNIT)), name="eta")
    delta = LinMap(H, HH, delta_fn, name="delta")
    epsilon = LinMap(H, UNIT_SPACE, epsilon_fn, name="epsilon")
    antipode = LinMap(H, H, antipode_fn, name="antipode")
    hopf = Bimonoid(H, mu, eta, delta, epsilon, antipode)

    def coact_fn(label):
        if label[0] == "L":
            # a (x) d0 |-> a (x) Left(d0) is injective, so no term merges
            out = {}
            for a_d, c in D.coaction.apply(label[1]).items():
                a, d0 = split_label(A.carrier, Ds, a_d)
                out[pair(a, left(d0))] = c
            return Vec(out)
        return Vec({pair(k, label): c for k, c in A.eta.apply(UNIT).items()})

    coact = LinMap(H, tensor_space(A.carrier, H), coact_fn, name="alpha")
    comodule = Comodule(A, H, coact, check_window=window)
    return ComoduleBimonoid(hopf, comodule, coelement, window=window)


@functools.lru_cache(maxsize=None)
def two_term_ring(degree, kappas, /):
    """I + D with D = Z on one generator ``atom("d", *degree, 0)``, over
    ``sign_coelement(Bicharacter(len(degree), kappas))``: one ring per datum
    in a process, verified when first built, whose memos and semidirect
    product serve every caller."""
    gamma = sign_coelement(Bicharacter(len(degree), kappas))
    dmod = GradedModule.of({degree: 1}, rank=len(degree), name="d")
    return build_differential_hopf(graded_to_comodule(dmod, gamma.ring), gamma)
