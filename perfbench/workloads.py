"""The benchmark's workloads: seeded inputs, the checks run on them, and
the known answer each verdict is held to.

Every check is a closure that runs one verification through the public
API and returns the list of ways its verdict differs from the known
answer (empty when the verdict is right).  Known answers come from the
mathematics (window sizes, the laws themselves, the place a mutant was
broken) or from the library's independent brute-force carrier oracle,
never from the code path being measured.

Why these workloads: each optimisation ROADMAP plans should do most of
its work in one of them and little in another.

* ``laws-window`` applies a few structure maps hundreds of thousands of
  times on big label windows (evaluation core, item 2).  It builds no
  semidirect product and no chain complex.
* ``semidirect-build`` is the construction path that verifies on
  construction, several times per sign today (verify once, item 3).
* ``chain-complexes`` builds tens of thousands of small maps, each
  applied a few times at window 0, plus numpy object-matrix algebra
  (drop numpy, item 3).
"""

from __future__ import annotations

import importlib
from itertools import product

from perfbench import inputs

WORKLOADS = ("laws-window", "semidirect-build", "chain-complexes")

# inputs per pass (a pass takes 2 to 16 s on a 2-CPU x86-64 machine)
COMPARISON_SAMPLES = 25     # comparison-functor samples per sign
ADMISSIBLE_CARRIERS = 40
EVEN_CARRIERS = 1600        # known-false carriers: each rejection takes ~0.25 ms
ROUND_TRIPS = 400
NON_HOMOGENEOUS = 200
SYMMETRIES = 100
CURRIES = 400
TRIANGLES = 150
COMONADS = 400
BICOMPLEXES = 100           # per kappa, and as many known-false squares

SUITE_ARITY = {
    "associativity": 3, "unit-left": 1, "unit-right": 1,
    "coassociativity": 1, "counit-left": 1, "counit-right": 1,
    "epsilon-eta": 0, "epsilon-mu": 2, "delta-eta": 0, "interchange": 2,
    "antipode-left": 1, "antipode-right": 1,
}
COELEMENT_ARITY = {"coelement-ax1": 2, "coelement-ax2": 3, "coelement-ax3": 3}


class Check:
    """One verdict: ``run()`` returns the list of mismatches with its known answer.

    ``kind`` is "accept" for inputs that must pass over their whole window
    and "reject" for known-false inputs; ``group`` names the entry point
    for the traced run.
    """

    __slots__ = ("name", "kind", "group", "run")

    def __init__(self, name, kind, group, run):
        self.name = name
        self.kind = kind
        self.group = group
        self.run = run


class Lib:
    "The package's modules, looked up at call time so a tracer can patch them."

    def __init__(self):
        self.hc = importlib.import_module("hopfchains")
        for name in ("linalg", "laws", "grading", "diffhopf", "semidirect",
                     "pareigis", "chains"):
            setattr(self, name, importlib.import_module("hopfchains." + name))


class Stats:
    "Counts the workload itself observes; reported by the traced run."

    def __init__(self):
        self.reject_labels = 0


# ---------------------------------------------------------------------------
# judging reports


def judge(report, expected, stats=None):
    """Compare a report's rows with expected verdicts.

    ``expected`` maps each law to ("equal", instances) for a law that must
    hold on every label of its window, or ("differ", is_bad_label) for one
    that must fail with a counterexample the predicate accepts.
    """
    problems = []
    rows = {r.law: r for r in report}
    if sorted(rows) != sorted(expected) or len(rows) != len(report):
        problems.append("laws %s, expected %s" % (sorted(rows), sorted(expected)))
    for law, (verdict, want) in expected.items():
        r = rows.get(law)
        if r is None:
            continue
        if verdict == "equal":
            if not r.equal:
                problems.append("%s: differ %r" % (law, r))
            elif r.instances != want:
                problems.append("%s: %d labels, window has %d"
                                % (law, r.instances, want))
            continue
        cx = r.counterexample
        if r.equal or cx is None:
            problems.append("%s: accepted a known-false input" % law)
        elif cx.lhs == cx.rhs or not want(cx.label):
            problems.append("%s: counterexample %r is not a defect" % (law, cx))
        elif stats is not None:
            stats.reject_labels += r.instances
    return problems


def suite_expectation(n, differ=None):
    "Every suite law equal on its whole window of n**arity labels, except ``differ``."
    out = {law: ("equal", n ** a) for law, a in SUITE_ARITY.items()}
    out.update(differ or {})
    return out


def expect_raise(exc_type, fn):
    "A check whose known answer is that ``fn`` raises ``exc_type``."
    def run():
        try:
            fn()
        except exc_type:
            return []
        return ["accepted; expected %s" % exc_type.__name__]
    return run


def interleave(checks):
    """Spread the known-false checks evenly between the accepting ones.

    Rejections are short.  Run back to back they would all fall in one
    slice of the pass and share whatever else the machine did then, so
    their total would swing far more from run to run than the total of
    the accepting checks, which spans the whole pass.
    """
    accept = [c for c in checks if c.kind == "accept"]
    reject = [c for c in checks if c.kind == "reject"]
    out, done = [], 0
    for i, check in enumerate(accept):
        out.append(check)
        upto = (i + 1) * len(reject) // len(accept)
        out += reject[done:upto]
        done = upto
    return out


# ---------------------------------------------------------------------------
# laws-window


def _sign(kappas, g, h):
    "The diagonal sign bicharacter prod kappa_c^(g_c h_c), from its definition."
    parity = sum(gc * hc for k, gc, hc in zip(kappas, g, h) if k == -1)
    return -1 if parity % 2 else 1


def _add(g, h):
    return tuple(a + b for a, b in zip(g, h))


class CoelementOracle:
    """Known verdicts of the coelement axioms on the rank-r Laurent ring.

    The basis x^g is group-like and commutative, so for a pairing gamma on
    exponent vectors: axiom 1 always holds; axiom 2 fails at (a, b, c)
    exactly when gamma(a, b+c) != gamma(a, c) gamma(a, b); axiom 3 exactly
    when gamma(a+b, c) != gamma(a, c) gamma(b, c).
    """

    def __init__(self, lib, rank, K):
        self.window = list(product(range(-K, K + 1), repeat=rank))
        mono = [lib.grading.monomial(*g) for g in self.window]
        self.triples = {}
        for i, j, k in product(range(len(mono)), repeat=3):
            label = lib.hc.pair(mono[i], mono[j], mono[k])
            self.triples[label] = (self.window[i], self.window[j], self.window[k])

    def expectation(self, gamma):
        def bad2(a, b, c):
            return gamma(a, _add(b, c)) != gamma(a, c) * gamma(a, b)

        def bad3(a, b, c):
            return gamma(_add(a, b), c) != gamma(a, c) * gamma(b, c)

        n = len(self.window)
        out = {"coelement-ax1": ("equal", n ** 2)}
        for law, bad in (("coelement-ax2", bad2), ("coelement-ax3", bad3)):
            if any(bad(*t) for t in self.triples.values()):
                out[law] = ("differ", lambda label, bad=bad:
                            label in self.triples and bad(*self.triples[label]))
            else:
                out[law] = ("equal", n ** 3)
        return out


def laws_window(lib, rng, stats):
    hl, hg, hp = lib.laws, lib.grading, lib.pareigis
    checks = []
    K = 8
    n = 2 * (2 * K + 1)  # normal forms psi^a xi^k, a in {0,1}, |k| <= K
    for s in (-1, 1):
        ring = hp.pareigis_ring(s)
        checks.append(Check(
            "suite[P s=%+d K=%d]" % (s, K), "accept", "suite",
            lambda ring=ring, n=n: judge(hl.check_bialgebra_laws(ring, hl.plain_swap(), K),
                                         suite_expectation(n))))

    def coelement_check(name, kind, coel, expect, W):
        return Check(name, kind, "coelement",
                     lambda: judge(hl.check_coelement(coel, W), expect, stats))

    # a sign bicharacter is a coelement: all three axioms hold everywhere
    for rank, W, signs in ((1, 8, [(1,), (-1,)]),
                           (2, 2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])):
        n = (2 * W + 1) ** rank
        for kappas in signs:
            coel = hg.sign_coelement(hg.Bicharacter(rank, kappas))
            expect = {law: ("equal", n ** a) for law, a in COELEMENT_ARITY.items()}
            checks.append(coelement_check("coelement[%s K=%d]" % (kappas, W),
                                          "accept", coel, expect, W))

    # Known-false inputs come as many short checks, so that interleaving
    # spreads them over the whole pass.
    oracles = {W: CoelementOracle(lib, 1, W) for W in (8, 7, 6, 5)}
    # the parity pairing of acceptance criterion 2, rejected within the
    # first labels of axiom 3
    ring = hg.laurent_hopf(1)
    parity = hl.Coelement(
        ring, lambda a, b: -1 if (hg.degree_of(a)[0] + hg.degree_of(b)[0]) % 2 else 1,
        name="parity")
    checks.append(coelement_check(
        "parity[K=8]", "reject", parity,
        oracles[8].expectation(lambda g, h: -1 if (g[0] + h[0]) % 2 else 1), 8))

    # sign coelements with their one defect at the tail of the window:
    # gamma(x^W, x^W) negated
    for W, oracle in oracles.items():
        for kappas in ((1,), (-1,)):
            base = hg.sign_coelement(hg.Bicharacter(1, kappas))
            tail = hg.monomial(W)
            flipped = hl.Coelement(
                base.ring,
                lambda a, b, base=base, tail=tail:
                    -base.gamma(a, b) if a == tail and b == tail else base.gamma(a, b),
                name="tail-flip")
            expect = oracle.expectation(
                lambda g, h, k=kappas, t=(W,):
                    -_sign(k, g, h) if g == h == t else _sign(k, g, h))
            checks.append(coelement_check("tail-flip[%s K=%d]" % (kappas, W),
                                          "reject", flipped, expect, W))

    # P and P+ with the antipode broken on the last normal form psi xi^W
    # only.  Its coproduct is the only one with psi xi^W as a leg, so both
    # antipode laws fail there and nowhere else.
    for W in (4, 3):
        for s in (-1, 1):
            ring = hp.pareigis_ring(s)
            tail = hp.monomial(1, W)
            extra = lib.hc.Vec.basis(hp.monomial(0, rng.randint(-W, W)),
                                     rng.choice((-2, -1, 1, 2)))
            anti = ring.antipode
            broken = lib.hc.LinMap(
                anti.dom, anti.cod,
                lambda l, anti=anti, tail=tail, extra=extra:
                    anti.apply(l) + extra if l == tail else anti.apply(l),
                name="antipode")
            mutant = hl.Bimonoid(ring.carrier, ring.mu, ring.eta, ring.delta,
                                 ring.epsilon, broken)
            at_tail = ("differ", lambda label, tail=tail: label == tail)
            expect = suite_expectation(2 * (2 * W + 1), {"antipode-left": at_tail,
                                                         "antipode-right": at_tail})
            checks.append(Check(
                "antipode-tail[P s=%+d K=%d]" % (s, W), "reject", "suite",
                lambda mutant=mutant, expect=expect, W=W:
                    judge(hl.check_bialgebra_laws(mutant, hl.plain_swap(), W), expect, stats)))
    return interleave(checks)


# ---------------------------------------------------------------------------
# semidirect-build


def semidirect_build(lib, rng, stats):
    hl, hp, hs, hd, hg = lib.laws, lib.pareigis, lib.semidirect, lib.diffhopf, lib.grading
    K = 6
    n = 2 * (2 * K + 1)  # Left(d), Right(1) times x^k, |k| <= K
    checks = []
    # carriers D over the Laurent ring with kappa = -1; the brute-force
    # oracle gives the known answer for each.
    gamma = hg.sign_coelement(hg.Bicharacter(1, (-1,)))
    bich = hg.Bicharacter(1, (-1,))

    def carrier(degrees):
        """(known verdict, check) for the I + D ring on free summands in
        ``degrees``; the brute-force oracle gives the known verdict."""
        comps = {}
        for d in degrees:
            comps[d] = comps.get(d, 0) + 1

        def build():
            D = hg.graded_to_comodule(hg.GradedModule.of(comps, rank=1, name="d"),
                                      gamma.ring)
            return hd.build_differential_hopf(D, gamma, window=K)
        if hd.brute_force_carrier_check(hd.GradedCarrier.of([((d,), 0) for d in degrees]),
                                        bich):
            return True, lambda: [] if build() else ["no ring"]
        return False, expect_raise(hd.NotAdmissible, build)

    # Z in one odd degree: admissible, one check for the lot
    odd = [carrier([2 * rng.randint(-3, 3) + 1])[1] for _ in range(ADMISSIBLE_CARRIERS)]
    checks.append(Check("odd carriers", "accept", "carrier",
                        lambda: [p for run in odd for p in run()]))
    # free summands in even degrees only: not admissible
    for i in range(EVEN_CARRIERS):
        degrees = [2 * rng.randint(-3, 3) for _ in range(1 + i % 3)]
        ok, run = carrier(degrees)
        checks.append(Check("carrier%s" % (degrees,), "accept" if ok else "reject",
                            "carrier", run))

    for s in (-1, 1):
        state = {}

        def build(s=s, state=state):
            state["hb"] = hp.differential_comodule_bimonoid(s)
            return []

        def product(state=state):
            state["sd"] = hs.semidirect_product(state["hb"], window=K)
            return []

        def suite(state=state):
            return judge(hl.check_bialgebra_laws(state["sd"], hl.plain_swap(), K),
                         suite_expectation(n))

        def antipode(state=state):
            hs.semidirect_antipode(state["hb"], window=K)
            return []

        def identify(s=s):
            want = {"mu": ("equal", n ** 2), "eta": ("equal", 1),
                    "delta": ("equal", n), "epsilon": ("equal", n),
                    "antipode": ("equal", n), "label-bijection": ("equal", n)}
            return judge(hp.identify_semidirect(s, K=K), want)

        checks += [Check("bimonoid[s=%+d]" % s, "accept", "build", build),
                   Check("product[s=%+d K=%d]" % (s, K), "accept", "product", product),
                   Check("suite[s=%+d K=%d]" % (s, K), "accept", "suite", suite),
                   Check("antipode[s=%+d K=%d]" % (s, K), "accept", "antipode", antipode),
                   Check("identify[s=%+d K=%d]" % (s, K), "accept", "identify", identify)]

        pairs = [(chain_complex(lib, inputs.random_complex(rng, 4, 3), "f%d" % t),
                  chain_complex(lib, inputs.random_complex(rng, 3, 2), "g%d" % t))
                 for t in range(COMPARISON_SAMPLES)]

        def comparisons(s=s, state=state, pairs=pairs):
            return [p for x, y in pairs
                    for p in comparison_sample(lib, state["hb"], s, x, y)]
        checks.append(Check("comparisons[s=%+d]" % s, "accept", "comparison", comparisons))

    return interleave(checks)


def chain_complex(lib, data, name):
    return lib.chains.ChainComplex(data.ranks, data.diffs, name=name)


def comparison_sample(lib, hb, s, x, y):
    "F^-1 F = id and F strictly monoidal, on one sampled pair of complexes."
    hp, hs = lib.pareigis, lib.semidirect
    B = hp.chain_to_wcomodule(x, s, hb)
    FB = hs.comparison_f(B, window=0)
    back = hs.comparison_f_inverse(FB, window=0)
    again = hs.comparison_f(back, window=0)
    problems = []
    for b in B.carrier.enumerate(0):
        if back.alpha.apply(b) != B.alpha.apply(b) or back.chi.apply(b) != B.chi.apply(b):
            problems.append("F^-1 F differs at %r" % (b,))
        if again.coaction.apply(b) != FB.coaction.apply(b):
            problems.append("F F^-1 F differs at %r" % (b,))
    C = hp.chain_to_wcomodule(y, s, hb)
    lhs = hs.comparison_f(hs.tensor_wcomodule(B, C, window=0), window=0)
    rhs = lib.laws.tensor_comodule(FB, hs.comparison_f(C, window=0), check_window=None)
    verdict = lib.hc.equal_on_window(lhs.coaction, rhs.coaction, 0, law="monoidal")
    if not verdict.equal:
        problems.append("F is not monoidal: %r" % (verdict,))
    return problems


# ---------------------------------------------------------------------------
# chain-complexes


def _json_of(data):
    "The ranks and differentials ChainComplex.to_json must report for data."
    return ({str(n): r for n, r in sorted(data.ranks.items())},
            {str(n): d for n, d in sorted(data.diffs.items())})


def _tensor_ranks(a, b):
    ranks = {}
    for i in a.degrees():
        for j in b.degrees():
            ranks[i + j] = ranks.get(i + j, 0) + a.rank(i) * b.rank(j)
    return {str(n): r for n, r in sorted(ranks.items()) if r}


def _squares_vanish(doc):
    "d.d = 0 on a ChainComplex.to_json document, multiplied here."
    ranks = {int(n): r for n, r in doc["ranks"].items()}
    diffs = {int(n): d for n, d in doc["differentials"].items()}
    for n, d in diffs.items():
        below = diffs.get(n - 1)
        if below and not inputs.is_zero(inputs.matmul(below, d, ranks[n])):
            return False
    return True


def chain_complexes(lib, rng, stats):
    hc, ch, hp = lib.hc, lib.chains, lib.pareigis
    checks = []

    for trial in range(ROUND_TRIPS):
        data = inputs.random_complex(rng, 7, 4)
        X = chain_complex(lib, data, "r%d" % trial)
        s = -1 if trial % 2 else 1

        def round_trip(X=X, s=s, want=_json_of(data)):
            doc = hp.comodule_to_chain(hp.chain_to_comodule(X, s)).to_json()
            got = (doc["ranks"], doc["differentials"])
            return [] if got == want else ["round trip gave %r" % (got,)]
        checks.append(Check("roundtrip[%d]" % trial, "accept", "roundtrip", round_trip))

    for trial in range(NON_HOMOGENEOUS):
        checks.append(Check("non-homogeneous[%d]" % trial, "reject", "roundtrip",
                            skew_comodule_check(lib, rng, trial)))

    for trial in range(SYMMETRIES):
        a, b = inputs.random_complex(rng, 5, 3), inputs.random_complex(rng, 5, 3)
        A, B = chain_complex(lib, a, "a"), chain_complex(lib, b, "b")

        def symmetry(A=A, B=B, ranks=_tensor_ranks(a, b)):
            problems = []
            sym = hc.chain_symmetry(A, B)
            if not sym.is_chain_map():
                problems.append("symmetry is not a chain map")
            T = hc.tensor_chains(A, B)
            if sym.then(hc.chain_symmetry(B, A)) != ch.identity_chain_map(T):
                problems.append("symmetry is not an involution")
            doc = T.to_json()
            if doc["ranks"] != ranks or not _squares_vanish(doc):
                problems.append("tensor complex is wrong: %r" % (doc,))
            return problems
        checks.append(Check("symmetry[%d]" % trial, "accept", "tensor", symmetry))

    for trial in range(CURRIES):
        a, b = inputs.random_complex(rng, 3, 2), inputs.random_complex(rng, 3, 2)
        A, B = chain_complex(lib, a, "ca"), chain_complex(lib, b, "cb")
        AB = hc.tensor_chains(A, B)
        ab = _complex_of(AB.to_json())
        phi = hc.ChainMap(AB, AB, inputs.random_chain_map(rng, ab, ab, True))

        def curry(A=A, B=B, AB=AB, phi=phi):
            cur, uncur = hc.curry_adjunction(A, B, AB)
            psi = cur(phi)
            problems = [] if psi.is_chain_map() else ["curry gave no chain map"]
            if uncur(psi) != phi:
                problems.append("uncurry(curry(phi)) != phi")
            return problems
        checks.append(Check("curry[%d]" % trial, "accept", "curry", curry))

    for trial in range(TRIANGLES):
        X = chain_complex(lib, inputs.random_complex(rng, 7, 4), "t")
        checks.append(Check("triangle[%d]" % trial, "accept", "triangle",
                            lambda X=X: [] if hc.triangle_identities_hold(X) is True
                            else ["triangle identities fail"]))

    for trial in range(COMONADS):
        data = inputs.random_complex(rng, 7, 4)
        X = chain_complex(lib, data, "u%d" % trial)
        f = hc.ChainMap(X, X, inputs.random_chain_map(rng, data, data, True))

        def comonad(X=X, f=f):
            r = hc.comonad_comparison(X, [f])
            return [] if r.equal and r.instances == 2 else ["comonad comparison: %r" % (r,)]
        checks.append(Check("comonad[%d]" % trial, "accept", "comonad", comonad))

    for trial in range(BICOMPLEXES):
        for kappa in (-1, 1):
            s = rng.choice((-1, 1))
            ranks, d1, d2, bideg = inputs.random_bicomplex(rng, kappa, s)
            B = hc.Bicomplex(ranks, d1, d2, bideg)

            def accepted(B=B, kappa=kappa, s=s):
                res = hc.second_differential(B, kappa, s)
                if res.accepted and res.comodule is not None and res.chain_compat.equal:
                    return []
                return ["bicomplex rejected: %r" % (res,)]
            checks.append(Check("bicomplex[%d kappa=%+d]" % (trial, kappa), "accept",
                                "bicomplex", accepted))

            # known-false: a fresh legal bicomplex plus one violating square
            legal = inputs.random_bicomplex(rng, kappa, s)
            square = inputs.violating_square(rng, kappa, s)
            top = square[4]
            ranks, d1, d2 = inputs.bicomplex_sum(legal[:3], square[:3], legal[3][0])
            B = hc.Bicomplex(ranks, d1, d2, legal[3])

            def rejected(B=B, kappa=kappa, s=s, top=top):
                res = hc.second_differential(B, kappa, s)
                if not res.accepted and tuple(res.violations) == (top,):
                    return []
                return ["square at %s: %r" % (top, res)]
            checks.append(Check("square[%d kappa=%+d]" % (trial, kappa), "reject",
                                "bicomplex", rejected))
    return interleave(checks)


def _complex_of(doc):
    return inputs.Complex({int(n): r for n, r in doc["ranks"].items()},
                          {int(n): d for n, d in doc["differentials"].items()})


def skew_comodule_check(lib, rng, trial):
    """A legal comodule over P+ with one basis vector that hides its grading.

    The carrier is a random complex X (b in degree n |-> xi^n (x) b +
    psi xi^(n-1) (x) db, the coaction of chain_to_comodule for s = +1)
    followed by u of grade p and w = u + v for v of grade q != p, with
    w |-> xi^p (x) u + xi^q (x) (w - u).  Building the comodule must
    succeed, since it is legal; comodule_to_chain must then refuse w,
    the last basis vector, because it is not homogeneous.
    """
    hc, hp = lib.hc, lib.pareigis
    data = inputs.random_complex(rng, 7, 4)
    name = "k%d" % trial
    place = {hc.atom(name, n, i): (n, i)
             for n in data.degrees() for i in range(data.rank(n))}
    u, w = hc.atom(name + "u"), hc.atom(name + "w")
    p = rng.randint(-4, 4)
    q = p + rng.choice((-3, -2, -1, 1, 2, 3))
    V, pair, psi_xi = hc.Vec, hc.pair, hp.monomial

    def beta(label):
        if label == u:
            return V.basis(pair(psi_xi(0, p), u))
        if label == w:
            return (V.basis(pair(psi_xi(0, p), u)) + V.basis(pair(psi_xi(0, q), w))
                    - V.basis(pair(psi_xi(0, q), u)))
        n, i = place[label]
        out = V.basis(pair(psi_xi(0, n), label))
        for j, row in enumerate(data.d(n)):
            if row[i]:
                out = out + V.basis(pair(psi_xi(1, n - 1), hc.atom(name, n - 1, j)), row[i])
        return out

    def run():
        ring = hp.pareigis_ring(1)
        carrier = lib.linalg.finite_space(name, list(place) + [u, w])
        com = lib.laws.Comodule(
            ring, carrier,
            hc.LinMap(carrier, hc.tensor_space(ring.carrier, carrier), beta, name="beta"),
            check_window=0)
        try:
            hp.comodule_to_chain(com)
        except lib.laws.IllegalComodule:
            return []
        return ["a non-homogeneous basis was accepted"]
    return run


BUILDERS = {"laws-window": laws_window, "semidirect-build": semidirect_build,
            "chain-complexes": chain_complexes}
