"""Free products of finite, cyclic and free-abelian factors, with an optional
free part: exact normal forms, the absolute and relative word metrics, and the
parabolic graph models the glued construction builds on.

Elements are tuples of syllables.  A syllable is either ("p", j, h) for a
nontrivial element h of factor j, or ("f", word) for a nonempty reduced word
over the free letters (signed integers, -i inverting i).  Normal form means no
trivial syllables and no two adjacent syllables that could merge.  The empty
tuple is the identity.  These groups have an exactly solvable word problem, so
every downstream check is exact.

Letters of the relative alphabet are tagged tuples:

  ("xg", j, h)   a chosen generator h of factor j, used as an X-letter
  ("xf", i)      a free letter (i != 0, sign is inversion)
  ("h", j, h)    an arbitrary nontrivial element of factor j, used as a
                 parabolic letter

X-letters whose image lies in a factor and the parabolic letter with the same
image are distinct letters by construction; epsilon is injective on letters
here, so no multi-edge bookkeeping is needed.
"""

from __future__ import annotations

from bisect import bisect
from itertools import chain, product as iproduct
from math import comb
from operator import add, neg, sub
from typing import Iterable, Optional

from .graphs import _Memo, bfs_row, read_json, strict_int

Element = tuple  # tuple of syllables
Letter = tuple

BALL_GUARD_DEFAULT = 1_000_000


class GroupError(ValueError):
    pass


class BallExplosion(GroupError):
    pass


class _FiniteFactorBase:
    """A finite factor on elements 0..order-1 with identity 0; subclasses give
    mul and inv.  Word lengths are one BFS over the Cayley graph."""

    is_finite = True
    identity = 0

    def __init__(self, order: int, generators: list[int]):
        self.order = order
        self.generators = generators
        self._wl = bfs_row([[self.mul(s, a) for s in generators]
                            for a in range(order)], 0)
        if min(self._wl) < 0:
            raise GroupError("generators do not generate the factor")

    def word_length(self, h) -> int:
        return self._wl[h]

    def graph_distance(self, u, v) -> int:
        return self._wl[self.mul(v, self.inv(u))]

    def ball(self, u, r: int) -> list:
        """Elements within r of u, increasing, u included: a scan of all."""
        return [v for v in range(self.order) if self.graph_distance(u, v) <= r]

    def ball_size(self, r: int) -> int:
        """Number of elements within r of any one element; none is listed."""
        return sum(d <= r for d in self._wl)

    def near(self, u, n: int) -> list:
        """Elements at distance 1..n from u, increasing."""
        return [v for v in self.ball(u, n) if v != u]

    def nontrivial_elements(self, cap: Optional[int] = None) -> list:
        return list(range(1, self.order))


class CyclicFactor(_FiniteFactorBase):
    """Z/order with generators {1, order-1}; the parabolic graph is its Cayley
    graph, acted on by right translation (simply transitively)."""

    kind = "cyclic"

    def __init__(self, order: int):
        if order < 2:
            raise GroupError("cyclic factor needs order >= 2")
        super().__init__(order, sorted({1, order - 1}))

    def mul(self, a, b):
        return (a + b) % self.order

    def inv(self, a):
        return (-a) % self.order

    def to_json(self):
        return {"kind": "cyclic", "order": self.order}


class FiniteFactor(_FiniteFactorBase):
    """Finite factor given by a multiplication table with identity 0."""

    kind = "finite"

    def __init__(self, table: list[list[int]], generators: list[int]):
        n = len(table) if isinstance(table, (list, tuple)) else 0
        if n < 2 or any(not isinstance(row, (list, tuple)) or len(row) != n
                        for row in table):
            raise GroupError("multiplication table must be square, order >= 2")
        if not isinstance(generators, (list, tuple)) or any(
                type(x) is not int or not 0 <= x < n
                for x in chain(generators, *table)):
            raise GroupError(f"table entries and generators must be 0..{n - 1}")
        for a in range(n):
            if table[0][a] != a or table[a][0] != a:
                raise GroupError("identity of the table must be element 0")
        inv = [-1] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == 0:
                    inv[a] = b
        if any(i < 0 for i in inv):
            raise GroupError("table has a non-invertible element")
        gens = sorted(set(generators))
        if 0 in gens:
            raise GroupError("identity may not be a generator")
        if sorted({inv[g] for g in gens}) != gens:
            raise GroupError("generating set must be symmetric")
        # Light's test: the s with x(sy) = (xs)y for all x, y are closed under
        # products, so checking the generators, which the base class requires
        # to generate every element, decides associativity
        for s in gens:
            for row in table:
                if list(map(row.__getitem__, table[s])) != list(table[row[s]]):
                    raise GroupError("table is not associative")
        self.table = tuple(tuple(row) for row in table)
        self._inv = inv
        super().__init__(n, gens)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def to_json(self):
        return {"kind": "finite", "table": [list(r) for r in self.table],
                "generators": list(self.generators)}


class FreeAbelianFactor:
    """Z^rank with the square (+-e_i, l1 metric) or king (all nonzero
    {-1,0,1}-vectors, linf metric) generating set; the parabolic graph is the
    corresponding lattice graph, acted on by translation."""

    kind = "free_abelian"
    is_finite = False

    def __init__(self, rank: int, gen_style: str = "king"):
        if rank < 1:
            raise GroupError("free-abelian factor needs rank >= 1")
        if gen_style not in ("king", "square"):
            raise GroupError("generator style must be 'king' or 'square'")
        self.rank = rank
        self.gen_style = gen_style
        self.identity = (0,) * rank
        self.generators = self.nontrivial_elements(1)  # the norm-1 elements, in order
        self._offsets: dict[int, list[tuple]] = {}

    def mul(self, a, b):
        return tuple(map(add, a, b))

    def inv(self, a):
        return tuple(map(neg, a))

    def word_length(self, h) -> int:
        if self.gen_style == "square":
            return sum(map(abs, h))
        return max(map(abs, h))

    def graph_distance(self, u, v) -> int:
        return self.word_length(tuple(map(sub, v, u)))

    def ball(self, u, r: int) -> list:
        """Points within r of u, u included, in lexicographic order: a box walk."""
        return [tuple(map(add, u, d)) for d in iproduct(range(-r, r + 1), repeat=self.rank)
                if self.word_length(d) <= r]

    def near(self, u, n: int) -> list:
        """Points at distance 1..n from u, in lexicographic order, which is
        translation-invariant: the offsets are listed (in order) once per n."""
        offsets = self._offsets.get(n)
        if offsets is None:
            offsets = self._offsets[n] = self.nontrivial_elements(n)
        return [tuple(map(add, u, d)) for d in offsets]

    def ball_size(self, n: int) -> int:
        """Size of every ball of radius n, norm <= n around 0; none is listed."""
        if self.gen_style == "king":
            return (2 * n + 1) ** self.rank
        return sum(2 ** k * comb(self.rank, k) * comb(n, k) for k in range(self.rank + 1))

    def nontrivial_elements(self, cap: Optional[int] = None) -> list:
        if cap is None:
            raise GroupError("free-abelian letters need a norm cap")
        return [d for d in self.ball(self.identity, cap) if any(d)]

    def to_json(self):
        return {"kind": "free_abelian", "rank": self.rank, "generators": self.gen_style}


def _factor_from_json(rec: dict):
    kind = rec.get("kind") if isinstance(rec, dict) else None
    if kind == "cyclic":
        return CyclicFactor(strict_int(rec.get("order"), "order", GroupError))
    if kind == "finite":
        return FiniteFactor(rec.get("table"), rec.get("generators"))
    if kind == "free_abelian":
        return FreeAbelianFactor(strict_int(rec.get("rank"), "rank", GroupError),
                                 rec.get("generators", "king"))
    raise GroupError(f"unknown factor kind {kind!r}")


class GroupSpec:
    """A free product of factors, plus free_rank free letters."""

    def __init__(self, factors: Iterable, free_rank: int = 0):
        self.factors = tuple(factors)
        if free_rank < 0:
            raise GroupError("free_rank must be >= 0")
        self.free_rank = free_rank
        if not self.factors and free_rank == 0:
            raise GroupError("trivial group: no factors and no free letters")
        self.identity: Element = ()
        self._rel_letters: dict[Optional[int], tuple[Letter, ...]] = {}
        self._images: dict[Letter, Element] = {}

    # -- normal form arithmetic -------------------------------------------

    def parabolic(self, j: int, h) -> Element:
        if not 0 <= j < len(self.factors):
            raise GroupError("factor index out of range")
        if h == self.factors[j].identity:
            return ()
        return (("p", j, h),)

    def free_word(self, word: Iterable[int]) -> Element:
        w = []
        for x in word:
            if x == 0 or abs(x) > self.free_rank:
                raise GroupError(f"bad free letter {x}")
            if w and w[-1] == -x:
                w.pop()
            else:
                w.append(x)
        if not w:
            return ()
        return (("f", tuple(w)),)

    def multiply(self, a: Element, b: Element) -> Element:
        """a b in normal form.  Both factors are normal, so only syllables
        meeting at the junction reduce: a pair that cancels outright exposes
        the next pair, and the first that does not ends the reduction."""
        i, k, mid = len(a), 0, ()
        while i and k < len(b):
            last, syl = a[i - 1], b[k]
            if last[0] != syl[0] or (syl[0] == "p" and last[1] != syl[1]):
                break
            i -= 1
            k += 1
            if syl[0] == "p":
                factor = self.factors[syl[1]]
                h = factor.mul(last[2], syl[2])
                if h != factor.identity:
                    mid = (("p", syl[1], h),)
                    break
            else:
                w1, w2 = last[1], syl[1]
                n, m = len(w1), 0
                while n and m < len(w2) and w1[n - 1] == -w2[m]:
                    n -= 1
                    m += 1
                if n or m < len(w2):
                    mid = (("f", w1[:n] + w2[m:]),)
                    break
        return a[:i] + mid + b[k:]

    def invert(self, a: Element) -> Element:
        out = []
        for syl in reversed(a):
            if syl[0] == "p":
                out.append(("p", syl[1], self.factors[syl[1]].inv(syl[2])))
            else:
                out.append(("f", tuple(-x for x in reversed(syl[1]))))
        return tuple(out)

    def project(self, a: Element, j: int):
        """Canonical retraction onto factor j: kill everything else."""
        factor = self.factors[j]
        acc = factor.identity
        for syl in a:
            if syl[0] == "p" and syl[1] == j:
                acc = factor.mul(acc, syl[2])
        return acc

    def coset_rep(self, g: Element, j: int) -> Element:
        """Canonical representative of the right coset H_j g: g with a leading
        factor-j syllable dropped.  In a free product H_j g = H_j g2 exactly
        when g g2^-1 is trivial or one factor-j syllable, which is exactly
        when the two representatives agree."""
        if g and g[0][0] == "p" and g[0][1] == j:
            return g[1:]
        return g

    # -- lengths -----------------------------------------------------------

    def rel_length(self, a: Element) -> int:
        """Distance to the identity over X union all parabolic letters.

        In a free product each parabolic syllable needs exactly one letter and
        each free syllable one letter per free generator, and the normal form
        realizes that, so the count below is the exact relative word metric.
        """
        return sum(1 if syl[0] == "p" else len(syl[1]) for syl in a)

    def x_length(self, a: Element) -> int:
        """Distance to the identity over the finite generating set X: factor
        word lengths of parabolic syllables plus free-word lengths."""
        total = 0
        for syl in a:
            if syl[0] == "p":
                total += self.factors[syl[1]].word_length(syl[2])
            else:
                total += len(syl[1])
        return total

    def d_x(self, g: Element, h: Element) -> int:
        return self.x_length(self.multiply(h, self.invert(g)))

    def rel_row(self, g: Element):
        """h -> d_rel(g, h), inverting g once for every h."""
        inv, multiply, length = self.invert(g), self.multiply, self.rel_length
        return lambda h: length(multiply(h, inv))

    def x_row(self, g: Element):
        """h -> d_x(g, h), inverting g once for every h."""
        inv, multiply, length = self.invert(g), self.multiply, self.x_length
        return lambda h: length(multiply(h, inv))

    # -- letters -----------------------------------------------------------

    def x_letters(self) -> list[Letter]:
        return ([("xg", j, h) for j, f in enumerate(self.factors) for h in f.generators]
                + [("xf", x) for i in range(1, self.free_rank + 1) for x in (i, -i)])

    def h_letters(self, parabolic_cap: Optional[int] = None) -> list[Letter]:
        return [("h", j, h) for j, f in enumerate(self.factors)
                for h in f.nontrivial_elements(parabolic_cap)]

    def rel_letters(self, parabolic_cap: Optional[int] = None) -> tuple[Letter, ...]:
        """The relative alphabet, X-letters first; built once per cap."""
        letters = self._rel_letters.get(parabolic_cap)
        if letters is None:
            letters = tuple(self.x_letters() + self.h_letters(parabolic_cap))
            self._rel_letters[parabolic_cap] = letters
        return letters

    def letter_image(self, letter: Letter) -> Element:
        """The element a letter stands for, computed once per letter."""
        image = self._images.get(letter)
        if image is None:
            tag = letter[0]
            if tag == "xg" or tag == "h":
                image = self.parabolic(letter[1], letter[2])
            elif tag == "xf":
                image = self.free_word((letter[1],))
            else:
                raise GroupError(f"unknown letter {letter!r}")
            self._images[letter] = image
        return image

    def letter_invert(self, letter: Letter) -> Letter:
        tag = letter[0]
        if tag == "xg" or tag == "h":
            return (tag, letter[1], self.factors[letter[1]].inv(letter[2]))
        if tag == "xf":
            return ("xf", -letter[1])
        raise GroupError(f"unknown letter {letter!r}")

    def geodesic_letters(self, q: Element) -> list[Letter]:
        """Letters of a relative-metric geodesic word from 1 to q.

        Words label paths whose letter images multiply on the left, so the
        syllables are emitted last-to-first.
        """
        letters: list[Letter] = []
        for syl in reversed(q):
            if syl[0] == "p":
                letters.append(("h", syl[1], syl[2]))
            else:
                letters.extend(("xf", x) for x in reversed(syl[1]))
        return letters

    # -- balls ---------------------------------------------------------------

    def syllable_walk(self, radius: int, cost, cap: int, guard: int,
                      too_many: Exception) -> dict[Element, int]:
        """The elements whose syllable costs sum to at most radius, mapped to the
        sum, in increasing tuple order.  A syllable of norm > cap must cost more
        than radius, and a free word's cost must grow with its length alone.
        Raises too_many iff the ball holds more than guard elements: a factor's
        ball of norm cap is counted before it is listed, the free words as they
        are, and every other element as soon as its parent is reached."""
        if max((f.ball_size(cap) for f in self.factors), default=1) > guard:
            raise too_many
        keyed = [[("p", j, h) for h in f.nontrivial_elements(cap)]
                 for j, f in enumerate(self.factors)]
        letters = [x for i in range(1, self.free_rank + 1) for x in (i, -i)]
        words, free = [(x,) for x in letters], []
        while words and cost(("f", words[0])) <= radius and len(free) < guard:
            free += [("f", w) for w in words]
            words = [w + (x,) for w in words for x in letters if w[-1] != -x]
        keyed = [sorted(syls, key=cost) for syls in keyed + [free]]
        costs = [list(map(cost, syls)) for syls in keyed]

        def step(state: tuple) -> list:  # ((syllable,), state after it), largest first
            last, budget = state
            return sorted((((syl,), same[key, budget - c]) for key, syls in enumerate(keyed)
                           if key != last for c, syl in
                           zip(costs[key], syls[:bisect(costs[key], budget)])), reverse=True)
        steps, same = _Memo(step), _Memo(lambda state: state)
        # depth first: a stack of (parent, (syllable,), state), popped in tuple order
        found, stack = {}, [((), (), (-1, radius))]
        while stack:
            g, tail, state = stack.pop()
            g += tail
            found[g] = radius - state[1]
            for tail, after in steps[state]:
                stack.append((g, tail, after))
            if len(found) + len(stack) > guard:  # each a distinct element
                raise too_many
        return found

    def enumerate_ball(self, radius: int, metric: str = "rel",
                       parabolic_cap: Optional[int] = None,
                       max_elements: int = BALL_GUARD_DEFAULT) -> dict[Element, int]:
        """Elements within `radius` of the identity, mapped to their distance
        over the chosen letter set, in increasing order: normal forms are
        geodesics, so the syllable walk sums the syllables' distances.

        metric "abs" uses the X-letters (exact d_X ball): h costs |h|_j.  metric
        "rel" uses X plus parabolic letters: a finite-factor syllable costs 1
        and a free word its length.  Free-abelian factors have infinitely many
        parabolic letters, so those are truncated at norm parabolic_cap, giving
        the ball of the truncated relative graph: h costs ceil(|h| / cap),
        exact for the king (linf) and square (l1) balls."""
        if radius < 0:
            raise GroupError(f"radius must be >= 0, got {radius}")
        if metric == "abs":
            cost, cap = (lambda syl: self.x_length((syl,))), radius
        elif metric == "rel":
            if parabolic_cap is None and not all(f.is_finite for f in self.factors):
                raise GroupError("free-abelian letters need a norm cap")
            unit = max(parabolic_cap or 1, 1)  # a cap below 1 leaves X alone

            def cost(syl: tuple) -> int:
                if syl[0] == "f":
                    return len(syl[1])
                factor = self.factors[syl[1]]
                return 1 if factor.is_finite else -(-factor.word_length(syl[2]) // unit)
            cap = radius * unit
        else:
            raise GroupError("metric must be 'rel' or 'abs'")
        return self.syllable_walk(radius, cost, cap, max_elements, BallExplosion(
            f"ball exceeds {max_elements} elements at radius {radius}"))

    # -- io ------------------------------------------------------------------

    def to_json(self) -> dict:
        return {"factors": [f.to_json() for f in self.factors],
                "free_rank": self.free_rank}

    @staticmethod
    def from_json(rec: dict) -> "GroupSpec":
        factors = rec.get("factors", []) if isinstance(rec, dict) else None
        if not isinstance(factors, list):
            raise GroupError('a group is {"factors": [...], "free_rank": int}')
        return GroupSpec([_factor_from_json(f) for f in factors],
                         strict_int(rec.get("free_rank", 0), "free_rank", GroupError))

    @staticmethod
    def load(path: str) -> "GroupSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return GroupSpec.from_json(read_json(fh.read(), GroupError))


def random_element(spec: GroupSpec, rng, letter_budget: int,
                   parabolic_cap: int = 2) -> Element:
    """A random element built by multiplying `letter_budget` random letters."""
    letters = spec.rel_letters(parabolic_cap)
    g = spec.identity
    for _ in range(letter_budget):
        g = spec.multiply(spec.letter_image(rng.choice(letters)), g)
    return g
