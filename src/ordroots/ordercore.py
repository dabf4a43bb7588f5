"""Orders and the tower used by the idempotent and unit pipelines.

An order is a ring on Z^n given by integer structure constants.  Its
rational algebra splits into number-field components; the order's
separable part embeds as a lattice in the product of those components,
where the whole tower lives: the separable part, the product of its
residue images, the p-saturation between them, the component graph with
its lattice-index weights, and the cyclic unit groups of the residues.

Everything downstream of the decomposition works in the product-of-
components coordinate space; elements there are coordinate tuples (an
int where integral, a Fraction otherwise) and orders are QLattice-backed
subrings.  A cyclic torsion group is the list of its generator's powers,
the one form ``ProductRing.cyclic_presentation`` takes and checks.  A
residue's torsion is such a list and nothing else (``residue_torsion``):
a slice of its field's power table (``torsion_powers``), as is each of
its p-parts, so the torsion descent computes on exponents: a p-th power
is an index times p.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, prod
from typing import Dict, List, Optional, Tuple

from .abgroup import EffPresentation
from .finitering import FiniteRing
from .kernels import hnf_cols
from .linalg import Lattice, QLattice, kernel_int, qlat_index
from .numfield import ProductRing
from .polyfactor import (
    _factor_small, _valuation, factor_q, qp_divmod, qp_mul, qp_mul_columns, resultant)
from .qalgebra import (
    AlgebraError,
    QAlgebra,
    SpecDecomposition,
    decompose,
    mu_presentation,
    tensor_table,
)


class Order:
    """Ring on Z^n from integer structure constants."""

    def __init__(self, table):
        if not all(_is_integer(c) for row in table for cell in row for c in cell):
            raise AlgebraError("order structure constants must be integers")
        self.algebra = QAlgebra(table)
        self.rank = self.algebra.dim
        if any(c.denominator != 1 for c in self.algebra.one):
            raise AlgebraError("identity of the algebra is not integral")
        self.one = self.algebra.one

    @classmethod
    def from_tensor(cls, n, flat):
        return cls(tensor_table(n, flat))

    def mul(self, x, y):
        return self.algebra.mul(x, y)

    def power(self, x, e):
        return self.algebra.power(x, e)


def _is_integer(c) -> bool:
    return isinstance(c, (int, Fraction)) and c.denominator == 1


def order_from_poly(f) -> Order:
    """Z[X]/(f) for monic integer f, on the power basis."""
    f = list(f)
    n = len(f) - 1
    if not all(_is_integer(c) for c in f):
        raise AlgebraError("defining polynomial must have integer coefficients")
    if n < 1 or f[-1] != 1:
        raise AlgebraError("defining polynomial must be monic of positive degree")
    # e_i * e_j = X^(i+j) mod f
    rems = qp_mul_columns([1], f, 2 * n - 1)
    return Order([[rems[i + j] for j in range(n)] for i in range(n)])


class EmbeddedOrder:
    """Full-rank subring lattice of a product of number fields."""

    def __init__(self, ambient: ProductRing, basis_cols):
        self.ambient = ambient
        self.qlat = QLattice.from_cols([list(c) for c in basis_cols], ambient.dim)
        if self.qlat.rank != ambient.dim:
            raise ValueError("order lattice must have full rank")
        self.basis = [tuple(c) for c in self.qlat.basis_cols()]
        self.one_coords = self.qlat.coords(list(ambient.one()))
        if self.one_coords is None:
            raise ValueError("lattice does not contain the identity")
        self._table = None

    @property
    def rank(self):
        return self.ambient.dim

    def contains(self, v) -> bool:
        return self.qlat.contains(list(v))

    def coords(self, v):
        return self.qlat.coords(list(v))

    def element(self, coords):
        return tuple(self.qlat.element(list(coords)))

    def mult_table(self):
        """Coordinates of basis products; existence proves multiplicative
        closure."""
        if self._table is None:
            table = []
            for i, bi in enumerate(self.basis):
                row = []
                for j, bj in enumerate(self.basis):
                    if j < i:
                        row.append(table[j][i])
                        continue
                    c = self.coords(self.ambient.mul(bi, bj))
                    if c is None:
                        raise ValueError("lattice is not multiplicatively closed")
                    row.append(tuple(c))
                table.append(row)
            self._table = table
        return self._table

    def image_in(self, comps) -> "EmbeddedOrder":
        """Image order in the product over a subset of components."""
        sub = self.ambient.sub_ring(comps)
        cols = [list(self.ambient.project(b, comps)) for b in self.basis]
        return EmbeddedOrder(sub, cols)

    def finite_quotient(self, ideal_lat: Lattice) -> FiniteRing:
        """Quotient by a finite-index ideal given in basis coordinates."""
        table = [[list(c) for c in row] for row in self.mult_table()]
        return FiniteRing(ideal_lat, table, list(self.one_coords))


@dataclass
class WeightedGraph:
    """Component graph: vertices are the components, weights the lattice
    indices n(D, m, n); edges join pairs of weight > 1."""

    nvertices: int
    weights: Dict[Tuple[int, int], int]
    edges: List[Tuple[int, int]]
    components: List[List[int]]

    @classmethod
    def from_weights(cls, nvertices, weights):
        edges = sorted(k for k, w in weights.items() if w > 1)
        comps = _connected_components(nvertices, edges)
        return cls(nvertices=nvertices, weights=dict(weights), edges=edges,
                   components=comps)

    def weight(self, i, j):
        return self.weights[(min(i, j), max(i, j))]


def _adjacency(n, edges):
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _bfs_layers(adj, start):
    """The breadth-first layers from start, each sorted: {start}, then the
    unseen neighbours of each layer."""
    seen = {start}
    layer = [start]
    while layer:
        yield layer
        layer = sorted({w for v in layer for w in adj[v]} - seen)
        seen.update(layer)


def _connected_components(n, edges):
    adj = _adjacency(n, edges)
    seen = set()
    comps = []
    for start in range(n):
        if start not in seen:
            comp = sorted(v for layer in _bfs_layers(adj, start) for v in layer)
            seen.update(comp)
            comps.append(comp)
    return comps


def order_graph(emb: EmbeddedOrder) -> WeightedGraph:
    """Weights n(D, m, n) = [D : (m cap D) + (n cap D)], read off the
    projections pi_i of D onto its components.  The kernel ker_j of pi_j
    on D is n cap D, so D/(ker_i + ker_j) is pi_j(D)/pi_j(ker_i), and the
    weight of i, j is [pi_i(D) x pi_j(D) : pi_ij(D)].

    One Hermite form of the rows of components i and j of D's integer
    basis gives it: its first deg K_i pivots are those of pi_i(D), and
    its others span pi_j(ker_i), so the weight is their product over
    the pivot product of pi_j(D), each pi_i(D) put in Hermite form once.
    The pair's form is checked to have a pivot on every row, its first
    pivots to multiply to pi_i(D)'s product and the others to a positive
    multiple of pi_j(D)'s."""
    offsets = emb.ambient.offsets
    cols = emb.qlat.lat.basis.cols
    blocks = [[c[lo:hi] for c in cols] for lo, hi in zip(offsets, offsets[1:])]
    single = [Lattice(len(b[0]), b).pivot_product for b in blocks]
    weights = {}
    for i, bi in enumerate(blocks):
        di = len(bi[0])
        for j in range(i + 1, len(blocks)):
            m = di + len(blocks[j][0])
            h = hnf_cols([a + b for a, b in zip(bi, blocks[j])], m)
            piv = [c[k] for k, c in enumerate(h[:m])]
            if 0 in piv or any(any(c[:k]) for k, c in enumerate(h[:m])) or any(map(any, h[m:])):
                raise AssertionError("pair projection's Hermite pivots are not one per row")
            if prod(piv[:di]) != single[i]:
                raise AssertionError("pair projection's first pivots are not the component's")
            w, r = divmod(prod(piv[di:]), single[j])
            if r or w <= 0:
                raise AssertionError(
                    "pair projection's last pivots are not a multiple of the component's")
            weights[(i, j)] = w
    return WeightedGraph.from_weights(len(blocks), weights)


@dataclass
class OrderContext:
    """Everything the pipelines need about one order."""

    order: Order
    dec: SpecDecomposition
    ambient: ProductRing
    sep_order: EmbeddedOrder
    residues: List[EmbeddedOrder]
    b_order: EmbeddedOrder
    index_b_over_sep: int
    _graph: Optional[WeightedGraph] = None
    _restors: Optional[List[tuple]] = None
    _field_torsion: Optional[EffPresentation] = None

    def to_ambient(self, x):
        return self.dec.to_components(x)

    def from_ambient(self, v):
        """Back to order coordinates; None if not integral (not in the order)."""
        e = self.dec.from_components(v)
        if any(c.denominator != 1 for c in e):
            return None
        return [c.numerator for c in e]

    def graph(self) -> WeightedGraph:
        if self._graph is None:
            self._graph = order_graph(self.sep_order)
        return self._graph

    def field_torsion(self) -> EffPresentation:
        """Roots of unity of the rational algebra, built on first use: the
        presentation of ``mu_presentation(dec)``, in component coordinates."""
        if self._field_torsion is None:
            self._field_torsion = mu_presentation(self.dec)
        return self._field_torsion

    def residue_torsion(self, i) -> tuple:
        """Power list of the residue order's roots of unity: T[::j], T the
        field's power table and j the least index with zeta^j in the
        residue order."""
        if self._restors is None:
            self._restors = [None] * len(self.residues)
        if self._restors[i] is None:
            powers = self.dec.components[i].torsion_powers()
            w = len(powers)
            emb = self.residues[i]
            j = next((j for j in range(1, w + 1) if emb.contains(powers[j % w])), None)
            if j is None:
                raise AssertionError("no torsion power lies in the residue order")
            if w % j:
                raise AssertionError("residue torsion index does not divide the torsion order w")
            if any(p > 1 + self.order.rank for p in _factor_small(w // j)):
                raise AssertionError("residue torsion has a prime above rank + 1")
            self._restors[i] = powers[::j]
        return self._restors[i]

    def torsion_primes(self) -> List[int]:
        ps = set()
        for i in range(len(self.residues)):
            ps.update(_factor_small(len(self.residue_torsion(i))))
        return sorted(ps)


def build_context(A: Order) -> OrderContext:
    dec = decompose(A.algebra)
    n = A.rank
    sep_lat = kernel_int(dec.nil_coords.num)
    if not sep_lat.contains(list(A.one)):
        raise AssertionError("separable part does not contain 1")
    ambient = ProductRing(dec.components)
    sep_cols = [list(dec.to_components(c)) for c in sep_lat.basis.cols]
    sep_order = EmbeddedOrder(ambient, sep_cols)
    sep_order.mult_table()  # closure check
    residues = []
    b_cols = []
    for i, K in enumerate(dec.components):
        emb = sep_order.image_in([i])
        # B is the direct sum of the residue images, so it is closed
        # under multiplication exactly when each residue image is
        emb.mult_table()
        residues.append(emb)
        for b in emb.basis:
            col = [0] * ambient.dim
            for t, e in enumerate(b):
                col[ambient.offsets[i] + t] = e
            b_cols.append(col)
    b_order = EmbeddedOrder(ambient, b_cols)
    idx = qlat_index(sep_order.qlat, b_order.qlat)
    return OrderContext(
        order=A, dec=dec, ambient=ambient,
        sep_order=sep_order, residues=residues, b_order=b_order,
        index_b_over_sep=idx,
    )


def primitive_idempotents(A: Order) -> List[Tuple[int, ...]]:
    ctx = build_context(A)
    return primitive_idempotents_ctx(ctx)


def primitive_idempotents_ctx(ctx: OrderContext) -> List[Tuple[int, ...]]:
    """One idempotent per connected component of the graph: the element
    that is 1 on the component's residues and 0 elsewhere."""
    if ctx.order.rank == 0:
        return []
    graph = ctx.graph()
    out = []
    for comp in graph.components:
        blocks = []
        for i, K in enumerate(ctx.dec.components):
            blocks.append(K.one() if i in comp else K.zero())
        v = ctx.ambient.from_blocks(blocks)
        e = ctx.from_ambient(v)
        if e is None:
            raise AssertionError("component idempotent is not integral")
        out.append(tuple(e))
    alg = ctx.order.algebra
    total = alg.zero()
    for e in out:
        if alg.mul(e, e) != e:
            raise AssertionError("component idempotent is not idempotent")
        total = tuple(a + b for a, b in zip(total, e))
    if total != alg.one:
        raise AssertionError("component idempotents do not sum to 1")
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if any(alg.mul(out[i], out[j])):
                raise AssertionError("component idempotents are not orthogonal")
    return sorted(out)


def idempotent_divisor_oracle(f) -> List[List[int]]:
    """Monic divisors g of monic squarefree f with resultant(g, f/g) = +-1.

    Brute-force over subsets of the irreducible factors; the test suites
    use this as the independent oracle for idempotent computations."""
    if f[-1] != 1:
        raise AssertionError("oracle polynomial is not monic")
    _, facs = factor_q(f)
    if any(m != 1 for _, m in facs):
        raise AssertionError("oracle polynomial is not squarefree")
    parts = [fac for fac, _ in facs]
    out = []
    for mask in range(1 << len(parts)):
        g = [1]
        for t, fac in enumerate(parts):
            if mask >> t & 1:
                g = qp_mul(g, fac)
        h = qp_divmod(f, g)[0]
        r = resultant(g, h)
        if r in (1, -1):
            out.append(g)
    return sorted(out, key=lambda g: (len(g), tuple(g)))


# ---------------------------------------------------------------------------
# mu(B) presentations


def mu_b_presentation(ctx: OrderContext) -> EffPresentation:
    """Presentation of the unit torsion of the residue product: one
    cyclic factor per component, the residue's power list."""
    factors = [([i], ctx.residue_torsion(i)) for i in range(len(ctx.residues))]
    return ctx.ambient.cyclic_presentation(factors)


# ---------------------------------------------------------------------------
# the p-saturation order C = A_sep[1/p] cap B


@dataclass
class SaturationTower:
    """The tower at one prime: A_sep <= C <= B."""

    prime: int
    c_order: EmbeddedOrder
    index_c_over_sep: int  # a power of the prime
    index_b_over_c: int  # coprime to the prime


def build_saturation(ctx: OrderContext, p: int) -> SaturationTower:
    """The p-saturation order C = A_sep[1/p] cap B, built as t B + A_sep
    with t the prime-to-p part of [B : A_sep].  When p does not divide
    [B : A_sep], t kills B/A_sep and C is the separable part itself: the
    context's order, whose table was checked when the context was built.
    Either way both indices are checked."""
    p_part = p ** _valuation(ctx.index_b_over_sep, p)
    t = ctx.index_b_over_sep // p_part
    if p_part == 1:
        c_order = ctx.sep_order
    else:
        cols = [[e * t for e in c] for c in (list(b) for b in ctx.b_order.basis)]
        cols += [list(b) for b in ctx.sep_order.basis]
        c_order = EmbeddedOrder(ctx.ambient, cols)
        c_order.mult_table()
    ics = qlat_index(ctx.sep_order.qlat, c_order.qlat)
    ibc = qlat_index(c_order.qlat, ctx.b_order.qlat)
    if ics != p_part:
        raise AssertionError("index of C over the separable part is not the p-part")
    if ibc != t or gcd(ibc, p) != 1:
        raise AssertionError("index of B over C is not the prime-to-p part")
    return SaturationTower(prime=p, c_order=c_order,
                           index_c_over_sep=ics, index_b_over_c=ibc)


def graph_mod_p(ctx: OrderContext, p: int) -> WeightedGraph:
    """Graph of the p-saturation order: same vertices, edges only where
    the weight of the separable-part graph is not a power of p."""
    base = ctx.graph()
    weights = {}
    for k, w in base.weights.items():
        weights[k] = 1 if w == p ** _valuation(w, p) else w
    return WeightedGraph.from_weights(base.nvertices, weights)


# ---------------------------------------------------------------------------
# mu(C)_p: one cyclic generator per component of the graph of C


@dataclass
class MuCPData:
    tower: SaturationTower
    graph: WeightedGraph
    pres: EffPresentation  # one cyclic generator per graph component, the orders on the diagonal


def mu_c_p_presentation(ctx: OrderContext, p: int) -> MuCPData:
    """Cyclic generator of the p-power unit torsion of each connected
    component of the graph of C, assembled into a presentation.

    Per component the group is grown one vertex at a time along a
    breadth-first chain, climbing p-th roots layer by layer on exponents
    into the residues' torsion power tables; candidate elements are tested
    for membership in the image order.  The climb returns its generator's
    power list with no field product, and ``cyclic_presentation`` checks
    that list where it builds the presentation.  The generator must keep
    its order in every single residue: no block of g^(order/p) is 1.
    """
    tower = build_saturation(ctx, p)
    graph = graph_mod_p(ctx, p)
    c_order = tower.c_order
    adj = _adjacency(graph.nvertices, graph.edges)
    factors = []  # (components, climbed power list)
    for comp in graph.components:
        powers = _mu_c_component(ctx, p, c_order, adj, comp)
        if len(powers) > 2 * ctx.order.rank + 2:
            raise AssertionError("order exceeds bound")
        factors.append((comp, powers))
    pres = ctx.ambient.cyclic_presentation(factors)
    for comp, powers in factors:
        if len(powers) > 1:
            sub = ctx.ambient.sub_ring(comp)
            top = powers[len(powers) // p]
            for pos, m in enumerate(comp):
                if sub.block(top, pos) == ctx.dec.components[m].one():
                    raise AssertionError("generator loses order in a single residue")
    for g in pres.gens:
        if not c_order.contains(g):
            raise AssertionError("assembled generator is not in C")

    def dlog(gamma, _dlog=pres.dlog):
        return _dlog(gamma) if c_order.contains(gamma) else None

    return MuCPData(tower=tower, graph=graph, pres=replace(pres, dlog=dlog))


def _mu_c_component(ctx: OrderContext, p, c_order, adj, comp):
    """Power list of a generator of the p-power torsion of the image of C
    in the product over one graph component."""
    # each residue's p-part: every (v / p^k)-th entry of its power list,
    # p^k the p-part of its length v
    res_powers = {}
    for m in comp:
        res = ctx.residue_torsion(m)
        res_powers[m] = res[::len(res) // p ** _valuation(len(res), p)]
    # start at the residue with minimal p-torsion, ties by index
    m1 = min(comp, key=lambda m: (len(res_powers[m]), m))
    chain = [v for layer in _bfs_layers(adj, m1) for v in layer]
    if set(chain) != set(comp):
        raise AssertionError("graph component is not connected by its edges")

    cur_comps = [m1]
    cur = res_powers[m1]
    for m_new in chain[1:]:
        new_comps = sorted(cur_comps + [m_new])
        image = c_order.image_in(new_comps)
        cur = _climb_p_roots(ctx, p, image, cur_comps, cur, m_new, res_powers[m_new], new_comps)
        cur_comps = new_comps
    return cur


def _merge_elem(sub_prev, a, pos, b):
    """The element a of sub_prev with the block b inserted at position pos."""
    blocks = [sub_prev.block(a, i) for i in range(len(sub_prev.fields))]
    blocks.insert(pos, b)
    return sub_prev.from_blocks(blocks)


def _climb_p_roots(ctx, p, image, cur_comps, cur, m_new, res, new_comps):
    """Power list of a generator of the group over new_comps, found by
    climbing p-th roots on exponents.

    cur lists the powers of the previous group's generator and res those
    of the new residue's p-part, so the p-th power of cur[a] is
    cur[a*p mod len(cur)] and the climb takes no field product.  The group
    injects into the previous one and is cyclic, so a generator is found
    by fixing an order-p element and extending it one p-layer at a time;
    at each layer only pairs of equal order need testing, least elements
    first."""
    sub_prev = ctx.ambient.sub_ring(cur_comps)
    pos = new_comps.index(m_new)  # cur_comps and new_comps are sorted
    n, r = len(cur), len(res)

    def roots(powers, e):
        """Exponents of the p-th roots of powers[e], least element first."""
        k = len(powers)
        return sorted((a for a in range(k) if a * p % k == e), key=powers.__getitem__)

    def merged(a, b):
        return _merge_elem(sub_prev, cur[a % n], pos, res[b % r])

    if n == 1:
        return [merged(0, 0)]
    # an element of order p in the previous group
    a1 = next((a for a in roots(cur, 0) if a), None)
    if a1 is None:
        raise AssertionError("previous group has no element of order p")
    found = next(((a1, b) for b in roots(res, 0) if b and image.contains(merged(a1, b))), None)
    if found is None:
        return [merged(0, 0)]
    while True:
        nxt = next(((a, b) for a in roots(cur, found[0]) for b in roots(res, found[1])
                    if image.contains(merged(a, b))), None)
        if nxt is None:
            break
        found = nxt
    a, b = found
    return [merged(t * a, t * b) for t in range(n // gcd(a, n))]
