"""Orders and the tower used by the idempotent and unit pipelines.

An order is a ring on Z^n given by integer structure constants.  Its
rational algebra splits into number-field components; the order's
separable part embeds as a lattice in the product of those components,
where the whole tower lives: the separable part, the product of its
residue images, the p-saturation between them, the component graph with
its lattice-index weights, and the cyclic unit groups of the residues.

Everything downstream of the decomposition works in the product-of-
components coordinate space; elements there are Fraction tuples and
orders are QLattice-backed subrings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Tuple

from .abgroup import (
    EffPresentation,
    GroupOps,
    cyclic_dlog,
    cyclic_order,
    cyclic_powers,
    cyclic_relations,
    power,
)
from .finitering import FiniteRing
from .linalg import (
    IntMatrix,
    Lattice,
    QLattice,
    det_int,
    invariant_factors,
    kernel_int,
    qlat_index,
    sum_lattices,
)
from .numfield import NumberField
from .polyfactor import factor_q, qp, qp_divmod, qp_mul, resultant
from .qalgebra import (
    AlgebraError,
    QAlgebra,
    SpecDecomposition,
    _num,
    decompose,
    tensor_table,
)


class Order:
    """Ring on Z^n from integer structure constants."""

    def __init__(self, table):
        for row in table:
            for cell in row:
                for c in cell:
                    if int(c) != c:
                        raise AlgebraError("order structure constants must be integers")
        self.algebra = QAlgebra(table)
        self.rank = self.algebra.dim
        if any(Fraction(c).denominator != 1 for c in self.algebra.one):
            raise AlgebraError("identity of the algebra is not integral")
        self.one = tuple(int(c) for c in self.algebra.one)

    @classmethod
    def from_tensor(cls, n, flat):
        return cls(tensor_table(n, flat))

    def mul(self, x, y):
        return self.algebra.mul(x, y)

    def power(self, x, e):
        return self.algebra.power(x, e)


def order_from_poly(f) -> Order:
    """Z[X]/(f) for monic integer f, on the power basis."""
    f = [int(c) for c in f]
    n = len(f) - 1
    if n < 1 or f[-1] != 1:
        raise AlgebraError("defining polynomial must be monic of positive degree")
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            r = qp_divmod(qp([0] * (i + j) + [1]), qp(f))[1]
            row.append([int(r[k]) if k < len(r) else 0 for k in range(n)])
        table.append(row)
    return Order(table)


class ProductRing:
    """Product of number fields; elements are concatenated Fraction tuples."""

    def __init__(self, fields: List[NumberField]):
        self.fields = list(fields)
        self.offsets = [0]
        for K in self.fields:
            self.offsets.append(self.offsets[-1] + K.deg)
        self.dim = self.offsets[-1]

    def block(self, v, i):
        return tuple(v[self.offsets[i]:self.offsets[i + 1]])

    def from_blocks(self, blocks):
        out = []
        for b in blocks:
            out.extend(b)
        return tuple(out)

    def one(self):
        return self.from_blocks([K.one() for K in self.fields])

    def zero(self):
        return (Fraction(0),) * self.dim

    def mul(self, u, v):
        return self.from_blocks(
            [K.mul(self.block(u, i), self.block(v, i)) for i, K in enumerate(self.fields)]
        )

    def inv(self, u):
        return self.from_blocks(
            [K.inv(self.block(u, i)) for i, K in enumerate(self.fields)]
        )

    def power(self, u, e):
        return power(self.mul, self.inv, self.one(), u, e)

    def sub_ring(self, comps) -> "ProductRing":
        return ProductRing([self.fields[i] for i in comps])

    def project(self, v, comps):
        out = []
        for i in comps:
            out.extend(self.block(v, i))
        return tuple(out)


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

    def component_kernel(self, i) -> Lattice:
        """{x in Z^rank : component i of (basis * x) = 0}, in basis coords."""
        lo, hi = self.ambient.offsets[i], self.ambient.offsets[i + 1]
        cols = [[Fraction(e) for e in b[lo:hi]] for b in self.basis]
        den = 1
        for c in cols:
            for e in c:
                den = den * e.denominator // gcd(den, e.denominator)
        icols = [[int(e * den) for e in c] for c in cols]
        return kernel_int(IntMatrix(hi - lo, icols))

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


def _connected_components(n, edges):
    adj = {i: [] for i in range(n)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in sorted(adj[v]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def order_graph(emb: EmbeddedOrder) -> WeightedGraph:
    """Weights n(D, m, n) = index of (m cap D) + (n cap D) in D, computed
    in the order's own coordinates.  The determinant of the Hermite form
    is cross-checked against the product of Smith invariant factors."""
    ncomp = len(emb.ambient.fields)
    kers = [emb.component_kernel(i) for i in range(ncomp)]
    weights = {}
    for i in range(ncomp):
        for j in range(i + 1, ncomp):
            s = sum_lattices(kers[i], kers[j])
            if s.rank != emb.rank:
                raise AssertionError("component kernels do not sum to full rank")
            w = abs(det_int(s.basis))
            w2 = 1
            for f in invariant_factors(s.basis):
                w2 *= f
            if w != w2:
                raise AssertionError("graph weight disagreement between HNF and SNF")
            weights[(i, j)] = w
    return WeightedGraph.from_weights(ncomp, weights)


# ---------------------------------------------------------------------------
# residue torsion data


@dataclass
class ResidueTorsion:
    """Cyclic unit-torsion data of one residue order: a generator, its
    order and factorization, and the p-power parts."""

    component: int
    theta: tuple  # element of the component field
    order: int
    factorization: Dict[int, int]
    theta_p: Dict[int, tuple]

    def p_part_order(self, p) -> int:
        return p ** self.factorization.get(p, 0)


def _factor_small(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass
class OrderContext:
    """Everything the pipelines need about one order."""

    order: Order
    dec: SpecDecomposition
    ambient: ProductRing
    sep_lattice: Lattice  # basis of the separable part in order coordinates
    sep_order: EmbeddedOrder
    residues: List[EmbeddedOrder]
    b_order: EmbeddedOrder
    index_b_over_sep: int
    _graph: Optional[WeightedGraph] = None
    _restors: Optional[List[ResidueTorsion]] = None

    def to_ambient(self, x):
        return self.dec.to_components(x)

    def from_ambient(self, v):
        """Back to order coordinates; None if not integral (not in the order)."""
        e = self.dec.from_components(list(v))
        out = []
        for c in e:
            f = Fraction(c)
            if f.denominator != 1:
                return None
            out.append(int(f))
        return out

    def graph(self) -> WeightedGraph:
        if self._graph is None:
            self._graph = order_graph(self.sep_order)
        return self._graph

    def residue_torsion(self, i) -> ResidueTorsion:
        if self._restors is None:
            self._restors = [None] * len(self.residues)
        if self._restors[i] is None:
            K = self.dec.components[i]
            zeta, w = K.torsion_generator()
            emb = self.residues[i]
            j = 1
            power = zeta
            while not emb.contains(power):
                power = K.mul(power, zeta)
                j += 1
                assert j <= w, "no torsion power lies in the residue order"
            assert w % j == 0
            order = w // j
            fac = _factor_small(order)
            assert all(p <= 1 + self.order.rank for p in fac)
            theta_p = {p: K.pow(power, order // p ** k) for p, k in fac.items()}
            self._restors[i] = ResidueTorsion(
                component=i, theta=power, order=order, factorization=fac,
                theta_p=theta_p,
            )
        return self._restors[i]

    def torsion_primes(self) -> List[int]:
        ps = set()
        for i in range(len(self.residues)):
            ps.update(self.residue_torsion(i).factorization)
        return sorted(ps)


def separable_part(A: Order):
    """(context, basis of the separable part in A's coordinates).

    The separable part is the kernel of the projection onto the
    nilradical, saturated, expressed both in A's basis (the returned
    lattice) and inside the component product (the embedded order in the
    context)."""
    ctx = build_context(A)
    return ctx, [list(c) for c in ctx.sep_lattice.basis.cols]


def build_context(A: Order) -> OrderContext:
    dec = decompose(A.algebra)
    n = A.rank
    pi2_int, _ = dec.pi2.clear_denominators()
    sep_lat = kernel_int(pi2_int)
    assert sep_lat.contains(list(A.one))
    ambient = ProductRing(dec.components)
    sep_cols = [list(dec.to_components(c)) for c in sep_lat.basis.cols]
    sep_order = EmbeddedOrder(ambient, sep_cols)
    sep_order.mult_table()  # closure check
    residues = []
    b_cols = []
    for i, K in enumerate(dec.components):
        emb = sep_order.image_in([i])
        residues.append(emb)
        for b in emb.basis:
            col = [Fraction(0)] * ambient.dim
            for t, e in enumerate(b):
                col[ambient.offsets[i] + t] = e
            b_cols.append(col)
    b_order = EmbeddedOrder(ambient, b_cols)
    b_order.mult_table()
    idx = qlat_index(sep_order.qlat, b_order.qlat)
    return OrderContext(
        order=A, dec=dec, ambient=ambient, sep_lattice=sep_lat,
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
        assert e is not None, "component idempotent is not integral"
        out.append(tuple(e))
    alg = ctx.order.algebra
    total = alg.zero()
    for e in out:
        assert alg.mul(e, e) == tuple(_num(c) for c in e)
        total = tuple(_num(a + b) for a, b in zip(total, e))
    assert total == tuple(_num(c) for c in alg.one)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert all(c == 0 for c in alg.mul(out[i], out[j]))
    return sorted(out)


def idempotent_divisor_oracle(f) -> List[List[int]]:
    """Monic divisors g of monic squarefree f with resultant(g, f/g) = +-1.

    Brute-force over subsets of the irreducible factors; the test suites
    use this as the independent oracle for idempotent computations."""
    f = [int(c) for c in f]
    assert f[-1] == 1
    _, facs = factor_q(f)
    assert all(m == 1 for _, m in facs)
    parts = [fac for fac, _ in facs]
    out = []
    for mask in range(1 << len(parts)):
        g = qp([1])
        for t, fac in enumerate(parts):
            if mask >> t & 1:
                g = qp_mul(g, fac)
        h = qp_divmod(qp(f), g)[0]
        r = resultant(g, h)
        if r in (1, -1):
            out.append([int(c) for c in g])
    return sorted(out, key=lambda g: (len(g), tuple(g)))


def divisor_idempotent(f, g) -> List[int]:
    """The idempotent of Z[X]/(f) vanishing mod g and 1 mod f/g, as an
    integer coordinate vector on the power basis."""
    from .polyfactor import qp_xgcd

    f = qp(f)
    g = qp(g)
    h = qp_divmod(f, g)[0]
    d, s, _ = qp_xgcd(g, h)
    assert d == [Fraction(1)]
    e = qp_divmod(qp_mul(s, g), f)[1]
    n = len(f) - 1
    out = []
    for k in range(n):
        c = e[k] if k < len(e) else Fraction(0)
        assert c.denominator == 1, "divisor does not give an integral idempotent"
        out.append(int(c))
    return out


# ---------------------------------------------------------------------------
# mu(B) presentations


def mu_b_presentation(ctx: OrderContext, p: Optional[int] = None) -> EffPresentation:
    """Presentation of the unit torsion of the residue product, or of its
    p-power part when p is given.  One cyclic generator per component."""
    gens = []
    thetas = []
    orders = []
    for i, K in enumerate(ctx.dec.components):
        rt = ctx.residue_torsion(i)
        if p is None:
            theta, w = rt.theta, rt.order
        else:
            theta = rt.theta_p.get(p, K.one())
            w = rt.p_part_order(p)
        blocks = [theta if j == i else Kj.one() for j, Kj in enumerate(ctx.dec.components)]
        gens.append(ctx.ambient.from_blocks(blocks))
        thetas.append(theta)
        orders.append(w)

    amb = ctx.ambient

    def dlog(gamma):
        out = []
        for i, K in enumerate(ctx.dec.components):
            a = cyclic_dlog(K.mul, K.one(), thetas[i], orders[i], amb.block(gamma, i))
            if a is None:
                return None
            out.append(a)
        return out

    ops = GroupOps(mul=amb.mul, inv=amb.inv, identity=amb.one())
    return EffPresentation(ops=ops, gens=tuple(gens), rels=cyclic_relations(orders), dlog=dlog)


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
    idx = ctx.index_b_over_sep
    p_part = 1
    while idx % p == 0:
        idx //= p
        p_part *= p
    t = ctx.index_b_over_sep // p_part
    cols = [[e * t for e in c] for c in (list(b) for b in ctx.b_order.basis)]
    cols += [list(b) for b in ctx.sep_order.basis]
    c_order = EmbeddedOrder(ctx.ambient, cols)
    c_order.mult_table()
    ics = qlat_index(ctx.sep_order.qlat, c_order.qlat)
    ibc = qlat_index(c_order.qlat, ctx.b_order.qlat)
    assert ics == p_part, "index of C over the separable part is not the p-part"
    assert ibc == t and gcd(ibc, p) == 1
    return SaturationTower(prime=p, c_order=c_order,
                           index_c_over_sep=ics, index_b_over_c=ibc)


def graph_mod_p(ctx: OrderContext, p: int) -> WeightedGraph:
    """Graph of the p-saturation order: same vertices, edges only where
    the weight of the separable-part graph is not a power of p."""
    base = ctx.graph()
    weights = {}
    for k, w in base.weights.items():
        ww = w
        while ww % p == 0:
            ww //= p
        weights[k] = w if ww != 1 else 1
    return WeightedGraph.from_weights(base.nvertices, weights)


# ---------------------------------------------------------------------------
# mu(C)_p: one cyclic generator per component of the graph of C


@dataclass
class MuCPData:
    prime: int
    tower: SaturationTower
    graph: WeightedGraph
    generators: List[tuple]  # elements of the ambient product, one per graph component
    orders: List[int]
    groups: List[List[tuple]]  # full element list of each component group
    pres: EffPresentation


def mu_c_p_presentation(ctx: OrderContext, p: int,
                        tower: Optional[SaturationTower] = None,
                        naive: bool = False) -> MuCPData:
    """Cyclic generator of the p-power unit torsion of each connected
    component of the graph of C, assembled into a presentation.

    Per component the group is grown one vertex at a time along a
    breadth-first chain; candidate elements are tested for membership in
    the image order.  The default path climbs p-th roots layer by layer;
    ``naive=True`` enumerates all ordered pairs instead (the reference
    path; both must agree).
    """
    if tower is None:
        tower = build_saturation(ctx, p)
    graph = graph_mod_p(ctx, p)
    c_order = tower.c_order
    generators = []
    orders = []
    groups = []
    factors = []  # (components, sub-product ring, generator there, order)
    for comp in graph.components:
        elems, gen = _mu_c_component(ctx, p, c_order, graph, comp, naive)
        sub = ctx.ambient.sub_ring(comp)
        order = cyclic_order(sub.mul, sub.one(), gen, 2 * ctx.order.rank + 2)
        assert order is not None, "order exceeds bound"
        # every element of the group must be a power of the generator
        powers = set(cyclic_powers(sub.mul, sub.one(), gen))
        assert set(elems) == powers, "component torsion group is not cyclic"
        assert len(powers) == order
        # the generator must keep its order in every single residue
        for i, m in enumerate(comp):
            K = ctx.dec.components[m]
            assert cyclic_order(K.mul, K.one(), sub.block(gen, i), order) == order, \
                "generator loses order in a single residue"
        generators.append(_assemble_full(ctx, comp, gen))
        orders.append(order)
        groups.append(sorted(powers))
        factors.append((comp, sub, gen, order))
    for g in generators:
        assert c_order.contains(g), "assembled generator is not in C"
    amb = ctx.ambient

    def dlog(gamma):
        if not c_order.contains(gamma):
            return None
        out = []
        for comp, sub, gen, w in factors:
            a = cyclic_dlog(sub.mul, sub.one(), gen, w, amb.project(gamma, comp))
            if a is None:
                return None
            out.append(a)
        return out

    ops = GroupOps(mul=amb.mul, inv=amb.inv, identity=amb.one())
    pres = EffPresentation(ops=ops, gens=tuple(generators), rels=cyclic_relations(orders),
                           dlog=dlog)
    pres.verify_exact()
    return MuCPData(prime=p, tower=tower, graph=graph, generators=generators,
                    orders=orders, groups=groups, pres=pres)


def _assemble_full(ctx: OrderContext, comp, elem):
    """Element of the full product: ``elem`` on the given components,
    1 elsewhere."""
    blocks = []
    pos = 0
    sub_offsets = {}
    for i in comp:
        sub_offsets[i] = pos
        pos += ctx.dec.components[i].deg
    for i, K in enumerate(ctx.dec.components):
        if i in sub_offsets:
            lo = sub_offsets[i]
            blocks.append(tuple(elem[lo:lo + K.deg]))
        else:
            blocks.append(K.one())
    return ctx.ambient.from_blocks(blocks)


def _mu_c_component(ctx: OrderContext, p, c_order, graph, comp, naive):
    """(group elements, generator) of the p-power torsion of the image of
    C in the product over one graph component."""
    # residue p-torsion element lists
    res_groups = {}
    for m in comp:
        rt = ctx.residue_torsion(m)
        K = ctx.dec.components[m]
        theta = rt.theta_p.get(p, K.one())
        res_groups[m] = (theta, rt.p_part_order(p), cyclic_powers(K.mul, K.one(), theta))
    # start at the residue with minimal p-torsion, ties by index
    m1 = min(comp, key=lambda m: (res_groups[m][1], m))
    chain = [m1]
    seen = {m1}
    frontier = [m1]
    while frontier:
        nxt = []
        for v in frontier:
            for a, b in graph.edges:
                w = b if a == v else (a if b == v else None)
                if w is not None and w in comp and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        nxt.sort()
        chain.extend(nxt)
        frontier = nxt
    assert set(chain) == set(comp), "graph component is not connected by its edges"

    cur_comps = [m1]
    cur_elems = list(res_groups[m1][2])
    cur_gen = res_groups[m1][0]
    for m_new in chain[1:]:
        new_comps = sorted(cur_comps + [m_new])
        image = c_order.image_in(new_comps)
        theta, w, relems = res_groups[m_new]
        if naive:
            members = []
            for a in cur_elems:
                for b in relems:
                    cand = _merge_elem(ctx, cur_comps, a, m_new, b, new_comps)
                    if image.contains(cand):
                        members.append(cand)
            sub = ctx.ambient.sub_ring(new_comps)
            best = None
            for x in sorted(members):
                o = cyclic_order(sub.mul, sub.one(), x, 2 * ctx.order.rank + 2)
                assert o is not None, "order exceeds bound"
                if best is None or o > best[0]:
                    best = (o, x)
            cur_elems = members
            cur_gen = best[1]
        else:
            cur_elems, cur_gen = _climb_p_roots(
                ctx, p, image, cur_comps, cur_elems, m_new, relems, new_comps)
        cur_comps = new_comps
    return cur_elems, cur_gen


def _merge_elem(ctx, comps_a, a, m_new, b, new_comps):
    """Concatenate a (over comps_a) with b (at m_new) in new_comps order."""
    pos = 0
    offs = {}
    for i in comps_a:
        offs[i] = pos
        pos += ctx.dec.components[i].deg
    out = []
    for i in new_comps:
        if i == m_new:
            out.extend(b)
        else:
            lo = offs[i]
            out.extend(a[lo:lo + ctx.dec.components[i].deg])
    return tuple(out)


def _climb_p_roots(ctx, p, image, cur_comps, cur_elems, m_new, relems, new_comps):
    """The faster path: find the group by climbing p-th roots.

    The group injects into the previous one and is cyclic, so a generator
    is found by fixing an order-p element and extending it one p-layer at
    a time; at each layer only pairs of equal order need testing."""
    sub_prev = ctx.ambient.sub_ring(cur_comps)
    sub_new = ctx.ambient.sub_ring(new_comps)
    K_new = ctx.dec.components[m_new]
    one_prev = sub_prev.one()
    identity = sub_new.one()

    if len(cur_elems) == 1:
        return [identity], identity
    # an element of order p in the previous group
    a1 = None
    for x in sorted(cur_elems):
        if x != one_prev and sub_prev.power(x, p) == one_prev:
            a1 = x
            break
    assert a1 is not None
    b_layer = sorted(b for b in relems
                     if b != K_new.one() and K_new.pow(b, p) == K_new.one())
    found = None
    for b1 in b_layer:
        cand = _merge_elem(ctx, cur_comps, a1, m_new, b1, new_comps)
        if image.contains(cand):
            found = (a1, b1)
            break
    if found is None:
        return [identity], identity
    while True:
        a_cur, b_cur = found
        roots_a = sorted(x for x in cur_elems if sub_prev.power(x, p) == a_cur)
        roots_b = sorted(b for b in relems if K_new.pow(b, p) == b_cur)
        nxt = None
        for a2 in roots_a:
            for b2 in roots_b:
                cand = _merge_elem(ctx, cur_comps, a2, m_new, b2, new_comps)
                if image.contains(cand):
                    nxt = (a2, b2)
                    break
            if nxt:
                break
        if nxt is None:
            break
        found = nxt
    gen = _merge_elem(ctx, cur_comps, found[0], m_new, found[1], new_comps)
    return sorted(cyclic_powers(sub_new.mul, identity, gen)), gen
