"""Planar networks: chip encoding, path matrices, DOT and document formats."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosstnn import (
    Atom,
    Chip,
    Factorization,
    Matrix,
    PlanarNetwork,
    Poly,
    RatFunc,
    Slant,
    amazing_matrix,
    amazing_matrix_symbolic,
    cross_symmetric_eliminate,
    export_dot,
    factorization_product,
    materialize_atom,
    network_from_doc,
    network_from_factorization,
    network_to_doc,
    path_matrix,
    random_certified_tnn,
    reflect,
    tau,
)


def reference_path_matrix(net: PlanarNetwork) -> Matrix:
    """The Fraction column loop: path_matrix must give the same entries, of the same kinds."""
    cols = [[Fraction(int(i == j)) for i in range(net.n)] for j in range(net.n)]
    for chip in net.chips:
        sources = [cols[slant.src - 1] for slant in chip.slants]  # before any rewrite
        for q, h in enumerate(chip.horizontals):
            if h != 1:
                cols[q] = [h * x for x in cols[q]]
        for slant, source in zip(chip.slants, sources):
            q, w = slant.dst - 1, slant.weight
            cols[q] = [x + w * y if y else x for x, y in zip(cols[q], source)]
    return Matrix(list(zip(*cols)))


def _with_kinds(M: Matrix) -> list:
    return [(x, type(x)) for row in M.rows for x in row]


_NONZERO_POLY = st.lists(st.integers(-3, 5), min_size=1, max_size=3).map(Poly).filter(bool)

# Each kind with its unit, which a horizontal does not apply.
_WEIGHTS = {
    "int": (1, st.integers(1, 5)),
    "fraction": (Fraction(1), st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))),
    "poly": (Poly((1,)), _NONZERO_POLY),
    "ratfunc": (
        RatFunc(Poly((1,))),
        st.builds(
            RatFunc,
            _NONZERO_POLY,
            st.sampled_from([(1,), (2,), (1, 1), (3, 2), (1, 0, 1)]).map(Poly),
        ),
    ),
}


@st.composite
def networks(draw, max_n=5, max_chips=6):
    """Networks weighted by one to four scalar kinds, units included.

    At most one slant joins each adjacent pair of wires in a chip, in
    either direction, so slants chain (p -> p+1 -> p+2) but never cross.
    """
    kinds = sorted(draw(st.sets(st.sampled_from(sorted(_WEIGHTS)), min_size=1)))
    weight = st.one_of(*(st.one_of(st.just(_WEIGHTS[k][0]), _WEIGHTS[k][1]) for k in kinds))
    n = draw(st.integers(1, max_n))
    chips = []
    for _ in range(draw(st.integers(0, max_chips))):
        horizontals = tuple(draw(weight) for _ in range(n))
        slants = []
        for p in range(1, n):
            direction = draw(st.sampled_from([None, "down", "up"]))
            if direction is not None:
                src, dst = (p, p + 1) if direction == "down" else (p + 1, p)
                slants.append(Slant(src, dst, draw(weight)))
        chips.append(Chip(horizontals, tuple(slants)))
    return PlanarNetwork(n, tuple(chips))


def _worked_3x3_certificate() -> Factorization:
    A = amazing_matrix(3, 3, scaled=True)
    return cross_symmetric_eliminate(A).factorization


def _dense_atom_product(fact: Factorization) -> Matrix:
    M = Matrix.identity(fact.n)
    for atom in fact.atoms:
        M = M * materialize_atom(atom)
    return M * Matrix.diagonal(fact.diagonal)


def _dense_transfer_product(net: PlanarNetwork) -> Matrix:
    M = Matrix.identity(net.n)
    for chip in net.chips:
        rows = [[h if i == j else 0 for j in range(net.n)] for i, h in enumerate(chip.horizontals)]
        for slant in chip.slants:
            rows[slant.src - 1][slant.dst - 1] = slant.weight
        M = M * Matrix(rows)
    return M


def _random_network(rng, n: int, chips: int) -> PlanarNetwork:
    """Random positive weights (some 1) and non-crossing slants per chip.

    Chips may chain slants (p -> q and q -> r), where a correct path
    matrix must not let one path take both edges of a chip.
    """
    out = []
    for _ in range(chips):
        horizontals = tuple(
            Fraction(rng.choice([1, 1, 2, 5]), rng.randint(1, 3)) for _ in range(n)
        )
        slants = []
        for _ in range(rng.randint(0, n - 1)):
            p = rng.randint(1, n - 1)
            src, dst = (p, p + 1) if rng.random() < 0.5 else (p + 1, p)
            taken = {(e.src, e.dst) for e in slants}
            if (src, dst) in taken or any((src - e.src) * (dst - e.dst) < 0 for e in slants):
                continue
            slants.append(Slant(src, dst, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
        out.append(Chip(horizontals, tuple(slants)))
    return PlanarNetwork(n, tuple(out))


class TestConstruction:
    def test_worked_3x3_chips(self):
        net = network_from_factorization(_worked_3x3_certificate())
        assert net.n == 3
        assert len(net.chips) == 4
        slant_sets = [
            {(s.src, s.dst, s.weight) for s in chip.slants} for chip in net.chips
        ]
        q = Fraction
        assert slant_sets[0] == {(1, 2, q(1, 4)), (3, 2, q(1, 4))}
        assert slant_sets[1] == {(2, 1, q(4, 9)), (2, 3, q(4, 9))}
        assert slant_sets[2] == {(1, 2, q(5, 4)), (3, 2, q(5, 4))}
        assert slant_sets[3] == set()
        assert net.chips[3].horizontals == (q(9), q(9), q(9))
        assert all(
            chip.horizontals == (q(1), q(1), q(1)) for chip in net.chips[:3]
        )

    def test_pure_diagonal(self):
        fact = Factorization(n=2, atoms=(), diagonal=(Fraction(2), Fraction(2)))
        net = network_from_factorization(fact)
        assert len(net.chips) == 1
        assert net.chips[0].horizontals == (Fraction(2), Fraction(2))

    def test_center_atom_expands_to_three_chips(self):
        fact = Factorization(
            n=2,
            atoms=(Atom("center", 2, 1, Fraction(1, 2)),),
            diagonal=(Fraction(9, 2), Fraction(9, 2)),
        )
        net = network_from_factorization(fact)
        assert len(net.chips) == 4
        first, middle, last, diag = net.chips
        assert [(s.src, s.dst, s.weight) for s in first.slants] == [(2, 1, Fraction(1, 2))]
        assert middle.horizontals == (Fraction(4, 3), Fraction(1))
        assert middle.slants == ()
        assert [(s.src, s.dst, s.weight) for s in last.slants] == [(1, 2, Fraction(1, 2))]
        assert diag.horizontals == (Fraction(9, 2), Fraction(9, 2))
        assert path_matrix(net) == Matrix([[6, 3], [3, 6]])

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanarNetwork(2, (Chip((Fraction(1),), ()),))
        with pytest.raises(ValueError):
            PlanarNetwork(
                2, (Chip((Fraction(1), Fraction(1)), (Slant(1, 2, Fraction(-1)),)),)
            )
        with pytest.raises(ValueError):
            PlanarNetwork(
                3, (Chip((Fraction(1),) * 3, (Slant(1, 3, Fraction(1)),)),)
            )
        with pytest.raises(ValueError, match=r"^slant wire outside 1\.\.n$"):
            PlanarNetwork(2, (Chip((Fraction(1),) * 2, (Slant(2, 3, Fraction(1)),)),))
        # an up-slant and a down-slant on the same wire pair cross
        with pytest.raises(ValueError):
            PlanarNetwork(
                2,
                (
                    Chip(
                        (Fraction(1), Fraction(1)),
                        (Slant(1, 2, Fraction(1)), Slant(2, 1, Fraction(1))),
                    ),
                ),
            )

    # Rows are checked once per distinct tuple: a chip with a row of its own
    # among 40 that share one is still checked, wherever it stands.
    @pytest.mark.parametrize("where", [0, 20, 40])
    @pytest.mark.parametrize(
        "row",
        [(Fraction(1), Fraction(0), Fraction(1)), (Fraction(1),) * 2],
        ids=["zero-weight", "wrong-length"],
    )
    def test_validation_sees_every_row(self, where, row):
        ones = (Fraction(1),) * 3
        chips = [Chip(ones, (Slant(2, 1, Fraction(1, 2)),)) for _ in range(40)]
        chips.insert(where, Chip(row, ()))
        with pytest.raises(ValueError):
            PlanarNetwork(3, tuple(chips))


class TestPathMatrix:
    def test_single_slant(self):
        c = Fraction(3, 7)
        net = PlanarNetwork(
            2, (Chip((Fraction(1), Fraction(1)), (Slant(2, 1, c),)),)
        )
        assert path_matrix(net) == Matrix([[1, 0], [c, 1]])

    def test_worked_3x3_reproduces_input(self):
        net = network_from_factorization(_worked_3x3_certificate())
        assert path_matrix(net) == amazing_matrix(3, 3, scaled=True)

    def test_4x4_with_center_atoms_reproduces_input(self):
        A = amazing_matrix(4, 3, scaled=True)
        fact = cross_symmetric_eliminate(A).factorization
        assert any(atom.kind == "center" for atom in fact.atoms)
        assert path_matrix(network_from_factorization(fact)) == A

    def test_round_trip_on_random_certificates(self):
        rng = random.Random("network-round-trip")
        for trial in range(200):
            n = rng.randint(1, 6)
            matrix, fact = random_certified_tnn(n, f"net-{trial}", atom_count=rng.randint(0, 4))
            net = network_from_factorization(fact)
            assert path_matrix(net) == matrix == factorization_product(fact)

    def test_chip_transfer_equals_materialized_atom(self):
        # a bridge atom's single chip must realize the atom matrix exactly
        from crosstnn import materialize_atom

        atom = Atom("bridge", 5, 2, Fraction(3, 4))
        fact = Factorization(n=5, atoms=(atom,), diagonal=(Fraction(1),) * 5)
        net = network_from_factorization(fact)
        assert path_matrix(net) == materialize_atom(atom)


class TestSingleProductPath:
    """Certificate products and path matrices share one sparse routine;
    these pin it against dense products built here."""

    def test_product_equals_dense_atom_oracle_on_random_certificates(self):
        kinds = set()
        for n in range(1, 9):
            for trial in range(25):
                _, fact = random_certified_tnn(n, f"dense-{n}-{trial}", atom_count=trial % 7)
                kinds.update(atom.kind for atom in fact.atoms)
                assert factorization_product(fact) == _dense_atom_product(fact)
        assert kinds == {"bridge", "center"}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_product_equals_dense_atom_oracle_on_symbolic_certificates(self, n):
        S = amazing_matrix_symbolic(n)
        fact = cross_symmetric_eliminate(S, ray=n).factorization
        assert factorization_product(fact) == _dense_atom_product(fact) == S

    def test_path_matrix_equals_dense_transfer_product(self):
        rng = random.Random("dense-transfer")
        for trial in range(150):
            n = rng.randint(1, 7)
            if trial % 2:
                net = _random_network(rng, n, rng.randint(0, 6))
            else:
                _, fact = random_certified_tnn(n, f"transfer-{trial}", rng.randint(0, 5))
                net = network_from_factorization(fact)
            assert path_matrix(net) == _dense_transfer_product(net)

    def test_products_multiply_no_dense_matrices(self, monkeypatch):
        calls = []
        dense_mul = Matrix.__mul__

        def counting_mul(self, other):
            calls.append(other)
            return dense_mul(self, other)

        A = amazing_matrix(16, 10, scaled=True)
        fact = cross_symmetric_eliminate(A).factorization
        monkeypatch.setattr(Matrix, "__mul__", counting_mul)
        assert factorization_product(fact) == A
        assert path_matrix(network_from_factorization(fact)) == A
        assert calls == []


    def test_path_matrix_does_no_fraction_arithmetic(self, monkeypatch):
        A = amazing_matrix(16, 10, scaled=True)
        net = network_from_factorization(cross_symmetric_eliminate(A).factorization)
        calls = []
        for name in ("__add__", "__mul__"):
            real = getattr(Fraction, name)
            counting = lambda a, b, name=name, real=real: calls.append(name) or real(a, b)
            monkeypatch.setattr(Fraction, name, counting)
        P = path_matrix(net)
        monkeypatch.undo()
        assert calls == []
        assert P == A


class TestAgainstTheFractionLoop:
    """path_matrix runs on the row kernel; the Fraction column loop it
    replaced is the reference for its entries and their kinds."""

    @settings(max_examples=300, deadline=None)
    @given(networks())
    def test_random_networks(self, net):
        assert _with_kinds(path_matrix(net)) == _with_kinds(reference_path_matrix(net))

    def test_numeric_carries_certificates(self):
        for n in (12, 16):
            A = amazing_matrix(n, 10, scaled=True)
            net = network_from_factorization(cross_symmetric_eliminate(A).factorization)
            P = path_matrix(net)
            assert _with_kinds(P) == _with_kinds(reference_path_matrix(net))
            assert P == A

    @pytest.mark.parametrize("n", range(1, 9))
    def test_symbolic_carries_certificates(self, n):
        S = amazing_matrix_symbolic(n)
        net = network_from_factorization(cross_symmetric_eliminate(S, ray=n).factorization)
        P = path_matrix(net)
        assert _with_kinds(P) == _with_kinds(reference_path_matrix(net))
        assert P == S


class TestMirrorSymmetry:
    def test_reflection_rotates_path_matrix(self):
        rng = random.Random("network-mirror")
        for trial in range(50):
            n = rng.randint(1, 5)
            _, fact = random_certified_tnn(n, f"mirror-{trial}", atom_count=rng.randint(0, 3))
            net = network_from_factorization(fact)
            assert path_matrix(reflect(net)) == tau(path_matrix(net))

    def test_bridge_only_networks_are_mirror_invariant(self):
        net = network_from_factorization(_worked_3x3_certificate())
        assert reflect(net) == net

    def test_cross_symmetric_path_matrix_fixed_by_reflection(self):
        net = network_from_factorization(_worked_3x3_certificate())
        assert path_matrix(reflect(net)) == path_matrix(net)


class TestDot:
    def test_deterministic(self):
        net = network_from_factorization(_worked_3x3_certificate())
        assert export_dot(net) == export_dot(net)

    def test_trivial_network(self):
        fact = Factorization(n=1, atoms=(), diagonal=(Fraction(1),))
        dot = export_dot(network_from_factorization(fact))
        assert 'label="S1"' in dot and 'label="T1"' in dot
        assert dot.count("->") == 1

    def test_worked_3x3_edge_labels(self):
        net = network_from_factorization(_worked_3x3_certificate())
        dot = export_dot(net)
        weights = re.findall(r'label="([^"]+)"', dot)
        weights = [w for w in weights if not w.startswith(("S", "T"))]
        assert sorted(weights) == ["1/4", "1/4", "4/9", "4/9", "5/4", "5/4", "9", "9", "9"]

    def test_unit_edges_unlabeled(self):
        fact = Factorization(n=2, atoms=(), diagonal=(Fraction(1), Fraction(1)))
        dot = export_dot(network_from_factorization(fact))
        labels = [w for w in re.findall(r'label="([^"]+)"', dot) if not w.startswith(("S", "T"))]
        assert labels == []


class TestDocFormat:
    def test_round_trip(self):
        A = amazing_matrix(4, 3, scaled=True)
        fact = cross_symmetric_eliminate(A).factorization
        net = network_from_factorization(fact)
        doc = network_to_doc(net)
        assert network_from_doc(doc) == net
        assert path_matrix(network_from_doc(doc)) == A

    @pytest.mark.parametrize(
        "chips",
        [
            pytest.param([{"horizontals": ["0", "-3"], "slants": []}], id="nonpositive-horizontal"),
            pytest.param(5, id="chips-not-a-list"),
            pytest.param([5], id="chip-not-an-object"),
            pytest.param([{"horizontals": 5, "slants": []}], id="horizontals-not-a-list"),
            pytest.param([{"horizontals": ["1", "1"], "slants": 5}], id="slants-not-a-list"),
            pytest.param([{"horizontals": ["1", "1"], "slants": [5]}], id="slant-not-an-object"),
            pytest.param([{"horizontals": ["x", "x"], "slants": []}], id="bad-token-repeated"),
            pytest.param([{"horizontals": [1, True], "slants": []}], id="boolean-token"),
        ],
    )
    def test_malformed_doc_is_rejected(self, chips):
        with pytest.raises(ValueError):
            network_from_doc({"n": 2, "chips": chips})

    def test_each_distinct_token_is_parsed_once(self, monkeypatch):
        import crosstnn.network as network

        fact = cross_symmetric_eliminate(amazing_matrix(8, 10, scaled=True)).factorization
        net = network_from_factorization(fact)
        doc = network_to_doc(net)
        tokens = [h for chip in doc["chips"] for h in chip["horizontals"]]
        tokens += [s["weight"] for chip in doc["chips"] for s in chip["slants"]]
        parsed = []
        real = network.parse_scalar
        monkeypatch.setattr(network, "parse_scalar", lambda text: parsed.append(text) or real(text))
        assert network_from_doc(doc) == net
        assert sorted(parsed) == sorted(set(tokens))
        assert len(parsed) < len(tokens) // 4

    def test_each_distinct_row_is_formatted_and_read_once(self, monkeypatch):
        import crosstnn.network as network

        n = 12
        net = network_from_factorization(
            cross_symmetric_eliminate(amazing_matrix(n, 10, scaled=True)).factorization
        )
        rows = {id(chip.horizontals) for chip in net.chips}
        slants = sum(len(chip.slants) for chip in net.chips)
        calls = []
        real = network.format_scalar
        monkeypatch.setattr(network, "format_scalar", lambda x: calls.append(x) or real(x))
        doc = network_to_doc(net)
        assert len(calls) == n * len(rows) + slants
        assert len(rows) < len(net.chips) // 4
        token_rows = {tuple(chip["horizontals"]) for chip in doc["chips"]}
        back = network_from_doc(doc)
        assert back == net
        assert len({id(chip.horizontals) for chip in back.chips}) == len(token_rows)

    def test_one_bad_row_among_shared_rows_is_rejected(self):
        chips = [{"horizontals": ["1", "1", "1"], "slants": []} for _ in range(40)]
        chips[17] = {"horizontals": ["1", "0", "1"], "slants": []}
        with pytest.raises(ValueError):
            network_from_doc({"n": 3, "chips": chips})

    def test_unhashable_tokens_read_as_their_text(self):
        # A list token reads as the polynomial its text spells, a dict
        # token is malformed; neither is looked up as a row key.
        doc = {"n": 2, "chips": [{"horizontals": [[1], "1"], "slants": []}] * 2}
        assert network_from_doc(doc).chips[0].horizontals == (Poly((1,)), Fraction(1))
        doc["chips"] = [{"horizontals": ["1", {}], "slants": []}]
        with pytest.raises(ValueError):
            network_from_doc(doc)

    def test_doc_shape(self):
        fact = Factorization(n=2, atoms=(), diagonal=(Fraction(3, 2), Fraction(3, 2)))
        doc = network_to_doc(network_from_factorization(fact))
        assert doc == {
            "n": 2,
            "chips": [{"horizontals": ["3/2", "3/2"], "slants": []}],
        }