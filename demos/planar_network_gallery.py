#!/usr/bin/env python3
"""Render atom factorizations as weighted planar networks.

A matrix is totally nonnegative exactly when it is the weighted path
matrix of a planar network with positive edge weights, so emitting such
a network IS a certificate.  Each bridge atom becomes one chip with two
slant edges of weight c; each center atom becomes three chips via
[[a,e],[e,a]] = (I + cE(s+1,s)) diag(a,1) (I + cE(s,s+1)); the final
diagonal becomes terminal edge weights.  The path matrix is computed by
applying each chip to the running product as a few column updates,
never by enumerating paths.

Pipe the DOT output into graphviz to draw it:

    python demos/planar_network_gallery.py dot | dot -Tpng -o network.png
"""

import sys

from crosstnn import (
    amazing_matrix,
    cross_symmetric_eliminate,
    export_dot,
    network_from_factorization,
    path_matrix,
    reflect,
    tau,
)


def describe(n: int, b: int) -> None:
    A = amazing_matrix(n, b, scaled=True)
    fact = cross_symmetric_eliminate(A).factorization
    net = network_from_factorization(fact)
    print(f"--- network for the scaled carries matrix, n={n}, b={b} ---")
    print(f"wires: {net.n}, chips: {len(net.chips)}")
    for k, chip in enumerate(net.chips, start=1):
        slants = ", ".join(f"{s.src}->{s.dst} ({s.weight})" for s in chip.slants)
        horizontals = " ".join(str(h) for h in chip.horizontals)
        print(f"  chip {k}: horizontals [{horizontals}]" + (f", slants {slants}" if slants else ""))
    assert path_matrix(net) == A
    print("path matrix reproduces the input: OK")
    mirrored = reflect(net)
    assert path_matrix(mirrored) == tau(path_matrix(net)) == A
    print("mirror in the horizontal centre line preserves the path matrix: OK")
    print()


def main() -> None:
    if len(sys.argv) > 1 and sys.argv[1] == "dot":
        A = amazing_matrix(3, 3, scaled=True)
        fact = cross_symmetric_eliminate(A).factorization
        sys.stdout.write(export_dot(network_from_factorization(fact)))
        return
    print("Planar-network certificates")
    print("=" * 60)
    describe(3, 3)
    describe(4, 3)
    print("Run with the single argument 'dot' to emit graphviz input for")
    print("the 3x3 base-3 network (slants 1/4, 4/9, 5/4; terminal edges 9).")


if __name__ == "__main__":
    main()
