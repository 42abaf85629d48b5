"""Mutually orthogonal Latin squares of prime order.

One affine rule generates the whole family: the entry in row j, column k
of the i-th square is j + i*(k-1) mod n.  For prime n, any two distinct
slopes i give orthogonal squares: superimposing them produces every
ordered pair of symbols exactly once.
"""

from squaregap import are_orthogonal, build_mols_family


def show_family(n):
    family = build_mols_family(n)
    print(f"order {n}: {len(family)} squares")
    for i, sq in enumerate(family, start=1):
        print(f"\nL_{i} (slope {i})")
        for row in sq:
            print("  " + " ".join(f"{x:2d}" for x in row))
    return family


def show_superposition(a, b):
    """Print the ordered pairs; orthogonality means no pair repeats."""
    n = len(a)
    print("\nsuperposition of L_1 and L_2:")
    rows = list(zip(a, b))
    for ra, rb in rows:
        print("  " + " ".join(f"({x},{y})" for x, y in zip(ra, rb)))
    pairs = {pair for ra, rb in rows for pair in zip(ra, rb)}
    print(f"distinct pairs: {len(pairs)} of {n * n}")


def main():
    family = show_family(3)
    show_superposition(family[0], family[1])

    print("\norder 7, pairwise orthogonality:")
    family = build_mols_family(7)
    for x in range(len(family)):
        row = []
        for y in range(len(family)):
            if x == y:
                row.append(".")
            else:
                orthogonal = are_orthogonal(family[x], family[y])
                row.append("+" if orthogonal else "!")
        print("  " + " ".join(row))


if __name__ == "__main__":
    main()
