"""Separating list chromatic number from chromatic number, with receipts.

The square of the construction is K_{n*(2n-1)}: chromatic number 2n-1,
one color per part.  But complete multipartite graphs resist list
coloring: splitting the 2r-1 colors into n blocks and denying block k
to the k-th vertex of every part leaves no color common to any part, so
every part needs two colors and 2r-1 colors cannot serve r parts.  The
certificate pins both sides without a search: the coloring by part of
the verified partition (one vertex per part is a clique, so no fewer
colors will do), and adversarial lists one size larger than (2n-1)-1,
refuted by that count on the same parts.
"""

from squaregap import certify_gap
from squaregap.serialize import certificate_to_json_dict, json_dumps


def describe(n):
    cert = certify_gap(n)
    print(f"n = {n}")
    print(f"  chromatic number of the square: {cert.chromatic}")
    print(f"  refuted list size:              {cert.list_bound}")
    print(f"  list chromatic number at least: {cert.list_bound + 1}")
    print(f"  gap at least:                   {cert.gap_lower}")
    print(f"  color blocks: {cert.blocks}")
    r, universe = cert.chromatic, cert.refuted_assignment.universe
    print(f"  refutation: {r} parts need 2 colors each, {2 * r} > {len(universe)} in the universe")
    return cert


def main():
    describe(3)
    print()
    cert = describe(5)

    print("\nthe n=5 certificate as emitted by the CLI:")
    doc = certificate_to_json_dict(cert)
    head = "".join(json_dumps(doc).splitlines(keepends=True)[:12])
    print(head + "  ...\n")

    print("the pattern: chromatic = 2n-1 stays put while the refuted list")
    print("size 3(n-1) grows, so the gap n-1 grows without bound with n.")


if __name__ == "__main__":
    main()
