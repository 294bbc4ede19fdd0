"""Witnesses: the maps that break uniqueness, found and replayed.

A negative verdict is never just a flag. It comes with an affine map
x -> beta x + gamma and a multiplier c such that P(beta X + gamma)
equals c P(X) exactly, or with a named curve-geometry case. This
script finds witnesses with the independent search (which solves the
coefficient equations, rather than reading support gcds) for any
multiplier c and for c = 1 in one call, replays them, and shows that
a tampered witness is rejected.

Run:  python3 demos/02_witnesses.py
"""

import dataclasses
from fractions import Fraction as Q

from uniqpoly import parse_poly, verify_witness, witness_search


def show_one(p, label: str, w) -> None:
    print(f"  {label}:")
    if w is None:
        print("    no value-preserving map exists")
        return
    print(f"    kind: {w.kind}")
    print(f"    identity: {w.identity}")
    print(f"    replay: {verify_witness(p, w)}")
    if w.beta is not None and w.kind != "paper-exception":
        tampered = dataclasses.replace(w, beta=w.beta + 1)
        print(f"    tampered replay: {verify_witness(p, tampered)}")


def show(text: str) -> None:
    # one search answers both questions: a map for some c, and one with c = 1
    p = parse_poly(text)
    any_c, c_one = witness_search(p)
    print(f"\n{text}")
    show_one(p, "any c", any_c)
    show_one(p, "c = 1", c_one)


def main() -> None:
    # an even polynomial: X -> -X preserves every value
    show("X^4 - 2X^2 + 3")
    # shifted symmetry: the center moves but the search still finds it
    show("(X-1)^4 + (X-1)^2")
    # odd support: X -> -X negates values, c = -1, and no c = 1 map exists
    show("X^7 + X^3 + X")
    # rigid input: nothing to find for any c
    show("X^5 + X + 1")

    # scaling maps compose: the cube-root rotation on X^6 + X^3 has
    # order 3, and applying it three times gives the identity
    p = parse_poly("X^6 + X^3")
    w, _ = witness_search(p)
    print(f"\nX^6 + X^3 rotation has order {w.order}, "
          f"multiplier exponent {w.c_exponent}")
    print("  multiplier is 1, so the zero SET is preserved although the")
    print("  roots are permuted; the centered support shows why:",
          list(p.support()))
    assert verify_witness(p, w)


if __name__ == "__main__":
    main()
