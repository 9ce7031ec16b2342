"""Independent checks of `cqs` outputs.

Nothing here imports `cqs`.  Every expected value is recomputed from (n, q)
with the benchmark's own arithmetic:

* the Hirzebruch-Jung expansion of n/(n-q) gives e, the coefficients a_i,
  the T1-carrying degrees (i, k) with 1 <= k <= a_i - 1, and
  dim T1 = sum(a_i - 1) + e - 4;
* (a, b, c) come from b = gcd(n, q+1), and the interval [g/m, h/m] from
  m = a, h = b - c^-1 (mod a) with 0 < h <= m, g = h - b; the totals of
  V, qG and VW follow from the paper's interval formulas;
* W is counted by brute force over the integer points of each zone box in
  iota-coordinates (u, v) = (<alpha, r>, <beta, r>), where the standard cone
  alpha = (1, 0), beta = (-q, n) makes iota(M) = {(u, v) : v = -q*u mod n}.

A failed check raises CheckError naming the class and the property.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd

SCAN_HEADER = "n,q,a,b,c,e,grounded,t_sing,dim_t1,dim_v,dim_w,dim_vw,dim_qg,gap"
DIMS = ("dim_t1", "dim_v", "dim_w", "dim_vw", "dim_qg")


class CheckError(AssertionError):
    """An output of the program disagrees with an independent computation."""


def require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckError(msg)


def hj_expansion(p: int, s: int) -> list[int]:
    """Hirzebruch-Jung continued fraction of p/s (p > s >= 1, coprime)."""
    coeffs = []
    while s:
        a = -(-p // s)
        coeffs.append(a)
        p, s = s, a * s - p
    return coeffs


@dataclass(frozen=True)
class ClassData:
    """Everything the checks expect of S(n, q), derived from (n, q) alone."""

    n: int
    q: int
    coeffs: tuple[int, ...]
    a: int
    b: int
    c: int
    g: int
    h: int
    m: int

    @property
    def e(self) -> int:
        return len(self.coeffs) + 2

    @property
    def degenerate(self) -> bool:
        return self.e <= 3

    @property
    def grounded(self) -> bool:
        # 0 < h <= m, so an integer lies strictly inside iff g < 0
        return self.g < 0

    @property
    def t_sing(self) -> bool:
        # |I| = b/a is a positive integer
        return self.b % self.a == 0

    def degrees(self) -> list[tuple[int, int]]:
        """T1-carrying degrees R = k*r^i, ordered by (i, k)."""
        return [(i, k) for i in range(2, self.e) for k in range(1, self.coeffs[i - 2])]

    def dim_t1_at(self, i: int, k: int) -> int:
        return 2 if k == 1 and 3 <= i <= self.e - 2 else 1

    @property
    def dim_t1(self) -> int:
        return sum(a - 1 for a in self.coeffs) + self.e - 4

    def expected_totals(self) -> tuple[int, int, int]:
        """(V, qG, VW) totals from the interval formulas."""
        if not self.grounded:
            return self.e - 4, 0, 0
        big_a, big_b = Fraction(-self.g, self.m), Fraction(self.h, self.m)
        fa, fb = floor(big_a), floor(big_b)
        qg = floor(big_a + big_b)
        one_over_m = Fraction(1, self.m)
        vw = qg if one_over_m in (big_a - fa, big_b - fb) else fa + fb + 1
        return self.e - 4 + fa + fb, qg, vw

    def iota_basis(self) -> list[tuple[int, int]]:
        """iota(r^1), ..., iota(r^e) by the three-term recursion."""
        basis = [(0, self.n), (1, self.n - self.q)]
        for a in self.coeffs:
            (u1, v1), (u2, v2) = basis[-2], basis[-1]
            basis.append((a * u2 - u1, a * v2 - v1))
        require(basis[-1] == (self.n, 0), f"{self.label}: recursion misses r^e")
        return basis

    def m_point(self, u: int, v: int) -> tuple[int, int]:
        """The M-point [x, y] with iota([x, y]) = (u, v): x = u, n*y = v + q*u."""
        return u, (v + self.q * u) // self.n

    @property
    def label(self) -> str:
        return f"nq:{self.n}/{self.q}"


def class_data(n: int, q: int) -> ClassData:
    require(n >= 2 and 1 <= q < n and gcd(n, q) == 1, f"nq:{n}/{q} is not a valid class")
    b = gcd(n, q + 1)
    a, c = n // b, (q + 1) // b
    h = (b - pow(c, -1, a)) % a if a > 1 else 0
    h = h or a
    return ClassData(n, q, tuple(hj_expansion(n, n - q)), a, b, c, h - b, h, a)


def mirror_q(n: int, q: int) -> int:
    return pow(q, -1, n)


def all_classes(n_max: int) -> list[tuple[int, int]]:
    return [(n, q) for n in range(2, n_max + 1) for q in range(1, n) if gcd(n, q) == 1]


def scan_classes(n_max: int) -> list[ClassData]:
    """Canonical (q <= q'), non-degenerate classes with n <= n_max, in (n, q) order."""
    out = []
    for n, q in all_classes(n_max):
        cd = class_data(n, q)
        if not cd.degenerate and q <= mirror_q(n, q):
            out.append(cd)
    return out


def _check_dims(where: str, dims: dict) -> None:
    t1, v, w, vw, qg = (dims[k] for k in DIMS)
    require(0 <= qg <= vw <= v <= t1, f"{where}: qG <= VW <= V <= T1 fails: {dims}")
    require(vw <= w <= t1, f"{where}: VW <= W <= T1 fails: {dims}")


def _check_totals(where: str, cd: ClassData, totals: dict, gap: int) -> None:
    _check_dims(where, totals)
    require(totals["dim_t1"] == cd.dim_t1, f"{where}: dim_t1 {totals['dim_t1']} != {cd.dim_t1}")
    expect_v, expect_qg, expect_vw = cd.expected_totals()
    got = (totals["dim_v"], totals["dim_qg"], totals["dim_vw"])
    require(
        got == (expect_v, expect_qg, expect_vw),
        f"{where}: (V, qG, VW) = {got}, interval formulas give {(expect_v, expect_qg, expect_vw)}",
    )
    require(gap == totals["dim_v"] - totals["dim_vw"], f"{where}: gap {gap} != V - VW")
    require(gap in (cd.e - 4, cd.e - 5), f"{where}: gap {gap} outside {{e-4, e-5}}")


def _bool(text: str, where: str) -> bool:
    require(text in ("true", "false"), f"{where}: bad boolean {text!r}")
    return text == "true"


def check_scan(text: str, n_max: int) -> list[dict]:
    """Validate `cqs scan n_max`; returns the parsed rows."""
    lines = text.splitlines()
    require(bool(lines) and lines[0] == SCAN_HEADER, "scan: header differs from the documented one")
    expected = scan_classes(n_max)
    require(
        len(lines) - 1 == len(expected),
        f"scan: {len(lines) - 1} rows, own enumeration has {len(expected)} classes",
    )
    keys = SCAN_HEADER.split(",")
    rows = []
    for line, cd in zip(lines[1:], expected):
        fields = line.split(",")
        require(len(fields) == len(keys), f"scan: malformed row {line!r}")
        row = dict(zip(keys, fields))
        where = f"scan row {line!r}"
        for k in keys:
            if k not in ("grounded", "t_sing"):
                require(row[k].lstrip("-").isdigit(), f"{where}: {k} is not an integer")
                row[k] = int(row[k])
        row["grounded"] = _bool(row["grounded"], where)
        row["t_sing"] = _bool(row["t_sing"], where)
        require((row["n"], row["q"]) == (cd.n, cd.q), f"{where}: expected class {cd.label}")
        require(
            (row["a"], row["b"], row["c"], row["e"]) == (cd.a, cd.b, cd.c, cd.e),
            f"{where}: (a,b,c,e) should be {(cd.a, cd.b, cd.c, cd.e)}",
        )
        require(
            (row["grounded"], row["t_sing"]) == (cd.grounded, cd.t_sing),
            f"{where}: (grounded, t_sing) should be {(cd.grounded, cd.t_sing)}",
        )
        _check_totals(where, cd, row, row["gap"])
        rows.append(row)
    return rows


def _rank(points: list[tuple[int, int]]) -> int:
    nonzero = [p for p in points if p != (0, 0)]
    if not nonzero:
        return 0
    u0, v0 = nonzero[0]
    return 2 if any(u0 * v - v0 * u for u, v in nonzero[1:]) else 1


def w_dims_bruteforce(cd: ClassData) -> dict[tuple[int, int], int]:
    """dim T1_W per degree from the iso[-1] zone constraints, by brute force.

    For R = k*r^i the zone Z_{R,-1} holds the M-points r with
    -1 <= <alpha,r> < <alpha,R> - 1 and the same for beta; every zone point
    gives the constraint <a, R + r> = 0 on the directions a of T1(-R).  With
    P = {iota(R + r)}: interior degrees (k = 1, 3 <= i <= e-2) have all of N
    as directions, so dim W = 2 - rank P; the quotient degrees r^2, r^(e-1)
    have N modulo alpha resp. beta, which every constraint kills, so
    dim W = 1 - rank P; degrees with k >= 2 have the line (r^i)^perp, so
    dim W = 1 exactly when every point of P is parallel to iota(r^i).
    """
    basis = cd.iota_basis()
    n, q = cd.n, cd.q
    out = {}
    for i, k in cd.degrees():
        ui, vi = basis[i - 1]
        ur, vr = k * ui, k * vi
        pts = [
            (ur + u, vr + v)
            for u in range(-1, ur - 1)
            for v in range(-1, vr - 1)
            if (v + q * u) % n == 0
        ]
        if k >= 2:
            out[(i, k)] = int(all(u * vi - v * ui == 0 for u, v in pts))
        elif i in (2, cd.e - 1):
            # <alpha, R + r> = u and <beta, R + r> = v
            axis = 0 if i == 2 else 1
            require(
                all(p[axis] == 0 for p in pts),
                f"{cd.label}: a zone constraint at ({i},1) does not kill the edge",
            )
            out[(i, k)] = 1 - _rank(pts)
        else:
            out[(i, k)] = 2 - _rank(pts)
    return out


def check_w_sample(rows: list[dict], seed: int, size: int, n_limit: int) -> int:
    """Compare dim_w of a seeded sample of rows with n <= n_limit to the brute force."""
    small = [r for r in rows if r["n"] <= n_limit]
    sample = random.Random(seed).sample(small, min(size, len(small)))
    for row in sample:
        cd = class_data(row["n"], row["q"])
        w = sum(w_dims_bruteforce(cd).values())
        require(
            row["dim_w"] == w, f"scan row {cd.label}: dim_w {row['dim_w']}, brute force gives {w}"
        )
    return len(sample)


def check_verify(text: str, n_max: int) -> None:
    """`cqs verify`: no mismatch, each section checks at least every class once."""
    lines = text.splitlines()
    require(not any(line.startswith("MISMATCH") for line in lines), "verify: MISMATCH lines")
    classes = all_classes(n_max)
    floor_checks = {
        "conversions": len(classes),
        "hilbert": len(classes),
        "deformations": sum(not class_data(n, q).degenerate for n, q in classes),
    }
    total = 0
    for section, least in floor_checks.items():
        found = [ln for ln in lines if ln.startswith(f"{section}: ")]
        require(len(found) == 1, f"verify: expected one {section!r} line")
        words = found[0].split()
        require(
            len(words) == 5 and words[1].isdigit() and words[3] == "0",
            f"verify: malformed or failing line {found[0]!r}",
        )
        count = int(words[1])
        require(count >= least, f"verify: {section} ran {count} checks for {least} classes")
        total += count
    require(
        lines[-1:] == [f"all checks passed ({total} checks)"],
        f"verify: last line should report {total} passed checks",
    )


def _row_dims(row: dict) -> tuple[int, ...]:
    return tuple(row[k] for k in DIMS)


def check_analyze(doc: dict, n: int, q: int) -> None:
    """`cqs analyze --json` for one class: structure, degree table and totals."""
    cd = class_data(n, q)
    where = f"analyze {cd.label}"
    require(doc.get("schema_version") == "1", f"{where}: schema_version")
    echo = doc["input_echo"]
    require(echo["nq"] == {"n": n, "q": q}, f"{where}: echoed class {echo['nq']}")
    abc, iv = echo["abc"], echo["interval"]
    require(
        (abc["a"], abc["b"], abc["c"]) == (cd.a, cd.b, cd.c), f"{where}: abc {abc}"
    )
    require((iv["g"], iv["h"], iv["m"]) == (cd.g, cd.h, cd.m), f"{where}: interval {iv}")
    hil = doc["hilbert"]
    require(
        hil["e"] == cd.e and hil["coeffs"] == list(cd.coeffs), f"{where}: e or coefficients"
    )
    basis = cd.iota_basis()
    require(
        hil["basis"] == [list(cd.m_point(u, v)) for u, v in basis], f"{where}: Hilbert basis"
    )
    cls = doc["classification"]
    require(
        (cls["grounded"], cls["t_singularity"]) == (cd.grounded, cd.t_sing),
        f"{where}: classification flags",
    )
    t1 = doc["t1"]
    require(t1 is not None, f"{where}: no deformation table")
    table = t1["per_degree"]
    require(
        [(r["i"], r["k"]) for r in table] == cd.degrees(),
        f"{where}: degree set differs from the continued fraction",
    )
    sums = dict.fromkeys(DIMS, 0)
    for row in table:
        i, k = row["i"], row["k"]
        at = f"{where} degree ({i},{k})"
        u, v = basis[i - 1]
        require(row["degree"] == list(cd.m_point(k * u, k * v)), f"{at}: degree vector")
        require(row["dim_t1"] == cd.dim_t1_at(i, k), f"{at}: dim_t1")
        _check_dims(at, row)
        for key in DIMS:
            sums[key] += row[key]
    totals = t1["totals"]
    require(
        all(totals[key] == sums[key] for key in DIMS),
        f"{where}: totals {totals} differ from the per-degree sums {sums}",
    )
    _check_totals(where, cd, totals, totals["gap"])


def check_mirror(doc: dict, mirror_doc: dict) -> None:
    """The mirror class carries the per-degree table reversed in i."""
    e = doc["hilbert"]["e"]
    label = f"nq:{doc['input_echo']['nq']['n']}/{doc['input_echo']['nq']['q']}"
    require(mirror_doc["hilbert"]["e"] == e, f"{label}: mirror has another e")
    own = {(r["i"], r["k"]): _row_dims(r) for r in doc["t1"]["per_degree"]}
    flipped = {(e + 1 - r["i"], r["k"]): _row_dims(r) for r in mirror_doc["t1"]["per_degree"]}
    require(own == flipped, f"{label}: mirror table is not the reversed table")
