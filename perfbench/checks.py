"""Output checks for every artifact the benchmark's ops write.

They run after the timed phase.  Each check returns ``None`` when the
artifact is sound, otherwise a one-line reason.  The checks that need
exact values (witness masses, complementary Bell numbers) recompute them
here without ``treerep``, so a fault in the engine cannot vouch for
itself.
"""

from __future__ import annotations

import json
from fractions import Fraction

from inputs import adjacency


def is_connected(n, edges, vertices):
    vertices = set(vertices)
    if not vertices or not vertices <= set(range(n)):
        return False
    nbrs = adjacency(n, edges)
    start = min(vertices)
    seen, stack = {start}, [start]
    while stack:
        for w in nbrs[stack.pop()]:
            if w in vertices and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def prob_all_zero(n, edges, r, p, zero_on):
    """P(X == 0 on every vertex of ``zero_on``) for the chain rooted at 0.

    ``r`` is per vertex, ``p`` per edge in the order of ``edges``.  A
    child copies its parent with probability 1 - p_e and otherwise draws
    0 with probability r_child.
    """
    nbrs = adjacency(n, edges)
    p_of = {}
    for (u, v), pe in zip(edges, p):
        p_of[u, v] = p_of[v, u] = pe
    order, parent = [0], [-1] * n
    for v in order:
        for w in nbrs[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    table = [None] * n  # table[v] = (f(X_v = 0), f(X_v = 1))
    for v in reversed(order):
        f0 = f1 = Fraction(1)
        for c in nbrs[v]:
            if c == parent[v]:
                continue
            pe, rc = p_of[v, c], r[c]
            c0, c1 = table[c]
            fresh = rc * c0 + (1 - rc) * c1
            f0 *= (1 - pe) * c0 + pe * fresh
            f1 *= (1 - pe) * c1 + pe * fresh
        table[v] = (f0, Fraction(0) if v in zero_on else f1)
    return r[0] * table[0][0] + (1 - r[0]) * table[0][1]


def mass_is_negative(n, edges, r, p, witness):
    """Sign of nu(K) by full inclusion-exclusion over the subsets I of K.

    nu(K) = sum over I of (-1)^|K \\ I| log P(X == 0 off I); it is
    negative exactly when the even-signed product of probabilities is
    smaller than the odd-signed one.
    """
    r = [Fraction(x) for x in r]
    p = [Fraction(x) for x in p]
    k = list(witness)
    everyone = set(range(n))
    even = odd = Fraction(1)
    for mask in range(1 << len(k)):
        inside = {k[i] for i in range(len(k)) if mask >> i & 1}
        prob = prob_all_zero(n, edges, r, p, everyone - inside)
        if (len(k) - len(inside)) % 2 == 0:
            even *= prob
        else:
            odd *= prob
    return even < odd


def complementary_bell(n):
    """sum_k (-1)^k S(n, k), from the Stirling recurrence."""
    row = [1]  # S(0, k)
    for m in range(1, n + 1):
        row = [0] + [k * (row[k] if k < len(row) else 0) + row[k - 1] for k in range(1, m + 1)]
    return sum((-1) ** k * s for k, s in enumerate(row))


def _witness_error(op, witness):
    if not is_connected(op.n, op.edges, witness):
        return "witness %s is not a connected set of the tree" % (witness,)
    return None


def check_analyze(op, data):
    payload = json.loads(data)
    if payload.get("vertices") != op.n:
        return "vertices %r, expected %d" % (payload.get("vertices"), op.n)
    if payload.get("r") != op.meta["r"] or payload.get("p") != op.meta["p"]:
        return "parameters echoed inexactly"
    if not isinstance(payload.get("checked_sets"), int) or payload["checked_sets"] < 1:
        return "checked_sets missing"
    representable, witness = payload.get("representable"), payload.get("witness")
    if representable is not (witness is None):
        return "representable=%r with witness %r" % (representable, witness)
    return None if witness is None else _witness_error(op, witness)


def check_scan(op, data):
    lines = data.decode("utf-8").splitlines()
    if not lines or lines[0] != "r,p,representable,witness":
        return "bad CSV header"
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    expected = sorted((r, p) for r in op.meta["r_values"] for p in op.meta["p_values"])
    if [(Fraction(r), Fraction(p)) for r, p, _, _ in rows] != expected:
        return "grid points differ from the requested grid"
    for _, _, flag, witness in rows:
        if flag not in ("true", "false") or (flag == "true") != (witness == ""):
            return "representable=%s with witness %r" % (flag, witness)
        if witness:
            error = _witness_error(op, [int(v) for v in witness.split(";")])
            if error:
                return error
    return None


def check_thresholds(op, data):
    lines = [line for line in data.decode("utf-8").splitlines() if not line.startswith("#")]
    if lines[0] != "n,bell_c,r_star,r0,r1":
        return "bad CSV header"
    rows = [line.split(",") for line in lines[1:]]
    if [int(row[0]) for row in rows] != op.meta["ns"]:
        return "rows do not cover the requested n"
    for n, bell, r_star, r0, r1 in rows:
        if int(bell) != complementary_bell(int(n)):
            return "complementary Bell number wrong at n=%s" % n
        if not -1 <= float(r_star) < 0 or not 0 < float(r1) < 1:
            return "r_star outside [-1, 0) or r1 outside (0, 1) at n=%s" % n
        if r0 != "undefined" and not 0 < float(r0) < 1:
            return "r0 outside (0, 1) at n=%s" % n
    return None


def check_deriv(op, data):
    payload = json.loads(data)
    Fraction(payload["derivative"])
    if payload.get("matches") is False:
        return "derivative %s differs from closed form %s" % (
            payload["derivative"], payload["closed_form"])
    if op.meta["closed"] and payload.get("matches") is not True:
        return "no closed form reported where one applies"
    return None


def check_scaling(op, data):
    payload = json.loads(data)
    p, k = Fraction(op.meta["p"]), op.meta["k"]
    if payload.get("aggregated_p") != str(1 - (1 - p) ** k):
        return "aggregated p wrong"
    return None if payload.get("passed") is True else "scaling identity failed"


def check_verify(op, data):
    payload = json.loads(data)
    if payload.get("draws") != op.meta["draws"]:
        return "draw count differs"
    alpha = float(Fraction(payload["alpha"]))
    for name in ("percolation_vs_recursive", "poisson_vs_recursive"):
        report = payload[name]
        if report["passed"] is not (report["p_value"] >= alpha):
            return "%s verdict disagrees with its p-value" % name
    closure = payload["poisson_closure"]
    if closure["checked"] != (1 << op.n) - 1:
        return "closure checked %r sets, expected %d" % (closure["checked"], (1 << op.n) - 1)
    if closure["passed"] is not (closure["max_sigmas"] <= closure["tolerance"]):
        return "closure verdict disagrees with its deviation"
    return None if payload.get("passed") is True else "sampler or closure check rejected"


CHECKS = {
    "analyze": check_analyze,
    "scan": check_scan,
    "thresholds": check_thresholds,
    "deriv-check": check_deriv,
    "scaling-check": check_scaling,
    "verify": check_verify,
}


def check_artifact(op, data):
    """``None`` when the artifact of ``op`` is sound, else the reason."""
    try:
        return CHECKS[op.command](op, data)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "unparsable artifact: %s: %s" % (type(exc).__name__, exc)


def check_witness_mass(op, data):
    """For an analyze artifact with a witness: is its mass really negative?"""
    witness = json.loads(data)["witness"]
    if witness is None:
        return None
    if mass_is_negative(op.n, op.edges, op.meta["r"], op.meta["p"], witness):
        return None
    return "witness %s has nonnegative mass by full inclusion-exclusion" % (witness,)
