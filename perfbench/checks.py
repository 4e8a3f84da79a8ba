"""Output checks for the benchmark's CLI calls.

Each call is checked after its pass: exit code 0, the report keys its
workload requires, sample and CSV row counts, decreasing total cost, and
the final formation cost against a reference value.

The reference final costs come from an integrator written here, apart
from the program: it reads the scenario JSON itself and integrates the
same gradient flow with classical RK4. It is run once per benchmark run,
before any timing, and its values are held for every pass. The check
uses a relative tolerance, not equality, because another backend of the
program (for example compiled C) agrees only to a few ulps per step.
"""

import json

import numpy as np

# |vf_final - reference| <= REL_TOL * reference
REL_TOL = 1e-9


def _triangle_triples(n, edges):
    """Two triples per graph triangle a < b < c, apexes at a and b."""
    adj = [set() for _ in range(n + 1)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    out = []
    for a, b in edges:
        for c in adj[a] & adj[b]:
            if c > b:
                out += [(a, b, c), (b, a, c)]
    return sorted(out)


def _velocity(pos, tri, cstar, scatter, lead, dstar):
    """Negative gradient of the tracking cost, and the formation cost."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    eab = pos[a] - pos[b]
    eac = pos[a] - pos[c]
    lab = np.sqrt(np.einsum("ij,ij->i", eab, eab))[:, None]
    lac = np.sqrt(np.einsum("ij,ij->i", eac, eac))[:, None]
    gab, gac = eab / lab, eac / lac
    cos = np.einsum("ij,ij->i", gab, gac)[:, None]
    d = cos - cstar
    # d cos / d p_b and d cos / d p_c; the apex takes minus their sum
    db = -(gac - cos * gab) / lab
    dc = -(gab - cos * gac) / lac
    u = -(scatter @ np.vstack([-(db + dc) * d, db * d, dc * d]))
    if lead is not None:
        err = dstar - (pos[lead[0]] - pos[lead[1]])
        u[lead[0]] += err
        u[lead[1]] -= err
    return u, 0.5 * float(np.sum(d * d))


def reference_final_cost(scenario_path):
    """Formation cost V_F at t_final of the scenario file's flow."""
    return final_cost(json.loads(scenario_path.read_text()))


def final_cost(doc):
    """Formation cost V_F at t_final of a parsed scenario's flow."""
    n = doc["graph"]["n"]
    edges = sorted((min(i, j), max(i, j)) for i, j in doc["graph"]["edges"])
    conf = doc["configuration"]
    if "points" in conf:
        base = np.array(conf["points"], dtype=float)
    else:
        gen = conf["generator"]
        ang = 2.0 * np.pi * np.arange(1, gen["n"] + 1) / gen["n"]
        base = gen.get("radius", 1.0) * np.column_stack([np.cos(ang), np.sin(ang)])
    pert = conf["perturbation"]
    rng = np.random.default_rng(pert["seed"])
    pos = base + rng.uniform(-pert["amplitude"], pert["amplitude"], size=2 * n).reshape(n, 2)

    angles = doc["angles"]
    if angles["source"] == "explicit":
        triples = [(i, min(j, k), max(j, k)) for i, j, k in angles["triples"]]
    elif angles["source"] in ("triangle_formation", "laman_minimal"):
        triples = _triangle_triples(n, edges)
    else:
        raise ValueError(f"no reference for angle source {angles['source']!r}")
    tri = np.array(sorted(set(triples)), dtype=np.int64) - 1
    w = len(tri)
    scatter = np.zeros((n, 3 * w))
    scatter[tri.T.reshape(-1), np.arange(3 * w)] = 1.0

    lead, dstar = None, None
    if "maneuver" in doc:
        l1, l2 = doc["maneuver"]["leaders"]
        lead, dstar = (l1 - 1, l2 - 1), np.array(doc["maneuver"]["displacement"], float)

    eab = base[tri[:, 0]] - base[tri[:, 1]]
    eac = base[tri[:, 0]] - base[tri[:, 2]]
    cstar = (np.einsum("ij,ij->i", eab, eac) / np.hypot(*eab.T) / np.hypot(*eac.T))[:, None]

    integ = doc["integrator"]
    h = float(integ["h"])
    for _ in range(int(round(integ["t_final"] / h))):
        k1, _ = _velocity(pos, tri, cstar, scatter, lead, dstar)
        k2, _ = _velocity(pos + 0.5 * h * k1, tri, cstar, scatter, lead, dstar)
        k3, _ = _velocity(pos + 0.5 * h * k2, tri, cstar, scatter, lead, dstar)
        k4, _ = _velocity(pos + h * k3, tri, cstar, scatter, lead, dstar)
        pos = pos + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _velocity(pos, tri, cstar, scatter, None, None)[1]


def parse_report(text):
    """key=value report lines into a dict (other lines are ignored)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _csv_rows(path):
    with path.open() as fh:
        return sum(1 for _ in fh) - 1


def check_call(call, code, report, reference):
    """Problems found in one call's output; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    problems = [
        f"{key}={report.get(key)} (want {want})"
        for key, want in call.expect.items()
        if report.get(key) != want
    ]
    if call.verb == "indexset" and "expected_size" in report:
        if report.get("size") != report["expected_size"]:
            problems.append(f"size={report.get('size')} expected_size={report['expected_size']}")
    if call.verb == "simulate":
        samples = int(call.expect["samples"])
        for name in ("trajectory.csv", "cost.csv"):
            if not (call.out / name).is_file():
                problems.append(f"{name} was not written")
                continue
            rows = _csv_rows(call.out / name)
            if rows != samples:
                problems.append(f"{name} has {rows} rows (want {samples})")
        # the flow descends the total cost V; with a maneuver the formation
        # cost V_F alone may rise while the leaders are dragged
        v0, v1 = float(report["v_initial"]), float(report["v_final"])
        if not v1 < v0:
            problems.append(f"v_final {v1!r} not below v_initial {v0!r}")
        vf1 = float(report["vf_final"])
        if not abs(vf1 - reference) <= REL_TOL * abs(reference):
            problems.append(f"vf_final {vf1!r} differs from reference {reference!r}")
    return problems
