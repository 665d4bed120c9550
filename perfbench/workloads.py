"""The three workloads: seeded inputs, how one request runs, and its gate.

Inputs come from numpy's PCG64 generator seeded with the workload seed, so
they do not depend on the random streams of the program under test. Each
parameter that sets a request's cost is drawn stratified (one draw per
equal-width bin, bins in random order), so that two seeds give pools of
nearly the same total cost while every request still differs.

A request is one closed-loop call: `metriq.cli.main` for `simulate` and
`verify`, `metriq.tomography.sampled_one_to_one` for `oracle`. Each is
looked up on its module at call time, so the traced run sees the wrappers.
Gates check statistics and invariants, never sampled bytes, because a new
sampler may legitimately change the bytes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import metriq
import metriq.cli
import metriq.tomography

CSV_HEADER = "seed,N,total_copies,success_ratio,analytic_prob,abs_error"
REPORT_KEYS = {"distance", "eta_eigenvalues", "seed", "shots_per_input", "threshold", "verdict"}
FIVE_SIGMA_TAIL = math.erfc(5.0 / math.sqrt(2.0))  # two-sided P(|Z| > 5)
ORACLE_SAMPLES = 1_000_000
ORACLE_OVERSHOOT_TOL = 1e-4  # criterion 8's gate
ORACLE_DEFICIT_TOL = 1e-2  # catches an oracle that stopped searching
TAIL_MAX_ATTEMPTS = 5e6  # simulate tail: N / p at most this
DISHONEST_MAX_ATTEMPTS = 1e6  # verify: attempts per design input at most this
DESIGN_INPUTS = 9
# A sampled game may miss its expected verdict only when its distance lies
# within VERDICT_NOISE / sqrt(shots) of the threshold. An honest game's
# distance times sqrt(shots) had median 0.7 and maximum 2.3 over 300 games,
# so a closer verdict can flip by sampling alone; an exact game never may.
VERDICT_NOISE = 5.0

# Requests per pool. "full" is what the benchmark measures; "tiny" is the
# self-test's size. simulate: (g-eta per N, pt per N, g-eta tail, pt tail);
# verify: (exact games per prover kind, sampled games per kind and shot count);
# oracle: (maps from exact dishonest games, maps from sampled honest games).
SIZES = {
    "full": {"simulate": (32, 16, 4, 2), "verify": (18, 14), "oracle": (4, 2)},
    "tiny": {"simulate": (1, 1, 1, 1), "verify": (1, 1), "oracle": (1, 1)},
}
SIM_SHOTS = (2_000, 10_000, 100_000)
VERIFY_SHOTS = (1_000, 10_000, 100_000)
ORACLE_HONEST_SHOTS = 100_000


@dataclass
class Request:
    """One closed-loop call and what its gate expects.

    kind groups requests for the determinism recheck; group is the stratum
    the request was drawn in; work is the count of work units the request
    delivers (successes, shots or probes).
    """

    kind: str
    group: str
    work: int
    argv: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)
    superop: np.ndarray | None = None


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------

def _strata(rng, k, lo, hi):
    """k draws in [lo, hi), one per equal-width bin, bins in random order."""
    return lo + (hi - lo) * (rng.permutation(k) + rng.random(k)) / k


def _grid(rng, k, lo, hi):
    """The midpoints of k equal-width bins of [lo, hi), in random order."""
    return lo + (hi - lo) * (rng.permutation(k) + 0.5) / k


def _interleave(rng, requests):
    """Spread each group evenly over the pool, in random order within it.

    A timed phase that stops part-way through a cycle then still ran a
    representative mix, whatever the seed.
    """
    groups = {}
    for req in requests:
        groups.setdefault(req.group, []).append(req)
    keyed = []
    for members in groups.values():
        for rank, i in enumerate(rng.permutation(len(members))):
            keyed.append(((rank + rng.random()) / len(members), members[i]))
    keyed.sort(key=lambda pair: pair[0])
    return [req for _, req in keyed]


def _haar_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _encode(matrix):
    """Matrix as rows of [re, im] pairs, the CLI's JSON encoding."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix, complex)]


def _program_seed(rng):
    return int(rng.integers(0, 2**63))


def _metric_with_overlap(rng, lam1, ratio, c):
    """Metric with eigenvalues (lam1*ratio, lam1) and a pure state whose
    weight on the top eigenvector is c, so tr(eta rho)/lam1 = c + (1-c)*ratio."""
    u = _haar_unitary(rng)
    eta = (u * np.array([lam1 * ratio, lam1])) @ u.conj().T
    eta = (eta + eta.conj().T) / 2.0
    phase = np.exp(2j * np.pi * rng.random())
    psi = math.sqrt(c) * u[:, 1] + phase * math.sqrt(1.0 - c) * u[:, 0]
    return eta, np.outer(psi, psi.conj())


def _acceptance_metric(rng, a, b):
    """Nondegenerate subidentity metric drawn like the acceptance suite's:
    lambda_1 in [0.5, 1], lambda_2 = lambda_1 * [0.1, 0.85]."""
    lam1 = 0.5 + 0.5 * a
    lam2 = lam1 * (0.1 + 0.75 * b)
    u = _haar_unitary(rng)
    eta = (u * np.array([lam2, lam1])) @ u.conj().T
    return (eta + eta.conj().T) / 2.0, (lam1, lam2)


def _mixture_sizes(rng, k):
    """k mixture sizes, 1 to 3 as evenly as k allows, in random order.

    The acceptance suite draws the size uniformly; a dishonest game's cost
    grows with it, so it is stratified like every other cost parameter.
    """
    return [int(m) for m in rng.permutation(np.resize([1, 2, 3], k))]


def _acceptance_prover(rng, discard, k):
    """Mixture of k Haar qubit unitaries that discards with probability discard."""
    mats = [_haar_unitary(rng) for _ in range(k)]
    w = rng.random(k) + 1e-3
    return mats, (1.0 - discard) * w / w.sum()


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

class Workload:
    """A request pool plus how to run and check one request."""

    name = ""

    def __init__(self, seed: int, size: str, workdir: str):
        self.rng = np.random.default_rng([seed % 2**64, sum(map(ord, self.name))])
        self.workdir = workdir
        self._names = itertools.count()
        self.requests = _interleave(self.rng, self.build(*SIZES[size][self.name]))

    def _write(self, obj) -> str:
        path = os.path.join(self.workdir, f"in{next(self._names):04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def warm_requests(self) -> list:
        """The first request of each kind, taken from that kind's warm_groups.

        A fixed, cheap group per kind keeps the set-up time from depending
        on which request the seed happened to put first.
        """
        seen = {}
        for req in self.requests:
            if req.group in self.warm_groups:
                seen.setdefault(req.kind, req)
        return list(seen.values())

    def trace_requests(self) -> list:
        return self.requests

    def run(self, req: Request):
        """Run one request; return (exit code, output text)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = metriq.cli.main(req.argv)
        return rc, out.getvalue()


class Simulate(Workload):
    """About 2/3 g-eta and 1/3 pt; a 4% tail of near-singular requests."""

    name = "simulate"
    warm_groups = ("g-eta-2000", "pt-2000")

    def build(self, geta_per_n, pt_per_n, geta_tail, pt_tail):
        reqs = []
        for n in SIM_SHOTS:
            for p in _strata(self.rng, geta_per_n, 0.2, 0.9):
                reqs.append(self._geta(p, n, f"g-eta-{n}"))
            for p in _strata(self.rng, pt_per_n, 0.2, 0.9):
                reqs.append(self._pt(p, n, f"pt-{n}"))
        # A tail request costs fill * TAIL_MAX_ATTEMPTS attempts whatever its p,
        # so its fill sits on a fixed grid: the tail is most of the pool's cost.
        for p, f in zip(10.0 ** _strata(self.rng, geta_tail, -6.0, -2.0),
                        _grid(self.rng, geta_tail, 0.25, 1.0)):
            reqs.append(self._geta(p, max(1, int(f * TAIL_MAX_ATTEMPTS * p)), "g-eta-tail"))
        for p, f in zip(10.0 ** _strata(self.rng, pt_tail, -6.0, -2.0), _grid(self.rng, pt_tail, 0.25, 1.0)):
            reqs.append(self._pt(p, None, "pt-tail", near_ep=True, fill=f))
        return reqs

    def _geta(self, p, n, group):
        """g-eta request whose per-copy success probability is exactly p."""
        lam1 = self.rng.uniform(0.5, 1.0)
        ratio = p * self.rng.uniform(0.05, 0.95)
        eta, rho = _metric_with_overlap(self.rng, lam1, ratio, (p - ratio) / (1.0 - ratio))
        seed = _program_seed(self.rng)
        path = self._write({"metric": _encode(eta), "state": _encode(rho), "shots": n, "seed": seed})
        checked = metriq.validate_metric(eta)
        analytic = float(np.trace(checked.matrix @ rho).real)
        return Request(
            kind="g-eta", group=group, work=n, argv=["simulate", "g-eta", "--config", path],
            expect={"seed": seed, "N": n, "analytic": analytic, "scale": checked.norm,
                    "p": analytic / checked.norm},
        )

    def _pt(self, p, n, group, near_ep=False, fill=1.0):
        """pt request whose per-copy success probability is p.

        Both PT gates are normalized (the metric pair has norm 1), so the
        per-copy success probability is the analytic kappa tr(U rho U^dag)
        = tr(M rho) with M = kappa U^dag U. A Hamiltonian and time are drawn
        until p lies between M's eigenvalues; the pure state is then weighted
        between M's eigenvectors to hit p, as in _metric_with_overlap.
        """
        while True:
            r = self.rng.uniform(0.5, 1.5) if near_ep else self.rng.uniform(0.0, 1.5)
            phi = self.rng.uniform(0.3 if near_ep else 0.0, math.pi / 2)
            rsin = r * math.sin(phi)
            s = rsin * (1.0 + 10.0 ** self.rng.uniform(-7, -1)) if near_ep else rsin + self.rng.uniform(0.2, 2.0)
            t = self.rng.uniform(0.0, 3.0)
            system = metriq.build_pt_system(metriq.PtHamiltonian(r=r, s=s, phi=phi))
            u = metriq.u_pt(system, t)
            mu, vecs = np.linalg.eigh(system.kappa * (u.conj().T @ u))
            if mu[0] < p < mu[1]:
                break
        c = (p - mu[0]) / (mu[1] - mu[0])
        phase = np.exp(2j * np.pi * self.rng.random())
        psi = math.sqrt(c) * vecs[:, 1] + phase * math.sqrt(1.0 - c) * vecs[:, 0]
        rho = np.outer(psi, psi.conj())
        analytic = metriq.chained_success_probability(system, rho, t)
        if n is None:
            n = max(1, int(fill * TAIL_MAX_ATTEMPTS * analytic))
        seed = _program_seed(self.rng)
        path = self._write({"r": r, "s": s, "phi": phi, "t": t, "state": _encode(rho),
                            "shots": n, "seed": seed})
        return Request(
            kind="pt", group=group, work=n, argv=["simulate", "pt", "--config", path],
            expect={"seed": seed, "N": n, "analytic": analytic, "scale": 1.0, "p": analytic},
        )

    def check(self, req, rc, text):
        e = req.expect
        if rc != 0:
            return f"exit {rc}"
        lines = text.splitlines()
        if len(lines) != 2 or lines[0] != CSV_HEADER:
            return f"not the six-column CSV: {text[:120]!r}"
        cells = lines[1].split(",")
        if len(cells) != 6:
            return f"{len(cells)} CSV cells"
        try:
            seed, n, total = int(cells[0]), int(cells[1]), int(cells[2])
            ratio, analytic, abs_error = (float(c) for c in cells[3:])
        except ValueError:
            return f"unparsable CSV row {lines[1]!r}"
        if (seed, n) != (e["seed"], e["N"]):
            return f"seed,N = {seed},{n}, expected {e['seed']},{e['N']}"
        # Relative tolerances: the program takes metric norms numerically,
        # and near the exceptional point kappa * eta2^-1 is conditioned ~1e7.
        if abs(analytic - e["analytic"]) > 1e-9 * e["analytic"]:
            return f"analytic_prob {analytic!r} != {e['analytic']!r}"
        if total < n:
            return f"total_copies {total} < N {n}"
        if abs(ratio - e["scale"] * n / total) > 1e-6 * ratio:
            return f"success_ratio {ratio!r} != ||eta|| N / total_copies"
        if abs(abs_error - abs(ratio - analytic)) > 1e-15:
            return f"abs_error {abs_error!r} != |success_ratio - analytic_prob|"
        tail = attempts_tail(total, n, e["p"])
        if tail < FIVE_SIGMA_TAIL:
            return f"total_copies {total} for N={n}, p={e['p']:.6g} is beyond 5 sigma (tail {tail:.3g})"
        return None


def attempts_tail(total: int, n: int, p: float) -> float:
    """Two-sided tail probability of needing `total` attempts for n successes.

    Attempts until the n-th success follow a negative binomial law. For
    n < 1000 the tail is summed exactly through P(T <= t) = P(Bin(t, p) >= n);
    above that the normal approximation on T is used, where a tail of
    FIVE_SIGMA_TAIL is exactly the 5-sigma rule on the success ratio.
    """
    if p >= 1.0:
        return 1.0 if total == n else 0.0
    if n >= 1000:
        z = (total - n / p) / (math.sqrt(n * (1.0 - p)) / p)
        return math.erfc(abs(z) / math.sqrt(2.0))
    log_p, log_q = math.log(p), math.log1p(-p)

    def below(t):  # P(Bin(t, p) < n) = P(T > t)
        if t < n:
            return 1.0
        lg = math.lgamma(t + 1)
        return math.fsum(
            math.exp(lg - math.lgamma(k + 1) - math.lgamma(t - k + 1) + k * log_p + (t - k) * log_q)
            for k in range(n)
        )

    at_most = 1.0 - below(total)  # P(T <= total)
    at_least = below(total - 1)  # P(T >= total)
    return min(1.0, 2.0 * min(at_most, at_least))


class Verify(Workload):
    """Half honest, half dishonest; 30% exact games, the rest sampled."""

    name = "verify"
    warm_groups = ("exact-honest-None", "sampled-honest-1000")

    def build(self, exact_per_kind, sampled_per_cell):
        reqs = []
        for a, b in zip(_strata(self.rng, exact_per_kind, 0, 1), _strata(self.rng, exact_per_kind, 0, 1)):
            reqs.append(self._game(a, b, honest=True, shots=None))
        for a, b, d, k in zip(_strata(self.rng, exact_per_kind, 0, 1), _strata(self.rng, exact_per_kind, 0, 1),
                              _strata(self.rng, exact_per_kind, 0.0, 0.99), _mixture_sizes(self.rng, exact_per_kind)):
            reqs.append(self._game(a, b, honest=False, shots=None, discard=d, mixture=k))
        # A sampled dishonest game draws about shots / (1 - discard) attempts
        # per input, heavy-tailed in the discard. The discards sit on a fixed
        # grid, so every pool holds the same tail, and the grid stops where a
        # game would pass DISHONEST_MAX_ATTEMPTS: one such request would
        # otherwise take a third of a pool's time.
        for shots in VERIFY_SHOTS:
            for a, b in zip(_strata(self.rng, sampled_per_cell, 0, 1), _strata(self.rng, sampled_per_cell, 0, 1)):
                reqs.append(self._game(a, b, honest=True, shots=shots))
            top = min(0.99, 1.0 - shots / DISHONEST_MAX_ATTEMPTS)
            grid = np.linspace(0.0, top, sampled_per_cell) if sampled_per_cell > 1 else [top]
            for a, b, d, k in zip(_strata(self.rng, sampled_per_cell, 0, 1), _strata(self.rng, sampled_per_cell, 0, 1),
                                  grid, _mixture_sizes(self.rng, sampled_per_cell)):
                reqs.append(self._game(a, b, honest=False, shots=shots, discard=d, mixture=k))
        return reqs

    def trace_requests(self) -> list:
        # the pool is interleaved, so its first half holds about half of every group
        return self.requests[: max(1, len(self.requests) // 2)]

    def _game(self, a, b, honest, shots, discard=0.0, mixture=1):
        eta, (lam1, lam2) = _acceptance_metric(self.rng, a, b)
        if honest:
            prover = "honest"
        else:
            mats, probs = _acceptance_prover(self.rng, discard, mixture)
            prover = {"kind": "dishonest", "unitaries": [_encode(u) for u in mats],
                      "probs": [float(p) for p in probs]}
        seed = _program_seed(self.rng)
        cfg = {"metric": _encode(eta), "prover": prover, "seed": seed}
        if shots is None:
            cfg["exact"] = True
        else:
            cfg["shots"] = shots
        kind = "exact" if shots is None else "sampled"
        return Request(
            kind=kind, group=f"{kind}-{'honest' if honest else 'dishonest'}-{shots}",
            work=0 if shots is None else shots * DESIGN_INPUTS,
            argv=["verify", "--config", self._write(cfg)],
            expect={"verdict": "accept" if honest else "reject", "seed": seed, "shots": shots or 0,
                    "threshold": (lam1 - lam2) / 3.0, "eigenvalues": (lam1, lam2)},
        )

    def check(self, req, rc, text):
        e = req.expect
        if rc not in (0, 1):
            return f"exit {rc}"
        try:
            blob = json.loads(text)
        except json.JSONDecodeError:
            return f"report is not JSON: {text[:120]!r}"
        if not isinstance(blob, dict) or set(blob) != REPORT_KEYS:
            return f"report keys {sorted(blob) if isinstance(blob, dict) else type(blob)}"
        verdict = blob["verdict"]
        if rc != (0 if verdict == "accept" else 1):
            return f"exit {rc} disagrees with verdict {verdict!r}"
        if verdict != e["verdict"] and (
            e["shots"] == 0 or abs(blob["distance"] - blob["threshold"]) * math.sqrt(e["shots"]) > VERDICT_NOISE
        ):
            return f"verdict {verdict!r}, expected {e['verdict']!r}"
        if (blob["seed"], blob["shots_per_input"]) != (e["seed"], e["shots"]):
            return f"seed/shots {blob['seed']}/{blob['shots_per_input']}"
        if abs(blob["threshold"] - e["threshold"]) > 1e-9:
            return f"threshold {blob['threshold']!r} != (lambda_1 - lambda_2)/3 = {e['threshold']!r}"
        if max(abs(x - y) for x, y in zip(blob["eta_eigenvalues"], e["eigenvalues"])) > 1e-9:
            return f"eta_eigenvalues {blob['eta_eigenvalues']}"
        distance = blob["distance"]
        if not (math.isfinite(distance) and distance >= 0.0):
            return f"distance {distance!r}"
        if (distance <= blob["threshold"]) != (verdict == "accept"):
            return "verdict disagrees with distance and threshold"
        return None


class Oracle(Workload):
    """Criterion 8's cross-check: the sampled (1->1) norm of target - reconstruction."""

    name = "oracle"
    warm_groups = ("exact",)

    def build(self, dishonest, honest):
        design = metriq.default_design()
        reqs = []
        for a, b, d, k in zip(_strata(self.rng, dishonest, 0, 1), _strata(self.rng, dishonest, 0, 1),
                              _strata(self.rng, dishonest, 0.0, 0.99), _mixture_sizes(self.rng, dishonest)):
            eta, _ = _acceptance_metric(self.rng, a, b)
            mats, probs = _acceptance_prover(self.rng, d, k)
            reqs.append(self._map(eta, metriq.dishonest_prover(mats, probs), design, 10, exact=True))
        for a, b in zip(_strata(self.rng, honest, 0, 1), _strata(self.rng, honest, 0, 1)):
            eta, _ = _acceptance_metric(self.rng, a, b)
            reqs.append(self._map(eta, metriq.honest_prover(), design, ORACLE_HONEST_SHOTS, exact=False))
        return reqs

    def _map(self, eta_matrix, model, design, shots, exact):
        eta = metriq.validate_metric(eta_matrix)
        seed = _program_seed(self.rng)
        responses = metriq.run_prover(model, eta, design, shots, metriq.RngStream(seed=seed), exact=exact)
        recon = metriq.reconstruct(responses, design, shots_per_input=0 if exact else shots)
        report = metriq.verify(eta, recon)
        target = metriq.superoperator(metriq.embedded_metric_channel(eta))
        path = os.path.join(self.workdir, f"map{next(self._names):04d}.npy")
        np.save(path, target - recon.linear_map)
        # verify's distance is one_to_one_norm of exactly this map
        return Request(kind="oracle", group="exact" if exact else "sampled", work=ORACLE_SAMPLES, superop=np.load(path),
                       expect={"distance": report.distance})

    def trace_requests(self) -> list:
        return self.requests[:2]

    def run(self, req):
        value = metriq.tomography.sampled_one_to_one(req.superop, samples=ORACLE_SAMPLES)
        return 0, repr(value)

    def check(self, req, rc, text):
        value = float(text)
        ref = req.expect["distance"]
        if not math.isfinite(value):
            return f"oracle value {text}"
        if value - ref > ORACLE_OVERSHOOT_TOL:
            return f"oracle {value!r} overshoots one_to_one_norm {ref!r} by more than 1e-4"
        if ref - value > ORACLE_DEFICIT_TOL:
            return f"oracle {value!r} falls short of one_to_one_norm {ref!r} by more than 1e-2"
        return None


WORKLOADS = {cls.name: cls for cls in (Simulate, Verify, Oracle)}
