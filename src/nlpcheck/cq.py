"""Constraint qualification checks at a feasible candidate point.

Four classical qualifications are covered, in decreasing strength:

* LICQ: gradients of active inequalities and all equalities are linearly
  independent.  Decided by one numerical rank.
* MFCQ: equality gradients have full rank and some direction satisfies
  ``grad h . d = 0`` with ``grad g_i . d < 0`` on the active set.  Decided by
  a small LP maximizing the strict-descent margin (``linalg.simplex_lp``),
  solved once more at unit row scale when its answer does not certify.
* CRCQ: every subset of active-inequality plus equality gradients keeps a
  locally constant rank.  Sampled over shrinking neighborhoods, on
  scrambled Sobol points (:class:`NeighborhoodSampler`; Joe & Kuo direction
  numbers with Matousek's LMS+shift scramble, computed in-house with numpy
  and bit-identical to ``scipy.stats.qmc.Sobol``).
* RCRCQ: same, but only subsets that contain every equality gradient.

Both rank scans come from one sampled pass (:func:`check_rank_constancy`),
which ranks each subset pair once: at the center, and at the samples
where Weyl's inequality does not settle it (:func:`_center_bound`).  A
scan over too many pairs is cut (:func:`_scan_pairs`), and one over too
many points is rejected (:func:`check_scan_size`).

Rank constancy over a neighborhood cannot be certified by finitely many
samples, so the sampled scans return "fails" with a re-checkable witness
when a mismatch is found and "undetermined" otherwise -- never "holds".
The Abadie qualification is probed purely empirically: ``cli.run`` traces
feasible arcs (``arc.arcs_for_directions``) for sampled linearized-cone
directions, and :func:`summarize_acq` turns those arc reports into the
evidence of a verdict that is always "undetermined", since finitely many
arcs can refute nothing about the tangent cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, groupby
from typing import Iterator

import numpy as np

from nlpcheck._sobol import MAXPOINTS, scrambled_sobol
from nlpcheck.linalg import (
    entry_bound,
    numerical_rank,
    simplex_lp,
    stack_chunk,
    stacked_rank,
    stacked_spectra,
)
from nlpcheck.model import PointData, Problem, Tolerances, evaluate_point

__all__ = [
    "Verdict",
    "NeighborhoodSampler",
    "check_licq",
    "check_mfcq",
    "check_crcq",
    "check_rcrcq",
    "check_rank_constancy",
    "summarize_acq",
    "recheck_rank_certificate",
    "SCAN_BUDGET",
    "DEFAULT_SAMPLES",
    "check_scan_size",
]


@dataclass
class Verdict:
    """Outcome of a qualification check.

    ``status`` is "holds", "fails", or "undetermined".  A failing verdict
    always carries a certificate that can be re-verified from its own data;
    sampling-based checks attach their sampling parameters as evidence.
    """

    status: str
    certificate: dict | None
    evidence: dict = field(default_factory=dict)


DEFAULT_SAMPLES = 64  # samples per radius of the default scan
# most floats a rank scan may hold when it samples more than the default:
# its sample points and the gradient table at each point and at the center.
# That is 32 MiB of float64; the scan's temporaries (tape values, the
# singular values) take a few times as much (about 4.5x on paper-example-1)
SCAN_BUDGET = 1 << 22


def check_scan_size(n: int, rows: int, radii: int, samples: int) -> None:
    """Raise ``ValueError`` when a rank scan of ``samples`` points per
    radius, over ``radii`` radii with ``rows`` gradients in ``R^n``, would
    hold more than ``SCAN_BUDGET`` floats, ``(1 + radii * samples) * (rows
    + 1) * n``.  A scan of no more points than the default one (``1 + 3 *
    DEFAULT_SAMPLES``: the center and the default count at each of the three
    default radii) is always allowed, so a default scan runs on every
    problem."""
    points = 1 + radii * samples
    floats = points * (rows + 1) * n
    default = 1 + len(NeighborhoodSampler.radii) * DEFAULT_SAMPLES
    if points > default and floats > SCAN_BUDGET:
        raise ValueError(
            f"the rank scan would hold {points} points ({samples} per radius at {radii} "
            f"radii, and the center) of up to {rows} gradients in R^{n}, above its budget "
            f"of {SCAN_BUDGET} floats (a scan of up to {default} points always runs)"
        )


@dataclass(frozen=True)
class NeighborhoodSampler:
    """Deterministic low-discrepancy samples on shrinking infinity-balls.

    For each radius a scrambled Sobol sequence (seeded from ``seed`` and the
    shell index) fills the cube ``center + radius * [-1, 1]^n``.  The same
    parameters always reproduce the same points.  The sequence is the
    in-house LMS+shift scrambled Sobol of :mod:`nlpcheck._sobol`, whose
    points are bit-identical to ``scipy.stats.qmc.Sobol(n, scramble=True,
    seed=np.random.default_rng([seed, shell]))``; SciPy is not imported.
    Building one admits the scan request: non-empty, positive, finite radii,
    an integer count in ``[0, 2^30]`` and a non-negative integer seed, or the
    ``ValueError`` that ``nlpcheck analyze`` prints.
    """

    radii: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    samples_per_radius: int = DEFAULT_SAMPLES
    seed: int = 0

    def __post_init__(self):
        count = self.samples_per_radius
        if not (isinstance(count, (int, np.integer)) and 0 <= count <= MAXPOINTS):
            raise ValueError(f"samples per radius must be between 0 and 2**30, got {count}")
        if not self.radii or not all(0.0 < r < np.inf for r in self.radii):
            raise ValueError(f"radii must be positive and finite, got {list(self.radii)}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

    def shells(self, center) -> Iterator[np.ndarray]:
        """Yield one ``(samples_per_radius, n)`` array of points per radius, in order."""
        center = np.asarray(center, dtype=float)
        for shell, radius in enumerate(self.radii):
            u = scrambled_sobol(center.size, self.samples_per_radius, [self.seed, shell])
            yield center + radius * (2.0 * u - 1.0)


def check_licq(pd: PointData) -> Verdict:
    """Rank test on the gradients of ``pd.rows``, at ``pd.tol.rank``."""
    tol_rank = pd.tol.rank
    rows = pd.c_grads[pd.rows]
    needed = len(rows)
    evidence = {
        "active": list(pd.active),
        "num_equalities": pd.p,
        "tol_rank": tol_rank,
    }
    if needed == 0:
        evidence["note"] = "no active constraints; independence is vacuous"
        return Verdict("holds", None, evidence)
    info = numerical_rank(rows, tol_rank)
    evidence["rank"] = info.rank
    evidence["required_rank"] = needed
    evidence["singular_values"] = [float(s) for s in info.magnitudes]
    if info.rank == needed:
        return Verdict("holds", None, evidence)
    certificate = {
        "rank": info.rank,
        "required_rank": needed,
        "active": list(pd.active),
        "num_equalities": pd.p,
        "singular_values": [float(s) for s in info.magnitudes],
        "tol_rank": tol_rank,
    }
    return Verdict("fails", certificate, evidence)


def check_mfcq(pd: PointData) -> Verdict:
    """Full-rank equalities plus a strict descent direction on the actives.

    The direction LP (:func:`linalg.simplex_lp`) maximizes ``s`` subject to
    ``grad g_i . d <= -s`` on the active set, ``grad h . d = 0``,
    ``|d_k| <= 1``, ``s <= 1``; MFCQ holds exactly when the optimum is
    positive (classified at 1e-9).  The LP always has the solution d = 0,
    s = 0, but it works at absolute tolerances, at the scale of its box
    rather than of the rows.  So when it does not solve, or reads an
    optimum <= 1e-9, and the rows' largest entry is not in [0.5, 1), it is
    solved once more on the rows scaled by the power of two that puts it
    there, and the evidence names that ``lp_scale``.  A positive scale keeps
    the cone, so the direction still certifies the original rows.  When
    the LP solves at neither scale, the verdict is "undetermined".
    """
    n, a, tol_rank = pd.n, len(pd.active), pd.tol.rank
    rows = pd.c_grads[pd.rows]  # the active inequalities, then the equalities
    evidence = {"active": list(pd.active), "num_equalities": pd.p, "tol_rank": tol_rank}
    if pd.p:
        info = numerical_rank(rows[a:], tol_rank)
        evidence["equality_rank"] = info.rank
        if info.rank < pd.p:
            certificate = {
                "reason": "equality gradients are rank deficient",
                "equality_rank": info.rank,
                "num_equalities": pd.p,
                "singular_values": [float(s) for s in info.magnitudes],
                "tol_rank": tol_rank,
            }
            return Verdict("fails", certificate, evidence)
    if not pd.active and not pd.p:
        evidence["note"] = "no active constraints; any direction works"
        return Verdict("holds", {"direction": [0.0] * n, "lp_optimum": 1.0}, evidence)
    res = simplex_lp(rows[:a], rows[a:])
    scale = np.ldexp(1.0, -np.frexp(np.abs(rows).max())[1])
    if (res is None or res[1] <= 1e-9) and scale != 1.0:
        evidence["lp_scale"] = float(scale)
        res = simplex_lp(rows[:a] * scale, rows[a:] * scale)
    if res is None:
        evidence["note"] = "the direction LP did not solve at either row scale"
        return Verdict("undetermined", None, evidence)
    d, s_star = res
    evidence["lp_optimum"] = s_star
    if s_star > 1e-9:
        certificate = {"direction": [float(v) for v in d], "lp_optimum": s_star}
        return Verdict("holds", certificate, evidence)
    certificate = {
        "reason": "no strict descent direction for the active gradients",
        "lp_optimum": s_star,
        "active": list(pd.active),
        "tol_rank": tol_rank,
    }
    return Verdict("fails", certificate, evidence)


_PAIR_BUDGET = 1 << 20


def _scan_pairs(
    active: tuple[int, ...], eq_labels: tuple[int, ...], every_eq: bool, n_points: int
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...]]], bool]:
    """Ordered (I, J) pairs of one rank scan, and whether the budget cut it.

    CRCQ pairs every subset I of the active inequalities with every subset J
    of the equalities, skipping only the doubly-empty pair; RCRCQ
    (``every_eq``) keeps the pairs whose J holds every equality.  Pairs run
    by total size, then (I, J) lexicographically.  The pair count is known
    in closed form, so when it times ``n_points`` exceeds ``_PAIR_BUDGET``
    only the pairs of total size <= 2 and the full pair are ever built.
    """
    fixed = eq_labels if every_eq else ()
    free = () if every_eq else eq_labels
    top = len(active) + len(free)
    count = 2**top - (0 if fixed else 1)
    partial = count * max(n_points, 1) > _PAIR_BUDGET
    last = min(top, 2 - len(fixed)) if partial else top
    pairs = [
        pair
        for k in range(0 if fixed else 1, last + 1)
        for pair in sorted(
            (I, J + fixed)
            for i in range(max(0, k - len(free)), min(k, len(active)) + 1)
            for I in combinations(active, i)
            for J in combinations(free, k - i)
        )
    ]
    if last < top:
        pairs.append((active, eq_labels))
    return pairs, partial


def _center_bound(
    center: np.ndarray, rho: np.ndarray, tol_rank: float
) -> tuple[np.ndarray, np.ndarray]:
    """Center ranks of a ``(pairs, rows, n)`` stack of subset tables, and
    the points where each subset's rank provably is ``min(rows, n)``.

    ``rho[i, j]`` is the Frobenius distance of subset i's table at point j
    from its center table, so it bounds the spectral norm of the change.
    With s0 the center's singular values, r = min(rows, n) and c = 2
    tol_rank + 1e-12, Weyl's inequality gives ``sigma_r >= s0[r-1] - rho``
    and ``sigma_1 <= s0[0] + rho`` at the point.  So where ``s0[r-1] - rho
    > c (s0[0] + rho)``, that is ``rho < (s0[r-1] - c s0[0]) / (1 + c)``,
    the point has numerical rank r by the rule of :func:`numerical_rank`.
    The factor 2 and the 1e-12 leave room for LAPACK's rounding error and
    for tiny ``tol_rank``.  Returns the center ranks ``(pairs,)`` and the
    settled mask, shaped like ``rho``.  Empty and zero tables settle
    nowhere; a non-finite center raises ``ValueError``.
    """
    ranks, s0 = stacked_spectra(center, tol_rank)
    if s0.shape[1] == 0:
        return ranks, np.zeros(rho.shape, dtype=bool)
    c = 2.0 * tol_rank + 1e-12
    reach = (s0[:, -1] - c * s0[:, 0]) / (1.0 + c)
    return ranks, rho < reach[:, None]


def check_rank_constancy(
    problem: Problem,
    pd: PointData,
    sampler: NeighborhoodSampler,
) -> dict[str, Verdict]:
    """Sampled CRCQ and RCRCQ scans from one pass over the neighborhood.

    Gradient tables at the center and at every sample are built once, into
    one stack: one multi-output sweep (``problem.sweep``) gives every row's
    gradient at all samples, and samples where any gradient leaves its
    domain or overflows are skipped.  Each scan walks its pairs by size, in
    chunks of one size (:func:`linalg.stack_chunk`).  One stacked SVD of a
    chunk's center tables gives each pair's center rank and singular
    values, and a table of squared row deviations from the center bounds
    how far each pair's table moves at each sample; the samples where that
    bound settles the pair's rank (:func:`_center_bound`) need no SVD.  A
    pair's other samples are ranked by one stacked SVD, and a pair whose
    samples all settle needs none.  Both scans share each pair's outcome.
    Each scan's first mismatch (by pair, then radius, then sample index)
    becomes its certificate.  A sampler whose scan is too large for the
    budget raises ``ValueError`` (:func:`check_scan_size`).
    """
    active, tol_rank = pd.active, pd.tol.rank
    count = sampler.samples_per_radius
    check_scan_size(pd.n, len(pd.rows), len(sampler.radii), count)
    X = np.concatenate(list(sampler.shells(pd.x)))  # (radii * count, n)
    stack = np.empty((1 + len(X), len(pd.rows), pd.n))  # (1 + samples, rows, n)
    stack[0] = pd.c_grads[pd.rows]
    keep = np.ones(len(stack), dtype=bool)
    _, grads, _, fine = problem.sweep.evaluate(X, pd.rows)
    stack[1:] = grads
    keep[1:] = fine.all(axis=1)
    # a sample whose table could overflow sigma_max (or is not finite) is
    # skipped like a domain failure
    keep[1:] &= (np.abs(stack[1:]) <= entry_bound(*stack.shape[1:])).all(axis=(1, 2))
    kept = np.flatnonzero(keep[1:])  # sample of each stacked point after the center
    if kept.size < len(X):
        stack = stack[keep]
    samples = stack[1:]
    # squared distance of each row from its center gradient, (rows, samples)
    with np.errstate(over="ignore"):  # a distance too large to square settles nothing
        dev2 = np.square(samples - stack[0]).sum(axis=2).T.copy()
    pos = {label: k for k, label in enumerate(active)}
    # (I, J) -> None, or (center rank, first sample that differs, its rank)
    mismatch: dict = {}

    def outcomes(pairs):
        """Each pair in order with its outcome, settled a chunk at a time."""
        for size, group in groupby(pairs, key=lambda pair: len(pair[0]) + len(pair[1])):
            group = list(group)
            # chunked as if each pair's tables at every point were stacked
            step = stack_chunk(len(stack) * size * pd.n)
            for lo in range(0, len(group), step):
                chunk = group[lo : lo + step]
                todo = {pair: at for at, pair in enumerate(p for p in chunk if p not in mismatch)}
                if todo:
                    sel = np.array(  # (pairs, size)
                        [[pos[i] for i in I] + [len(active) + (j - 1) for j in J] for I, J in todo]
                    )
                    rho = dev2[sel[:, 0]]  # (pairs, samples)
                    with np.errstate(over="ignore"):
                        for col in sel.T[1:]:
                            rho += dev2[col]
                    center_ranks, settled = _center_bound(
                        stack[0][sel], np.sqrt(rho, out=rho), tol_rank
                    )
                    full = min(size, pd.n)
                    clear = (settled.all(axis=1) & (center_ranks == full)).tolist()
                for pair in chunk:
                    if pair not in mismatch:
                        at = todo[pair]
                        mismatch[pair] = None
                        if not clear[at]:
                            ranks = np.full(len(samples), full)
                            loose_at = np.flatnonzero(~settled[at])
                            if loose_at.size:
                                ranks[loose_at] = stacked_rank(
                                    samples[loose_at[:, None], sel[at]], tol_rank
                                )
                            differ = np.flatnonzero(ranks != center_ranks[at])
                            if differ.size:
                                k = int(differ[0])
                                mismatch[pair] = (int(center_ranks[at]), k, int(ranks[k]))
                    yield pair, mismatch[pair]

    verdicts = {}
    n_points = 1 + len(X)
    for name, every_eq in (("crcq", False), ("rcrcq", True)):
        pairs, partial = _scan_pairs(active, tuple(range(1, pd.p + 1)), every_eq, n_points)
        evidence = {
            "radii": [float(r) for r in sampler.radii],
            "samples_per_radius": sampler.samples_per_radius,
            "seed": sampler.seed,
            "subsets_scanned": len(pairs),
            "samples_used": int(kept.size),
            "samples_skipped_domain": len(X) - int(kept.size),
            "tol_rank": tol_rank,
            "partial": partial,
        }
        verdicts[name] = Verdict("undetermined", None, evidence)
        for (I, J), outcome in outcomes(pairs):
            if outcome is not None:
                center_rank, k, witness_rank = outcome
                shell, idx = divmod(int(kept[k]), count)
                certificate = {
                    "ineq_subset": list(I),
                    "eq_subset": list(J),
                    "center": [float(v) for v in pd.x],
                    "center_rank": center_rank,
                    "witness": [float(v) for v in X[kept[k]]],
                    "witness_rank": witness_rank,
                    "radius": float(sampler.radii[shell]),
                    "sample_index": idx,
                    "tol_rank": tol_rank,
                }
                verdicts[name] = Verdict("fails", certificate, evidence)
                break
        else:
            evidence["note"] = (
                "no rank mismatch at the sampled radii; constancy cannot be "
                "certified from finitely many samples"
            )
        evidence["active"] = list(active)
    return verdicts


def check_crcq(
    problem: Problem, x, sampler: NeighborhoodSampler, tol: Tolerances = Tolerances()
) -> Verdict:
    """Sampled rank-constancy over every subset pair (I, J): the CRCQ entry
    of :func:`check_rank_constancy` at ``x``."""
    return check_rank_constancy(problem, evaluate_point(problem, x, tol), sampler)["crcq"]


def check_rcrcq(
    problem: Problem, x, sampler: NeighborhoodSampler, tol: Tolerances = Tolerances()
) -> Verdict:
    """Sampled rank-constancy over the pairs that hold every equality: the
    RCRCQ entry of :func:`check_rank_constancy` at ``x``."""
    return check_rank_constancy(problem, evaluate_point(problem, x, tol), sampler)["rcrcq"]


def recheck_rank_certificate(problem: Problem, certificate: dict) -> tuple[int, int]:
    """Recompute the two ranks named by a CRCQ/RCRCQ certificate.

    Returns (rank at center, rank at witness) using only certificate data,
    so a reported mismatch can be audited independently of the scan.
    """
    I = tuple(int(i) for i in certificate["ineq_subset"])
    J = tuple(int(j) for j in certificate["eq_subset"])
    tol_rank = float(certificate["tol_rank"])

    rows = [i - 1 for i in I] + [problem.m + j - 1 for j in J]

    def rank_at(point) -> int:
        return numerical_rank(problem.sweep.at(point, rows, order=1)[1], tol_rank).rank

    return rank_at(certificate["center"]), rank_at(certificate["witness"])


def summarize_acq(reports: list, requested: int, seed: int) -> dict:
    """ACQ evidence from traced arcs (``arc.DirectionArcReport``).

    One summary per direction; a direction counts as realized when its arc
    starts at the point with the right velocity and stays feasible forward
    in time (``DirectionArcReport.realized``).
    """
    per_direction = []
    for rep in reports:
        entry = {
            "direction": rep.direction.tolist(),
            "realized": rep.realized(),
        }
        if rep.error is not None:
            entry["error"] = rep.error
        if rep.properties is not None:
            entry["arc1_worst"] = rep.properties.checks["arc1"].worst
            entry["forward_worst"] = rep.properties.checks["forward_feasible"].worst
        if rep.arc is not None and rep.arc.truncated:
            entry["truncated"] = True
        per_direction.append(entry)
    summary = {
        "directions_requested": requested,
        "directions_sampled": len(reports),
        "seed": seed,
        "realized": sum(entry["realized"] for entry in per_direction),
        "construction_failures": sum(rep.error is not None for rep in reports),
        "per_direction": per_direction,
    }
    if not reports:
        summary["note"] = (
            "no nonzero linearized-cone directions at the sampling tolerance; "
            "vacuously realized"
        )
    return summary
