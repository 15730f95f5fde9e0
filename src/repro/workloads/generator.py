"""The paper's evaluation workload (§5).

"Task graphs were generated from TGFF with random dependencies and the
worst case computation of each node was chosen randomly following a
uniform distribution.  Utilization of the system was kept to 70 %.
Actual computation of a task is assumed to be chosen at random between
20 % and 100 % of the WCET."

:func:`paper_task_set` builds a periodic set in exactly that shape
(periods drawn from a small harmonic-friendly menu, then the whole set
rescaled to the target utilization so hyperperiods stay bounded);
:class:`UniformActuals` is the 20-100 % actuals provider, keyed by
``(graph, node, job_index)`` so *every scheme sees the identical
workload* regardless of the order in which it asks.
"""

from __future__ import annotations

import sys
import zlib
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import TaskGraphError
from ..taskgraph._scale import scale_wcets
from ..taskgraph.periodic import PeriodicTaskGraph, TaskGraphSet
from ..taskgraph.tgff import random_taskgraph_series

__all__ = ["UniformActuals", "paper_task_set", "PERIOD_MENU"]

#: Unscaled period choices; LCM = 400, so a scaled set's hyperperiod is
#: at most 100x its smallest period.
PERIOD_MENU: Tuple[float, ...] = (
    4.0, 5.0, 8.0, 10.0, 16.0, 20.0, 25.0, 40.0, 50.0,
)


# -- batched hash-keyed draws ------------------------------------------
#
# ``UniformActuals.__call__`` builds a fresh ``SeedSequence`` + PCG64
# per draw (~25 us each), which dominates the vector engine's compile
# phase when it pre-draws per-job actuals tables.  The helpers below
# replay numpy's exact pipeline — SeedSequence entropy mixing,
# ``generate_state(4, uint64)``, PCG64 seeding, and the first
# ``random()`` double — as uint32/uint64 array arithmetic over arrays
# of ``(graph, node, job)`` keys, so a whole per-job table comes out in
# a handful of numpy ops with bit-identical values.  The constants are
# SeedSequence's and PCG64's published ones; tests pin equality
# draw-by-draw against ``__call__``.

_SS_XSHIFT = np.uint32(16)
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = np.uint32(0xCA01F9DD)
_SS_MIX_R = np.uint32(0x4973F715)
_U32_MASK = (1 << 32) - 1

#: PCG64's default 128-bit multiplier, split into 64-bit halves.
_PCG_MUL_HI = np.uint64(2549297995355413924)
_PCG_MUL_LO = np.uint64(4865540595714422341)

_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mul128(ah, al, bh, bl):
    """(ah:al) * (bh:bl) mod 2**128 as uint64-half arrays."""
    a_lo = al & _M32
    a_hi = al >> _S32
    b_lo = bl & _M32
    b_hi = bl >> _S32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = (ll >> _S32) + (lh & _M32) + (hl & _M32)
    lo = (ll & _M32) | ((mid & _M32) << _S32)
    hi = a_hi * b_hi + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)
    hi = hi + al * bh + ah * bl
    return hi, lo


def _add128(ah, al, bh, bl):
    lo = al + bl
    return ah + bh + (lo < al).astype(np.uint64), lo


def _batch_uniform01(seed: int, graph_key: np.ndarray,
                     node_key: np.ndarray, job: np.ndarray) -> np.ndarray:
    """The first ``random()`` double of
    ``default_rng(SeedSequence([seed, graph_key[i], node_key[i],
    job[i]]))`` for every ``i``, bit-identically, as one array.

    Every key must fit in a uint32 (one SeedSequence entropy word).
    """
    ent = (
        np.full(job.shape, seed, dtype=np.uint32),
        graph_key.astype(np.uint32),
        node_key.astype(np.uint32),
        job.astype(np.uint32),
    )
    # SeedSequence.mix_entropy: the hash constant advances per hashmix
    # call (a scalar sequence shared by every lane).
    hc = [_SS_INIT_A]

    def hashmix(v):
        v = v ^ np.uint32(hc[0])
        hc[0] = (hc[0] * _SS_MULT_A) & _U32_MASK
        v = v * np.uint32(hc[0])
        return v ^ (v >> _SS_XSHIFT)

    def mix(x, y):
        r = (_SS_MIX_L * x) - (_SS_MIX_R * y)
        return r ^ (r >> _SS_XSHIFT)

    pool = [hashmix(ent[i]) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))

    # generate_state(4, uint64): 8 hashed uint32 words off the cycled
    # pool, viewed pairwise as little-endian uint64s.
    hc[0] = _SS_INIT_B
    words = []
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(hc[0])
        hc[0] = (hc[0] * _SS_MULT_B) & _U32_MASK
        v = v * np.uint32(hc[0])
        words.append(v ^ (v >> _SS_XSHIFT))
    w64 = [
        words[2 * k].astype(np.uint64)
        | (words[2 * k + 1].astype(np.uint64) << _S32)
        for k in range(4)
    ]
    seed_hi, seed_lo, inc_hi, inc_lo = w64

    # PCG64 srandom: inc = (initseq << 1) | 1; state = 0 stepped once
    # (-> inc), plus initstate, stepped again; then one more step for
    # the first output.
    ih = (inc_hi << np.uint64(1)) | (inc_lo >> np.uint64(63))
    il = (inc_lo << np.uint64(1)) | np.uint64(1)
    sh, sl = _add128(ih, il, seed_hi, seed_lo)
    sh, sl = _mul128(sh, sl, _PCG_MUL_HI, _PCG_MUL_LO)
    sh, sl = _add128(sh, sl, ih, il)
    sh, sl = _mul128(sh, sl, _PCG_MUL_HI, _PCG_MUL_LO)
    sh, sl = _add128(sh, sl, ih, il)

    # Output XSL-RR 128/64, then random_standard_double.
    rot = sh >> np.uint64(58)
    x = sh ^ sl
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (
        1.0 / 9007199254740992.0
    )


class UniformActuals:
    """Actual cycles uniform in ``[low, high] * wcet``, reproducibly.

    Each ``(graph, node, job_index)`` triple gets an independent draw
    derived from the seed by hashing the key, so the value a node gets
    does not depend on when (or whether) other schemes query it.
    """

    #: Draws are a pure function of ``(graph, node, job_index, wcet)``
    #: — hash-keyed, never dependent on call order or interleaving —
    #: so the vector engine may pre-draw whole per-job tables at
    #: compile time and still hand every job the exact value the
    #: scalar engine would have drawn at its release instant.
    job_keyed = True

    def __init__(
        self, low: float = 0.2, high: float = 1.0, seed: int = 0
    ) -> None:
        if not (0 < low <= high <= 1):
            raise TaskGraphError(
                f"need 0 < low <= high <= 1, got low={low}, high={high}"
            )
        self.low = float(low)
        self.high = float(high)
        self.seed = int(seed)

    @property
    def job_invariant(self) -> bool:
        """Whether draws are independent of ``job_index``.

        Only true for the degenerate ``low == high`` provider (every
        job gets ``low * wcet`` exactly).  The vector engine then
        pre-draws one actual per node; for the genuinely stochastic
        workload it pre-draws one per job the horizon can release.
        """
        return self.low == self.high

    def __call__(
        self, graph: str, node: str, job_index: int, wc: float
    ) -> float:
        key = np.random.SeedSequence(
            [
                self.seed,
                zlib.crc32(graph.encode()),
                zlib.crc32(node.encode()),
                job_index,
            ]
        )
        u = np.random.default_rng(key).random()
        return wc * (self.low + (self.high - self.low) * u)

    def draw_keyed(
        self, rows: Sequence[Tuple[str, str, int, float]]
    ) -> np.ndarray:
        """Every job's draw for each ``(graph, node, n_jobs, wc)`` row,
        row after row: bit-identical to ``self(graph, node, j, wc)``
        for ``j`` in ``0..n_jobs-1``.

        The vector engine's compile phase draws a scenario's whole
        per-job table in this one call; the batched hash pipeline costs
        the same handful of numpy ops however many rows and jobs it
        covers.  Falls back to the per-call path when a key does not
        fit the pipeline's uint32 words or the host is big-endian.
        """
        counts = np.array([n for _, _, n, _ in rows], dtype=np.int64)
        if not (
            0 <= self.seed < 2**32
            and int(counts.max(initial=0)) <= 2**32
            and sys.byteorder == "little"
        ):
            return np.array(
                [
                    self(graph, node, j, wc)
                    for graph, node, n, wc in rows
                    for j in range(n)
                ],
                dtype=float,
            )
        graph_key = np.array(
            [zlib.crc32(graph.encode()) for graph, _, _, _ in rows],
            dtype=np.uint32,
        )
        node_key = np.array(
            [zlib.crc32(node.encode()) for _, node, _, _ in rows],
            dtype=np.uint32,
        )
        wc = np.array([wc for _, _, _, wc in rows], dtype=float)
        # Job index within each row: the running position minus the
        # row's start offset.
        starts = np.cumsum(counts) - counts
        job = np.arange(int(counts.sum())) - np.repeat(starts, counts)
        u = _batch_uniform01(
            self.seed,
            np.repeat(graph_key, counts),
            np.repeat(node_key, counts),
            job,
        )
        return np.repeat(wc, counts) * (
            self.low + (self.high - self.low) * u
        )


def paper_task_set(
    n_graphs: int,
    *,
    utilization: float = 0.7,
    n_tasks_range: Tuple[int, int] = (5, 15),
    edge_prob: float = 0.3,
    wcet_range: Tuple[float, float] = (1.0, 10.0),
    period_menu: Sequence[float] = PERIOD_MENU,
    seed: Optional[int] = 0,
) -> TaskGraphSet:
    """A random periodic task-graph set at the paper's operating point.

    Graph structure and WCETs follow the TGFF-style generator; each
    graph draws a period from ``period_menu`` and every WCET is then
    uniformly rescaled so the set's worst-case utilization hits the
    target (70 % in every paper experiment).  Scaling *WCETs* rather
    than periods keeps periods on the harmonic-friendly menu, so the
    hyperperiod stays bounded (LCM of the default menu is 400).
    """
    if n_graphs < 1:
        raise TaskGraphError(f"n_graphs must be >= 1, got {n_graphs}")
    if not (0 < utilization <= 1):
        raise TaskGraphError(
            f"utilization must be in (0, 1], got {utilization}"
        )
    rng = np.random.default_rng(seed)
    graphs = random_taskgraph_series(
        n_graphs,
        n_tasks_range=n_tasks_range,
        edge_prob=edge_prob,
        wcet_range=wcet_range,
        rng=rng,
    )
    menu = np.asarray(period_menu, dtype=float)
    if menu.size == 0 or np.any(menu <= 0):
        raise TaskGraphError(f"bad period menu {period_menu!r}")
    periods = [float(rng.choice(menu)) for _ in graphs]
    # repro: noqa[DET004] -- graphs/periods are generation-ordered
    # lists; the utilization sum order is pinned by the seed
    u_raw = sum(g.total_wcet / p for g, p in zip(graphs, periods))
    factor = utilization / u_raw
    periodic = [
        PeriodicTaskGraph(scale_wcets(g, factor), p)
        for g, p in zip(graphs, periods)
    ]
    return TaskGraphSet(periodic)
