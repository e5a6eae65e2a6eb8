"""The fused columnar spine: flat-array bin payloads, mmap to arena.

Each pipeline layer is individually fast, but bin payloads
historically crossed stage boundaries through Python objects —
bincache columns were re-boxed into :class:`LinkObservations` dicts and
``(str, str)``-keyed pattern dicts and re-hashed at every hand-off.
This module is the replacement spine:

* :class:`FusedBin` — one bin's complete extraction output as twelve
  flat NumPy arrays (CSR layouts for per-link sample segments and
  per-model next-hop patterns), keyed by **interned integer ids** from
  the batch's :class:`~repro.atlas.columnar.IPInterner`.  No
  ``(str, str)`` dict, no :class:`LinkObservations`, no per-traceroute
  object exists anywhere in the payload;
* :func:`extract_bin_fused` — the engine's one extraction kernel:
  differential RTTs (§4.2.1,
  :func:`~repro.reference.pipeline.differential_rtts`) and forwarding
  patterns (§5.1, :func:`~repro.reference.pipeline.forwarding_patterns`)
  in one pass, emitting a :class:`FusedBin` directly from
  :class:`~repro.atlas.columnar.TracerouteBatch` columns.
  Links come out sorted by their IP *strings* (via a per-batch rank
  table, :func:`string_ranks`) so downstream consumers keep the scalar
  pipeline's deterministic sorted-link processing order without ever
  comparing strings per bin.

The paper-shaped reference functions are the equivalence oracle:
``tests/test_engine_equivalence.py`` holds :func:`extract_bin_fused`
directly to their dicts, and the hypothesis property in
``tests/test_fused_spine.py`` holds it (through the whole engine)
bit-identical to the serial pipeline.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.atlas.columnar import (
    NO_INT,
    NO_IP,
    BatchView,
    TracerouteBatch,
)

#: (attribute, dtype) schema of a :class:`FusedBin`.
_FIELDS: Tuple[Tuple[str, np.dtype], ...] = (
    ("link_near", np.dtype(np.int64)),
    ("link_far", np.dtype(np.int64)),
    ("link_seg_offsets", np.dtype(np.int64)),
    ("seg_probe", np.dtype(np.int64)),
    ("seg_asn", np.dtype(np.int64)),
    ("seg_sample_offsets", np.dtype(np.int64)),
    ("samples", np.dtype(np.float64)),
    ("model_router", np.dtype(np.int64)),
    ("model_dst", np.dtype(np.int64)),
    ("model_hop_offsets", np.dtype(np.int64)),
    ("hop_ids", np.dtype(np.int64)),
    ("hop_counts", np.dtype(np.float64)),
)

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)
_ZERO_OFF = np.zeros(1, dtype=np.int64)


class FusedBin:
    """One bin's extraction output as flat interned-id arrays.

    Delay side (links sorted by IP-string order, segments in traceroute
    order within each link — the exact order the object path's
    ``LinkObservations`` buffers accumulate in):

    ``link_near``/``link_far``
        interned ip ids of each distinct link;
    ``link_seg_offsets``
        CSR offsets into the segment arrays (one segment per
        probe-traceroute contribution);
    ``seg_probe``/``seg_asn``
        per-segment probe id and origin ASN (:data:`~repro.atlas.columnar.NO_INT`
        marks an unmappable probe);
    ``seg_sample_offsets``/``samples``
        per-segment sample spans in the flat differential-RTT pool.
        Segments tile each link's span contiguously, so
        ``samples[link_start:link_stop]`` is that link's whole buffer in
        insertion order.

    Forwarding side (models sorted by (router, destination) string
    order, next hops in first-occurrence order, matching the object
    path's pattern-dict insertion order):

    ``model_router``/``model_dst``, ``model_hop_offsets``,
    ``hop_ids``/``hop_counts``
        CSR next-hop patterns; :data:`~repro.atlas.columnar.NO_IP` in
        ``hop_ids`` is the lost-packet bucket
        (:data:`~repro.core.alarms.UNRESPONSIVE` at the string boundary).
    """

    __slots__ = tuple(name for name, _ in _FIELDS) + ("n_traceroutes",)

    def __init__(self, n_traceroutes: int = 0) -> None:
        self.n_traceroutes = n_traceroutes
        self.link_near = _EMPTY_I
        self.link_far = _EMPTY_I
        self.link_seg_offsets = _ZERO_OFF
        self.seg_probe = _EMPTY_I
        self.seg_asn = _EMPTY_I
        self.seg_sample_offsets = _ZERO_OFF
        self.samples = _EMPTY_F
        self.model_router = _EMPTY_I
        self.model_dst = _EMPTY_I
        self.model_hop_offsets = _ZERO_OFF
        self.hop_ids = _EMPTY_I
        self.hop_counts = _EMPTY_F

    @property
    def n_links(self) -> int:
        return len(self.link_near)

    @property
    def n_models(self) -> int:
        return len(self.model_router)


def string_ranks(strings: Sequence[str]) -> np.ndarray:
    """Rank of each interned string under lexicographic string order.

    ``ranks[i] < ranks[j]`` iff ``strings[i] < strings[j]``, so sorting
    id tuples by their ranks reproduces exactly the sorted-by-string
    link/model order the scalar pipeline processes in — one string sort
    per batch instead of string comparisons on every bin.
    """
    order = sorted(range(len(strings)), key=strings.__getitem__)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[np.asarray(order, dtype=np.int64)] = np.arange(
        len(order), dtype=np.int64
    )
    return ranks


def _ragged_take(
    starts: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat gather indices for ragged spans plus their local offsets.

    Returns ``(offsets, flat)`` where ``flat`` enumerates
    ``starts[i] .. starts[i]+counts[i]`` back to back and ``offsets``
    is the CSR prefix of *counts*.
    """
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return offsets, _EMPTY_I
    flat = np.repeat(starts - offsets[:-1], counts) + np.arange(
        total, dtype=np.int64
    )
    return offsets, flat


def extract_bin_fused(
    source: Union[TracerouteBatch, BatchView],
    ranks: np.ndarray,
) -> FusedBin:
    """Fused extraction straight from columns into a :class:`FusedBin`.

    One differential-RTT + forwarding-pattern pass equal to
    ``(differential_rtts(trs), forwarding_patterns(trs))``, but
    vectorized: the bin's hop and reply spans are gathered into flat
    NumPy arrays once, every
    *mono* hop (all responsive replies from one IP, lost packets
    allowed — the overwhelmingly common case) is classified with
    segmented column arithmetic, and the differential-RTT cross
    products and next-hop attributions of all mono-mono adjacent pairs
    are computed in one shot.  Only pairs touching a genuinely
    multi-IP hop (load balancing, anycast catchment shifts) drop to a
    scalar fallback that mirrors the reference functions' per-reply
    logic, including their IP-string primary tie-break.  Pairs whose near hop
    has no responsive reply, or whose far hop has no replies at all,
    provably contribute nothing and are skipped outright.  The
    two streams are merged under each contribution's traversal position
    so segment order within a link and next-hop first-occurrence order
    within a model are exactly the reference dicts' insertion orders.
    *ranks* must be :func:`string_ranks` of the batch's interner table.

    Held identical to the reference functions by the hypothesis
    properties in ``tests/test_engine_equivalence.py`` and
    ``tests/test_fused_spine.py``.
    """
    if isinstance(source, BatchView):
        batch, rows = source.batch, np.asarray(source.indices, dtype=np.int64)
    else:
        batch, rows = source, np.arange(len(source), dtype=np.int64)
    n_rows = len(rows)
    out = FusedBin(n_rows)
    if n_rows == 0:
        return out
    strings = batch.interner.strings
    hop_offsets = np.asarray(batch.hop_offsets)
    hop_ttl = np.asarray(batch.hop_ttl)
    reply_offsets = np.asarray(batch.reply_offsets)
    reply_ip = np.asarray(batch.reply_ip)
    reply_rtt = np.asarray(batch.reply_rtt)
    prb_ids = np.asarray(batch.prb_id)
    asns = np.asarray(batch.from_asn)
    dst_ids = np.asarray(batch.dst_id)

    # -- gather this bin's hops and replies into flat arrays ---------
    row_hop_counts = hop_offsets[rows + 1] - hop_offsets[rows]
    _, hop_idx = _ragged_take(hop_offsets[rows], row_hop_counts)
    n_hops = len(hop_idx)
    if n_hops == 0:
        return out
    hop_row = np.repeat(np.arange(n_rows, dtype=np.int64), row_hop_counts)
    ttls = hop_ttl[hop_idx]
    reply_counts = reply_offsets[hop_idx + 1] - reply_offsets[hop_idx]
    reply_loc, reply_idx = _ragged_take(reply_offsets[hop_idx], reply_counts)
    ips = np.asarray(reply_ip[reply_idx], dtype=np.int64)
    rtts = np.asarray(reply_rtt[reply_idx], dtype=np.float64)
    valid = ~np.isnan(rtts)

    # -- classify hops: mono = one distinct responsive IP -------------
    resp = ips >= 0
    reply_hop = np.repeat(np.arange(n_hops, dtype=np.int64), reply_counts)
    n_resp = np.bincount(reply_hop[resp], minlength=n_hops)
    lost = reply_counts - n_resp
    # Segmented min/max of responsive IPs via reduceat over the full
    # offset table on a sentinel-extended array: nonempty hops reduce
    # their exact span, empty hops produce garbage that n_resp masks,
    # and the sentinel keeps every offset in bounds.
    big = np.iinfo(np.int64).max
    max_ip = np.maximum.reduceat(
        np.append(np.where(resp, ips, NO_IP), NO_IP), reply_loc
    )[:-1]
    min_ip = np.minimum.reduceat(
        np.append(np.where(resp, ips, big), big), reply_loc
    )[:-1]
    mono = (n_resp > 0) & (max_ip == min_ip)
    valid &= resp  # a usable RTT needs a responsive reply
    n_valid = np.bincount(reply_hop[valid], minlength=n_hops)
    valid_loc = np.zeros(n_hops + 1, dtype=np.int64)
    np.cumsum(n_valid, out=valid_loc[1:])
    valid_rtts = rtts[valid]

    # -- adjacent pairs: same traceroute, consecutive TTLs ------------
    pair_near = np.flatnonzero(
        (hop_row[1:] == hop_row[:-1]) & (ttls[1:] == ttls[:-1] + 1)
    )
    if len(pair_near) == 0:
        return out
    # A pair with an all-silent near hop has no samples and no router
    # to attribute to; a far hop with no reply records has nothing to
    # attribute.  Neither reaches any accumulator in the object path.
    live = (n_resp[pair_near] > 0) & (reply_counts[pair_near + 1] > 0)
    fast = live & mono[pair_near] & (
        mono[pair_near + 1] | (n_resp[pair_near + 1] == 0)
    )

    # -- fast path: mono-mono pairs, fully vectorized -----------------
    pos_f = np.flatnonzero(fast)  # traversal position of each fast pair
    near_h = pair_near[fast]
    far_h = near_h + 1
    near_id = max_ip[near_h]
    far_id = max_ip[far_h]  # NO_IP when the far hop is all-lost
    row_f = rows[hop_row[near_h]]

    emit = (n_valid[near_h] > 0) & (n_valid[far_h] > 0) & (far_id != near_id)
    near_n = n_valid[near_h][emit]
    far_n = n_valid[far_h][emit]
    seg_counts = [near_n * far_n]
    # Cross differences (far - near), far-major — the object path's
    # ``for far ...: for near ...`` sample order.  Zero starts make the
    # ragged gather yield each sample's *local* index j within its
    # pair; far = j // n_near, near = j % n_near.
    _, local = _ragged_take(
        np.zeros(len(near_n), dtype=np.int64), near_n * far_n
    )
    na_rep = np.repeat(near_n, near_n * far_n)
    far_local = local // na_rep
    near_local = local - far_local * na_rep
    pools = [
        valid_rtts[np.repeat(valid_loc[far_h][emit], near_n * far_n)
                   + far_local]
        - valid_rtts[np.repeat(valid_loc[near_h][emit], near_n * far_n)
                     + near_local]
    ]
    pool_offsets = np.zeros(len(near_n) + 1, dtype=np.int64)
    np.cumsum(near_n * far_n, out=pool_offsets[1:])
    seg_near = [near_id[emit]]
    seg_far = [far_id[emit]]
    seg_probe = [prb_ids[row_f[emit]]]
    seg_asn = [asns[row_f[emit]]]
    seg_pos = [pos_f[emit]]
    seg_start = [pool_offsets[:-1]]

    # Forwarding: each pair attributes the far hop's responsive reply
    # count to its IP and its lost count to the UNRESPONSIVE bucket;
    # whichever the hop's first reply belongs to comes first (the
    # reference pattern dict's insertion order).
    hop_resp = n_resp[far_h]
    hop_lost = lost[far_h]
    resp_c = hop_resp > 0
    lost_c = hop_lost > 0
    lost_first = ~resp[reply_loc[far_h]]  # far hops here have replies
    fwd_router = [near_id[resp_c], near_id[lost_c]]
    fwd_dst = [dst_ids[row_f[resp_c]], dst_ids[row_f[lost_c]]]
    fwd_hop = [far_id[resp_c], np.full(int(lost_c.sum()), NO_IP, np.int64)]
    fwd_weight = [
        hop_resp[resp_c].astype(np.float64),
        hop_lost[lost_c].astype(np.float64),
    ]
    fwd_pos = [pos_f[resp_c], pos_f[lost_c]]
    fwd_sub = [
        lost_first[resp_c].astype(np.int64),
        (resp_c & ~lost_first)[lost_c].astype(np.int64),
    ]

    # -- scalar fallback: pairs touching a multi-IP hop ---------------
    slow_positions = np.flatnonzero(live & ~fast)
    if len(slow_positions):
        infos: Dict[int, tuple] = {}
        s_near: List[int] = []
        s_far: List[int] = []
        s_probe: List[int] = []
        s_asn: List[int] = []
        s_pos: List[int] = []
        s_start: List[int] = []
        s_count: List[int] = []
        slow_pool = array("d")
        f_router: List[int] = []
        f_dst: List[int] = []
        f_hop: List[int] = []
        f_weight: List[float] = []
        f_pos: List[int] = []
        f_sub: List[int] = []

        def hop_info(hop: int) -> tuple:
            """The object path's per-hop summary, computed on demand."""
            info = infos.get(hop)
            if info is not None:
                return info
            start, stop = int(reply_loc[hop]), int(reply_loc[hop + 1])
            hop_ips = ips[start:stop].tolist()
            hop_rtts = rtts[start:stop].tolist()
            ip_rtts: Dict[int, List[float]] = {}
            # Packets per next hop, lost ones under NO_IP, in the
            # reference pattern dict's first-occurrence order.
            counts: Dict[int, int] = {}
            for ident, rtt in zip(hop_ips, hop_rtts):
                if ident < 0:
                    counts[NO_IP] = counts.get(NO_IP, 0) + 1
                    continue
                samples = ip_rtts.get(ident)
                if samples is None:
                    samples = ip_rtts[ident] = []
                    counts[ident] = 1
                else:
                    counts[ident] += 1
                if rtt == rtt:  # NaN marks a missing RTT
                    samples.append(rtt)
            if not ip_rtts:
                primary = None
            elif len(ip_rtts) == 1:
                (primary,) = ip_rtts
            else:
                # Ties break on the IP *string*, as the object path.
                primary = max(
                    ip_rtts,
                    key=lambda ident: (counts[ident], strings[ident]),
                )
            info = (ip_rtts, counts, primary)
            infos[hop] = info
            return info

        for position, near_hop in zip(
            slow_positions.tolist(), pair_near[slow_positions].tolist()
        ):
            near_info = hop_info(near_hop)
            far_info = hop_info(near_hop + 1)
            row = int(rows[hop_row[near_hop]])
            near_rtts = near_info[0]
            far_rtts = far_info[0]
            if near_rtts and far_rtts:  # both hops responsive (§4.2.1)
                for a_id, a_samples in near_rtts.items():
                    if not a_samples:
                        continue
                    for b_id, b_samples in far_rtts.items():
                        if b_id == a_id or not b_samples:
                            continue
                        s_near.append(a_id)
                        s_far.append(b_id)
                        s_probe.append(int(prb_ids[row]))
                        s_asn.append(int(asns[row]))
                        s_pos.append(position)
                        s_start.append(len(slow_pool))
                        slow_pool.extend(
                            far - near
                            for far in b_samples
                            for near in a_samples
                        )
                        s_count.append(len(slow_pool) - s_start[-1])
            router_id = near_info[2]
            if router_id is not None:  # §5.1 packet attribution
                dst_id = int(dst_ids[row])
                for sub, (next_hop, count) in enumerate(far_info[1].items()):
                    f_router.append(router_id)
                    f_dst.append(dst_id)
                    f_hop.append(next_hop)
                    f_weight.append(float(count))
                    f_pos.append(position)
                    f_sub.append(sub)

        fast_total = int(len(pools[0]))
        seg_near.append(np.asarray(s_near, dtype=np.int64))
        seg_far.append(np.asarray(s_far, dtype=np.int64))
        seg_probe.append(np.asarray(s_probe, dtype=np.int64))
        seg_asn.append(np.asarray(s_asn, dtype=np.int64))
        seg_pos.append(np.asarray(s_pos, dtype=np.int64))
        seg_start.append(
            np.asarray(s_start, dtype=np.int64) + fast_total
        )
        seg_counts.append(np.asarray(s_count, dtype=np.int64))
        pools.append(np.frombuffer(slow_pool, dtype=np.float64))
        fwd_router.append(np.asarray(f_router, dtype=np.int64))
        fwd_dst.append(np.asarray(f_dst, dtype=np.int64))
        fwd_hop.append(np.asarray(f_hop, dtype=np.int64))
        fwd_weight.append(np.asarray(f_weight, dtype=np.float64))
        fwd_pos.append(np.asarray(f_pos, dtype=np.int64))
        fwd_sub.append(np.asarray(f_sub, dtype=np.int64))

    # -- merge the two streams into the sorted FusedBin layout --------
    near_all = np.concatenate(seg_near)
    if len(near_all):
        far_all = np.concatenate(seg_far)
        pos_all = np.concatenate(seg_pos)
        # Links in string-rank order; within a link, segments in
        # traversal order (= the object path's buffer append order).
        order = np.lexsort((pos_all, ranks[far_all], ranks[near_all]))
        near_s = near_all[order]
        far_s = far_all[order]
        head = np.empty(len(order), dtype=bool)
        head[0] = True
        np.not_equal(near_s[1:], near_s[:-1], out=head[1:])
        head[1:] |= far_s[1:] != far_s[:-1]
        link_rows = np.flatnonzero(head)
        out.link_near = near_s[link_rows]
        out.link_far = far_s[link_rows]
        offsets = np.empty(len(link_rows) + 1, dtype=np.int64)
        offsets[:-1] = link_rows
        offsets[-1] = len(order)
        out.link_seg_offsets = offsets
        out.seg_probe = np.concatenate(seg_probe)[order]
        out.seg_asn = np.concatenate(seg_asn)[order]
        counts_s = np.concatenate(seg_counts)[order]
        starts_s = np.concatenate(seg_start)[order]
        sample_offsets, flat = _ragged_take(starts_s, counts_s)
        out.seg_sample_offsets = sample_offsets
        out.samples = np.concatenate(pools)[flat]

    router_all = np.concatenate(fwd_router)
    if len(router_all):
        dst_all = np.concatenate(fwd_dst)
        hop_all = np.concatenate(fwd_hop)
        weight_all = np.concatenate(fwd_weight)
        pos_all = np.concatenate(fwd_pos)
        sub_all = np.concatenate(fwd_sub)
        # Group (router, dst, next hop) triples, remembering each
        # triple's earliest traversal position.
        order = np.lexsort((sub_all, pos_all, hop_all, dst_all, router_all))
        router_s = router_all[order]
        dst_s = dst_all[order]
        hop_s = hop_all[order]
        head = np.empty(len(order), dtype=bool)
        head[0] = True
        np.not_equal(router_s[1:], router_s[:-1], out=head[1:])
        head[1:] |= dst_s[1:] != dst_s[:-1]
        head[1:] |= hop_s[1:] != hop_s[:-1]
        group_rows = np.flatnonzero(head)
        u_router = router_s[group_rows]
        u_dst = dst_s[group_rows]
        u_hop = hop_s[group_rows]
        # Weights are integral counts, so summation order is exact.
        u_weight = np.add.reduceat(weight_all[order], group_rows)
        u_pos = pos_all[order][group_rows]
        u_sub = sub_all[order][group_rows]
        # Models in (router, dst) string-rank order; within a model,
        # next hops in first-occurrence order (= dict insertion order).
        final = np.lexsort((u_sub, u_pos, ranks[u_dst], ranks[u_router]))
        router_f = u_router[final]
        dst_f = u_dst[final]
        head = np.empty(len(final), dtype=bool)
        head[0] = True
        np.not_equal(router_f[1:], router_f[:-1], out=head[1:])
        head[1:] |= dst_f[1:] != dst_f[:-1]
        model_rows = np.flatnonzero(head)
        out.model_router = router_f[model_rows]
        out.model_dst = dst_f[model_rows]
        offsets = np.empty(len(model_rows) + 1, dtype=np.int64)
        offsets[:-1] = model_rows
        offsets[-1] = len(final)
        out.model_hop_offsets = offsets
        out.hop_ids = u_hop[final]
        out.hop_counts = u_weight[final]
    return out
