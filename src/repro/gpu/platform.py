"""Multi-GPU Infinity Platform topology.

The paper profiles communication collectives on an 8x MI300X node where every
GPU is connected to every other GPU by a 4th-generation Infinity Fabric link
with 64 GB/s of unidirectional bandwidth (Section II-A).  This module models
that node: a fully-connected topology in which every link is identical (so
the structure is plain arithmetic on :class:`~repro.gpu.spec.PlatformSpec`),
per-link bandwidth/latency, and helpers for the transfer-time arithmetic the
collective kernels need.

Only GPU 0 -- the profiled GPU -- is instantiated as a full
:class:`~repro.gpu.device.SimulatedGPU`; the peers matter only through the
fabric traffic they generate, which is captured in the collective kernels'
activity descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import SimulatedGPU
from .spec import PlatformSpec, mi300x_platform_spec


@dataclass(frozen=True)
class TransferEstimate:
    """Time estimate for moving ``bytes_per_peer`` to/from every peer in parallel."""

    bytes_per_peer: float
    duration_s: float
    effective_bandwidth_bytes_per_s: float
    latency_bound: bool


class InfinityPlatform:
    """A fully-connected multi-GPU node."""

    def __init__(self, spec: PlatformSpec | None = None, seed: int = 0) -> None:
        self._spec = spec or mi300x_platform_spec()
        self._spec.validate()
        self._profiled_gpu = SimulatedGPU(self._spec.gpu, seed=seed)

    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> PlatformSpec:
        return self._spec

    @property
    def num_gpus(self) -> int:
        return self._spec.num_gpus

    @property
    def profiled_gpu(self) -> SimulatedGPU:
        """The GPU on which power is profiled (rank 0)."""
        return self._profiled_gpu

    def peers_of(self, rank: int) -> list[int]:
        """Ranks directly connected to ``rank`` (all others, fully connected)."""
        self._check_rank(rank)
        return [peer for peer in range(self.num_gpus) if peer != rank]

    def link_bandwidth(self, src: int, dst: int) -> float:
        """Unidirectional bandwidth of the link between two ranks (bytes/s)."""
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise ValueError("no link from a GPU to itself")
        return float(self._spec.link.bandwidth_bytes_per_s)

    def link_latency(self, src: int, dst: int) -> float:
        """One-way latency of the link between two ranks (seconds)."""
        self._check_rank(src)
        self._check_rank(dst)
        if src == dst:
            raise ValueError("no link from a GPU to itself")
        return float(self._spec.link.latency_s)

    def is_fully_connected(self) -> bool:
        """True when every pair of GPUs shares a direct link (by construction)."""
        return True

    # ------------------------------------------------------------------ #
    # Transfer arithmetic used by the collective kernels.
    # ------------------------------------------------------------------ #
    def parallel_peer_transfer(self, bytes_per_peer: float, rank: int = 0) -> TransferEstimate:
        """Time to exchange ``bytes_per_peer`` with each peer over dedicated links.

        With a fully-connected topology each peer pair uses its own link, so
        the transfers proceed in parallel and the duration is set by a single
        link plus the fixed launch/latency cost.
        """
        if bytes_per_peer < 0:
            raise ValueError("transfer size cannot be negative")
        peers = self.peers_of(rank)
        if not peers:
            raise ValueError("platform has no peers to transfer with")
        link_bw = self.link_bandwidth(rank, peers[0])
        latency = self.link_latency(rank, peers[0]) + self._spec.collective_launch_latency_s
        wire_time = bytes_per_peer / link_bw if bytes_per_peer > 0 else 0.0
        duration = latency + wire_time
        total_bytes = bytes_per_peer * len(peers)
        effective_bw = total_bytes / duration if duration > 0 else 0.0
        return TransferEstimate(
            bytes_per_peer=bytes_per_peer,
            duration_s=duration,
            effective_bandwidth_bytes_per_s=effective_bw,
            latency_bound=wire_time < latency,
        )

    def aggregate_fabric_bandwidth(self, rank: int = 0) -> float:
        """Sum of unidirectional link bandwidth out of ``rank`` (bytes/s)."""
        return sum(self.link_bandwidth(rank, peer) for peer in self.peers_of(rank))

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_gpus:
            raise ValueError(f"rank {rank} outside platform of {self.num_gpus} GPUs")


__all__ = ["InfinityPlatform", "TransferEstimate"]
