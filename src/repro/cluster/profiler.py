"""Analytic stand-in for Helix's one-time hardware profiling.

The paper measures two families of constants on real hardware (§4.3):

* ``T_j`` — the maximum tokens/second a node sustains when it holds ``j``
  model layers (capacity of the ``c_in -> c_out`` edge);
* link capacities — tokens/second a network connection can carry, i.e.
  bandwidth divided by the per-token message size.

We derive the same constants from datasheet numbers with a two-term roofline:
processing a batch of ``B`` tokens through ``j`` resident layers costs

    time = B * j / R_c  +  j * weight_read_time  +  overhead

where ``R_c = mfu * FLOPs / flops_per_token_layer`` is the compute rate in
token-layers/second, and ``weight_read_time = layer_bytes / (bw * eff)``
models one streaming read of the resident weights per batch (the
memory-bound component of decode). The same formula drives the simulator's
batch timing, so the MILP's capacity constants and the simulated behaviour
agree by construction — mirroring how the paper's profiled constants match
its testbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.specs import ModelSpec
from repro.models.memory import kv_token_capacity, max_layers_on_vram
from repro.cluster.network import Link
from repro.cluster.node import ComputeNode


@dataclass(frozen=True)
class Profiler:
    """Performance model turning datasheets into serving constants.

    Attributes:
        mfu: Model FLOPs utilization applied to peak compute (typical
            serving MFU; the absolute value shifts all nodes equally).
        bandwidth_efficiency: Achievable fraction of peak memory bandwidth.
        batch_overhead: Fixed per-batch cost (kernel launches, framework).
        reference_batch: Batch size at which ``T_j`` is quoted; matches the
            saturated continuous-batching regime the paper profiles in.
        weight_fraction: Fraction of VRAM reserved for weights (paper: 0.5).
        kv_capacity_scale: Multiplier on KV token capacities. Experiments
            that scale request lengths by ``s`` should scale KV capacity by
            ``s`` too, so per-node request concurrency — the quantity KV
            pressure actually limits — matches the full-scale system.
    """

    mfu: float = 0.45
    bandwidth_efficiency: float = 0.8
    batch_overhead: float = 0.004
    reference_batch: int = 64
    weight_fraction: float = 0.5
    kv_capacity_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mfu", "bandwidth_efficiency", "weight_fraction"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 < value <= 1.0):
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        overhead = self.batch_overhead
        if not (math.isfinite(overhead) and overhead >= 0.0):
            raise ValueError(
                f"batch_overhead must be finite and >= 0, got {overhead}"
            )
        if not self.reference_batch >= 1:
            raise ValueError(
                f"reference_batch must be >= 1, got {self.reference_batch}"
            )
        scale = self.kv_capacity_scale
        if not (math.isfinite(scale) and scale > 0.0):
            raise ValueError(
                f"kv_capacity_scale must be finite and > 0, got {scale}"
            )

    # ------------------------------------------------------------------
    # Node-side constants
    # ------------------------------------------------------------------
    def max_layers(self, node: ComputeNode, model: ModelSpec) -> int:
        """Maximum layers the node can hold in its weight partition."""
        return max_layers_on_vram(model, node.vram_bytes, self.weight_fraction)

    def compute_rate(self, node: ComputeNode, model: ModelSpec) -> float:
        """Compute rate in token-layers/second (``R_c``)."""
        return self.mfu * node.fp16_flops / model.flops_per_token_layer()

    def weight_read_time(self, node: ComputeNode, model: ModelSpec) -> float:
        """Seconds to stream one layer's weights from device memory."""
        effective_bw = node.mem_bandwidth * self.bandwidth_efficiency
        return model.layer_bytes / effective_bw

    def batch_time(
        self,
        node: ComputeNode,
        model: ModelSpec,
        token_layers: float,
        resident_layers: int,
    ) -> float:
        """Wall time for one batch on ``node``.

        Args:
            node: The executing node.
            model: The served model.
            token_layers: Total work in token-layer units (each token
                processed through each of its layers counts once).
            resident_layers: Layers whose weights the batch touches.
        """
        if token_layers < 0 or resident_layers < 0:
            raise ValueError("work quantities must be non-negative")
        compute = token_layers / self.compute_rate(node, model)
        weights = resident_layers * self.weight_read_time(node, model)
        return compute + weights + self.batch_overhead

    def throughput(
        self, node: ComputeNode, model: ModelSpec, num_layers: int
    ) -> float:
        """``T_j``: steady-state tokens/second when holding ``num_layers``.

        Evaluated at ``reference_batch`` tokens per batch, which is where
        continuous batching operates once the cluster is saturated.
        """
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        batch = float(self.reference_batch)
        return batch / self.batch_time(node, model, batch * num_layers, num_layers)

    def kv_capacity(
        self, node: ComputeNode, model: ModelSpec, resident_layers: int
    ) -> int:
        """KV-cache token capacity for a node holding ``resident_layers``.

        Computed from the VRAM left after the held weights, so placements
        that exceed the half-VRAM provisioning rule (e.g. the SP baseline
        on large models) pay for it with proportionally less KV cache —
        the effect the paper reports in §6.3.
        """
        capacity = kv_token_capacity(model, node.vram_bytes, resident_layers)
        return int(capacity * self.kv_capacity_scale)

    # ------------------------------------------------------------------
    # Link-side constants
    # ------------------------------------------------------------------
    def link_token_capacity(
        self, link: Link, model: ModelSpec, carries_activations: bool
    ) -> float:
        """Tokens/second a link can carry.

        Coordinator links move 4-byte token ids; compute-to-compute links
        move ``hidden_size * dtype`` activations (paper Fig. 2).
        """
        if carries_activations:
            per_token = model.activation_bytes_per_token
        else:
            per_token = float(model.token_bytes)
        return link.bandwidth / per_token
