"""Seeded instance generators for the benchmark.

Networks and demand streams come from ``build_topology`` and
``build_demands`` of ``scripts/gen_synthetic_datasets.py``, the generator of
the bundled datasets: a bidirected ring plus random chords, capacity tiers
per link pair, compute budgets per node, about half of the nodes hosting
each function and the bundled chain-length mix.  This module scales the
capacities, caps chain lengths, tags the seeds and round-trips every
instance through ``serialize_*``/``load_*`` so that parsing is part of
set-up.  The same seed always gives the same instance.
"""

from __future__ import annotations

import importlib.util
import os
from collections import Counter
from dataclasses import dataclass

from orbitlb import fileio
from orbitlb.model import DemandStream, NfviGraph, ServiceDemand

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "gen_synthetic_datasets.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("gen_synthetic_datasets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


synthetic = _load_script()


@dataclass(frozen=True)
class InstanceSpec:
    """Size of one generated instance."""

    nodes: int
    chords: int
    demands: int
    capacity_tiers: tuple[float, ...]
    capacity_scale: float
    max_chain: int = 3


@dataclass(frozen=True)
class Instance:
    graph: NfviGraph
    demands: DemandStream

    def describe(self) -> dict:
        """Node, link and demand counts plus the chain-length mix."""
        mix = Counter(len(d.chain) for d in self.demands)
        return {
            "nodes": len(self.graph.node_capacity),
            "links": len(self.graph.links),
            "demands": len(self.demands),
            "chain_lengths": {str(k): mix[k] for k in sorted(mix)},
        }


def network(spec: InstanceSpec, tag: str) -> NfviGraph:
    """The ring-plus-chords network named by ``tag``, with link and compute
    capacities multiplied by ``spec.capacity_scale``."""
    nodes = [f"N{i:03d}" for i in range(spec.nodes)]
    tiers = [t * spec.capacity_scale for t in spec.capacity_tiers]
    g = synthetic.build_topology(tag, nodes, spec.chords, tiers, seed=0)
    compute = {v: c * spec.capacity_scale for v, c in g.node_capacity.items()}
    # the script passes the catalog as a set; a tuple keeps its order fixed
    return NfviGraph(compute, g.links, synthetic.FUNCTIONS, g.capability_pairs(), g.vnf_cost)


def draw(spec: InstanceSpec, seed: int | str, tag: str) -> Instance:
    """The network named by ``tag`` with the demand stream drawn for
    ``seed``; chains longer than ``spec.max_chain`` are cut to it.

    The network does not depend on the seed: runs with different seeds
    measure one network under different arrival sequences, so their figures
    differ by the stream, not by a different topology or partitioning.
    """
    g = network(spec, tag)
    stream = synthetic.build_demands(g, spec.demands, seed=f"{tag}.{seed}")
    demands = tuple(ServiceDemand(d.id, d.src, d.dst, d.volume, d.chain[: spec.max_chain])
                    for d in stream)
    return Instance(g, DemandStream(demands))


def round_trip(inst: Instance, tag: str, work_dir: str) -> Instance:
    """Write the instance in the text formats and parse it back."""
    g, stream = inst.graph, inst.demands
    topo_path = os.path.join(work_dir, f"{tag}.topo")
    dem_path = os.path.join(work_dir, f"{tag}.demands")
    fileio.write_text(topo_path, fileio.serialize_topology(g))
    fileio.write_text(dem_path, fileio.serialize_demands(stream))
    g2 = fileio.load_topology(topo_path)
    return Instance(g2, fileio.load_demands(dem_path, g2))
