"""Layout-inclusive sizing of the two-stage opamp (the paper's Figure 1.b loop).

Compares the same sizing run with four placement backends, each named by a
declarative ``make_placer`` spec dict passed straight to
``LayoutInclusiveSynthesis``:

* ``{"kind": "mps", ...}`` — the multi-placement structure (fast,
  size-adapted placements),
* ``{"kind": "service", ...}`` — the placement service (same structure,
  served from an on-disk registry with query memoization and per-tier
  statistics),
* ``{"kind": "template"}`` — a fixed template (fast, one arrangement for
  every size),
* ``{"kind": "annealing", ...}`` — per-instance simulated annealing (slow,
  the quality reference).

Run with::

    python examples/synthesis_loop.py

Pass a directory as the first argument to persist the service's structure
registry between runs (the second run skips generation entirely)::

    python examples/synthesis_loop.py /tmp/structure-registry
"""

import sys
import tempfile

from repro.core import MultiPlacementGenerator
from repro.experiments.config import SMOKE
from repro.service import PlacementService, StructureRegistry
from repro.synthesis import LayoutInclusiveSynthesis, SynthesisConfig
from repro.synthesis.opamp_design import two_stage_opamp_design
from repro.synthesis.optimizer import SizingOptimizerConfig
from repro.viz import format_table


def main() -> None:
    design = two_stage_opamp_design()
    circuit = design.circuit
    scale = SMOKE  # switch to MEDIUM / FULL for a closer look
    generator_config = scale.generator_config(circuit, seed=0)

    registry_dir = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="repro-registry-")
    registry = StructureRegistry(registry_dir)
    generator = MultiPlacementGenerator(circuit, generator_config)
    if registry.contains(circuit, generator_config):
        print(f"Loading the multi-placement structure from {registry.root}...")
    else:
        print("Generating the multi-placement structure (one-time cost)...")
    structure = registry.get_or_generate(circuit, generator_config)
    print(f"  {structure.num_placements} placements stored\n")

    service = PlacementService(registry, default_config=generator_config)

    # The "bounds" entry pins every engine to the structure's canvas, so the
    # backends are compared on identical floorplans and cost functions.
    backend_specs = {
        "mps": {"kind": "mps", "structure": structure, "cost_function": generator.cost_function},
        "service": {"kind": "service", "service": service},
        "template": {"kind": "template", "seed": 0, "bounds": generator.bounds},
        "annealing": {
            "kind": "annealing",
            "iterations": scale.annealing_iterations,
            "seed": 0,
            "bounds": generator.bounds,
        },
    }

    config = SynthesisConfig(
        optimizer=SizingOptimizerConfig(max_iterations=scale.synthesis_iterations)
    )
    rows = []
    for name, spec in backend_specs.items():
        loop = LayoutInclusiveSynthesis(
            design.sizing_model,
            design.performance_model,
            design.spec,
            spec,  # a spec dict is as good as a hand-built placer
            config=config,
            seed=0,
        )
        result = loop.run()
        best = result.best
        rows.append(
            {
                "backend": name,
                "wall_s": round(result.elapsed_seconds, 2),
                "placement_ms_per_eval": round(
                    1000 * result.placement_seconds / max(1, result.evaluations), 2
                ),
                "objective": round(best.objective, 2),
                "gain_dB": round(best.performance.gain_db, 1),
                "UGBW_MHz": round(best.performance.unity_gain_bandwidth_hz / 1e6, 1),
                "PM_deg": round(best.performance.phase_margin_deg, 1),
                "power_mW": round(best.performance.power_mw, 2),
                "spec_met": best.spec_penalty == 0.0,
            }
        )

    print(format_table(rows))
    service_stats = service.snapshot().as_dict()
    print(
        "\nService tiers: "
        f"structure={service_stats['structure_hits']:.0f} "
        f"nearest={service_stats['nearest_hits']:.0f} "
        f"fallback={service_stats['fallback_hits']:.0f} | "
        f"memo hits={service_stats['memo_hits']:.0f} of "
        f"{service_stats['queries']:.0f} queries, "
        f"mean latency={1000 * service_stats['mean_latency_seconds']:.3f}ms"
    )
    print(
        "\nThe multi-placement structure keeps per-evaluation placement time at the\n"
        "template's level while re-annealing from scratch is orders of magnitude slower;\n"
        "the service adds registry persistence and memoization on top."
    )


if __name__ == "__main__":
    main()
