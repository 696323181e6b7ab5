"""Build your own benchmark from the block library and analyse it.

Shows the substrate as a user-extensible toolkit: assemble a custom
design from functional blocks, push it through both technology nodes,
compare the mapped netlists, verify functional equivalence by
simulation, and run the full flow on it at 7nm.

Run:
    python examples/custom_design.py
"""

import numpy as np

from repro.features import GateVocabulary
from repro.flow import PnRFlow
from repro.netlist import LogicGraph, blocks, equivalent_behaviour, map_design
from repro.netlist.designs import _mark_word, _word
from repro.techlib import make_asap7_library, make_sky130_library


def make_mac_filter(taps: int = 3, width: int = 5) -> LogicGraph:
    """A custom FIR-like multiply-accumulate filter with a saturator."""
    g = LogicGraph("mac_filter")
    xs = [_word(g, f"x{i}", width) for i in range(taps)]
    cs = [_word(g, f"c{i}", width) for i in range(taps)]
    acc = blocks.array_multiplier(g, xs[0], cs[0])[: 2 * width]
    for x, c in zip(xs[1:], cs[1:]):
        prod = blocks.array_multiplier(g, x, c)[: 2 * width]
        acc = blocks.ripple_adder(g, acc, prod)[: 2 * width]
    # Saturate: if any high bit is set, clamp outputs high.
    overflow = blocks.or_reduce(g, acc[width:])
    ones = [g.add_gate("OR2", (bit, overflow)) for bit in acc[:width]]
    regs = blocks.register_word(g, ones)
    _mark_word(g, regs, "y")
    g.validate()
    return g


def main() -> None:
    graph = make_mac_filter()
    print(f"custom design: {graph}")

    sky, asap = make_sky130_library(), make_asap7_library()
    nl_sky = map_design(graph, sky)
    nl_asap = map_design(graph, asap)
    for netlist in (nl_sky, nl_asap):
        print(f"{netlist.library.name}: {len(netlist.cells)} cells, "
              f"{netlist.total_cell_area():.2f} um^2")

    # Prove the two mappings implement the same function.
    rng = np.random.default_rng(0)
    names = [graph.nodes[i].name for i in graph.inputs]
    stimulus = [{n: bool(rng.integers(2)) for n in names}
                for _ in range(5)]
    ok = equivalent_behaviour(graph, [nl_sky, nl_asap], stimulus)
    print(f"\nfunctional equivalence across nodes: "
          f"{'PASS' if ok else 'FAIL'}")

    # Run the full flow at 7nm: the design is now a training sample.
    libraries = {"130nm": sky, "7nm": asap}
    flow = PnRFlow(libraries, vocab=GateVocabulary([sky, asap]))
    from repro.netlist.designs import DESIGN_GENERATORS

    DESIGN_GENERATORS["mac_filter"] = lambda scale=1.0: make_mac_filter()
    data = flow.run("mac_filter", "7nm")
    print(f"\n7nm flow: {data.stats()}")


if __name__ == "__main__":
    main()
