// Placement-node construction: converting compression results into the
// three super-module types of the paper's module-placement stage
// (Sec. 3.5) plus the f-value dual-segment planning of eq. (5).
//
// Coordinates use the plumbing-piece cell convention of geom/geometry.h:
// one primal module occupies one cell (Figure 1(e): three bridged module
// pairs occupy 2 x 1 x 3 = 6 cells). Node footprints live in the (x, z)
// plane; y is the 2.5D layer axis.
//
// Node kinds:
//   - PrimalChain: a primal-bridging super-module. Chain points run along
//     z; the I-shape partners of a point run along x (bridges of the two
//     stages on different axes never conflict, Sec. 3.5); height 1.
//   - TimeDependent: one per connected component of the measurement-order
//     constraint graph; member modules are laid along the time axis (x) in
//     topological-level order, which satisfies every intra-node constraint
//     by construction.
//   - Distillation: one column per ancilla kind holding the |Y> (3x3x2) or
//     |A> (16x6x2) boxes stacked along z, each with its injection module
//     beside the box face.
#pragma once

#include <cstdint>
#include <vector>

#include "common/vec3.h"
#include "compress/dual_bridging.h"
#include "compress/flipping.h"
#include "geom/geometry.h"

namespace tqec::place {

enum class NodeKind : std::uint8_t { PrimalChain, TimeDependent, Distillation };

struct NodeBox {
  geom::BoxKind kind = geom::BoxKind::YBox;
  Vec3 offset;  // minimum corner relative to the node origin
  int line = -1;
};

struct PlacementNode {
  int id = -1;
  NodeKind kind = NodeKind::PrimalChain;
  Vec3 dims;  // footprint sizes: x, y (height), z
  /// Modules hosted by this node and their cell offsets within it.
  std::vector<pdgraph::ModuleId> modules;
  std::vector<Vec3> module_offsets;
  /// Distillation boxes hosted by this node (Distillation kind only).
  std::vector<NodeBox> boxes;
  /// Chain index for PrimalChain nodes; -1 otherwise.
  int chain = -1;
};

struct NodeSet {
  std::vector<PlacementNode> nodes;
  /// Node and intra-node offset per module.
  std::vector<int> node_of_module;
  std::vector<Vec3> module_offset;
  /// f value per module (eq. 5): which side of its chain the module's dual
  /// segment exits; 0 for modules outside chains.
  std::vector<std::uint8_t> flip_of_module;

  /// Dual-segment access offsets per module (relative to the module cell):
  /// the cells a routed net must pass through to enter this module's loop.
  /// Empty means no constraint. Flipping mirrors every other chain point
  /// (eq. 5), so the physical exit side alternates along the chain. With
  /// planning (Fig. 15(a)) the single correct port is required. Without
  /// planning the converter assumes every segment exits on the nominal
  /// side, so a mirrored module's net must wrap from its physical exit
  /// around to the assumed port — two required cells, which is exactly the
  /// "poor routing result" of Fig. 15(b).
  std::vector<std::vector<Vec3>> access_offsets;

  /// Routed dual-net components: for each component, the modules its
  /// constituent nets pass through (deduplicated pin list).
  std::vector<std::vector<pdgraph::ModuleId>> net_pins;

  int node_count() const { return static_cast<int>(nodes.size()); }
};

/// Build the placement nodes from the compression results. When
/// `plan_flips` is false the f values are left at zero (the "no planning"
/// ablation of Fig. 15); planning is the default.
NodeSet build_nodes(const pdgraph::PdGraph& graph,
                    const compress::IshapeResult& ishape,
                    const compress::PrimalBridging& bridging,
                    compress::DualBridging& dual,
                    bool plan_flips = true);

/// Baseline node builder ([Hsu DAC'21]): every non-injection module is its
/// own node (no primal bridging super-modules); time-dependent and
/// distillation super-modules as above.
NodeSet build_nodes_dual_only(const pdgraph::PdGraph& graph,
                              compress::DualBridging& dual);

}  // namespace tqec::place
