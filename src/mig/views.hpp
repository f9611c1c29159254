#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mig/mig.hpp"

namespace plim::mig {

/// Precomputed fanout information for a Mig.
///
/// The view is a snapshot: it is not updated when the network changes.
/// Both the PLiM compiler (releasing-children heuristic, destination
/// overwrite safety) and the rewriting passes (complement-transfer
/// profitability) consume this. Parents are stored CSR-style: one flat
/// array, sliced per node by an offset table.
class FanoutView {
 public:
  explicit FanoutView(const Mig& mig);

  /// Gate nodes that use `n` as a fanin, in ascending order (each parent
  /// listed once; a gate cannot reference the same child twice thanks to
  /// Ω.M folding).
  [[nodiscard]] std::span<const node> parents(node n) const {
    return {parents_.data() + offset_[n], offset_[n + 1] - offset_[n]};
  }

  /// Number of primary outputs that reference `n`.
  [[nodiscard]] std::uint32_t num_po_refs(node n) const {
    return po_refs_[n];
  }

  /// Total fanout = parent gates + PO references.
  [[nodiscard]] std::uint32_t fanout_count(node n) const {
    return offset_[n + 1] - offset_[n] + po_refs_[n];
  }

 private:
  std::vector<std::uint32_t> offset_;  ///< size() + 1 entries
  std::vector<node> parents_;
  std::vector<std::uint32_t> po_refs_;
};

}  // namespace plim::mig
