#pragma once

#include <vector>

#include "mig/mig.hpp"

namespace plim::mig {

/// Nodes in the transitive fanin of any PO; the constant and all PIs
/// always count.
[[nodiscard]] std::vector<bool> reachable_nodes(const Mig& mig);

/// Returns a compacted copy of `mig` containing only the constant, all PIs
/// (order and names preserved) and the gates in the transitive fanin of the
/// POs. Gate re-creation goes through `create_maj`, so trivially redundant
/// gates also disappear. PO order and names are preserved.
///
/// When nothing would change — every gate is reachable and the PIs are
/// nodes 1..num_pis() — the network is returned as is: a rebuild would
/// re-create it node for node (same creation order, no strash hits, no
/// folds). The rvalue overload then moves instead of copying.
[[nodiscard]] Mig cleanup_dangling(const Mig& mig);
[[nodiscard]] Mig cleanup_dangling(Mig&& mig);

}  // namespace plim::mig
