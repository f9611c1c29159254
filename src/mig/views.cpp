#include "mig/views.hpp"

namespace plim::mig {

FanoutView::FanoutView(const Mig& mig)
    : offset_(mig.size() + 1, 0), po_refs_(mig.size(), 0) {
  // Count parents, prefix-sum to slice ends, then fill each slice from
  // its end while walking gates in descending order: offset_[n] ends at
  // the slice start and every slice comes out ascending.
  mig.foreach_gate([&](node n) {
    for (const auto f : mig.fanins(n)) {
      ++offset_[f.index()];
    }
  });
  for (std::size_t n = 1; n < offset_.size(); ++n) {
    offset_[n] += offset_[n - 1];
  }
  parents_.resize(offset_.back());
  for (node n = mig.size(); n-- > 0;) {
    if (mig.is_gate(n)) {
      for (const auto f : mig.fanins(n)) {
        parents_[--offset_[f.index()]] = n;
      }
    }
  }
  mig.foreach_po([&](Signal f, std::uint32_t) { ++po_refs_[f.index()]; });
}

}  // namespace plim::mig
