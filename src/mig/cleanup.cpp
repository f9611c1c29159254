#include "mig/cleanup.hpp"

#include <utility>

namespace plim::mig {

std::vector<bool> reachable_nodes(const Mig& mig) {
  std::vector<bool> reach(mig.size(), false);
  reach[0] = true;
  mig.foreach_pi([&](node n) { reach[n] = true; });
  std::vector<node> stack;
  mig.foreach_po([&](Signal f, std::uint32_t) {
    if (!reach[f.index()]) {
      reach[f.index()] = true;
      stack.push_back(f.index());
    }
  });
  while (!stack.empty()) {
    const node n = stack.back();
    stack.pop_back();
    if (!mig.is_gate(n)) {
      continue;
    }
    for (const auto f : mig.fanins(n)) {
      if (!reach[f.index()]) {
        reach[f.index()] = true;
        stack.push_back(f.index());
      }
    }
  }
  return reach;
}

namespace {

/// True when compaction would rebuild `mig` node for node.
bool already_compact(const Mig& mig, const std::vector<bool>& reach) {
  for (std::uint32_t i = 0; i < mig.num_pis(); ++i) {
    if (mig.pi_at(i) != i + 1) {
      return false;
    }
  }
  for (node n = mig.num_pis() + 1; n < mig.size(); ++n) {
    if (!reach[n]) {
      return false;
    }
  }
  return true;
}

Mig rebuild(const Mig& mig, const std::vector<bool>& reach) {
  Mig out;
  out.reserve(mig.size());
  // old signal -> new signal for non-complemented node roots
  std::vector<Signal> map(mig.size(), out.get_constant(false));
  mig.foreach_pi([&](node n) {
    map[n] = out.create_pi(mig.pi_name(mig.pi_index(n)));
  });
  mig.foreach_gate([&](node n) {
    if (!reach[n]) {
      return;
    }
    const auto& f = mig.fanins(n);
    const auto get = [&](Signal s) { return map[s.index()] ^ s.complemented(); };
    map[n] = out.create_maj(get(f[0]), get(f[1]), get(f[2]));
  });
  mig.foreach_po([&](Signal f, std::uint32_t i) {
    out.create_po(map[f.index()] ^ f.complemented(), mig.po_name(i));
  });
  return out;
}

}  // namespace

Mig cleanup_dangling(const Mig& mig) {
  const auto reach = reachable_nodes(mig);
  return already_compact(mig, reach) ? mig : rebuild(mig, reach);
}

Mig cleanup_dangling(Mig&& mig) {
  const auto reach = reachable_nodes(mig);
  return already_compact(mig, reach) ? std::move(mig) : rebuild(mig, reach);
}

}  // namespace plim::mig
