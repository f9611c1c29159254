#include "sched/clustering.hpp"

#include <algorithm>
#include <numeric>

#include "sched/depgraph.hpp"

namespace plim::sched {

HeavyEdgeClusters::HeavyEdgeClusters(std::vector<std::uint32_t> node_size)
    : parent_(node_size.size()), size_(std::move(node_size)) {
  std::iota(parent_.begin(), parent_.end(), 0u);
}

std::uint32_t HeavyEdgeClusters::find(std::uint32_t v) {
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];
    v = parent_[v];
  }
  return v;
}

bool HeavyEdgeClusters::merge(std::uint32_t x, std::uint32_t y,
                              std::uint32_t budget) {
  const auto rx = find(x);
  const auto ry = find(y);
  if (rx == ry) {
    return true;
  }
  if (size_[rx] + size_[ry] > budget) {
    return false;
  }
  // Root at the smaller id so cluster ids stay ascending (producers tend
  // to precede consumers, which the bank assignment relies on).
  const auto lo = std::min(rx, ry);
  const auto hi = std::max(rx, ry);
  parent_[hi] = lo;
  size_[lo] += size_[hi];
  return true;
}

void HeavyEdgeClusters::agglomerate(
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs,
    std::uint32_t budget) {
  std::sort(pairs.begin(), pairs.end());
  struct Edge {
    std::uint32_t weight;
    std::pair<std::uint32_t, std::uint32_t> link;
  };
  std::vector<Edge> edges;
  for (std::size_t k = 0; k < pairs.size();) {
    std::size_t j = k;
    while (j < pairs.size() && pairs[j] == pairs[k]) {
      ++j;
    }
    edges.push_back({static_cast<std::uint32_t>(j - k), pairs[k]});
    k = j;
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.weight != y.weight) {
      return x.weight > y.weight;
    }
    return x.link < y.link;
  });
  for (const auto& e : edges) {
    merge(e.link.first, e.link.second, budget);
  }
}

std::vector<std::uint32_t> cluster_segments(const DependenceGraph& graph,
                                            std::uint32_t banks) {
  constexpr auto npos = DependenceGraph::npos;
  const auto n = graph.num_instructions();
  const auto num_segments = graph.num_segments();

  std::vector<std::uint32_t> seg_size(num_segments);
  for (std::uint32_t s = 0; s < num_segments; ++s) {
    seg_size[s] = graph.segment_size(s);
  }

  // Producer→consumer operand reads between segments, one pair per read:
  // duplicate pairs aggregate into edge weights inside agglomerate().
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(std::size_t{2} * n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto s = graph.segment_of(i);
    for (const auto def : {graph.def_of_a(i), graph.def_of_b(i)}) {
      if (def == npos) {
        continue;
      }
      const auto ps = graph.segment_of(def);
      if (ps != s) {
        pairs.emplace_back(ps, s);
      }
    }
  }

  HeavyEdgeClusters clusters(std::move(seg_size));
  clusters.agglomerate(std::move(pairs), cluster_budget(n, banks));
  std::vector<std::uint32_t> cluster_of(num_segments);
  for (std::uint32_t s = 0; s < num_segments; ++s) {
    cluster_of[s] = clusters.find(s);
  }
  return cluster_of;
}

std::uint32_t cluster_budget(std::uint32_t total, std::uint32_t banks) {
  return std::max<std::uint32_t>(8, total / (4 * banks));
}

}  // namespace plim::sched
