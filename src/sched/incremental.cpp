#include "sched/incremental.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sched/decoupled.hpp"

namespace plim::sched {

IncrementalEval::IncrementalEval(const DependenceGraph& graph,
                                 const CostModel& cost, std::uint32_t banks)
    : graph_(graph),
      banks_(banks),
      transfer_instructions_(cost.transfer_instructions),
      bank_eff_(banks, 0),
      def_mark_(graph.num_read_defs(), 0),
      old_bank_(graph.num_segments(), 0),
      seg_mark_(graph.num_segments(), 0) {
  banks_before_.reserve(banks_);
  banks_after_.reserve(banks_);
}

void IncrementalEval::resync(const std::vector<std::uint32_t>& seg_bank,
                             const RefineEval& exact) {
  seg_bank_ = seg_bank;
  bank_eff_.assign(banks_, 0);
  for (std::uint32_t s = 0; s < seg_bank_.size(); ++s) {
    bank_eff_[seg_bank_[s]] += graph_.segment_size(s);
  }
  const auto bank_of = [&](std::uint32_t s) { return seg_bank_[s]; };
  for (std::uint32_t d = 0; d < graph_.num_read_defs(); ++d) {
    consuming_banks(graph_, d, bank_of, banks_after_);
    for (const auto b : banks_after_) {
      bank_eff_[b] += transfer_instructions_;
    }
  }
  const auto peak =
      *std::max_element(bank_eff_.begin(), bank_eff_.end());
  chain_ = exact.chain;
  const auto bound =
      std::max<std::uint64_t>(chain_, peak);
  overhead_ = exact.steps > bound
                  ? static_cast<std::uint32_t>(exact.steps - bound)
                  : 0;
  // Makespan anchor: the event-driven makespan rides on whichever span
  // binds — the critical chain or the busiest bank's pipelined stream —
  // with a signed offset capturing everything the span model cannot see
  // (sync latencies, bus contention, packing).
  makespan_modeled_ = exact.makespan > 0;
  overhead_mk_ =
      makespan_modeled_
          ? static_cast<std::int64_t>(exact.makespan) -
                static_cast<std::int64_t>(
                    std::max(stream_span(chain_), stream_span(peak)))
          : 0;
  current_ = {exact.steps, exact.transfers, exact.bus_stalls, exact.makespan};
}

void IncrementalEval::compute_delta(const std::vector<std::uint32_t>& trial,
                                    const std::vector<MovedSeg>& moved,
                                    Delta& out) const {
  out.transfers = 0;
  out.bank_load.clear();
  const auto bump = [&](std::uint32_t bank, std::int64_t delta) {
    for (auto& [b, d] : out.bank_load) {
      if (b == bank) {
        d += delta;
        return;
      }
    }
    out.bank_load.emplace_back(bank, delta);
  };

  // Overlay: the moved segments' previous banks, stamped so lookups stay
  // O(1) without clearing between trials.
  ++stamp_;
  for (const auto& [seg, from] : moved) {
    seg_mark_[seg] = stamp_;
    old_bank_[seg] = from;
  }
  const auto bank_before = [&](std::uint32_t s) {
    return seg_mark_[s] == stamp_ ? old_bank_[s] : trial[s];
  };

  // Raw instruction load follows the moved segments.
  for (const auto& [seg, from] : moved) {
    const auto to = trial[seg];
    if (to == from) {
      continue;
    }
    bump(from, -std::int64_t{graph_.segment_size(seg)});
    bump(to, std::int64_t{graph_.segment_size(seg)});
  }

  // Re-cost every def the moved segments produce or read: only these can
  // change their distinct-consuming-bank copy sets. def_mark_ dedups
  // defs shared between moved segments; it is stamped with the *same*
  // stamp_ epoch (distinct arrays, no collision).
  const auto visit_def = [&](std::uint32_t d) {
    if (def_mark_[d] == stamp_) {
      return;
    }
    def_mark_[d] = stamp_;
    consuming_banks(graph_, d, bank_before, banks_before_);
    consuming_banks(
        graph_, d, [&](std::uint32_t s) { return trial[s]; }, banks_after_);
    out.transfers += static_cast<std::int64_t>(banks_after_.size()) -
                     static_cast<std::int64_t>(banks_before_.size());
    for (const auto b : banks_after_) {
      if (std::find(banks_before_.begin(), banks_before_.end(), b) ==
          banks_before_.end()) {
        bump(b, std::int64_t{transfer_instructions_});
      }
    }
    for (const auto b : banks_before_) {
      if (std::find(banks_after_.begin(), banks_after_.end(), b) ==
          banks_after_.end()) {
        bump(b, -std::int64_t{transfer_instructions_});
      }
    }
  };
  for (const auto& [seg, from] : moved) {
    (void)from;
    for (const auto d : graph_.produced_defs(seg)) {
      visit_def(d);
    }
    for (const auto d : graph_.read_defs(seg)) {
      visit_def(d);
    }
  }
}

IncrementalEval::Estimate IncrementalEval::apply_delta(const Delta& d) const {
  std::uint64_t peak = 0;
  for (std::uint32_t b = 0; b < banks_; ++b) {
    auto load = static_cast<std::int64_t>(bank_eff_[b]);
    for (const auto& [bb, dd] : d.bank_load) {
      if (bb == b) {
        load += dd;
      }
    }
    peak = std::max(peak, static_cast<std::uint64_t>(std::max<std::int64_t>(
                              load, 0)));
  }
  Estimate est;
  // Steps: the anchored schedule's packing overhead rides on top of
  // whichever bound binds — the chain (invariant under this model) or
  // the peak effective load the move just changed.
  est.steps = overhead_ + static_cast<std::uint32_t>(
                              std::max<std::uint64_t>(chain_, peak));
  if (makespan_modeled_) {
    const auto span =
        static_cast<std::int64_t>(
            std::max(stream_span(chain_), stream_span(peak))) +
        overhead_mk_;
    est.makespan = static_cast<std::uint64_t>(std::max<std::int64_t>(span, 0));
  }
  const auto xfer =
      static_cast<std::int64_t>(current_.transfers) + d.transfers;
  est.transfers = static_cast<std::uint32_t>(std::max<std::int64_t>(xfer, 0));
  // Bus pressure scales with the surviving transfer count.
  est.bus_stalls =
      current_.transfers > 0
          ? static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(current_.bus_stalls) *
                est.transfers / current_.transfers)
          : current_.bus_stalls;
  return est;
}

IncrementalEval::Estimate IncrementalEval::estimate(
    const std::vector<std::uint32_t>& trial,
    const std::vector<MovedSeg>& moved) const {
  Delta d;
  compute_delta(trial, moved, d);
  return apply_delta(d);
}

void IncrementalEval::commit(const std::vector<std::uint32_t>& trial,
                             const std::vector<MovedSeg>& moved) {
  Delta d;
  compute_delta(trial, moved, d);
  current_ = apply_delta(d);
  for (const auto& [b, dd] : d.bank_load) {
    const auto load = static_cast<std::int64_t>(bank_eff_[b]) + dd;
    bank_eff_[b] = static_cast<std::uint64_t>(std::max<std::int64_t>(load, 0));
  }
  for (const auto& [seg, from] : moved) {
    (void)from;
    seg_bank_[seg] = trial[seg];
  }
}

}  // namespace plim::sched
