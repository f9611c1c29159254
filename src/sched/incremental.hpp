#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sched/cost_model.hpp"
#include "sched/depgraph.hpp"
#include "sched/refine.hpp"

namespace plim::sched {

/// Incremental (delta) evaluator for refinement trial moves.
///
/// The exact evaluator re-expands and re-list-schedules the *entire*
/// program per trial (O(program) — seconds on log2), which caps the
/// refinement budget at a handful of passes. This class instead keeps the
/// cost state of the last exactly-evaluated assignment — per-bank
/// effective loads (segment instructions plus the transfer-copy
/// instructions each bank executes), the expanded program's chain bound,
/// and the transfer count — and prices a candidate move as a *delta*:
/// only the moved segments' windows (their sizes plus the defs they read
/// and produce, via DependenceGraph's read graph) are re-costed, so one
/// trial is O(window) instead of O(program).
///
/// It is also the one owner of the refinement load model: the transfer
/// rule (consuming_banks) and the per-bank effective loads refinement's
/// candidate generators rank banks by, in both evaluator modes.
///
/// The estimate is a screen, not a truth: `steps` is modelled as the
/// anchored schedule's packing overhead on top of max(chain bound, peak
/// effective load), which prices load/transfer-bound moves well but
/// cannot see chain-length changes. Refinement therefore confirms every
/// accepted move with the exact evaluator (resync — see
/// RefineOptions::resync_interval), so kept-move state never drifts:
/// after a resync the internal (steps, transfers) equal the full
/// evaluator's exactly.
class IncrementalEval {
 public:
  /// One priced trial: the estimated schedule cost of the whole
  /// assignment after the move (same units as RefineEval).
  struct Estimate {
    std::uint32_t steps = 0;
    std::uint32_t transfers = 0;
    std::uint32_t bus_stalls = 0;
    /// Projected decoupled makespan (cycles): the anchor's event-driven
    /// overhead on top of max(chain span, busiest pipelined stream
    /// span) — sched::stream_span. 0 unless
    /// the anchor evaluation carried a makespan (makespan objective).
    std::uint64_t makespan = 0;
  };

  /// A segment relocation the estimate prices: `seg` moved away from
  /// `from_bank` (its new bank is read from the trial assignment).
  using MovedSeg = std::pair<std::uint32_t, std::uint32_t>;

  /// Binds the evaluator to `graph`'s cross-segment read graph (which
  /// must outlive it); allocates only per-def and per-segment scratch.
  IncrementalEval(const DependenceGraph& graph, const CostModel& cost,
                  std::uint32_t banks);

  /// The transfer rule every load and transfer figure of refinement
  /// follows: read def `d` costs one copy in each distinct bank, other
  /// than its producer's, that holds one of its reader segments (the
  /// expansion caches one replica per (def, consuming bank)) — and the
  /// copy's transfer_instructions land in that consuming bank. Collects
  /// those banks into `out` under the assignment `bank_of(segment)`.
  template <class BankOf>
  static void consuming_banks(const DependenceGraph& graph, std::uint32_t d,
                              const BankOf& bank_of,
                              std::vector<std::uint32_t>& out) {
    const auto producer_bank = bank_of(graph.producer_segment(d));
    out.clear();
    for (const auto s : graph.reader_segments(d)) {
      const auto b = bank_of(s);
      if (b != producer_bank &&
          std::find(out.begin(), out.end(), b) == out.end()) {
        out.push_back(b);
      }
    }
  }

  /// Re-anchors on `seg_bank`, whose exact evaluation is `exact`:
  /// recomputes per-bank effective loads from scratch and adopts the
  /// exact (steps, transfers, chain, bus stalls). O(program), but called
  /// only at resync points — not per trial.
  void resync(const std::vector<std::uint32_t>& seg_bank,
              const RefineEval& exact);

  /// Prices `trial`, which differs from the current assignment exactly
  /// in the `moved` segments. O(window): touches only the moved
  /// segments' def rows. Does not change the evaluator's state.
  [[nodiscard]] Estimate estimate(const std::vector<std::uint32_t>& trial,
                                  const std::vector<MovedSeg>& moved) const;

  /// Adopts `trial` as the current assignment *without* an exact
  /// re-schedule (deferred-resync mode, resync_interval > 1): applies
  /// the same deltas estimate() computes to the internal state. The
  /// state is then estimate-based until the next resync().
  void commit(const std::vector<std::uint32_t>& trial,
              const std::vector<MovedSeg>& moved);

  /// Cost of the current assignment: exact right after resync(),
  /// estimate-based after commit()s.
  [[nodiscard]] const Estimate& current() const noexcept { return current_; }

  /// Per-bank effective load (instructions + transfer-copy instructions)
  /// of the current assignment — the throughput-bound view candidate
  /// generators rank banks by.
  [[nodiscard]] const std::vector<std::uint64_t>& effective_loads()
      const noexcept {
    return bank_eff_;
  }

 private:
  struct Delta {
    std::int64_t transfers = 0;
    // Per-affected-bank effective-load change, sparse (bank, delta).
    std::vector<std::pair<std::uint32_t, std::int64_t>> bank_load;
  };

  /// Shared walk of estimate()/commit(): the load/transfer delta of
  /// applying `moved` on top of the current assignment.
  void compute_delta(const std::vector<std::uint32_t>& trial,
                     const std::vector<MovedSeg>& moved, Delta& out) const;
  [[nodiscard]] Estimate apply_delta(const Delta& d) const;

  const DependenceGraph& graph_;
  std::uint32_t banks_ = 0;
  std::uint32_t transfer_instructions_ = 2;

  // Current-assignment state.
  std::vector<std::uint32_t> seg_bank_;   ///< current assignment
  std::vector<std::uint64_t> bank_eff_;   ///< effective load per bank
  Estimate current_;
  std::uint32_t chain_ = 0;     ///< expanded-program chain bound (anchor)
  std::uint32_t overhead_ = 0;  ///< anchor steps − max(chain, peak load)
  /// Anchor makespan − max(chain span, peak stream span); signed — the
  /// pipelined-span model can overshoot the event-driven makespan.
  std::int64_t overhead_mk_ = 0;
  bool makespan_modeled_ = false;  ///< anchor carried a makespan

  // Scratch for the delta walk (mutable: estimate() is logically const).
  mutable std::vector<std::uint32_t> def_mark_;   ///< per-def visit stamp
  mutable std::vector<std::uint32_t> old_bank_;   ///< moved-seg overlay
  mutable std::vector<std::uint32_t> seg_mark_;   ///< overlay stamp
  mutable std::uint32_t stamp_ = 0;
  mutable std::vector<std::uint32_t> banks_before_;
  mutable std::vector<std::uint32_t> banks_after_;
};

}  // namespace plim::sched
