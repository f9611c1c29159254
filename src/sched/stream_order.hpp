#pragma once

#include <cstdint>

#include "sched/decoupled.hpp"
#include "sched/parallel_program.hpp"

namespace plim::sched {

/// Outcome of one stream-reorder attempt (see reorder_streams).
struct StreamOrderResult {
  bool applied = false;  ///< the reordered program replaced the input
  std::uint64_t makespan_before = 0;  ///< decoupled makespan going in
  std::uint64_t makespan_after = 0;   ///< decoupled makespan of the result
  /// makespan_before − makespan_after when applied, else 0.
  std::uint64_t saved_cycles = 0;
  /// Decoupled timing of the program left in place — the reordered one
  /// when applied, else the input — so callers need no second pass.
  DecoupledTiming timing;
};

/// Decoupled-native stream ordering: re-sequences each bank's serial
/// instruction stream for the event-driven makespan instead of
/// inheriting the lockstep step order. Bank assignment and cell
/// allocation stay fixed; only the order ops issue within their bank
/// changes. The pass list-schedules on the whole edge set of the hazard
/// walk (hazard_edges: RAW/WAR/WAW per physical cell), each edge priced
/// by phase_latency and held in an OpGraph, with the bus arbiter
/// modelled, prioritising by critical-path height. It then repacks the
/// new streams into lockstep steps (so the program stays a valid
/// ParallelProgram — the lockstep view is the canonical storage) and
/// re-derives sync tokens, which decoupled_timing checks again.
///
/// The reordered program is adopted only when its decoupled makespan is
/// strictly smaller and its lockstep step count did not grow — a guard
/// that keeps the pass a pure improvement under both execution models.
/// Returns what happened either way; `program` is unchanged when
/// `applied` is false.
///
/// Expects a validated program; the bus is the program's declared
/// bus_width() (0 = unbounded), priced by the cost model of
/// sched/decoupled.hpp like decoupled_timing prices it.
StreamOrderResult reorder_streams(ParallelProgram& program);

}  // namespace plim::sched
