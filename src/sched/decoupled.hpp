#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/machine.hpp"
#include "sched/parallel_program.hpp"

namespace plim::sched {

/// The decoupled projection of a multi-bank program: every bank runs its
/// own serial instruction stream behind its own controller, and the only
/// cross-bank ordering comes from explicit sync tokens (SyncEdge) and
/// the shared inter-bank bus. The lockstep step view stays the canonical
/// storage (ParallelProgram); everything here is derived from it.
///
/// This header is the one owner of the decoupled controller's cost
/// model — its phases, the phase-level latency of every ordering, the
/// stream issue cadence and the bus arbiter. decoupled_timing (the model
/// arch::Machine::run_decoupled executes), the scheduler's makespan
/// surrogate, the stream reorder, the incremental evaluator and the
/// trace timeline all price cycles through it.

/// The RM3 instruction cycle of a bank controller, which SyncEdge phase
/// endpoints index into: phase 0 fetches the instruction, read A and
/// read B read the two operands, and the write phase commits the
/// majority (the destination cell Z joins the vote there).
inline constexpr std::uint32_t kPhases = arch::Machine::phases_per_instruction;
inline constexpr std::uint32_t kReadAPhase = 1;
inline constexpr std::uint32_t kReadBPhase = 2;
inline constexpr std::uint32_t kWritePhase = kPhases - 1;

/// Start-to-start latency of a phase-level ordering: the waiting op's
/// `to_phase` begins the cycle after the watched op's `from_phase`
/// completes, clamped at 0 so a waiting op never launches before the op
/// it waits on. Prices sync tokens and op-level hazard edges alike — RAW
/// via read A 3 cycles, via read B 2, WAR 0, WAW 1.
[[nodiscard]] constexpr std::uint32_t phase_latency(std::uint32_t from_phase,
                                                    std::uint32_t to_phase) {
  return from_phase + 1 > to_phase ? from_phase + 1 - to_phase : 0;
}

/// Issue cadence of one bank's stream: the controller prefetches the
/// next instruction during the current write phase, so the next read A
/// lands exactly when the previous write commits. The lockstep machine
/// cannot pipeline this — its fetch follows the global step commit.
inline constexpr std::uint64_t kIssueCadence =
    phase_latency(kWritePhase, kReadAPhase);

/// Dense pipelined span of a serial stream of `n` ops: issues every
/// kIssueCadence cycles, the last op retires after the full kPhases.
[[nodiscard]] constexpr std::uint64_t stream_span(std::uint64_t n) {
  return n > 0 ? (n - 1) * kIssueCadence + kPhases : 0;
}

/// The inter-bank bus arbiter. Bus ops are granted one at a time, in the
/// caller's grant order. A bounded bus (width ≥ 1) grants in order — no
/// grant starts before the previous one — on one of `width` servers,
/// each held for kPhases cycles. An unbounded bus (width 0) imposes no
/// grant order at all: every grant starts at its ready time. reset()
/// reuses the server storage, so a warm arbiter allocates nothing.
class BusArbiter {
 public:
  explicit BusArbiter(std::uint32_t width = 0) { reset(width); }

  /// Restarts at cycle 0 with `width` idle servers (0 = unbounded).
  void reset(std::uint32_t width) {
    servers_.assign(width, 0);  // all-equal: already a min-heap
    last_start_ = 0;
  }
  /// Grants the next bus op, ready at cycle `ready`; returns its start.
  [[nodiscard]] std::uint64_t grant(std::uint64_t ready);

 private:
  std::vector<std::uint64_t> servers_;  ///< cycle each server frees up
  std::uint64_t last_start_ = 0;        ///< previous grant (bounded bus)
};

/// The per-bank stream view of a program: its slots regrouped into each
/// bank's serial stream — the one flattening every decoupled consumer
/// reads (sync derivation and checking, timing, stream reordering, the
/// machine's decoupled run). Op ids are bank-major: bank b's stream is
/// ids [off[b], off[b + 1]) in step order, so id = off[b] + position and
/// SyncEdge positions index it directly. Slots naming a nonexistent bank
/// are left out (validate() reports them).
struct StreamView {
  explicit StreamView(const ParallelProgram& program);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(slot.size());
  }
  [[nodiscard]] std::uint32_t len(std::uint32_t bank) const {
    return off[bank + 1] - off[bank];
  }
  [[nodiscard]] std::uint32_t id(std::uint32_t bank, std::uint32_t pos) const {
    return off[bank] + pos;
  }
  [[nodiscard]] std::uint32_t pos(std::uint32_t id) const {
    return id - off[bank_of[id]];
  }

  std::uint32_t banks = 0;
  std::vector<std::uint32_t> off;      ///< banks + 1 stream offsets
  std::vector<Slot> slot;              ///< by id
  std::vector<std::uint32_t> step_of;  ///< by id: lockstep step
  std::vector<std::uint32_t> bank_of;  ///< by id
  /// By id: a cross-bank copy (ParallelProgram::uses_bus).
  std::vector<bool> uses_bus;
  /// Ids in lockstep program order (step, then bank) — the bus arbiter's
  /// grant order.
  std::vector<std::uint32_t> order;
};

/// One op-level ordering requirement: op `to` must not run its
/// `to_phase` before op `from`'s `from_phase` completes, which costs
/// phase_latency(from_phase, to_phase) start to start. Ops are
/// StreamView ids.
struct HazardEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t from_phase = 0;
  std::uint32_t to_phase = 0;
  /// A RAW or WAR edge between a cross-bank copy's remote operand read
  /// and a write in another bank: a hazard a sync token must cover.
  bool cross_bank = false;

  friend bool operator==(const HazardEdge&, const HazardEdge&) noexcept =
      default;
};

/// The one hazard walk over a program: every RAW, WAR and WAW edge per
/// physical cell, found in a single pass over the ops in lockstep
/// program order (StreamView::order, a valid serialization), keeping
/// each cell's last write and the reads since it. Operands A and B are
/// read in their read phases; the destination Z is read in the write
/// phase, where it joins the majority. Same-step reads and writes of a
/// cell cannot occur in a valid program, so every edge also points from
/// an earlier step to a later one. derive_sync and check_sync take the
/// cross_bank edges, reorder_streams the whole set. Operands beyond the
/// program's cells are skipped (validate() reports them).
[[nodiscard]] std::vector<HazardEdge> hazard_edges(
    const ParallelProgram& program, const StreamView& view);

/// A start-to-start ordering graph over op ids in CSR form: an arc
/// from → to of `latency` lets op `to` start no earlier than `latency`
/// cycles after op `from` starts.
class OpGraph {
 public:
  enum class Kind : std::uint8_t { stream, sync, bus, hazard };
  struct Arc {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint32_t latency = 0;
    Kind kind = Kind::hazard;
  };

  /// Groups `arcs` by their `from` op, keeping their relative order.
  OpGraph(std::uint32_t ops, const std::vector<Arc>& arcs);

  [[nodiscard]] std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(indegree_.size());
  }
  /// The arcs leaving op `i`.
  [[nodiscard]] std::span<const Arc> succ(std::uint32_t i) const {
    return {arcs_.data() + off_[i], arcs_.data() + off_[i + 1]};
  }
  /// Number of arcs entering each op.
  [[nodiscard]] const std::vector<std::uint32_t>& indegree() const noexcept {
    return indegree_;
  }
  /// Kahn's topological order with a FIFO queue seeded in id order. It
  /// is shorter than size() exactly when the graph has a cycle.
  [[nodiscard]] std::vector<std::uint32_t> fifo_order() const;

 private:
  std::vector<std::uint32_t> off_;
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> indegree_;
};

/// Derives and stores the minimal sync-token set for `program`,
/// replacing any existing tokens. One ordering requirement exists per
/// cross-bank edge of the hazard walk (hazard_edges): a remote read
/// (transfer copy) must happen after the last earlier write of the cell
/// it reads (RAW) and before the cell's next overwrite (WAR).
/// Requirements carry phase-level endpoints (see SyncEdge), merged to
/// the strictest pair where they join the same two ops: a RAW token
/// signals at the producer's write-phase completion and stalls only the
/// consumer phase that reads the operand (read A or read B), a WAR
/// token signals when the remote read's operand phase completes and
/// stalls only the overwriter's write phase. Requirements between the
/// same ordered bank pair are reduced to their Pareto frontier — a
/// requirement is dropped when another one signals later *and* waits
/// earlier (folding its phase bounds into the survivor when the
/// positions tie), so consecutive transfers between one bank pair
/// coalesce into a single signal/wait — and each surviving requirement
/// becomes one token with the signal
/// placed as early and the wait as late as the hazard allows
/// (slack-aware placement). Every derived token points from a lockstep
/// step to a strictly later one, so the token graph is acyclic by
/// construction and decoupled execution can never deadlock.
void derive_sync(ParallelProgram& program);

/// Checks the stored sync tokens: both endpoints name existing, distinct
/// banks at in-range stream positions with in-range phase offsets
/// (< arch::Machine::phases_per_instruction); the constraint graph
/// decoupled_timing walks (stream order plus tokens) has no cycle, since
/// a cycle means decoupled execution deadlocks; and every cross-bank edge
/// of the hazard walk (hazard_edges) is covered by a token between the
/// same bank pair that signals at least as late and waits at least as
/// early as the hazard requires — at equal stream positions the token's
/// phases must be at least as strict (signal phase ≥, wait phase ≤) as
/// the hazard's; at strictly later signal / earlier wait positions the
/// stream's own kIssueCadence covers any phase offset.
/// Returns an empty string when the tokens are sound, otherwise a
/// description of the first violation. Called by
/// ParallelProgram::validate() whenever tokens are present.
[[nodiscard]] std::string check_sync(const ParallelProgram& program);
/// check_sync over an already-built view of `program`.
[[nodiscard]] std::string check_sync(const ParallelProgram& program,
                                     const StreamView& view);

/// Cycle accounting of one decoupled execution (see decoupled_timing).
struct DecoupledTiming {
  std::uint64_t makespan_cycles = 0;  ///< max over banks of finish time
  std::uint64_t bus_stall_cycles = 0;  ///< cycles ops waited for the bus
  /// Honest lower bound on makespan_cycles: the same event graph with
  /// bus *contention* relaxed (stream + sync + in-order grant-chain
  /// edges kept, the width-limited server pool dropped), maxed with the
  /// aggregate bus-throughput floor ⌈bus ops × phases / width⌉. Always
  /// ≤ makespan_cycles — dropping constraints can only shorten the
  /// critical path, and the throughput floor undercounts by ignoring
  /// when bus ops become ready.
  std::uint64_t makespan_lower_bound = 0;
  /// Dense pipelined span of each bank's own stream (stream_span).
  std::vector<std::uint64_t> bank_busy_cycles;
  /// Wait cycles each bank's controller actually burned (finish − busy);
  /// a decoupled controller halts after its last op instead of ticking
  /// the global clock to the end of the program.
  std::vector<std::uint64_t> bank_idle_cycles;
  std::vector<std::uint64_t> bank_finish_cycles;  ///< bank's last op done
  /// Global (bank, stream position) execution order consistent with the
  /// op start times — the order a functional simulator must apply
  /// instructions in so every read sees exactly the values the sync
  /// tokens guarantee.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  /// Lockstep step of each op of `order`, index-aligned: where a
  /// functional run finds the op's slot (ParallelProgram::step, one slot
  /// per bank) without rebuilding a StreamView.
  std::vector<std::uint32_t> steps;
  /// Per-op cycle accounting, aligned index-for-index with `order`: the
  /// cycle the op issued, and how its pre-issue wait splits between
  /// sync-token stalls (dependency ready beyond the bank's own pipelined
  /// stream) and bus stalls (arbiter order + server contention). These
  /// feed the cycle-level per-bank trace timelines
  /// (sched::trace_decoupled_timeline); the aggregate counters above are
  /// their sums.
  std::vector<std::uint64_t> start_cycles;
  std::vector<std::uint64_t> sync_wait_cycles;
  std::vector<std::uint64_t> bus_wait_cycles;
};

/// Event-driven timing of the decoupled execution under the cost model
/// above: one pass, in FIFO topological order, over the OpGraph of
/// stream order, sync tokens and (on a bounded bus) the bus grant chain
/// — the constraint graph check_sync tests for deadlock. Every bank
/// advances through its own serial stream at the kIssueCadence, where
/// the lockstep machine pays the full kPhases per step for every bank,
/// busy or not. A wait blocks only the consumer
/// phase the token names (SyncEdge::to_phase) until the producer phase
/// it watches (SyncEdge::from_phase) completes, after phase_latency —
/// clamped so a consumer never launches before its producer (the
/// in-order handshake the functional simulator's execution order relies
/// on); tokens themselves are free — they ride the controller handshake.
/// Cross-bank copies go through a `bus_width`-wide BusArbiter. A bounded
/// bus grants in program (lockstep step) order — a FIFO bus queue, which
/// keeps the decoupled makespan at or below the lockstep `steps × phases`
/// bound for any schedule that honours its declared bus width; an
/// unbounded bus (0) imposes no grant order.
///
/// Throws std::invalid_argument when `phases_per_instruction` is not
/// the controller's kPhases (check_sync ties token phases to that
/// cycle), and std::logic_error when the program has cross-bank reads
/// but no sync tokens (call derive_sync first), when check_sync rejects
/// the tokens (its deadlock test then runs on this run's graph, bus
/// chain included), or when the constraint graph has a cycle.
[[nodiscard]] DecoupledTiming decoupled_timing(
    const ParallelProgram& program, std::uint32_t bus_width,
    std::uint64_t phases_per_instruction);
/// decoupled_timing over an already-built view of `program`.
[[nodiscard]] DecoupledTiming decoupled_timing(const ParallelProgram& program,
                                               const StreamView& view,
                                               std::uint32_t bus_width);

}  // namespace plim::sched
