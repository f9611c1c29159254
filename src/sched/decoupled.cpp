#include "sched/decoupled.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace plim::sched {

std::uint64_t BusArbiter::grant(std::uint64_t ready) {
  if (servers_.empty()) {
    return ready;  // unbounded bus: no grant order, no contention
  }
  // In-order grant on the server that frees up first.
  std::pop_heap(servers_.begin(), servers_.end(), std::greater<>());
  const auto start = std::max({ready, last_start_, servers_.back()});
  servers_.back() = start + kPhases;
  std::push_heap(servers_.begin(), servers_.end(), std::greater<>());
  last_start_ = start;
  return start;
}

StreamView::StreamView(const ParallelProgram& program)
    : banks(program.num_banks()), off(banks + 1, 0) {
  for (std::uint32_t s = 0; s < program.num_steps(); ++s) {
    for (const auto& slot : program.step(s)) {
      if (slot.bank < banks) {
        ++off[slot.bank + 1];
      }
    }
  }
  for (std::uint32_t b = 0; b < banks; ++b) {
    off[b + 1] += off[b];
  }
  const auto total = off[banks];
  slot.resize(total);
  step_of.resize(total);
  bank_of.resize(total);
  uses_bus.resize(total);
  order.reserve(total);
  auto cursor = off;
  for (std::uint32_t s = 0; s < program.num_steps(); ++s) {
    for (const auto& sl : program.step(s)) {
      if (sl.bank >= banks) {
        continue;  // malformed slot; validate() reports it separately
      }
      const auto i = cursor[sl.bank]++;
      slot[i] = sl;
      step_of[i] = s;
      bank_of[i] = sl.bank;
      uses_bus[i] = program.uses_bus(sl);
      order.push_back(i);
    }
  }
}

std::vector<HazardEdge> hazard_edges(const ParallelProgram& program,
                                     const StreamView& view) {
  const auto cells = program.num_rrams();
  constexpr std::uint32_t none = UINT32_MAX;
  std::vector<HazardEdge> edges;
  edges.reserve(std::size_t{view.size()} * 3);
  // Per cell: the last write so far, and the reads since it as a list
  // (newest first) threaded through one pool.
  struct Read {
    std::uint32_t op;
    std::uint32_t phase;
    bool remote;
    std::uint32_t prev;
  };
  std::vector<std::uint32_t> last_write(cells, none);
  std::vector<std::uint32_t> last_read(cells, none);
  std::vector<Read> reads;
  reads.reserve(std::size_t{view.size()} * 3);
  for (const auto id : view.order) {
    const auto bank = view.bank_of[id];
    const auto read = [&](std::uint32_t c, std::uint32_t phase, bool remote) {
      if (c >= cells) {
        return;
      }
      if (const auto w = last_write[c]; w != none) {
        // RAW: the read phase starts after the producer's write commits.
        edges.push_back(
            {w, id, kWritePhase, phase, remote && view.bank_of[w] != bank});
      }
      reads.push_back({id, phase, remote, last_read[c]});
      last_read[c] = static_cast<std::uint32_t>(reads.size() - 1);
    };
    const auto& ins = view.slot[id].instr;
    const auto [begin, end] = program.bank_range(bank);
    const std::pair<arch::Operand, std::uint32_t> operands[2] = {
        {ins.a, kReadAPhase}, {ins.b, kReadBPhase}};
    for (const auto& [op, phase] : operands) {
      if (op.is_rram()) {
        const auto c = op.address();
        read(c, phase, c < begin || c >= end);
      }
    }
    read(ins.z, kWritePhase, false);  // Z joins the majority when written
    if (ins.z >= cells) {
      continue;
    }
    for (auto r = last_read[ins.z]; r != none; r = reads[r].prev) {
      if (const auto& rd = reads[r]; rd.op != id) {
        // WAR: the overwrite commits after the read's phase completes.
        edges.push_back({rd.op, id, rd.phase, kWritePhase,
                         rd.remote && view.bank_of[rd.op] != bank});
      }
    }
    if (const auto w = last_write[ins.z]; w != none) {
      edges.push_back({w, id, kWritePhase, kWritePhase, false});  // WAW
    }
    last_write[ins.z] = id;
    last_read[ins.z] = none;
  }
  return edges;
}

OpGraph::OpGraph(std::uint32_t ops, const std::vector<Arc>& arcs)
    : off_(ops + 1, 0), arcs_(arcs.size()), indegree_(ops, 0) {
  for (const auto& a : arcs) {
    ++off_[a.from + 1];
    ++indegree_[a.to];
  }
  for (std::uint32_t i = 0; i < ops; ++i) {
    off_[i + 1] += off_[i];
  }
  auto cursor = off_;
  for (const auto& a : arcs) {
    arcs_[cursor[a.from]++] = a;
  }
}

std::vector<std::uint32_t> OpGraph::fifo_order() const {
  auto indeg = indegree_;
  std::vector<std::uint32_t> queue;
  queue.reserve(size());
  for (std::uint32_t i = 0; i < size(); ++i) {
    if (indeg[i] == 0) {
      queue.push_back(i);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const auto& a : succ(queue[head])) {
      if (--indeg[a.to] == 0) {
        queue.push_back(a.to);
      }
    }
  }
  return queue;
}

namespace {

/// The one constraint graph of a decoupled run over `view`'s op ids:
///  - stream order: kIssueCadence between back-to-back ops of a bank;
///  - sync tokens: phase_latency(from_phase, to_phase) (tokens naming
///    ops outside the streams are left out; check_sync reports them);
///  - on a bounded bus (`bus_width` ≥ 1) only: the bus ops chained in
///    program order, the arbiter's grant order, at latency 0. The chain
///    makes the FIFO order reach bus ops in grant order; the arbiter
///    prices it.
/// check_sync's deadlock test and decoupled_timing both walk it.
OpGraph constraint_graph(const ParallelProgram& program, const StreamView& view,
                         std::uint32_t bus_width) {
  using Kind = OpGraph::Kind;
  std::vector<OpGraph::Arc> arcs;
  arcs.reserve(view.size() + program.sync_edges().size());
  for (std::uint32_t b = 0; b < view.banks; ++b) {
    for (std::uint32_t pos = 1; pos < view.len(b); ++pos) {
      arcs.push_back({view.id(b, pos - 1), view.id(b, pos),
                      static_cast<std::uint32_t>(kIssueCadence), Kind::stream});
    }
  }
  for (const auto& e : program.sync_edges()) {
    if (e.from_bank < view.banks && e.to_bank < view.banks &&
        e.from_pos < view.len(e.from_bank) && e.to_pos < view.len(e.to_bank)) {
      arcs.push_back({view.id(e.from_bank, e.from_pos),
                      view.id(e.to_bank, e.to_pos),
                      phase_latency(std::min(e.from_phase, kWritePhase),
                                    std::min(e.to_phase, kWritePhase)),
                      Kind::sync});
    }
  }
  if (bus_width > 0) {
    auto prev = view.size();
    for (const auto id : view.order) {
      if (view.uses_bus[id]) {
        if (prev != view.size()) {
          arcs.push_back({prev, id, 0, Kind::bus});
        }
        prev = id;
      }
    }
  }
  return OpGraph(view.size(), arcs);
}

/// The cross-bank edges of the hazard walk as phase-level sync
/// requirements, sorted. Requirements between the same two ops (one op
/// reading a remote cell through both operands) are merged into the
/// strictest pair: the signal must fire after the *latest* producer
/// phase any of them watches, the wait must stall the *earliest*
/// consumer phase any of them protects.
std::vector<SyncEdge> required_edges(const ParallelProgram& program,
                                     const StreamView& view) {
  std::vector<SyncEdge> req;
  for (const auto& e : hazard_edges(program, view)) {
    if (e.cross_bank) {
      req.push_back({view.bank_of[e.from], view.pos(e.from),
                     view.bank_of[e.to], view.pos(e.to), e.from_phase,
                     e.to_phase});
    }
  }
  std::sort(req.begin(), req.end());
  std::size_t out = 0;
  for (std::size_t i = 0; i < req.size();) {
    auto merged = req[i];
    auto j = i + 1;
    for (; j < req.size(); ++j) {
      const auto& e = req[j];
      if (e.from_bank != merged.from_bank || e.from_pos != merged.from_pos ||
          e.to_bank != merged.to_bank || e.to_pos != merged.to_pos) {
        break;
      }
      merged.from_phase = std::max(merged.from_phase, e.from_phase);
      merged.to_phase = std::min(merged.to_phase, e.to_phase);
    }
    req[out++] = merged;
    i = j;
  }
  req.resize(out);
  return req;
}

/// check_sync with the deadlock test decided by the caller: `acyclic`
/// says whether the constraint graph of the run being checked has no
/// cycle.
std::string check_tokens(const ParallelProgram& program,
                         const StreamView& view, bool acyclic) {
  const auto& sync = program.sync_edges();
  const auto token = [](std::size_t i) {
    return "sync token t" + std::to_string(i + 1);
  };
  for (std::size_t i = 0; i < sync.size(); ++i) {
    const auto& e = sync[i];
    if (e.from_bank >= view.banks || e.to_bank >= view.banks) {
      return token(i) + ": no such bank";
    }
    if (e.from_bank == e.to_bank) {
      return token(i) + ": connects bank " + std::to_string(e.from_bank) +
             " to itself";
    }
    if (e.from_pos >= view.len(e.from_bank)) {
      return token(i) + ": signal position " + std::to_string(e.from_pos + 1) +
             " beyond bank " + std::to_string(e.from_bank) + "'s stream";
    }
    if (e.to_pos >= view.len(e.to_bank)) {
      return token(i) + ": wait position " + std::to_string(e.to_pos + 1) +
             " beyond bank " + std::to_string(e.to_bank) + "'s stream";
    }
    if (e.from_phase >= kPhases) {
      return token(i) + ": signal phase " + std::to_string(e.from_phase) +
             " beyond the " + std::to_string(kPhases) +
             "-phase instruction cycle";
    }
    if (e.to_phase >= kPhases) {
      return token(i) + ": wait phase " + std::to_string(e.to_phase) +
             " beyond the " + std::to_string(kPhases) +
             "-phase instruction cycle";
    }
  }

  // Deadlock-freedom: a cycle in the constraint graph hangs the waiting
  // controllers forever.
  if (!acyclic) {
    return "synchronization deadlock: bank streams and sync tokens form a "
           "cycle";
  }

  // Coverage: every cross-bank hazard must be implied by a token between
  // the same bank pair that signals no earlier and waits no later. With
  // phase-level endpoints the comparison is lexicographic: a token at a
  // strictly later signal position (or strictly earlier wait position)
  // covers any phase — the stream's kIssueCadence dominates a single
  // instruction's phase offsets — while a position tie requires
  // the token's signal phase to be ≥ (wait phase ≤) the hazard's.
  const auto req = required_edges(program, view);
  if (req.empty()) {
    return {};
  }
  // Per ordered pair: stored ((from_pos, from_phase), (to_pos, to_phase))
  // keys sorted by the signal key with a suffix minimum over the wait
  // key, so each query is one binary search. Phases are < kPhases (
  // checked above), so packing them into the low bits keeps the packed
  // order lexicographic.
  const auto signal_key = [](std::uint32_t pos, std::uint32_t phase) {
    return (std::uint64_t{pos} << 8) | phase;
  };
  const auto wait_key = signal_key;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> stored(
      std::size_t{view.banks} * view.banks);
  for (const auto& e : sync) {
    stored[std::size_t{e.from_bank} * view.banks + e.to_bank].emplace_back(
        signal_key(e.from_pos, e.from_phase), wait_key(e.to_pos, e.to_phase));
  }
  std::vector<std::vector<std::uint64_t>> suffix_min(stored.size());
  for (std::size_t k = 0; k < stored.size(); ++k) {
    auto& list = stored[k];
    std::sort(list.begin(), list.end());
    auto& mins = suffix_min[k];
    mins.resize(list.size());
    auto running = ~std::uint64_t{0};
    for (std::size_t j = list.size(); j-- > 0;) {
      running = std::min(running, list[j].second);
      mins[j] = running;
    }
  }
  for (const auto& r : req) {
    const auto k = std::size_t{r.from_bank} * view.banks + r.to_bank;
    const auto& list = stored[k];
    const auto it = std::lower_bound(
        list.begin(), list.end(),
        std::make_pair(signal_key(r.from_pos, r.from_phase), std::uint64_t{0}));
    const auto j = static_cast<std::size_t>(it - list.begin());
    if (j >= list.size() || suffix_min[k][j] > wait_key(r.to_pos, r.to_phase)) {
      return "missing synchronization: bank " + std::to_string(r.to_bank) +
             "'s instruction " + std::to_string(r.to_pos + 1) +
             " reads across banks but no sync token orders it after bank " +
             std::to_string(r.from_bank) + "'s instruction " +
             std::to_string(r.from_pos + 1);
    }
  }
  return {};
}

}  // namespace

void derive_sync(ParallelProgram& program) {
  auto req = required_edges(program, StreamView(program));

  // Pareto frontier per ordered bank pair: a requirement is implied by
  // one that signals at a later-or-equal position and waits at an
  // earlier-or-equal one. Sorting by (pair, from_pos desc, to_pos asc)
  // and keeping edges with a strictly new minimum to_pos leaves exactly
  // the undominated antichain — the coalesced signal/wait pairs. Phase
  // offsets fold along: a dropped requirement is always dominated by
  // the pair's most recently kept edge, and at a strictly later signal
  // (or strictly earlier wait) position the stream's kIssueCadence
  // covers any phase offset, so only position ties constrain
  // the survivor's phases (signal phase raised, wait phase lowered to
  // the strictest folded requirement).
  std::sort(req.begin(), req.end(), [](const SyncEdge& x, const SyncEdge& y) {
    if (x.from_bank != y.from_bank) {
      return x.from_bank < y.from_bank;
    }
    if (x.to_bank != y.to_bank) {
      return x.to_bank < y.to_bank;
    }
    if (x.from_pos != y.from_pos) {
      return x.from_pos > y.from_pos;
    }
    return x.to_pos < y.to_pos;
  });
  std::vector<SyncEdge> kept;
  kept.reserve(req.size());
  bool have_pair = false;
  std::uint32_t cur_from = 0;
  std::uint32_t cur_to = 0;
  std::uint32_t min_to = 0;
  for (const auto& e : req) {
    if (!have_pair || e.from_bank != cur_from || e.to_bank != cur_to) {
      have_pair = true;
      cur_from = e.from_bank;
      cur_to = e.to_bank;
      min_to = e.to_pos + 1;  // first edge of the pair always survives
    }
    if (e.to_pos < min_to) {
      min_to = e.to_pos;
      kept.push_back(e);
    } else {
      // Dominated position-wise by the last kept edge of this pair
      // (its from_pos is ≥ ours in the descending sweep, its to_pos is
      // the pair's running minimum). Tighten the survivor's phases
      // where the positions tie so it still implies this requirement.
      auto& k = kept.back();
      if (k.from_pos == e.from_pos) {
        k.from_phase = std::max(k.from_phase, e.from_phase);
      }
      if (k.to_pos == e.to_pos) {
        k.to_phase = std::min(k.to_phase, e.to_phase);
      }
    }
  }
  std::sort(kept.begin(), kept.end());

  program.clear_sync();
  for (const auto& e : kept) {
    program.add_sync(e);
  }
}

std::string check_sync(const ParallelProgram& program) {
  return check_sync(program, StreamView(program));
}

std::string check_sync(const ParallelProgram& program, const StreamView& view) {
  return check_tokens(
      program, view,
      constraint_graph(program, view, 0).fifo_order().size() == view.size());
}

DecoupledTiming decoupled_timing(const ParallelProgram& program,
                                 std::uint32_t bus_width,
                                 std::uint64_t phases_per_instruction) {
  if (phases_per_instruction != kPhases) {
    throw std::invalid_argument(
        "decoupled_timing: the controller runs a " + std::to_string(kPhases) +
        "-phase instruction cycle, not " +
        std::to_string(phases_per_instruction));
  }
  return decoupled_timing(program, StreamView(program), bus_width);
}

DecoupledTiming decoupled_timing(const ParallelProgram& program,
                                 const StreamView& view,
                                 std::uint32_t bus_width) {
  DecoupledTiming t;
  t.bank_busy_cycles.assign(view.banks, 0);
  t.bank_idle_cycles.assign(view.banks, 0);
  t.bank_finish_cycles.assign(view.banks, 0);
  if (view.size() == 0) {
    return t;
  }

  // Constraint edges (constraint_graph), each with the cycle latency
  // from the predecessor's *start* to the earliest successor start. The
  // default full-retirement token (write → fetch) costs the full
  // kPhases; a RAW token that stalls only the consumer's read phase
  // costs 1–2 cycles less. On a bounded bus the grant chain makes the
  // FIFO order below reach bus ops in grant order, the FIFO bus queue
  // that keeps decoupled makespan within the lockstep bound (phase-level
  // latencies are only ever tighter than the full-phase ones the bound
  // was proved for).
  const auto graph = constraint_graph(program, view, bus_width);
  const auto fifo = graph.fifo_order();
  const auto& uses_bus = view.uses_bus;
  if (std::find(uses_bus.begin(), uses_bus.end(), true) != uses_bus.end()) {
    if (!program.has_sync()) {
      throw std::logic_error(
          "decoupled execution: program has cross-bank reads but no sync "
          "tokens; run sched::derive_sync first");
    }
    // Runtime parity with the lockstep machine's inline conflict checks:
    // a token set that misses a hazard would make the execution racy
    // (the functional simulator follows these start times), so the full
    // structural + deadlock + coverage check gates every timing run.
    if (const auto err =
            check_tokens(program, view, fifo.size() == view.size());
        !err.empty()) {
      throw std::logic_error("decoupled execution: " + err);
    }
  }
  if (fifo.size() != view.size()) {
    throw std::logic_error(
        "decoupled execution deadlocked: bank streams and sync tokens form "
        "a cycle");
  }

  // One pass in FIFO order, accumulating dependency-ready times; the
  // arbiter adds its grant order and server wait on top, attributed as
  // bus stall, not dependence.
  std::vector<std::uint64_t> dep_ready(view.size(), 0);
  std::vector<std::uint64_t> start(view.size(), 0);
  // Contention-relaxed twin of the pass: the same event graph (stream,
  // sync, and the arbiter's in-order grant chain) without the
  // width-limited server pool. Its critical path can only be shorter,
  // so the resulting span is an honest makespan lower bound.
  std::vector<std::uint64_t> dep_ready_lb(view.size(), 0);
  std::vector<std::uint64_t> bus_floor_lb(view.size(), 0);
  std::uint64_t lb_span = 0;
  // Earliest issue implied by the bank's own pipelined stream alone; any
  // dependency readiness beyond it came through sync tokens, which is
  // how the per-op wait splits into sync_wait vs bus_wait below.
  std::vector<std::uint64_t> stream_ready(view.size(), 0);
  BusArbiter bus(bus_width);
  for (const auto i : fifo) {
    const auto ready = dep_ready[i];
    const auto s = uses_bus[i] ? bus.grant(ready) : ready;
    t.bus_stall_cycles += s - ready;  // arbiter order + server wait
    start[i] = s;
    const auto finish = s + kPhases;
    const auto s_lb = std::max(dep_ready_lb[i], bus_floor_lb[i]);
    lb_span = std::max(lb_span, s_lb + kPhases);
    const auto b = view.bank_of[i];
    t.bank_finish_cycles[b] = std::max(t.bank_finish_cycles[b], finish);
    for (const auto& [from, j, latency, kind] : graph.succ(i)) {
      if (kind == OpGraph::Kind::bus) {
        bus_floor_lb[j] = std::max(bus_floor_lb[j], s_lb);
      } else {
        dep_ready[j] = std::max(dep_ready[j], s + latency);
        dep_ready_lb[j] = std::max(dep_ready_lb[j], s_lb + latency);
        if (kind == OpGraph::Kind::stream) {
          stream_ready[j] = std::max(stream_ready[j], s + latency);
        }
      }
    }
  }

  for (std::uint32_t b = 0; b < view.banks; ++b) {
    // Busy = the dense pipelined span of the bank's own stream (its
    // controller halts after the last op, it does not tick until the
    // global makespan); idle = the wait cycles actually burned between
    // issue opportunities.
    t.bank_busy_cycles[b] = stream_span(view.len(b));
    t.bank_idle_cycles[b] = t.bank_finish_cycles[b] - t.bank_busy_cycles[b];
    t.makespan_cycles = std::max(t.makespan_cycles, t.bank_finish_cycles[b]);
  }

  // Aggregate bus-throughput floor: every bus op occupies one of the
  // `bus_width` servers for kPhases cycles, all inside the makespan.
  t.makespan_lower_bound = lb_span;
  if (bus_width > 0) {
    const std::uint64_t bus_ops =
        std::count(uses_bus.begin(), uses_bus.end(), true);
    t.makespan_lower_bound =
        std::max(t.makespan_lower_bound,
                 (bus_ops * kPhases + bus_width - 1) / bus_width);
  }

  // Functional execution order: (start, step, bank). Every data hazard
  // is respected: a hazard's producer and consumer sit in different
  // lockstep steps (same-step read/write is a validation error), its
  // covering token forces consumer start ≥ producer start (clamped
  // non-negative latencies; a token at a later signal position adds the
  // stream cadence on top), and a start-time tie resolves
  // producer-first via the step key. That is what lets a phase-level
  // consumer *launch* before its producer retires while the simulator
  // still applies whole ops in a hazard-respecting order.
  std::vector<std::uint32_t> order(view.size());
  for (std::uint32_t i = 0; i < view.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    if (start[x] != start[y]) {
      return start[x] < start[y];
    }
    if (view.step_of[x] != view.step_of[y]) {
      return view.step_of[x] < view.step_of[y];
    }
    return view.bank_of[x] < view.bank_of[y];
  });
  t.order.reserve(view.size());
  t.steps.reserve(view.size());
  t.start_cycles.reserve(view.size());
  t.sync_wait_cycles.reserve(view.size());
  t.bus_wait_cycles.reserve(view.size());
  for (const auto gid : order) {
    t.order.emplace_back(view.bank_of[gid], view.pos(gid));
    t.steps.push_back(view.step_of[gid]);
    t.start_cycles.push_back(start[gid]);
    // The wait before issue splits at dep_ready: up to there the op was
    // held by sync tokens (readiness beyond its own stream's pipelining),
    // past there by the bus (arbiter order + server contention).
    t.sync_wait_cycles.push_back(dep_ready[gid] - stream_ready[gid]);
    t.bus_wait_cycles.push_back(start[gid] - dep_ready[gid]);
  }
  return t;
}

}  // namespace plim::sched
