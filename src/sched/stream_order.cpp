#include "sched/stream_order.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sched/decoupled.hpp"
#include "util/metrics.hpp"

namespace plim::sched {

StreamOrderResult reorder_streams(ParallelProgram& program) {
  StreamOrderResult result;
  const auto bus_width = program.bus_width();
  const StreamView view(program);
  result.timing = decoupled_timing(program, view, bus_width);
  result.makespan_before = result.timing.makespan_cycles;
  result.makespan_after = result.timing.makespan_cycles;
  const auto total = view.size();
  const auto banks = view.banks;
  if (total == 0 || banks == 0) {
    return result;
  }
  // The ops renumbered in program order (op k is view id view.order[k]),
  // the numbering the issue heaps break ties by; every hazard edge points
  // forward in it.
  const auto bank_of = [&](std::uint32_t k) {
    return view.bank_of[view.order[k]];
  };
  const auto uses_bus = [&](std::uint32_t k) {
    return view.uses_bus[view.order[k]];
  };
  std::vector<std::uint32_t> rank(total);
  for (std::uint32_t k = 0; k < total; ++k) {
    rank[view.order[k]] = k;
  }
  const auto edges = hazard_edges(program, view);
  std::vector<OpGraph::Arc> arcs;
  arcs.reserve(edges.size());
  for (const auto& e : edges) {
    arcs.push_back({rank[e.from], rank[e.to],
                    phase_latency(e.from_phase, e.to_phase)});
  }
  const OpGraph graph(total, arcs);
  auto indeg = graph.indegree();

  // Critical-path height (program order is a reverse-topological walk
  // when traversed backwards): the list scheduler's priority.
  std::vector<std::uint64_t> height(total, kPhases);
  for (std::uint32_t i = total; i-- > 0;) {
    for (const auto& a : graph.succ(i)) {
      height[i] = std::max(height[i], kPhases + a.latency + height[a.to]);
    }
  }

  // Event-driven greedy list scheduling per bank: every bank issues at
  // its kIssueCadence, hazards gate dep_ready, bus ops additionally go
  // through the BusArbiter in issue order — the same cost model
  // decoupled_timing charges, so minimizing start times here minimizes
  // the modelled makespan. Among the ops a bank could issue at its
  // earliest feasible time, the one with the greatest critical-path
  // height goes first; across banks, the globally earliest feasible
  // issue goes first (ties to the lower bank index).
  //
  // Two heaps per bank keep this O(n log n): `pending` holds released
  // ops keyed by dep_ready, and feeds `ready` — ops whose dep_ready has
  // passed the bank's clock, ordered by (height desc, flat id asc). A
  // bank's clock only moves forward, so an op never leaves `ready`
  // except by issuing: each op is pushed and popped once per heap.
  std::vector<std::uint64_t> dep_ready(total, 0);
  std::vector<std::uint64_t> bank_free(banks, 0);
  using Pending = std::pair<std::uint64_t, std::uint32_t>;  // (dep_ready, id)
  const auto pending_after = [](const Pending& x, const Pending& y) {
    return x > y;  // min-heap on (dep_ready, id)
  };
  const auto ready_below = [&](std::uint32_t x, std::uint32_t y) {
    // max-heap: tallest first, then the lower flat id
    return height[x] != height[y] ? height[x] < height[y] : x > y;
  };
  std::vector<std::vector<Pending>> pending(banks);
  std::vector<std::vector<std::uint32_t>> ready(banks);
  std::uint64_t heap_ops = 0;
  const auto release = [&](std::uint32_t i) {
    auto& heap = pending[bank_of(i)];
    heap.emplace_back(dep_ready[i], i);
    std::push_heap(heap.begin(), heap.end(), pending_after);
    ++heap_ops;
  };
  // Moves every pending op of bank `b` startable by `time` into `ready`.
  const auto promote = [&](std::uint32_t b, std::uint64_t time) {
    auto& from = pending[b];
    auto& to = ready[b];
    while (!from.empty() && from.front().first <= time) {
      std::pop_heap(from.begin(), from.end(), pending_after);
      to.push_back(from.back().second);
      from.pop_back();
      std::push_heap(to.begin(), to.end(), ready_below);
      heap_ops += 2;
    }
  };
  for (std::uint32_t i = 0; i < total; ++i) {
    if (indeg[i] == 0) {
      release(i);
    }
  }
  BusArbiter bus(bus_width);
  std::vector<std::uint32_t> issue_order;
  issue_order.reserve(total);
  while (issue_order.size() < total) {
    // The bank that can issue earliest: at its own clock when something
    // is ready there, else when its first pending op becomes ready.
    std::uint32_t best_bank = banks;
    std::uint64_t best_time = 0;
    for (std::uint32_t b = 0; b < banks; ++b) {
      promote(b, bank_free[b]);
      std::uint64_t t = 0;
      if (!ready[b].empty()) {
        t = bank_free[b];
      } else if (!pending[b].empty()) {
        t = pending[b].front().first;
      } else {
        continue;
      }
      if (best_bank == banks || t < best_time) {
        best_bank = b;
        best_time = t;
      }
    }
    if (best_bank == banks) {
      // Hazard graph had a cycle — cannot happen for a program built
      // from a valid serialization; bail out rather than loop forever.
      return result;
    }
    // Tallest candidate among this bank's ops startable at best_time.
    promote(best_bank, best_time);
    auto& heap = ready[best_bank];
    std::pop_heap(heap.begin(), heap.end(), ready_below);
    const auto pick = heap.back();
    heap.pop_back();
    ++heap_ops;
    const auto start = uses_bus(pick) ? bus.grant(best_time) : best_time;
    bank_free[best_bank] = start + kIssueCadence;
    issue_order.push_back(pick);
    for (const auto& a : graph.succ(pick)) {
      dep_ready[a.to] = std::max(dep_ready[a.to], start + a.latency);
      if (--indeg[a.to] == 0) {
        release(a.to);
      }
    }
  }
  if (auto& reg = util::MetricsRegistry::global(); reg.enabled()) {
    reg.counter_add("sched.stream_order.heap_ops", heap_ops);
  }

  // Repack the issue order into lockstep steps — the canonical storage.
  // The issue order is topological over the hazard graph, so pushing
  // step constraints forward along hazard edges keeps every read/write
  // pair in distinct steps (what validate() demands); bus ops
  // additionally bump past steps whose declared bus width is full.
  std::vector<std::uint32_t> min_step(total, 0);
  std::vector<std::uint32_t> step_of(total, 0);
  std::vector<std::uint32_t> bank_last(banks, 0);
  std::vector<bool> bank_issued(banks, false);
  std::vector<std::uint32_t> step_bus;  // bus ops packed per step
  for (const auto i : issue_order) {
    const auto b = bank_of(i);
    auto st = min_step[i];
    if (bank_issued[b]) {
      st = std::max(st, bank_last[b] + 1);
    }
    if (uses_bus(i) && bus_width > 0) {
      while (st < step_bus.size() && step_bus[st] >= bus_width) {
        ++st;
      }
    }
    if (step_bus.size() <= st) {
      step_bus.resize(std::size_t{st} + 1, 0);
    }
    if (uses_bus(i)) {
      ++step_bus[st];
    }
    step_of[i] = st;
    bank_last[b] = st;
    bank_issued[b] = true;
    for (const auto& a : graph.succ(i)) {
      min_step[a.to] = std::max(min_step[a.to], st + 1);
    }
  }

  // Rebuild and judge. Steps are compacted (bus bumping can skip step
  // indices); slots keep ascending bank order within each step.
  std::vector<std::uint32_t> by_step(total);
  for (std::uint32_t i = 0; i < total; ++i) {
    by_step[i] = i;
  }
  std::sort(by_step.begin(), by_step.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              if (step_of[x] != step_of[y]) {
                return step_of[x] < step_of[y];
              }
              return bank_of(x) < bank_of(y);
            });
  ParallelProgram candidate(program.num_banks());
  for (std::uint32_t b = 0; b < program.num_banks(); ++b) {
    const auto [begin, end] = program.bank_range(b);
    candidate.set_bank_range(b, begin, end);
  }
  candidate.set_bus_width(program.bus_width());
  for (std::uint32_t i = 0; i < program.num_inputs(); ++i) {
    candidate.add_input(program.input_name(i));
  }
  for (std::uint32_t i = 0; i < program.num_outputs(); ++i) {
    candidate.add_output(program.output_name(i), program.output_cell(i));
  }
  bool open = false;
  std::uint32_t open_step = 0;
  for (const auto i : by_step) {
    if (!open || step_of[i] != open_step) {
      candidate.begin_step();
      open = true;
      open_step = step_of[i];
    }
    candidate.add_slot(view.slot[view.order[i]]);
  }
  derive_sync(candidate);
  if (!candidate.validate().empty()) {
    return result;  // defensive: never adopt a program validate() rejects
  }
  auto after = decoupled_timing(candidate, StreamView(candidate), bus_width);
  if (after.makespan_cycles >= result.makespan_before ||
      candidate.num_steps() > program.num_steps()) {
    return result;
  }
  result.applied = true;
  result.makespan_after = after.makespan_cycles;
  result.saved_cycles = result.makespan_before - after.makespan_cycles;
  result.timing = std::move(after);
  program = std::move(candidate);
  return result;
}

}  // namespace plim::sched
