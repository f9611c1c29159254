#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/machine.hpp"
#include "arch/program.hpp"
#include "circuits/epfl.hpp"
#include "core/compiler.hpp"
#include "driver/driver.hpp"
#include "mig/random.hpp"
#include "sched/decoupled.hpp"
#include "sched/scheduler.hpp"
#include "sched/stream_order.hpp"
#include "sched/text.hpp"
#include "sched/verify.hpp"
#include "util/metrics.hpp"

namespace plim::sched {
namespace {

constexpr std::uint32_t kBankCounts[] = {1, 2, 4, 8};

ScheduleOptions with_banks(std::uint32_t banks) {
  ScheduleOptions opts;
  opts.banks = banks;
  return opts;
}

void expect_decoupled_equivalent(const arch::Program& serial,
                                 const ParallelProgram& parallel,
                                 std::uint64_t seed, unsigned rounds = 4) {
  EXPECT_TRUE(equivalent_to_serial(serial, parallel, rounds, seed,
                                   ExecutionModel::decoupled));
}

// ---- sync derivation --------------------------------------------------------

TEST(DeriveSync, TokensAreMatchedInRangeAndStepForward) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_banks(4));
  const auto& pp = result.program;
  ASSERT_GT(result.stats.transfers, 0u);
  EXPECT_TRUE(pp.has_sync());
  EXPECT_EQ(pp.validate(), "");
  EXPECT_EQ(result.stats.sync_tokens, pp.sync_edges().size());

  // Every token is one signal/wait pair attached to real stream ops.
  const StreamView view(pp);
  for (const auto& e : pp.sync_edges()) {
    ASSERT_LT(e.from_bank, pp.num_banks());
    ASSERT_LT(e.to_bank, pp.num_banks());
    EXPECT_NE(e.from_bank, e.to_bank);
    ASSERT_LT(e.from_pos, view.len(e.from_bank));
    ASSERT_LT(e.to_pos, view.len(e.to_bank));
    // Signal strictly precedes the wait in lockstep step order — the
    // derived token graph is acyclic (deadlock-free) by construction.
    EXPECT_LT(view.step_of[view.id(e.from_bank, e.from_pos)],
              view.step_of[view.id(e.to_bank, e.to_pos)]);
  }
}

/// The stream view against a direct walk of the steps on random compiled
/// programs: op ids ↔ (bank, position) ↔ program order, steps and bus
/// flags all agree.
TEST(StreamView, MatchesADirectWalkOfTheSteps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    mig::RandomMigOptions opts;
    opts.num_pis = 6;
    opts.num_gates = 40 + static_cast<std::uint32_t>(seed * 29 % 60);
    opts.num_pos = 3;
    const auto compiled = core::compile(mig::random_mig(opts, seed));
    for (const auto banks : kBankCounts) {
      auto sopts = with_banks(banks);
      sopts.cost.bus_width = seed % 2;
      const auto result = schedule(compiled.program, sopts);
      const auto& pp = result.program;
      const StreamView view(pp);
      ASSERT_EQ(view.banks, banks);
      ASSERT_EQ(view.size(), pp.num_instructions());
      ASSERT_EQ(view.order.size(), view.size());
      std::vector<std::uint32_t> next_pos(banks, 0);
      std::uint32_t k = 0;
      for (std::uint32_t s = 0; s < pp.num_steps(); ++s) {
        for (const auto& slot : pp.step(s)) {
          const auto pos = next_pos[slot.bank]++;
          const auto id = view.id(slot.bank, pos);
          ASSERT_EQ(view.order[k++], id) << "step " << s;
          EXPECT_EQ(view.bank_of[id], slot.bank);
          EXPECT_EQ(view.pos(id), pos);
          EXPECT_EQ(view.step_of[id], s);
          EXPECT_EQ(view.slot[id], slot);
          const auto [begin, end] = pp.bank_range(slot.bank);
          bool remote = false;
          for (const auto op : {slot.instr.a, slot.instr.b}) {
            remote = remote || (op.is_rram() && (op.address() < begin ||
                                                 op.address() >= end));
          }
          EXPECT_EQ(view.uses_bus[id], remote) << "step " << s;
        }
      }
      for (std::uint32_t b = 0; b < banks; ++b) {
        EXPECT_EQ(view.len(b), next_pos[b]) << "bank " << b;
      }
    }
  }
}

TEST(DeriveSync, CoalescesTransfersBetweenBankPairs) {
  const auto compiled = core::compile(circuits::make_priority(64));
  const auto result = schedule(compiled.program, with_banks(4));
  // Two RM3 instructions per transfer, but coalescing (the Pareto
  // frontier per bank pair) must keep the token count at or below the
  // cross-bank read count.
  EXPECT_LE(result.program.sync_edges().size(),
            std::size_t{2} * result.stats.transfers);
  EXPECT_GT(result.program.sync_edges().size(), 0u);
  EXPECT_EQ(result.program.validate(), "");
}

// ---- hazard walk ------------------------------------------------------------

std::vector<HazardEdge> sorted(std::vector<HazardEdge> edges) {
  const auto key = [](const HazardEdge& e) {
    return std::tie(e.from, e.to, e.from_phase, e.to_phase, e.cross_bank);
  };
  std::sort(edges.begin(), edges.end(),
            [&](const HazardEdge& x, const HazardEdge& y) {
              return key(x) < key(y);
            });
  return edges;
}

std::vector<std::pair<arch::Operand, std::uint32_t>> operand_reads(
    const arch::Instruction& ins) {
  return {{ins.a, kReadAPhase}, {ins.b, kReadBPhase}};
}

/// The cross-bank hazard rule stated per remote read, by brute force
/// over the writes, with no program-order walk: a remote operand read at
/// step s of cell c is ordered after c's last write at a step before s
/// (RAW) and before c's first write at a step after s (WAR), when that
/// write is in another bank.
std::vector<HazardEdge> step_search_reference(const ParallelProgram& p,
                                              const StreamView& view) {
  std::vector<HazardEdge> ref;
  for (std::uint32_t r = 0; r < view.size(); ++r) {
    const auto bank = view.bank_of[r];
    const auto s = view.step_of[r];
    const auto [begin, end] = p.bank_range(bank);
    for (const auto& [op, phase] : operand_reads(view.slot[r].instr)) {
      if (!op.is_rram() || (op.address() >= begin && op.address() < end)) {
        continue;
      }
      std::optional<std::uint32_t> last;
      std::optional<std::uint32_t> next;
      for (std::uint32_t w = 0; w < view.size(); ++w) {
        if (view.slot[w].instr.z != op.address()) {
          continue;
        }
        const auto ws = view.step_of[w];
        if (ws < s && (!last || ws > view.step_of[*last])) {
          last = w;
        }
        if (ws > s && (!next || ws < view.step_of[*next])) {
          next = w;
        }
      }
      if (last && view.bank_of[*last] != bank) {
        ref.push_back({*last, r, kWritePhase, phase, true});
      }
      if (next && view.bank_of[*next] != bank) {
        ref.push_back({r, *next, phase, kWritePhase, true});
      }
    }
  }
  return sorted(std::move(ref));
}

/// The hazard rule stated per cell, by brute force: each cell's accesses
/// in program order (an op reads A, then B, then Z, then writes Z); a
/// read depends on the cell's latest earlier write (RAW), a write on
/// every other op's read since that write (WAR) and on the write itself
/// (WAW).
std::vector<HazardEdge> per_cell_reference(const ParallelProgram& p,
                                           const StreamView& view) {
  struct Access {
    std::uint32_t op;
    std::uint32_t phase;
    bool write;
    bool remote;
  };
  std::vector<std::vector<Access>> by_cell(p.num_rrams());
  for (const auto id : view.order) {
    const auto& ins = view.slot[id].instr;
    const auto [begin, end] = p.bank_range(view.bank_of[id]);
    for (const auto& [op, phase] : operand_reads(ins)) {
      if (op.is_rram()) {
        const auto c = op.address();
        by_cell[c].push_back({id, phase, false, c < begin || c >= end});
      }
    }
    by_cell[ins.z].push_back({id, kWritePhase, false, false});
    by_cell[ins.z].push_back({id, kWritePhase, true, false});
  }
  std::vector<HazardEdge> ref;
  for (const auto& acc : by_cell) {
    for (std::size_t j = 0; j < acc.size(); ++j) {
      std::optional<std::size_t> w;
      for (std::size_t i = j; i-- > 0;) {
        if (acc[i].write) {
          w = i;
          break;
        }
      }
      const auto cross = [&](const Access& read, std::uint32_t writer) {
        return read.remote && view.bank_of[read.op] != view.bank_of[writer];
      };
      if (!acc[j].write) {
        if (w) {
          ref.push_back({acc[*w].op, acc[j].op, kWritePhase, acc[j].phase,
                         cross(acc[j], acc[*w].op)});
        }
        continue;
      }
      for (auto i = w ? *w + 1 : 0; i < j; ++i) {
        if (acc[i].op != acc[j].op) {
          ref.push_back({acc[i].op, acc[j].op, acc[i].phase, kWritePhase,
                         cross(acc[i], acc[j].op)});
        }
      }
      if (w) {
        ref.push_back(
            {acc[*w].op, acc[j].op, kWritePhase, kWritePhase, false});
      }
    }
  }
  return sorted(std::move(ref));
}

/// Calls `check` on decoupled schedules of random MIGs at banks {2, 4, 8},
/// bus widths {0, 1, 2}, with post and compiler placement.
template <class Check>
void for_fuzzed_schedules(Check check) {
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    mig::RandomMigOptions mopts;
    mopts.num_pis = 4 + static_cast<std::uint32_t>(seed % 4);
    mopts.num_gates = 50 + static_cast<std::uint32_t>(seed * 37 % 60);
    mopts.num_pos = 3;
    const auto network = mig::random_mig(mopts, seed);
    const auto flat = core::compile(network);
    for (const auto banks :
         {std::uint32_t{2}, std::uint32_t{4}, std::uint32_t{8}}) {
      core::CompileOptions copts;
      copts.placement_banks = banks;
      const auto placed = core::compile(network, copts);
      ASSERT_TRUE(placed.placement.has_value());
      for (const auto bus :
           {std::uint32_t{0}, std::uint32_t{1}, std::uint32_t{2}}) {
        for (const bool compiler : {false, true}) {
          auto opts = with_banks(banks);
          opts.execution = ExecutionModel::decoupled;
          opts.cost.bus_width = bus;
          if (compiler) {
            opts.placement_hints = placed.placement->cell_bank;
          }
          const auto result =
              schedule(compiler ? placed.program : flat.program, opts);
          ASSERT_EQ(result.program.validate(), "");
          SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                       std::to_string(banks) + " banks, bus " +
                       std::to_string(bus) +
                       (compiler ? ", compiler" : ", post"));
          check(result.program);
        }
      }
    }
  }
}

TEST(HazardWalk, CrossBankEdgesMatchStepSearch) {
  std::size_t cross_bank = 0;
  for_fuzzed_schedules([&](const ParallelProgram& p) {
    const StreamView view(p);
    std::vector<HazardEdge> walk;
    for (const auto& e : hazard_edges(p, view)) {
      if (e.cross_bank) {
        walk.push_back(e);
      }
    }
    EXPECT_EQ(sorted(walk), step_search_reference(p, view));
    cross_bank += walk.size();
  });
  EXPECT_GT(cross_bank, 0u) << "the fuzzed schedules moved no data";
}

TEST(HazardWalk, FullEdgeSetMatchesPerCellRule) {
  for_fuzzed_schedules([](const ParallelProgram& p) {
    const StreamView view(p);
    EXPECT_EQ(sorted(hazard_edges(p, view)), per_cell_reference(p, view));
  });
}

/// The stream reorder list-schedules on the walk's full edge set. voter@2
/// and max@8 (compiler placement) are the golden configurations where it
/// is adopted: their listings must still be the ones
/// tests/golden/sched_listings.txt pins.
TEST(HazardWalk, FullEdgeSetReproducesTheAdoptedReorders) {
  std::ifstream in(std::string(PLIM_SOURCE_DIR) +
                   "/tests/golden/sched_listings.txt");
  ASSERT_TRUE(in.good());
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    golden.push_back(line);
  }
  const auto fnv1a64 = [](const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : text) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    return h;
  };
  for (const auto& [name, banks, compiler] :
       {std::tuple{"voter", 2u, false}, std::tuple{"max", 8u, true}}) {
    Options options;
    options.banks = banks;
    options.verify.enabled = false;
    options.schedule.execution = ExecutionModel::decoupled;
    if (compiler) {
      options.placement = PlacementMode::compiler;
    }
    const auto outcome =
        Driver(options).run(CompileRequest::from_benchmark(name));
    ASSERT_TRUE(outcome.ok()) << outcome.error_summary();
    ASSERT_TRUE(outcome.parallel.has_value());
    EXPECT_GT(outcome.stats.schedule->stream_reorder_saved_cycles, 0u)
        << name << ": the stream reorder no longer fires";
    const StreamView view(*outcome.parallel);
    EXPECT_EQ(sorted(hazard_edges(*outcome.parallel, view)),
              per_cell_reference(*outcome.parallel, view));
    char line[160];
    std::snprintf(line, sizeof line, "%s banks=%u decoupled bus=0 %s %016llx",
                  name, banks, compiler ? "compiler" : "post",
                  static_cast<unsigned long long>(
                      fnv1a64(to_text(*outcome.parallel))));
    EXPECT_NE(std::find(golden.begin(), golden.end(), line), golden.end())
        << line;
  }
}

// ---- decoupled equivalence --------------------------------------------------

TEST(DecoupledEquivalence, RandomMigs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    mig::RandomMigOptions opts;
    opts.num_pis = 5 + static_cast<std::uint32_t>(seed % 3);
    opts.num_gates = 30 + static_cast<std::uint32_t>(seed * 17 % 50);
    opts.num_pos = 3;
    const auto network = mig::random_mig(opts, seed);
    const auto compiled = core::compile(network);
    for (const auto banks : kBankCounts) {
      const auto result = schedule(compiled.program, with_banks(banks));
      ASSERT_EQ(result.program.validate(), "") << banks << " banks";
      expect_decoupled_equivalent(compiled.program, result.program,
                                  seed * 100 + banks);
    }
  }
}

TEST(DecoupledEquivalence, ComponentCircuits) {
  const auto migs = {
      circuits::make_adder(8),
      circuits::make_dec(4),
      circuits::make_priority(16),
      circuits::make_ctrl(),
      circuits::make_int2float(),
  };
  std::uint64_t seed = 4242;
  for (const auto& network : migs) {
    const auto compiled = core::compile(network);
    for (const auto banks : kBankCounts) {
      const auto result = schedule(compiled.program, with_banks(banks));
      expect_decoupled_equivalent(compiled.program, result.program,
                                  seed++ + banks);
    }
  }
}

TEST(DecoupledEquivalence, BoundedBusSchedules) {
  const auto compiled = core::compile(circuits::make_cavlc());
  for (const auto width : {std::uint32_t{1}, std::uint32_t{2}}) {
    auto opts = with_banks(4);
    opts.cost.bus_width = width;
    const auto result = schedule(compiled.program, opts);
    ASSERT_EQ(result.program.validate(), "");
    expect_decoupled_equivalent(compiled.program, result.program,
                                900 + width);
  }
}

// ---- cost model -------------------------------------------------------------

TEST(CostModel, PhaseLatencyPricesEveryHazard) {
  // RAW: the consumer's operand phase waits for the producer's write.
  EXPECT_EQ(phase_latency(kWritePhase, kReadAPhase), 3u);
  EXPECT_EQ(phase_latency(kWritePhase, kReadBPhase), 2u);
  // WAR: the overwrite commits in its write phase, after either read.
  EXPECT_EQ(phase_latency(kReadAPhase, kWritePhase), 0u);
  EXPECT_EQ(phase_latency(kReadBPhase, kWritePhase), 0u);
  // WAW: the second write lands the cycle after the first.
  EXPECT_EQ(phase_latency(kWritePhase, kWritePhase), 1u);
  // The full write → fetch handshake costs the whole instruction cycle.
  EXPECT_EQ(phase_latency(kWritePhase, 0), kPhases);
}

TEST(BusArbiter, UnboundedBusGrantsAtTheReadyTime) {
  // Width 0: no grant order and no contention, whatever order the
  // grants come in.
  BusArbiter bus(0);
  for (const std::uint64_t ready : {9u, 2u, 2u, 40u, 0u, 7u}) {
    EXPECT_EQ(bus.grant(ready), ready);
  }
}

TEST(BusArbiter, BoundedBusGrantsInOrderWithinItsWidth) {
  std::mt19937_64 rng(7);
  BusArbiter bus;
  for (const std::uint32_t width : {1u, 2u, 3u}) {
    bus.reset(width);
    std::vector<std::uint64_t> starts;
    for (int k = 0; k < 200; ++k) {
      const auto ready = rng() % 300;
      const auto s = bus.grant(ready);
      EXPECT_GE(s, ready);
      if (!starts.empty()) {
        EXPECT_GE(s, starts.back()) << "width " << width << ", grant " << k;
      }
      starts.push_back(s);
    }
    // A grant holds its server for kPhases cycles: at most `width`
    // grants overlap at any cycle (checking each start suffices).
    for (const auto t : starts) {
      const auto in_flight =
          std::count_if(starts.begin(), starts.end(), [&](std::uint64_t s) {
            return s <= t && t < s + kPhases;
          });
      EXPECT_LE(in_flight, static_cast<std::ptrdiff_t>(width))
          << "width " << width << ", cycle " << t;
    }
  }
}

TEST(DecoupledTiming, RejectsAForeignPhaseCount) {
  // Token phases index the controller's own instruction cycle, so the
  // timing runs on that cycle only.
  const auto compiled = core::compile(circuits::make_ctrl());
  const auto result = schedule(compiled.program, with_banks(2));
  EXPECT_NO_THROW((void)decoupled_timing(result.program, 0, kPhases));
  for (const std::uint64_t phases : {0u, 3u, 5u}) {
    EXPECT_THROW((void)decoupled_timing(result.program, 0, phases),
                 std::invalid_argument)
        << phases << " phases";
  }
}

// ---- cycle accounting -------------------------------------------------------

TEST(DecoupledTiming, NeverExceedsLockstepBound) {
  const auto migs = {circuits::make_int2float(), circuits::make_cavlc(),
                     circuits::make_priority(64)};
  for (const auto& network : migs) {
    const auto compiled = core::compile(network);
    for (const auto banks : kBankCounts) {
      const auto result = schedule(compiled.program, with_banks(banks));
      EXPECT_LE(result.stats.decoupled_cycles, result.stats.lockstep_cycles);
      EXPECT_EQ(result.stats.lockstep_cycles,
                std::uint64_t{result.stats.steps} * kPhases);
      // The pipelined stream span of the busiest bank is a hard floor.
      std::uint32_t max_load = 0;
      for (const auto load : result.stats.bank_load) {
        max_load = std::max(max_load, load);
      }
      if (max_load > 0) {
        EXPECT_GE(result.stats.decoupled_cycles,
                  std::uint64_t{max_load - 1} * (kPhases - 1) + kPhases);
      }
    }
  }
}

TEST(DecoupledTiming, BoundHoldsOnBusBoundedSchedules) {
  const auto compiled = core::compile(circuits::make_priority(64));
  for (const auto width : {std::uint32_t{1}, std::uint32_t{2}}) {
    for (const auto banks : {std::uint32_t{4}, std::uint32_t{8}}) {
      auto opts = with_banks(banks);
      opts.cost.bus_width = width;
      const auto result = schedule(compiled.program, opts);
      EXPECT_LE(result.stats.decoupled_cycles, result.stats.lockstep_cycles)
          << banks << " banks, bus " << width;
    }
  }
}

TEST(DecoupledTiming, RealCircuitsCutCyclesByTenPercent) {
  // The headline of the decoupled model: independent pipelined
  // controllers beat the global step clock by well over 10% on real
  // circuits (the EPFL-wide claim is barred in bench/sched_speedup).
  for (const auto& network :
       {circuits::make_int2float(), circuits::make_priority(64)}) {
    const auto compiled = core::compile(network);
    const auto result = schedule(compiled.program, with_banks(4));
    EXPECT_GE(result.stats.decoupled_speedup, 1.1);
  }
}

TEST(DecoupledTiming, BusArbiterAccountsStalls) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_banks(4));
  const auto& pp = result.program;
  const auto unbounded = decoupled_timing(pp, 0, kPhases);
  const auto narrow = decoupled_timing(pp, 1, kPhases);
  // A width-1 bus can only delay the same streams, and the delay is
  // visible as stall cycles.
  EXPECT_GE(narrow.makespan_cycles, unbounded.makespan_cycles);
  EXPECT_EQ(unbounded.bus_stall_cycles, 0u);
  EXPECT_GT(narrow.bus_stall_cycles, 0u);
}

TEST(DecoupledTiming, BusyPlusIdleEqualsFinishPerBank) {
  const auto compiled = core::compile(circuits::make_cavlc());
  const auto result = schedule(compiled.program, with_banks(4));
  const auto timing = decoupled_timing(result.program, 0, kPhases);
  for (std::uint32_t b = 0; b < 4; ++b) {
    EXPECT_EQ(timing.bank_busy_cycles[b] + timing.bank_idle_cycles[b],
              timing.bank_finish_cycles[b])
        << "bank " << b;
    EXPECT_LE(timing.bank_finish_cycles[b], timing.makespan_cycles);
  }
  // The schedule stats carry the same per-bank idle view.
  ASSERT_EQ(result.stats.bank_idle_cycles.size(), 4u);
}

TEST(DecoupledTiming, SingleBankMatchesSerialStream) {
  const auto compiled = core::compile(circuits::make_ctrl());
  const auto result = schedule(compiled.program, with_banks(1));
  EXPECT_FALSE(result.program.has_sync());
  // One pipelined stream: (n − 1) × (phases − 1) + phases.
  const auto n = result.stats.parallel_instructions;
  EXPECT_EQ(result.stats.decoupled_cycles,
            std::uint64_t{n - 1} * (kPhases - 1) + kPhases);
}

// ---- decoupled-native scheduling --------------------------------------------

TEST(DecoupledNative, FuzzedMakespanSchedulesStaySound) {
  // Phase-level tokens + stream reordering + makespan-first refinement
  // must preserve the hard guarantees on arbitrary circuits: the
  // schedule validates (deadlock-free, every hazard covered), the
  // timing stays between its own lower bound and the lockstep bound,
  // and both machine models compute the serial program's function.
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    mig::RandomMigOptions mopts;
    mopts.num_pis = 4 + static_cast<std::uint32_t>(seed % 4);
    mopts.num_gates = 40 + static_cast<std::uint32_t>(seed * 23 % 60);
    mopts.num_pos = 2 + static_cast<std::uint32_t>(seed % 3);
    const auto network = mig::random_mig(mopts, seed);
    const auto compiled = core::compile(network);
    for (const auto banks :
         {std::uint32_t{2}, std::uint32_t{4}, std::uint32_t{8}}) {
      auto opts = with_banks(banks);
      opts.execution = ExecutionModel::decoupled;
      opts.objective = Objective::makespan;
      const auto result = schedule(compiled.program, opts);
      ASSERT_EQ(result.program.validate(), "")
          << "seed " << seed << ", " << banks << " banks";
      EXPECT_LE(result.stats.decoupled_cycles, result.stats.lockstep_cycles);
      EXPECT_LE(result.stats.makespan_lower_bound,
                result.stats.decoupled_cycles);
      expect_decoupled_equivalent(compiled.program, result.program,
                                  seed * 1000 + banks);
      EXPECT_TRUE(equivalent_to_serial(compiled.program, result.program, 4,
                                       seed * 1000 + banks,
                                       ExecutionModel::lockstep));
    }
  }
}

TEST(DecoupledNative, PhaseLevelTokensNeverSlowTheClock) {
  // Regression for the phase-level sync contract: over the same streams,
  // tokens signaled at the producer's hazard phase and waited at the
  // consumer's read phase can only shave cycles off the conservative
  // whole-instruction (w -> f) form they generalize.
  const auto migs = {circuits::make_int2float(), circuits::make_cavlc(),
                     circuits::make_priority(64)};
  for (const auto& network : migs) {
    const auto compiled = core::compile(network);
    const auto result = schedule(compiled.program, with_banks(4));
    ASSERT_TRUE(result.program.has_sync());
    const auto phase_level = decoupled_timing(result.program, 0, kPhases);
    auto conservative = result.program;
    const auto edges = conservative.sync_edges();
    conservative.clear_sync();
    for (auto e : edges) {
      e.from_phase = kPhases - 1;
      e.to_phase = 0;
      conservative.add_sync(e);
    }
    ASSERT_EQ(conservative.validate(), "");
    const auto full = decoupled_timing(conservative, 0, kPhases);
    EXPECT_LE(phase_level.makespan_cycles, full.makespan_cycles);
    EXPECT_LT(phase_level.makespan_cycles, full.makespan_cycles)
        << "phase-level tokens bought nothing on a real circuit";
  }
}

TEST(StreamReorder, HoistsACriticalProducer) {
  // Bank 0 parks the producer of bank 1's whole dependent chain at the
  // end of its stream; event-driven list scheduling must hoist it to
  // the front, collapsing bank 1's wait — fewer steps AND a smaller
  // makespan, so the accept guard adopts the candidate.
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 8);
  p.set_bank_range(1, 8, 16);
  const auto filler = [](std::uint32_t z) {
    return Slot{0, {arch::Operand::constant(false),
                    arch::Operand::constant(true), z}, false};
  };
  for (std::uint32_t z = 1; z <= 4; ++z) {
    p.begin_step();
    p.add_slot(filler(z));
  }
  p.begin_step();
  p.add_slot(filler(0));  // the producer, last in bank 0's stream
  p.begin_step();
  p.add_slot({1, {arch::Operand::rram(0), arch::Operand::constant(false), 8},
              true});
  for (std::uint32_t z = 9; z <= 12; ++z) {
    p.begin_step();
    p.add_slot({1, {arch::Operand::rram(z - 1), arch::Operand::constant(false),
                    z}, false});
  }
  derive_sync(p);
  ASSERT_EQ(p.validate(), "");
  const auto steps_before = p.num_steps();
  const auto before = decoupled_timing(p, 0, kPhases);

  const auto r = reorder_streams(p);
  EXPECT_TRUE(r.applied);
  EXPECT_EQ(r.makespan_before, before.makespan_cycles);
  EXPECT_LT(r.makespan_after, r.makespan_before);
  EXPECT_EQ(r.saved_cycles, r.makespan_before - r.makespan_after);
  ASSERT_EQ(p.validate(), "");
  EXPECT_LE(p.num_steps(), steps_before);
  EXPECT_EQ(decoupled_timing(p, 0, kPhases).makespan_cycles,
            r.makespan_after);
}

TEST(StreamReorder, KeepsAnAlreadyTightScheduleUntouched) {
  // Makespan-first refinement drives unbounded-bus schedules onto their
  // critical-path floor; the reorder pass must then leave the program
  // bit-identical (its accept guard demands a strict improvement).
  const auto compiled = core::compile(circuits::make_int2float());
  auto opts = with_banks(4);
  opts.execution = ExecutionModel::decoupled;
  auto result = schedule(compiled.program, opts);
  ASSERT_EQ(result.stats.decoupled_cycles, result.stats.makespan_lower_bound);
  const auto text = to_text(result.program);
  const auto r = reorder_streams(result.program);
  EXPECT_FALSE(r.applied);
  EXPECT_EQ(r.saved_cycles, 0u);
  EXPECT_EQ(to_text(result.program), text);
}

TEST(StreamReorder, HeapWorkIsLinearithmic) {
  // Two banks of mutually independent ops: every op of a bank is ready
  // at once. The issue loop must still push and pop each op a constant
  // number of times (pending heap, then ready heap), not re-scan the
  // bank's whole ready set on every issue.
  constexpr std::uint32_t kPerBank = 512;
  ParallelProgram p(2);
  p.set_bank_range(0, 0, kPerBank);
  p.set_bank_range(1, kPerBank, 2 * kPerBank);
  for (std::uint32_t k = 0; k < kPerBank; ++k) {
    p.begin_step();
    for (std::uint32_t b = 0; b < 2; ++b) {
      p.add_slot({b, {arch::Operand::constant(false),
                      arch::Operand::constant(true), b * kPerBank + k},
                  false});
    }
  }
  ASSERT_EQ(p.validate(), "");

  auto& reg = util::MetricsRegistry::global();
  reg.reset();
  reg.set_enabled(true);
  reorder_streams(p);
  const auto heap_ops = reg.counter("sched.stream_order.heap_ops");
  reg.set_enabled(false);
  reg.reset();
  ASSERT_EQ(p.validate(), "");
  EXPECT_GT(heap_ops, 0u);
  EXPECT_LE(heap_ops, 4u * 2 * kPerBank);
}

// ---- machine execution ------------------------------------------------------

TEST(RunDecoupled, MatchesLockstepOutputsAndTiming) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_banks(4));
  std::vector<std::uint64_t> in(compiled.program.num_inputs());
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = 0x9e3779b97f4a7c15ull * (i + 1);
  }
  arch::Machine lockstep;
  arch::Machine decoupled;
  EXPECT_EQ(lockstep.run_parallel_words(result.program, in),
            decoupled.run_decoupled_words(result.program, in));
  EXPECT_EQ(lockstep.cycles(), result.stats.lockstep_cycles);
  EXPECT_EQ(decoupled.cycles(), result.stats.decoupled_cycles);
  EXPECT_EQ(decoupled.instructions_executed(),
            result.stats.parallel_instructions);
  // Decoupled controllers halt at their own finish: each bank's total
  // occupancy (busy + waits) stays within the lockstep clock, which
  // ticks every bank to the end of the program.
  ASSERT_EQ(decoupled.bank_idle_cycles().size(), 4u);
  for (std::uint32_t b = 0; b < 4; ++b) {
    EXPECT_LE(decoupled.bank_busy_cycles()[b] + decoupled.bank_idle_cycles()[b],
              lockstep.bank_busy_cycles()[b] + lockstep.bank_idle_cycles()[b])
        << "bank " << b;
  }
}

TEST(RunDecoupled, RejectsCrossBankReadsWithoutSync) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.begin_step();
  p.add_slot({1, {arch::Operand::rram(0), arch::Operand::constant(false), 1},
              true});
  ASSERT_EQ(p.validate(), "");  // fine as a lockstep program
  arch::Machine machine;
  EXPECT_THROW((void)machine.run_decoupled(p, {}), std::logic_error);
  // With the derived tokens the same program runs decoupled.
  derive_sync(p);
  ASSERT_TRUE(p.has_sync());
  ASSERT_EQ(p.validate(), "");
  EXPECT_NO_THROW((void)machine.run_decoupled(p, {}));
}

TEST(RunDecoupled, DeadlockIsAValidationErrorAndThrows) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  for (int s = 0; s < 2; ++s) {
    p.begin_step();
    p.add_slot({0, {arch::Operand::constant(false),
                    arch::Operand::constant(true), 0}, false});
    p.add_slot({1, {arch::Operand::constant(false),
                    arch::Operand::constant(true), 1}, false});
  }
  // b0's first op waits on b1's second and vice versa: a cycle.
  p.add_sync({0, 1, 1, 0});
  p.add_sync({1, 1, 0, 0});
  EXPECT_NE(p.validate().find("deadlock"), std::string::npos);
  arch::Machine machine;
  EXPECT_THROW((void)machine.run_decoupled(p, {}), std::logic_error);
}

TEST(ParallelValidate, DetectsMissingSyncCoverage) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.add_slot({1, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 1}, false});
  p.begin_step();
  p.add_slot({1, {arch::Operand::rram(0), arch::Operand::constant(false), 1},
              true});
  // A token in the wrong direction: the transfer's RAW hazard on bank
  // 0's write stays uncovered — a validation error, and the decoupled
  // runner refuses to race through it at run time too.
  p.add_sync({1, 0, 0, 0});
  EXPECT_NE(p.validate().find("missing synchronization"), std::string::npos);
  arch::Machine machine;
  EXPECT_THROW((void)machine.run_decoupled(p, {}), std::logic_error);
}

TEST(ParallelValidate, RejectsMalformedSyncEndpoints) {
  ParallelProgram p(2);
  p.set_bank_range(0, 0, 1);
  p.set_bank_range(1, 1, 2);
  p.begin_step();
  p.add_slot({0, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 0}, false});
  p.add_slot({1, {arch::Operand::constant(false),
                  arch::Operand::constant(true), 1}, false});

  p.add_sync({0, 0, 5, 0});  // no such bank
  EXPECT_NE(p.validate().find("no such bank"), std::string::npos);
  p.clear_sync();
  p.add_sync({0, 0, 0, 0});  // self-loop
  EXPECT_NE(p.validate().find("itself"), std::string::npos);
  p.clear_sync();
  p.add_sync({0, 7, 1, 0});  // beyond the stream
  EXPECT_NE(p.validate().find("beyond"), std::string::npos);
}

// ---- text round trip --------------------------------------------------------

TEST(ParallelText, RoundTripsSyncTokens) {
  const auto compiled = core::compile(circuits::make_int2float());
  const auto result = schedule(compiled.program, with_banks(3));
  const auto text = to_text(result.program);
  EXPECT_NE(text.find("# sync t1:"), std::string::npos);
  const auto parsed = parse_parallel_program(text);
  EXPECT_EQ(parsed.sync_edges(), result.program.sync_edges());
  EXPECT_EQ(to_text(parsed), text);
  expect_decoupled_equivalent(compiled.program, parsed, 31007);
}

TEST(ParallelText, RejectsUnmatchedSyncTokens) {
  const std::string header =
      "# parallel banks 2\n"
      "# bank 0 @X1..@X1\n"
      "# bank 1 @X2..@X2\n"
      "01: b0: 0, 1, @X1 | b1: 0, 1, @X2\n";
  // Half a pair: no wait side.
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@1.w ->\n"),
      std::runtime_error);
  // No signal -> wait arrow at all.
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@1.w b1@1.f\n"),
      std::runtime_error);
  // Token ids must be 1..N in order (a skipped id is a lost pair).
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t2: b0@1.w -> b1@1.f\n"),
      std::runtime_error);
  // 0-based positions are malformed.
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@0.w -> b1@1.f\n"),
      std::runtime_error);
  // Valid shape but out-of-range position fails validation.
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@9.w -> b1@1.f\n"),
      std::runtime_error);
  // A well-formed token parses.
  EXPECT_NO_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@1.w -> b1@1.f\n"));
  // Every endpoint names its phase: the bare form is rejected.
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@1 -> b1@1\n"),
      std::runtime_error);
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@1.w -> b1@1\n"),
      std::runtime_error);
  EXPECT_THROW(
      (void)parse_parallel_program(header + "# sync t1: b0@1.x -> b1@1.f\n"),
      std::runtime_error);
}

}  // namespace
}  // namespace plim::sched
