#include "arch/machine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sched/decoupled.hpp"
#include "sched/parallel_program.hpp"
#include "sched/timeline.hpp"

namespace plim::arch {

namespace {

/// The 64-lane array state of one run, the execution core the serial,
/// lockstep and decoupled runs share: cells seeded from `initial` (the
/// rest start at 0), operand reads against them and the run's inputs,
/// and commits that count every cell write and instruction.
class Lanes {
 public:
  template <class P>
  Lanes(const P& program, const std::vector<std::uint64_t>& inputs,
        const std::vector<std::uint64_t>& initial,
        std::vector<std::uint64_t>& write_counts, std::uint64_t& instructions,
        const char* caller)
      : inputs_(inputs),
        cells_(program.num_rrams(), 0),
        write_counts_(write_counts),
        instructions_(instructions) {
    if (inputs.size() != program.num_inputs()) {
      throw std::invalid_argument(std::string(caller) +
                                  ": wrong input count");
    }
    std::copy_n(initial.begin(), std::min(initial.size(), cells_.size()),
                cells_.begin());
    if (write_counts_.size() < cells_.size()) {
      write_counts_.resize(cells_.size(), 0);
    }
  }

  /// The RM3 result of `ins` against the current cell state.
  [[nodiscard]] std::uint64_t eval(const Instruction& ins) const {
    return rm3_words(read(ins.a), read(ins.b), cells_[ins.z]);
  }
  /// Writes one instruction's result to cell `z`.
  void commit(std::uint32_t z, std::uint64_t value) {
    cells_[z] = value;
    ++write_counts_[z];
    ++instructions_;
  }
  /// Evaluates and commits `ins` at once (serial and decoupled runs).
  void apply(const Instruction& ins) { commit(ins.z, eval(ins)); }

  template <class P>
  [[nodiscard]] std::vector<std::uint64_t> outputs(const P& program) const {
    std::vector<std::uint64_t> out(program.num_outputs());
    for (std::uint32_t i = 0; i < program.num_outputs(); ++i) {
      out[i] = cells_[program.output_cell(i)];
    }
    return out;
  }

 private:
  [[nodiscard]] std::uint64_t read(Operand op) const {
    switch (op.kind()) {
      case OperandKind::constant:
        return op.constant_value() ? ~std::uint64_t{0} : 0;
      case OperandKind::input:
        return inputs_[op.address()];
      case OperandKind::rram:
        return cells_[op.address()];
    }
    return 0;  // unreachable
  }

  const std::vector<std::uint64_t>& inputs_;
  std::vector<std::uint64_t> cells_;
  std::vector<std::uint64_t>& write_counts_;
  std::uint64_t& instructions_;
};

/// Runs a 64-lane `run_words(inputs, initial)` on single-bit vectors:
/// every bit becomes an all-ones or all-zeros word, and lane 0 of each
/// output word is the result.
template <class RunWords>
std::vector<bool> run_bits(const std::vector<bool>& inputs,
                           const std::vector<bool>& initial,
                           RunWords run_words) {
  const auto words = [](const std::vector<bool>& bits) {
    std::vector<std::uint64_t> w(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      w[i] = bits[i] ? ~std::uint64_t{0} : 0;
    }
    return w;
  };
  const auto out_words = run_words(words(inputs), words(initial));
  std::vector<bool> out(out_words.size());
  for (std::size_t i = 0; i < out_words.size(); ++i) {
    out[i] = (out_words[i] & 1) != 0;
  }
  return out;
}

}  // namespace

std::vector<std::uint64_t> Machine::run_words(
    const Program& program, const std::vector<std::uint64_t>& inputs,
    const std::vector<std::uint64_t>& initial) {
  Lanes lanes(program, inputs, initial, write_counts_, instructions_,
              "Machine::run_words");
  for (const auto& ins : program.instructions()) {
    lanes.apply(ins);
    cycles_ += phases_per_instruction;
  }
  return lanes.outputs(program);
}

std::vector<bool> Machine::run(const Program& program,
                               const std::vector<bool>& inputs,
                               const std::vector<bool>& initial) {
  return run_bits(inputs, initial, [&](const auto& in, const auto& init) {
    return run_words(program, in, init);
  });
}

std::vector<std::uint64_t> Machine::run_parallel_words(
    const sched::ParallelProgram& program,
    const std::vector<std::uint64_t>& inputs,
    const std::vector<std::uint64_t>& initial) {
  Lanes lanes(program, inputs, initial, write_counts_, instructions_,
              "Machine::run_parallel_words");

  // Scratch for the two-phase step execution: read everything against the
  // pre-step state, then commit all writes at once.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> writes;
  std::vector<std::uint32_t> step_written(program.num_rrams(), 0);
  std::uint32_t step_stamp = 0;

  const auto declared_bus = program.bus_width();
  std::vector<std::uint64_t> bank_instrs(program.num_banks(), 0);
  std::uint64_t run_cycles = 0;

  for (std::uint32_t s = 0; s < program.num_steps(); ++s) {
    const auto& step = program.step(s);
    ++step_stamp;
    writes.clear();
    // Only price the bus when one is configured — counting a step's
    // remote reads is a full slot scan.
    const auto bus_ops = (declared_bus > 0 || bus_width_ > 0)
                             ? program.step_bus_ops(s)
                             : 0;
    if (declared_bus > 0 && bus_ops > declared_bus) {
      throw std::logic_error(
          "Machine::run_parallel_words: step " + std::to_string(s + 1) +
          " issues " + std::to_string(bus_ops) +
          " cross-bank copies over the declared bus width " +
          std::to_string(declared_bus));
    }
    for (const auto& slot : step) {
      if (step_written[slot.instr.z] == step_stamp) {
        throw std::logic_error("Machine::run_parallel_words: step " +
                               std::to_string(s + 1) +
                               " writes cell @X" +
                               std::to_string(slot.instr.z + 1) + " twice");
      }
      step_written[slot.instr.z] = step_stamp;
      writes.emplace_back(slot.instr.z, lanes.eval(slot.instr));
      if (slot.bank < program.num_banks()) {
        ++bank_instrs[slot.bank];
      }
    }
    // A slot must not read a cell another slot of this step writes; its
    // own destination is fine (RM3 reads the pre-step value of Z).
    for (const auto& slot : step) {
      for (const auto op : {slot.instr.a, slot.instr.b}) {
        if (op.is_rram() && op.address() != slot.instr.z &&
            step_written[op.address()] == step_stamp) {
          throw std::logic_error("Machine::run_parallel_words: step " +
                                 std::to_string(s + 1) + " reads cell @X" +
                                 std::to_string(op.address() + 1) +
                                 " written in the same step");
        }
      }
    }
    for (const auto& [cell, value] : writes) {
      lanes.commit(cell, value);
    }
    run_cycles += phases_per_instruction;  // one lockstep phase set per step
    // Hardware-honest bus accounting: a machine-side width serializes
    // the step's excess cross-bank copies into extra bus rounds (the
    // values are unaffected — all reads saw the pre-step state — but
    // the cycles are real).
    if (bus_width_ > 0 && bus_ops > bus_width_) {
      const std::uint64_t extra_rounds =
          (bus_ops + bus_width_ - 1) / bus_width_ - 1;
      run_cycles += extra_rounds * phases_per_instruction;
      bus_stall_cycles_ += extra_rounds * phases_per_instruction;
    }
  }
  cycles_ += run_cycles;
  for (auto& count : bank_instrs) {
    count *= phases_per_instruction;  // instructions → busy cycles
  }
  std::vector<std::uint64_t> bank_idle(bank_instrs.size(), 0);
  for (std::size_t b = 0; b < bank_instrs.size(); ++b) {
    // The lockstep clock ticks every bank until the program ends.
    bank_idle[b] = run_cycles - std::min(bank_instrs[b], run_cycles);
  }
  account_bank_cycles(bank_instrs, bank_idle);

  return lanes.outputs(program);
}

std::vector<bool> Machine::run_parallel(const sched::ParallelProgram& program,
                                        const std::vector<bool>& inputs,
                                        const std::vector<bool>& initial) {
  return run_bits(inputs, initial, [&](const auto& in, const auto& init) {
    return run_parallel_words(program, in, init);
  });
}

std::vector<std::uint64_t> Machine::run_decoupled_words(
    const sched::ParallelProgram& program,
    const std::vector<std::uint64_t>& inputs,
    const std::vector<std::uint64_t>& initial,
    const sched::DecoupledTiming* precomputed) {
  Lanes lanes(program, inputs, initial, write_counts_, instructions_,
              "Machine::run_decoupled_words");
  // Static timing first: every controller's op start time under the sync
  // tokens and the in-order bus arbiter. Throws on missing/insufficient
  // sync tokens and on deadlock. The arbiter width is the machine's when
  // set, else the program's declared bus.
  sched::DecoupledTiming computed;
  if (precomputed == nullptr) {
    computed = sched::decoupled_timing(
        program, bus_width_ > 0 ? bus_width_ : program.bus_width(),
        phases_per_instruction);
    // Cycle-level per-bank timeline (no-op while tracing is disabled).
    // Only for timing computed here: callers passing a precomputed
    // timing (sched::verify re-runs the program once per round) already
    // had their one timeline emitted when that timing was derived.
    sched::trace_decoupled_timeline(program, computed, "machine run");
  }
  const auto& timing = precomputed != nullptr ? *precomputed : computed;

  // Functional execution in start-time order: there is no step barrier —
  // every read sees the latest committed value, which the sync tokens
  // guarantee is exactly the value the lockstep schedule intended.
  // Phase-level tokens keep this sound: decoupled_timing clamps token
  // latencies at zero so a consumer never starts before its producer,
  // and its order breaks start-time ties producer-first (lockstep step,
  // then bank), so applying whole instructions in `timing.order` is
  // equivalent to the phase-interleaved hardware execution. Each op's
  // slot is its bank's one slot in its lockstep step.
  for (std::size_t i = 0; i < timing.order.size(); ++i) {
    const auto bank = timing.order[i].first;
    const auto& step = program.step(timing.steps[i]);
    lanes.apply(std::find_if(step.begin(), step.end(),
                             [&](const sched::Slot& slot) {
                               return slot.bank == bank;
                             })->instr);
  }

  cycles_ += timing.makespan_cycles;
  bus_stall_cycles_ += timing.bus_stall_cycles;
  account_bank_cycles(timing.bank_busy_cycles, timing.bank_idle_cycles);
  return lanes.outputs(program);
}

std::vector<bool> Machine::run_decoupled(const sched::ParallelProgram& program,
                                         const std::vector<bool>& inputs,
                                         const std::vector<bool>& initial) {
  return run_bits(inputs, initial, [&](const auto& in, const auto& init) {
    return run_decoupled_words(program, in, init);
  });
}

void Machine::account_bank_cycles(const std::vector<std::uint64_t>& busy,
                                  const std::vector<std::uint64_t>& idle) {
  if (bank_busy_cycles_.size() < busy.size()) {
    bank_busy_cycles_.resize(busy.size(), 0);
    bank_idle_cycles_.resize(busy.size(), 0);
  }
  for (std::size_t b = 0; b < busy.size(); ++b) {
    bank_busy_cycles_[b] += busy[b];
    bank_idle_cycles_[b] += idle[b];
  }
}

void Machine::reset_counters() {
  write_counts_.clear();
  cycles_ = 0;
  instructions_ = 0;
  bus_stall_cycles_ = 0;
  bank_busy_cycles_.clear();
  bank_idle_cycles_.clear();
}

}  // namespace plim::arch
