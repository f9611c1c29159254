#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory_resource>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "arch/machine.hpp"
#include "bench.hpp"
#include "core/compiler.hpp"
#include "core/verify.hpp"
#include "sched/decoupled.hpp"
#include "mig/rewriting.hpp"
#include "mig/simulation.hpp"
#include "sched/scheduler.hpp"
#include "sched/verify.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace plim;

// ---- statistics --------------------------------------------------------------

double median(std::vector<double> sample) {
  if (sample.empty()) {
    return 0.0;
  }
  const auto mid = sample.begin() + static_cast<std::ptrdiff_t>(sample.size() / 2);
  std::nth_element(sample.begin(), mid, sample.end());
  if (sample.size() % 2 == 1) {
    return *mid;
  }
  return (*mid + *std::max_element(sample.begin(), mid)) / 2.0;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double v : values) {
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double beta_continued_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  const auto guard = [](double v) {
    return std::abs(v) < kTiny ? kTiny : v;
  };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 500; ++m) {
    const double m2 = 2.0 * m;
    double step = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
    d = 1.0 / guard(1.0 + step * d);
    c = guard(1.0 + step / c);
    h *= d * c;
    step = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
    d = 1.0 / guard(1.0 + step * d);
    c = guard(1.0 + step / c);
    h *= d * c;
    if (std::abs(d * c - 1.0) < 1e-13) {
      break;
    }
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) {
    return 0.0;
  }
  if (x >= 1.0) {
    return 1.0;
  }
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double harrell_davis(std::vector<double> sample, double q) {
  if (sample.empty()) {
    return 0.0;
  }
  std::sort(sample.begin(), sample.end());
  const auto n = static_cast<double>(sample.size());
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double upto =
        incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * sample[i];
    below = upto;
  }
  return estimate;
}

Tail tail_latency(const std::vector<double>& sample) {
  Tail tail;
  tail.samples = sample.size();
  if (sample.empty()) {
    return tail;
  }
  if (sample.size() <= 10) {
    tail.value = *std::max_element(sample.begin(), sample.end());
    tail.percentile = 100.0;
    return tail;
  }
  const double q = static_cast<double>(sample.size() - 10) /
                   static_cast<double>(sample.size());
  tail.value = harrell_davis(sample, q);
  tail.percentile = 100.0 * q;
  return tail;
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- machine-speed reference -------------------------------------------------

namespace {

constexpr std::uint32_t kReferenceNodes = 30000;
constexpr unsigned kReferencePasses = 2;
constexpr std::size_t kReferenceArenaBytes = std::size_t{8} << 20;

}  // namespace

ReferenceKernel::ReferenceKernel()
    : fanins_(3 * std::size_t{kReferenceNodes}), arena_(kReferenceArenaBytes) {
  util::Rng rng(0x7ef5eedULL);
  for (std::uint32_t i = 1; i < kReferenceNodes; ++i) {
    for (std::size_t k = 0; k < 3; ++k) {
      fanins_[3 * std::size_t{i} + k] =
          static_cast<std::uint32_t>(rng.below(i));
    }
  }
  expected_ = compute();
}

std::uint64_t ReferenceKernel::compute() {
  // Everything below lives in the arena; running out of it throws.
  std::pmr::monotonic_buffer_resource arena(
      arena_.data(), arena_.size(), std::pmr::null_memory_resource());
  std::pmr::vector<std::uint64_t> hashes(kReferenceNodes, &arena);
  std::uint64_t result = 0;
  for (unsigned pass = 0; pass < kReferencePasses; ++pass) {
    std::pmr::unordered_map<std::uint64_t, std::uint32_t> strash(&arena);
    hashes[0] = pass + 1;
    for (std::uint32_t i = 1; i < kReferenceNodes; ++i) {
      const auto* f = &fanins_[3 * std::size_t{i}];
      hashes[i] = (hashes[f[0]] * 31 + hashes[f[1]] * 17 + hashes[f[2]] + i) ^
                  (hashes[f[0]] >> 3);
      const std::uint64_t key = (std::uint64_t{f[0]} << 40) ^
                                (std::uint64_t{f[1]} << 20) ^ f[2] ^ pass;
      result += strash.emplace(key, i).first->second;
    }
    std::pmr::vector<std::uint64_t> sorted(hashes.begin(), hashes.end(),
                                           &arena);
    std::sort(sorted.begin(), sorted.end());
    result += sorted[kReferenceNodes / 2];
  }
  return result;
}

double ReferenceKernel::run_ms() {
  const auto t0 = Clock::now();
  const auto result = compute();
  const double ms = ms_since(t0);
  if (result != expected_) {
    throw std::runtime_error("reference kernel gave another result");
  }
  return ms;
}

double at_reference_speed(double raw_ms, double before_ms, double after_ms) {
  return raw_ms * kReferenceMs / std::sqrt(before_ms * after_ms);
}

// ---- independent output checks ---------------------------------------------

namespace {

constexpr unsigned kCheckRounds = 4;  // × 64 seeded vectors

std::vector<std::uint64_t> random_words(util::Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) {
    w = rng.next();
  }
  return words;
}

}  // namespace

std::uint64_t check_serial(const mig::Mig& original,
                           const arch::Program& program, std::uint64_t seed) {
  if (program.num_inputs() != original.num_pis() ||
      program.num_outputs() != original.num_pos()) {
    return 0;
  }
  util::Rng rng(seed);
  std::uint64_t cycles = 0;
  for (unsigned round = 0; round < kCheckRounds; ++round) {
    const auto inputs = random_words(rng, original.num_pis());
    const auto initial = random_words(rng, program.num_rrams());
    arch::Machine machine;
    if (machine.run_words(program, inputs, initial) !=
        mig::simulate_words(original, inputs)) {
      return 0;
    }
    cycles = machine.cycles();
  }
  return cycles;
}

std::uint64_t check_schedule(const mig::Mig& original,
                             const sched::ParallelProgram& program,
                             sched::ExecutionModel model, std::uint64_t seed) {
  if (program.num_outputs() != original.num_pos()) {
    return 0;
  }
  util::Rng rng(seed);
  std::uint64_t cycles = 0;
  for (unsigned round = 0; round < kCheckRounds; ++round) {
    const auto inputs = random_words(rng, original.num_pis());
    const auto initial = random_words(rng, program.num_rrams());
    arch::Machine machine;
    const auto got =
        model == sched::ExecutionModel::decoupled
            ? machine.run_decoupled_words(program, inputs, initial)
            : machine.run_parallel_words(program, inputs, initial);
    if (got != mig::simulate_words(original, inputs)) {
      return 0;
    }
    cycles = machine.cycles();
  }
  return cycles;
}

std::string normalized_report(StatsReport stats) {
  stats.normalize_timing();
  return stats.to_json();
}

// ---- layer-by-layer pipeline -------------------------------------------------

namespace {

/// The scheduler options Driver::run derives from `options`.
sched::ScheduleOptions schedule_options(const Options& options,
                                        const std::string& label) {
  sched::ScheduleOptions sopts;
  sopts.banks = options.banks;
  sopts.cost = options.schedule.cost;
  sopts.cluster = options.schedule.cluster;
  sopts.refine_passes = options.schedule.refine_passes;
  sopts.refine_incremental = options.schedule.refine_incremental;
  sopts.refine_resync = options.schedule.refine_resync;
  sopts.lookahead = options.schedule.lookahead;
  sopts.execution = options.schedule.execution;
  sopts.objective = options.schedule.objective;
  sopts.trace_label = label;
  sopts.trace_timeline = options.trace.timeline;
  return sopts;
}

}  // namespace

LayeredRun run_layers(const mig::Mig& network, const std::string& label,
                      const Options& options) {
  if (options.rewrite.effort == 0 || options.compile.rram_cap ||
      options.placement != PlacementMode::post || !options.verify.enabled) {
    throw std::invalid_argument(
        "run_layers covers rewriting on, no RRAM cap, post placement and "
        "verification on");
  }
  LayeredRun run;
  auto& stats = run.outcome.stats;
  auto& times = run.times;
  stats.benchmark = label;
  stats.initial_gates = network.num_gates();

  auto t = Clock::now();
  const auto optimized =
      mig::rewrite_for_plim(network, options.rewrite, &stats.rewrite);
  times.rewrite_ms = ms_since(t);
  stats.gates = optimized.num_gates();

  core::CompileOptions copts;
  copts.smart_candidates = options.compile.smart_candidates;
  copts.cache_complements = options.compile.cache_complements;
  copts.textbook_slots = options.compile.textbook_slots;
  copts.allocation = options.compile.allocation;
  copts.cost = options.schedule.cost;
  t = Clock::now();
  auto compiled = core::compile(optimized, copts);
  times.compile_ms = ms_since(t);
  run.outcome.program = std::move(compiled.program);
  stats.compile = compiled.stats;

  t = Clock::now();
  const auto verdict =
      core::verify_program(network, run.outcome.program, options.verify.rounds,
                           options.verify.seed);
  times.verify_ms = ms_since(t);
  if (!verdict.ok) {
    throw std::runtime_error(label + ": verify_program: " + verdict.message);
  }

  if (options.banks > 0) {
    t = Clock::now();
    auto scheduled =
        sched::schedule(run.outcome.program, schedule_options(options, label));
    const auto invalid = scheduled.program.validate();
    times.schedule_ms = ms_since(t);
    if (!invalid.empty()) {
      throw std::runtime_error(label + ": invalid schedule: " + invalid);
    }
    t = Clock::now();
    bool equivalent = sched::equivalent_to_serial(
        run.outcome.program, scheduled.program, options.verify.rounds,
        options.verify.seed);
    if (equivalent &&
        options.schedule.execution == sched::ExecutionModel::decoupled) {
      equivalent = sched::equivalent_to_serial(
          run.outcome.program, scheduled.program, options.verify.rounds,
          options.verify.seed, sched::ExecutionModel::decoupled);
    }
    times.sched_verify_ms = ms_since(t);
    if (!equivalent) {
      throw std::runtime_error(label + ": schedule diverges from serial");
    }
    run.outcome.parallel = std::move(scheduled.program);
    stats.schedule = scheduled.stats;
    stats.metrics.refine_moves_tried = scheduled.stats.refine_moves_tried;
    stats.metrics.refine_moves_kept = scheduled.stats.refine_moves_kept;
    stats.metrics.refine_moves_screened = scheduled.stats.refine_moves_screened;
    stats.metrics.bus_stalls = scheduled.stats.bus_stalls;
    for (const auto idle : scheduled.stats.bank_idle_cycles) {
      stats.metrics.bank_idle_cycles += idle;
    }
  }
  stats.verified = true;
  return run;
}

SchedulerProbes probe_scheduler(const LayeredRun& run, const Options& options,
                                const std::string& label) {
  SchedulerProbes probes;
  auto sopts = schedule_options(options, label);
  sopts.refine_passes = 0;
  auto t0 = Clock::now();
  static_cast<void>(sched::schedule(run.outcome.program, sopts));
  probes.refine_ms = run.times.schedule_ms - ms_since(t0);
  const auto& program = *run.outcome.parallel;
  t0 = Clock::now();
  static_cast<void>(sched::decoupled_timing(
      program, program.bus_width(), arch::Machine::phases_per_instruction));
  probes.decoupled_timing_ms = ms_since(t0);
  return probes;
}

void WorkCounters::add(const StatsReport& stats) {
  gates_after.push_back(stats.rewrite.gates_after);
  depth_after.push_back(stats.rewrite.depth_after);
  peak_live_rrams.push_back(stats.compile.peak_live_rrams);
  if (const auto& s = stats.schedule) {
    refine_tried += s->refine_moves_tried;
    refine_kept += s->refine_moves_kept;
    refine_full_evals += s->refine_full_evals;
    transfers += s->transfers;
    sync_tokens += s->sync_tokens;
    bus_stalls += s->bus_stalls;
    reorder_saved += static_cast<double>(s->stream_reorder_saved_cycles);
  }
}

void WorkCounters::report(Result& result, std::size_t requests) const {
  auto& v = result.values;
  const auto n = static_cast<double>(requests);
  v["mig.gates_after"] = geomean(gates_after);
  v["mig.depth_after"] = geomean(depth_after);
  v["core.peak_live_rrams"] = geomean(peak_live_rrams);
  v["sched.refine_moves_tried"] = refine_tried / n;
  v["sched.refine_full_evals"] = refine_full_evals / n;
  v["sched.refine_keep_ratio"] =
      refine_tried > 0 ? refine_kept / refine_tried : 0.0;
  v["sched.transfers"] = transfers / n;
  v["sched.sync_tokens"] = sync_tokens / n;
  v["sched.bus_stalls"] = bus_stalls / n;
  v["sched.stream_reorder_saved_cycles"] = reorder_saved / n;
}

}  // namespace perfbench
