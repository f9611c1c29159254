// The two compile workloads, one request at a time through Driver::run:
//
//   table1_serial     all 18 EPFL circuits, default options (banks = 0):
//                     the paper's Table 1 flow. MIG rewriting dominates
//                     and the scheduler does no work, so a scheduler
//                     change must show no change here.
//   banked_decoupled  the EPFL circuits below 20k gates, decoupled
//                     execution (makespan objective, stream reorder and
//                     sync derivation all run): those below 5k gates at
//                     banks 4 and 8 in every round, the three above
//                     (voter, sin, mem_ctrl) at banks 4 once per run.
//                     Scheduling dominates and rewriting is a few percent.
//
// Every circuit is re-ordered by mig::shuffle_topological from the run
// seed and submitted with CompileRequest::from_mig. Each round draws a
// fresh order per circuit, so a circuit's typical latency spans several
// orders and one unlucky order does not set a run's figure. The untraced
// run times every compile between two ReferenceKernel runs on the same
// thread and reports its time at reference speed.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "circuits/epfl.hpp"
#include "mig/random.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace plim;

namespace {

/// The five arithmetic circuits above this size cost 13–43 s per
/// scheduled compile each, too much for a repeated run.
constexpr std::uint32_t kBankedMaxGates = 20000;
/// Banked circuits of at least this size (voter, sin, mem_ctrl) cost
/// 1.3–5.5 s per compile: they run at banks 4 only, once per run, in the
/// first round. The lighter ones run at banks 4 and 8 in every round, so
/// their typical latencies span several orders.
constexpr std::uint32_t kBankedOnceGates = 5000;
constexpr unsigned kSetupRepeats = 5;

/// Median of `repeats` timed calls of `setup`, in seconds at reference
/// speed — set-up runs several times so that work moved into it shows as
/// a steady number.
template <typename F>
double timed_setup(unsigned repeats, ReferenceKernel& kernel, F&& setup) {
  std::vector<double> seconds;
  double before_ms = kernel.run_ms();
  for (unsigned i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    setup();
    const double raw_ms = ms_since(t0);
    const double after_ms = kernel.run_ms();
    seconds.push_back(at_reference_speed(raw_ms, before_ms, after_ms) /
                      1000.0);
    before_ms = after_ms;
  }
  return median(std::move(seconds));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  return rng.next();
}

/// The order of `circuit` a job compiles in `round`; round 0 is the
/// order its first request was built with at set-up.
std::uint64_t order_seed(std::uint64_t seed, std::uint64_t salt,
                         std::size_t round) {
  return derive_seed(seed, (std::uint64_t{round} << 16) | salt);
}

struct Job {
  std::string label;  ///< row name: "sin" or "sin@4"
  const Driver* driver = nullptr;
  std::shared_ptr<const mig::Mig> circuit;  ///< the suite circuit
  std::uint64_t salt = 0;  ///< this job's share of the order seeds
  bool every_round = true;  ///< false: compiled in the first round only
  CompileRequest first;     ///< round 0, built at set-up

  [[nodiscard]] const Options& options() const { return driver->options(); }
  [[nodiscard]] CompileRequest request(std::size_t round,
                                       std::uint64_t seed) const {
    if (round == 0) {
      return first;
    }
    return CompileRequest::from_mig(
        mig::shuffle_topological(*circuit, order_seed(seed, salt, round)),
        first.label());
  }
};

struct Workload {
  std::vector<Driver> drivers;
  std::vector<Job> jobs;
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  const bool banked = name == "banked_decoupled";
  Workload w;
  Options options;
  std::vector<std::uint32_t> banks{0};
  if (banked) {
    banks = {4, 8};
    options.schedule.execution = sched::ExecutionModel::decoupled;
  }
  w.drivers.reserve(banks.size());  // jobs point into it
  for (const auto b : banks) {
    options.banks = b;
    w.drivers.emplace_back(options);
  }
  // Each (circuit, banks) job gets its own orders, so the two bank counts
  // are independent draws of the scheduler's sensitivity to node order.
  const auto& suite = circuits::epfl_suite();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto network = std::make_shared<const mig::Mig>(suite[i].build());
    if (banked && network->num_gates() >= kBankedMaxGates) {
      continue;
    }
    const bool every_round =
        !banked || network->num_gates() < kBankedOnceGates;
    for (std::size_t d = 0; d < (every_round ? w.drivers.size() : 1); ++d) {
      const auto b = w.drivers[d].options().banks;
      const std::uint64_t salt = i * 8 + d;
      w.jobs.push_back(
          {b > 0 ? suite[i].name + "@" + std::to_string(b) : suite[i].name,
           &w.drivers[d], network, salt, every_round,
           CompileRequest::from_mig(
               mig::shuffle_topological(*network,
                                        order_seed(seed, salt, 0)),
               suite[i].name)});
    }
  }
  return w;
}

/// Quality of one compiled program, from its report and the machine.
struct Quality {
  double gates = 0.0;
  double instructions = 0.0;
  double rrams = 0.0;
  double steps = 0.0;
  double makespan = 0.0;
};

/// The independent output check of one outcome: ok and verified, the
/// serial program (and the schedule, under lockstep and — when the
/// workload runs decoupled — decoupled execution) computes the original
/// network's function on arch::Machine, and the reported makespan is the
/// cycle count the machine measures. Fills `quality` on success.
bool check_outcome(const Job& job, const mig::Mig& network,
                   const CompileOutcome& out, std::uint64_t seed,
                   Quality& quality) {
  if (!out.ok() || !out.stats.verified) {
    return false;
  }
  const auto serial_cycles = check_serial(network, out.program, seed);
  if (serial_cycles == 0) {
    return false;
  }
  quality.gates = out.stats.initial_gates;
  quality.instructions = out.stats.compile.num_instructions;
  quality.rrams = out.stats.compile.num_rrams;
  if (job.options().banks == 0) {
    // The serial program issues one instruction per step.
    quality.steps = out.stats.compile.num_instructions;
    quality.makespan = static_cast<double>(serial_cycles);
    return true;
  }
  if (!out.parallel || !out.stats.schedule) {
    return false;
  }
  const auto model = job.options().schedule.execution;
  const auto lockstep_cycles = check_schedule(
      network, *out.parallel, sched::ExecutionModel::lockstep, seed);
  const auto model_cycles =
      model == sched::ExecutionModel::lockstep
          ? lockstep_cycles
          : check_schedule(network, *out.parallel, model, seed);
  if (lockstep_cycles == 0 || model_cycles == 0 ||
      model_cycles != out.stats.schedule->makespan_cycles) {
    return false;
  }
  quality.steps = out.stats.schedule->steps;
  quality.makespan = static_cast<double>(out.stats.schedule->makespan_cycles);
  return true;
}

/// Per-job samples over the rounds of one run.
struct JobSamples {
  std::vector<double> latency_ms;  ///< Driver::run wall-clock
  /// Untraced runs: the index of the reference kernel run right before
  /// each sample (the next index is the run right after it).
  std::vector<std::size_t> kernel_before;
  std::vector<double> scaled_ms;  ///< latency_ms at reference speed
  Quality quality;                ///< from the first round
  // Traced runs only: per-layer wall-clock, timed from outside.
  std::vector<double> rewrite_ms, compile_ms, verify_ms, schedule_ms,
      sched_verify_ms, layers_ms, refine_ms, decoupled_timing_ms;
  StatsReport stats;  ///< first round, for the work counters
};

void print_rows(const std::vector<Job>& jobs,
                const std::vector<JobSamples>& samples) {
  std::printf("# %-14s %7s %5s %10s %10s %10s %10s %9s %7s %9s %11s\n",
              "circuit", "gates", "n", "lq_ms", "p50_ms", "max_ms",
              "raw_p50_ms", "#I", "#R", "steps", "makespan");
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& s = samples[j];
    // Untraced rows are at reference speed; traced rows are raw.
    const auto& ms = s.scaled_ms.empty() ? s.latency_ms : s.scaled_ms;
    const auto max_ms =
        ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end());
    std::printf("# %-14s %7.0f %5zu %10.3f %10.3f %10.3f %10.3f %9.0f %7.0f "
                "%9.0f %11.0f\n",
                jobs[j].label.c_str(), s.quality.gates, ms.size(),
                harrell_davis(ms, 0.25), median(ms), max_ms,
                median(s.latency_ms), s.quality.instructions, s.quality.rrams,
                s.quality.steps, s.quality.makespan);
  }
}

void add_quality(Result& result, const std::vector<JobSamples>& samples) {
  std::vector<double> instructions, rrams, steps, makespan;
  for (const auto& s : samples) {
    instructions.push_back(s.quality.instructions);
    rrams.push_back(s.quality.rrams);
    steps.push_back(s.quality.steps);
    makespan.push_back(s.quality.makespan);
  }
  result.values["instructions_geomean"] = geomean(instructions);
  result.values["rrams_geomean"] = geomean(rrams);
  result.values["steps_geomean"] = geomean(steps);
  result.values["makespan_cycles_geomean"] = geomean(makespan);
}

/// Runs one request through the front door, checks it, and records it.
/// Returns the outcome for the traced path's fidelity check.
CompileOutcome run_and_check(const Job& job, const CompileRequest& request,
                             std::size_t round, std::uint64_t check_seed,
                             JobSamples& s, Result& result) {
  const auto t0 = Clock::now();
  auto out = job.driver->run(request);
  s.latency_ms.push_back(ms_since(t0));
  ++result.attempted;
  Quality quality;
  const bool ok =
      check_outcome(job, *request.network(), out, check_seed, quality);
  if (ok && round == 0) {
    s.quality = quality;
    s.stats = out.stats;
  }
  if (!ok) {
    ++result.failed;
    std::fprintf(stderr, "perfbench: %s failed its output check: %s\n",
                 job.label.c_str(), out.error_summary().c_str());
  }
  return out;
}

/// The traced run's record of one request: the layered run of the same
/// compile (its report must match the front door's byte for byte), its
/// per-layer times, and the scheduler probes outside the pipeline.
void record_layers(const Job& job, const CompileOutcome& reference,
                   const LayeredRun& layered, JobSamples& s, Result& result) {
  if (normalized_report(layered.outcome.stats) !=
      normalized_report(reference.stats)) {
    result.fidelity = false;
    std::fprintf(stderr,
                 "perfbench: layered pipeline diverges from Driver::run on "
                 "%s\n",
                 job.label.c_str());
  }
  const auto& t = layered.times;
  s.rewrite_ms.push_back(t.rewrite_ms);
  s.compile_ms.push_back(t.compile_ms);
  s.verify_ms.push_back(t.verify_ms);
  s.schedule_ms.push_back(t.schedule_ms);
  s.sched_verify_ms.push_back(t.sched_verify_ms);
  s.layers_ms.push_back(t.sum());
  if (job.options().banks > 0) {
    const auto probes =
        probe_scheduler(layered, job.options(), job.first.label());
    s.refine_ms.push_back(probes.refine_ms);
    s.decoupled_timing_ms.push_back(probes.decoupled_timing_ms);
  }
}

/// Mean over jobs of each job's median sample.
double mean_of_medians(const std::vector<JobSamples>& samples,
                       std::vector<double> JobSamples::*field) {
  std::vector<double> medians;
  for (const auto& s : samples) {
    medians.push_back((s.*field).empty() ? 0.0 : median(s.*field));
  }
  return mean(medians);
}

void add_layer_metrics(Result& result, const std::vector<JobSamples>& samples) {
  auto& v = result.values;
  v["mig.rewrite_ms"] = mean_of_medians(samples, &JobSamples::rewrite_ms);
  v["core.compile_ms"] = mean_of_medians(samples, &JobSamples::compile_ms);
  v["core.verify_ms"] = mean_of_medians(samples, &JobSamples::verify_ms);
  v["sched.schedule_ms"] = mean_of_medians(samples, &JobSamples::schedule_ms);
  v["sched.verify_ms"] = mean_of_medians(samples, &JobSamples::sched_verify_ms);
  v["sched.refine_ms"] = mean_of_medians(samples, &JobSamples::refine_ms);
  v["sched.decoupled_timing_ms"] =
      mean_of_medians(samples, &JobSamples::decoupled_timing_ms);
  const double run_ms = mean_of_medians(samples, &JobSamples::latency_ms);
  const double layers_ms = mean_of_medians(samples, &JobSamples::layers_ms);
  v["driver.run_ms"] = run_ms;
  v["driver.self_ms"] = run_ms - layers_ms;

  std::vector<double> run_medians, layer_medians;
  WorkCounters counters;
  for (const auto& s : samples) {
    run_medians.push_back(median(s.latency_ms));
    layer_medians.push_back(median(s.layers_ms));
    counters.add(s.stats);
  }
  counters.report(result, samples.size());
  v["trace.overhead"] = geomean(layer_medians) / geomean(run_medians) - 1.0;

  std::printf("# layer shares of the layered pipeline (%.3f ms/request; "
              "Driver::run %.3f ms/request): rewrite %.1f%%, compile "
              "%.1f%%, verify %.1f%%, schedule %.1f%%, schedule verify "
              "%.1f%%\n",
              layers_ms, run_ms, 100 * v["mig.rewrite_ms"] / layers_ms,
              100 * v["core.compile_ms"] / layers_ms,
              100 * v["core.verify_ms"] / layers_ms,
              100 * v["sched.schedule_ms"] / layers_ms,
              100 * v["sched.verify_ms"] / layers_ms);
  std::printf("# tracing overhead: layered compile_ms_geomean %.3f ms vs "
              "Driver::run %.3f ms\n",
              geomean(layer_medians), geomean(run_medians));
}

}  // namespace

Result run_compile_workload(const Args& args) {
  ReferenceKernel kernel;
  Workload w;
  const double setup_s = timed_setup(kSetupRepeats, kernel, [&]() {
    w = make_workload(args.workload, args.seed);
  });

  Result result;
  std::vector<JobSamples> samples(w.jobs.size());
  // Untraced runs: every compile sits between two kernel runs.
  std::vector<double> kernel_ms;
  // Rounds: the first compiles every job; another follows, with the jobs
  // that run every round, while one as long as the last still fits in
  // --seconds.
  const auto started = Clock::now();
  double repeat_ms = 0.0;
  std::vector<double> round_durations;
  for (std::size_t round = 0;
       round == 0 || ms_since(started) + repeat_ms <= args.seconds * 1000.0;
       ++round) {
    const auto round_started = Clock::now();
    repeat_ms = 0.0;
    for (std::size_t j = 0; j < w.jobs.size(); ++j) {
      const auto& job = w.jobs[j];
      if (round > 0 && !job.every_round) {
        continue;
      }
      const auto job_started = Clock::now();
      const auto request = job.request(round, args.seed);
      const auto check_seed = derive_seed(args.seed, 1000 + j);
      if (!args.trace) {
        samples[j].kernel_before.push_back(kernel_ms.size());
        kernel_ms.push_back(kernel.run_ms());
        run_and_check(job, request, round, check_seed, samples[j], result);
      } else {
        // Alternate which side runs first so neither inherits warm caches.
        const auto& network = *request.network();
        LayeredRun layered;
        CompileOutcome out;
        if ((round + j) % 2 == 0) {
          out = run_and_check(job, request, round, check_seed, samples[j],
                              result);
          layered = run_layers(network, request.label(), job.options());
        } else {
          layered = run_layers(network, request.label(), job.options());
          out = run_and_check(job, request, round, check_seed, samples[j],
                              result);
        }
        record_layers(job, out, layered, samples[j], result);
      }
      if (job.every_round) {
        repeat_ms += ms_since(job_started);
      }
    }
    round_durations.push_back(ms_since(round_started));
  }
  std::printf("# round wall-clock (ms):");
  for (const double ms : round_durations) {
    std::printf(" %.1f", ms);
  }
  std::printf("\n");
  if (!args.trace) {
    kernel_ms.push_back(kernel.run_ms());  // after the last compile
    for (auto& s : samples) {
      for (std::size_t k = 0; k < s.latency_ms.size(); ++k) {
        const auto before = s.kernel_before[k];
        s.scaled_ms.push_back(at_reference_speed(
            s.latency_ms[k], kernel_ms[before], kernel_ms[before + 1]));
      }
    }
    const auto [lo, hi] = std::minmax_element(kernel_ms.begin(),
                                              kernel_ms.end());
    std::printf("# reference kernel: %zu runs, median %.3f ms (%.3f–%.3f); "
                "timings below are at reference speed (%.1f ms)\n",
                kernel_ms.size(), median(kernel_ms), *lo, *hi, kReferenceMs);
  }

  print_rows(w.jobs, samples);
  add_quality(result, samples);
  if (args.trace) {
    add_layer_metrics(result, samples);
    return result;
  }

  // A job's typical latency is the lower quartile of its scaled samples.
  // Contention only adds time, and scaling removes most but not all of
  // it: in some periods the compiler slows about 1.5 times as much as the
  // kernel. Over 7 minutes of compiles cut into 35 s windows, the spread
  // of gates_per_s was 0.050 from medians and 0.034 from lower quartiles,
  // of compile_ms_geomean 0.031 and 0.007.
  std::vector<double> all_ms, typical;
  double gates = 0.0, typical_ms = 0.0;
  for (const auto& s : samples) {
    all_ms.insert(all_ms.end(), s.scaled_ms.begin(), s.scaled_ms.end());
    typical.push_back(harrell_davis(s.scaled_ms, 0.25));
    gates += s.quality.gates;
    typical_ms += typical.back();
  }
  const auto tail = tail_latency(all_ms);
  std::printf("# %zu requests; latency_tail_ms is p%.1f of %zu samples\n",
              all_ms.size(), tail.percentile, tail.samples);
  auto& v = result.values;
  v["gates_per_s"] = gates / (typical_ms / 1000.0);
  v["requests_per_s"] =
      static_cast<double>(samples.size()) / (typical_ms / 1000.0);
  v["compile_ms_geomean"] = geomean(typical);
  // The median job's typical latency: one value per job, so it is as
  // steady as the quartiles it is made of.
  v["latency_p50_ms"] = harrell_davis(typical, 0.5);
  v["latency_tail_ms"] = tail.value;
  // Every request of a compile workload runs the whole pipeline.
  v["miss_p50_ms"] = v["latency_p50_ms"];
  v["setup_s"] = setup_s;
  return result;
}

}  // namespace perfbench
