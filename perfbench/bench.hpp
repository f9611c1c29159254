#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/program.hpp"
#include "driver/driver.hpp"
#include "mig/mig.hpp"
#include "sched/parallel_program.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point from,
                                     Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated files (BLIF pool, socket).
  std::string run_dir;
};

/// What one run reports: the result line's counters plus metric values
/// by name. main.cpp holds the one list of metric names and units; every
/// name a workload does not load is reported as 0.
struct Result {
  std::uint64_t attempted = 0;
  /// Requests that failed, were unverified, or whose outputs mismatched.
  std::uint64_t failed = 0;
  /// False when the traced layer-by-layer pipeline did not reproduce the
  /// front door's report (the per-layer numbers would describe another
  /// program than the one timed).
  bool fidelity = true;
  std::map<std::string, double> values;
};

// ---- statistics --------------------------------------------------------------

/// Median (mean of the two middle values for an even count; 0 if empty).
[[nodiscard]] double median(std::vector<double> sample);
/// Geometric mean of positive values (0 when empty).
[[nodiscard]] double geomean(const std::vector<double>& values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Harrell–Davis estimate of the q-quantile (q in (0, 1)): a weighted
/// mean of all order statistics, so a sample from a few dissimilar
/// circuits does not jump from one circuit's latency to the next's when
/// their order changes.
[[nodiscard]] double harrell_davis(std::vector<double> sample, double q);

/// The highest percentile of `sample` with at least ten samples beyond
/// it, (n − 10) / n, estimated by harrell_davis (the maximum when there
/// are ten samples or fewer).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in percent
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_latency(const std::vector<double>& sample);

[[nodiscard]] double peak_rss_mb();

// ---- machine-speed reference -------------------------------------------------

/// A fixed CPU workload that shares no code with the compiler: a seeded
/// DAG whose nodes are structurally hashed in topological order into a
/// node-based hash map, then sorted — the kind of pointer-chasing,
/// allocating work MIG rewriting does. All its memory comes from an arena
/// it owns, so the compiler's heap cannot change its speed; its
/// wall-clock says only how fast the calling thread runs at that moment.
///
/// On a shared host a virtual CPU's speed drifts by 10–50% over seconds
/// to minutes, and each virtual CPU drifts on its own: a kernel run on
/// another thread does not track it, one run on the same thread right
/// before and after a compile does (measured per compile over 90 s:
/// spread 0.18–0.32 raw, 0.05–0.06 scaled). A kernel that allocates
/// nothing tracks less of it (log2 compiles over 3 minutes: 0.234 raw,
/// 0.116 scaled by such a kernel, 0.086 by a hash-map one), so this one
/// allocates from its arena. The workloads scale each timing by the
/// kernel runs around it; see at_reference_speed.
class ReferenceKernel {
 public:
  ReferenceKernel();
  /// Runs the kernel once on the calling thread and returns its
  /// wall-clock in ms. Throws if its result differs from the first run's.
  double run_ms();

 private:
  std::uint64_t compute();

  std::vector<std::uint32_t> fanins_;  ///< three per node, all lower ids
  std::vector<std::byte> arena_;
  std::uint64_t expected_ = 0;
};

/// The reference kernel's wall-clock at the speed scaled timings are
/// expressed in: about its time on an uncontended 4-core x86-64 VM, so a
/// scaled time reads as the ms that VM takes when nothing slows it.
inline constexpr double kReferenceMs = 6.5;

/// `raw_ms`, measured on one thread between two reference kernel runs
/// of `before_ms` and `after_ms` on that thread, expressed at reference
/// speed.
[[nodiscard]] double at_reference_speed(double raw_ms, double before_ms,
                                        double after_ms);

// ---- independent output checks ---------------------------------------------

/// Runs `program` on arch::Machine for seeded vectors (with randomized
/// initial RRAM content) and compares every output against
/// mig::simulate_words of `original`, the network before rewriting.
/// Returns the machine's cycle count for one run, or 0 on a mismatch.
[[nodiscard]] std::uint64_t check_serial(const plim::mig::Mig& original,
                                         const plim::arch::Program& program,
                                         std::uint64_t seed);

/// The same check for a schedule, executed under `model`.
[[nodiscard]] std::uint64_t check_schedule(
    const plim::mig::Mig& original, const plim::sched::ParallelProgram& program,
    plim::sched::ExecutionModel model, std::uint64_t seed);

/// StatsReport JSON with every wall-clock field zeroed — the form in
/// which reports must match byte for byte.
[[nodiscard]] std::string normalized_report(plim::StatsReport stats);

// ---- layer-by-layer pipeline -------------------------------------------------

/// Wall-clock of each layer call of one compile, timed from outside.
struct LayerTimes {
  double rewrite_ms = 0.0;   ///< mig::rewrite_for_plim
  double compile_ms = 0.0;   ///< core::compile
  double verify_ms = 0.0;    ///< core::verify_program
  double schedule_ms = 0.0;  ///< sched::schedule + ParallelProgram::validate
  double sched_verify_ms = 0.0;  ///< sched::equivalent_to_serial

  [[nodiscard]] double sum() const {
    return rewrite_ms + compile_ms + verify_ms + schedule_ms + sched_verify_ms;
  }
};

/// Re-runs Driver::run's pipeline (rewrite → compile → verify → schedule
/// → verify schedule) by calling each layer's public function directly,
/// and composes the same StatsReport. Supports the option sets the
/// workloads use (rewriting on, no RRAM cap). Throws on any failure.
struct LayeredRun {
  plim::CompileOutcome outcome;
  LayerTimes times;
};
[[nodiscard]] LayeredRun run_layers(const plim::mig::Mig& network,
                                    const std::string& label,
                                    const plim::Options& options);

/// Scheduler costs the pipeline does not expose, timed from outside on a
/// layered run's programs: refinement as `schedule_ms` (the layered
/// schedule call) minus the same call with refine_passes = 0, and one
/// sched::decoupled_timing call.
struct SchedulerProbes {
  double refine_ms = 0.0;
  double decoupled_timing_ms = 0.0;
};
[[nodiscard]] SchedulerProbes probe_scheduler(const LayeredRun& run,
                                              const plim::Options& options,
                                              const std::string& label);

/// Work counters of the requests a traced run compiled.
struct WorkCounters {
  std::vector<double> gates_after, depth_after, peak_live_rrams;
  double refine_tried = 0, refine_kept = 0, refine_full_evals = 0,
         transfers = 0, sync_tokens = 0, bus_stalls = 0, reorder_saved = 0;

  void add(const plim::StatsReport& stats);
  /// Sizes as geomeans over the compiled requests; scheduler counts as
  /// means over `requests`.
  void report(Result& result, std::size_t requests) const;
};

// ---- workloads ---------------------------------------------------------------

[[nodiscard]] Result run_compile_workload(const Args& args);
[[nodiscard]] Result run_serve_workload(const Args& args);

}  // namespace perfbench
