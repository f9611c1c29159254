#pragma once

#include <optional>
#include <vector>

#include "arch/program.hpp"
#include "core/allocator.hpp"
#include "driver/diagnostic.hpp"
#include "driver/options.hpp"
#include "driver/request.hpp"
#include "driver/stats_report.hpp"
#include "sched/parallel_program.hpp"

namespace plim::serve {
class CompileCache;
}  // namespace plim::serve

namespace plim {

/// Everything one compilation produced. `ok()` gates the payload: when
/// false, `diagnostics` explains why and the programs are unspecified.
/// Warnings can accompany a successful outcome.
struct CompileOutcome {
  std::vector<Diagnostic> diagnostics;
  /// The serial RM3 program.
  arch::Program program;
  /// Serial-cell → bank map; engaged under compiler placement.
  std::optional<core::Placement> placement;
  /// Multi-bank schedule of `program`; engaged when Options::banks > 0.
  std::optional<sched::ParallelProgram> parallel;
  /// Unified quality metrics (the JSON schema of `plimc --json`).
  StatsReport stats;

  [[nodiscard]] bool ok() const { return !has_errors(diagnostics); }
  /// Error messages joined with "; " (empty when ok()).
  [[nodiscard]] std::string error_summary() const {
    return plim::error_summary(diagnostics);
  }
};

/// The front door of the PLiM compiler: one request in, one outcome out.
///
///   plim::Options options;
///   options.banks = 4;
///   const plim::Driver driver(options);
///   const auto outcome =
///       driver.run(plim::CompileRequest::from_benchmark("adder"));
///   if (!outcome.ok()) { /* outcome.diagnostics */ }
///
/// `run()` is const, reentrant and thread-safe: the driver holds only
/// immutable options, every pipeline stage works on locals, and all
/// failures are captured as diagnostics instead of escaping exceptions.
/// `run_batch()` fans a worklist across a thread pool; results come back
/// in request order regardless of thread interleaving, and with
/// StatsReport::normalize_timing() a threaded batch is byte-identical to
/// a serial one.
class Driver {
 public:
  Driver() = default;
  explicit Driver(Options options) : options_(std::move(options)) {}

  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Runs the full pipeline on one request: load (BLIF / named benchmark
  /// / in-memory MIG) → rewrite → compile → verify → schedule → verify
  /// schedule. Never throws for request- or option-level problems; those
  /// come back as error diagnostics in the outcome. Every phase is timed
  /// into StatsReport::metrics, and under Options::trace each phase also
  /// emits a span into util::Tracer (one "request" span per call, so
  /// run_batch traces show per-thread worklist occupancy).
  [[nodiscard]] CompileOutcome run(const CompileRequest& request) const;

  /// run() through the compiled-program cache: the request's network is
  /// loaded, its structural key (serve::structural_key of network +
  /// options) probed, and on a hit the cached outcome comes back with
  /// only the benchmark label patched — no rewrite, compile, verify or
  /// schedule work. On a miss the full pipeline runs on the
  /// already-loaded network (files are parsed once, not twice) and a
  /// successful outcome is inserted for the next caller. Hits and
  /// misses are counted into the metrics registry
  /// ("driver.cache.hits"/"driver.cache.misses").
  struct CachedOutcome {
    CompileOutcome outcome;
    bool cache_hit = false;
  };
  [[nodiscard]] CachedOutcome run_cached(const CompileRequest& request,
                                         serve::CompileCache& cache) const;

  /// Runs every request and returns the outcomes in request order.
  /// `threads` > 1 fans the worklist over that many worker threads
  /// (capped at the worklist size), each claiming the next unclaimed
  /// request; each request still fails or succeeds independently. With
  /// `cache`, requests route through run_cached, so manifests with
  /// duplicate (circuit, options) pairs compile once — outcome *content*
  /// is unchanged (a hit is byte-identical to a fresh compile modulo
  /// wall-clock), preserving the byte-determinism contract across
  /// thread counts and cache states.
  [[nodiscard]] std::vector<CompileOutcome> run_batch(
      const std::vector<CompileRequest>& requests, unsigned threads = 1,
      serve::CompileCache* cache = nullptr) const;

 private:
  [[nodiscard]] CompileOutcome run_impl(const CompileRequest& request) const;

  Options options_;
};

}  // namespace plim
