#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "circuits/epfl.hpp"
#include "core/verify.hpp"
#include "driver/driver.hpp"
#include "mig/cleanup.hpp"

namespace plim {
namespace {

/// The three experimental configurations of Table 1, each one Driver
/// option set: naïve (no rewriting, index-order candidates), rewriting
/// (Algorithm 1 + index order) and rewriting + smart compilation.
enum class Column { naive, rewriting, rewriting_and_compilation };

Options column_options(Column column) {
  Options options;
  if (column == Column::naive) {
    options.rewrite.effort = 0;
  }
  options.compile.smart_candidates =
      column == Column::rewriting_and_compilation;
  return options;
}

CompileOutcome run_column(const mig::Mig& m, Column column) {
  auto outcome =
      Driver(column_options(column)).run(CompileRequest::from_mig(m, "t"));
  EXPECT_TRUE(outcome.ok()) << outcome.error_summary();
  return outcome;
}

TEST(Pipeline, NaiveConfigUsesUnrewrittenNetwork) {
  const auto m = circuits::build_benchmark("ctrl");
  const auto r = run_column(m, Column::naive);
  EXPECT_EQ(r.stats.gates, mig::cleanup_dangling(m).num_gates());
  EXPECT_EQ(r.stats.rewrite.gates_before, m.num_gates());
  EXPECT_EQ(r.stats.rewrite.gates_after, r.stats.gates);
}

TEST(Pipeline, RewritingConfigsReportStats) {
  const auto m = circuits::build_benchmark("ctrl");
  const auto r = run_column(m, Column::rewriting);
  EXPECT_GT(r.stats.rewrite.gates_before, 0u);
  EXPECT_EQ(r.stats.gates, r.stats.rewrite.gates_after);
}

TEST(Pipeline, FullPipelineBeatsNaiveOnTheSuiteAggregate) {
  // The paper's headline: over the suite, rewriting+compilation reduces
  // both #I and #R versus the naïve translation. Individual benchmarks
  // may regress (the paper's Table 1 has negative entries too), so this
  // asserts the aggregate on a representative subset.
  std::uint64_t i_naive = 0;
  std::uint64_t i_full = 0;
  std::uint64_t r_naive = 0;
  std::uint64_t r_full = 0;
  for (const char* name : {"cavlc", "ctrl", "router", "int2float", "i2c"}) {
    const auto m = circuits::build_benchmark(name);
    const auto naive = run_column(m, Column::naive);
    const auto full = run_column(m, Column::rewriting_and_compilation);
    i_naive += naive.stats.compile.num_instructions;
    i_full += full.stats.compile.num_instructions;
    r_naive += naive.stats.compile.num_rrams;
    r_full += full.stats.compile.num_rrams;
  }
  EXPECT_LT(i_full, i_naive);
  EXPECT_LT(r_full, r_naive);
}

TEST(Pipeline, AllConfigsVerifyOnBenchmarks) {
  for (const char* name : {"cavlc", "router", "int2float"}) {
    const auto m = circuits::build_benchmark(name);
    for (const auto column : {Column::naive, Column::rewriting,
                              Column::rewriting_and_compilation}) {
      const auto r = run_column(m, column);
      EXPECT_TRUE(r.stats.verified) << name;
      // An independent end-to-end check against the *original* network
      // (other vectors than the driver's own), which covers rewriting
      // and compilation together.
      const auto v = core::verify_program(m, r.program, 4, 9);
      EXPECT_TRUE(v.ok) << name << ": " << v.message;
    }
  }
}

TEST(Pipeline, ForwardsExecutionModelToScheduler) {
  const auto m = circuits::build_benchmark("int2float");
  Options options;
  options.banks = 4;
  options.schedule.execution = sched::ExecutionModel::decoupled;
  const auto r = Driver(options).run(CompileRequest::from_mig(m, "t"));
  ASSERT_TRUE(r.ok()) << r.error_summary();
  ASSERT_TRUE(r.stats.schedule.has_value());
  const auto& s = *r.stats.schedule;
  EXPECT_EQ(s.execution, sched::ExecutionModel::decoupled);
  EXPECT_EQ(s.makespan_cycles, s.decoupled_cycles);
  EXPECT_LE(s.decoupled_cycles, s.lockstep_cycles);
  EXPECT_GT(s.sync_tokens, 0u);
  ASSERT_EQ(s.bank_idle_cycles.size(), 4u);
}

// ---- plimc CLI flag combinations --------------------------------------------

/// Runs the plimc binary (built next to the test, cwd = build dir) and
/// captures stdout. Returns the exit status via `status`.
std::string run_plimc(const std::string& flags, int& status) {
  const std::string cmd = "./plimc " + flags + " 2>/dev/null";
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    status = -1;
    return out;
  }
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    out += buf.data();
  }
  status = pclose(pipe);
  return out;
}

/// Like run_plimc, but captures stderr (where plimc routes every
/// diagnostic) and discards stdout.
std::string run_plimc_stderr(const std::string& flags, int& status) {
  const std::string cmd = "./plimc " + flags + " 2>&1 1>/dev/null";
  std::array<char, 4096> buf{};
  std::string out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    status = -1;
    return out;
  }
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) {
    out += buf.data();
  }
  status = pclose(pipe);
  return out;
}

bool plimc_available() {
  std::ifstream bin("./plimc");
  return bin.good();
}

TEST(PlimcCli, JsonToStdoutSuppressesListing) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  int status = 0;
  // "--json -" without -o: stats own stdout, the listing is suppressed.
  const auto out = run_plimc("--benchmark ctrl --banks 2 --json -", status);
  EXPECT_EQ(status, 0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.find("# parallel banks"), std::string::npos);
  EXPECT_NE(out.find("\"makespan_cycles\""), std::string::npos);
  EXPECT_NE(out.find("\"bank_idle_cycles\""), std::string::npos);
}

TEST(PlimcCli, JsonToStdoutWithOutputFileKeepsBoth) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  int status = 0;
  const auto out = run_plimc(
      "--benchmark ctrl --banks 2 --json - -o plimc_cli_test.plim", status);
  EXPECT_EQ(status, 0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), '{');
  std::ifstream listing("plimc_cli_test.plim");
  ASSERT_TRUE(listing.good());
  std::stringstream ss;
  ss << listing.rdbuf();
  EXPECT_NE(ss.str().find("# parallel banks 2"), std::string::npos);
  std::remove("plimc_cli_test.plim");
}

TEST(PlimcCli, JsonFileKeepsListingOnStdout) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  int status = 0;
  const auto out =
      run_plimc("--benchmark ctrl --banks 2 --json plimc_cli_test.json",
                status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(out.find("# parallel banks 2"), std::string::npos);
  std::ifstream json("plimc_cli_test.json");
  ASSERT_TRUE(json.good());
  std::stringstream ss;
  ss << json.rdbuf();
  EXPECT_EQ(ss.str().find("# parallel"), std::string::npos);
  EXPECT_NE(ss.str().find("\"schedule\""), std::string::npos);
  std::remove("plimc_cli_test.json");
}

TEST(PlimcCli, DecoupledExecutionFlag) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  int status = 0;
  const auto out = run_plimc(
      "--benchmark ctrl --banks 2 --execution decoupled --json -", status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(out.find("\"execution\":\"decoupled\""), std::string::npos);
  // The sync tokens ride the listing when it is requested.
  const auto listing = run_plimc(
      "--benchmark int2float --banks 4 --execution decoupled", status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(listing.find("# sync t1:"), std::string::npos);
  // Unknown model names are usage errors.
  (void)run_plimc("--benchmark ctrl --banks 2 --execution warp", status);
  EXPECT_NE(status, 0);
  // Decoupled execution without a schedule would be silently meaningless.
  (void)run_plimc("--benchmark ctrl --execution decoupled", status);
  EXPECT_NE(status, 0);
}

/// Numeric flags are plain decimal numbers within their bound (32 bits
/// unless stated): anything else is a usage error, exit 2, at parse
/// time — no wrap-around and no run at a truncated value.
TEST(PlimcCli, RejectsMalformedAndOutOfRangeNumbers) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  int status = 0;
  const auto exit_code = [&] {
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  for (const char* flags :
       {"--benchmark ctrl --banks 4294967297",
        "--benchmark ctrl --effort 4294967297", "--benchmark ctrl --effort x",
        "--benchmark ctrl --banks -1", "--benchmark ctrl --cap 1e3",
        "--benchmark ctrl --banks 2 --refine-passes ''"}) {
    const auto err = run_plimc_stderr(flags, status);
    EXPECT_EQ(exit_code(), 2) << flags;
    EXPECT_NE(err.find("usage: plimc"), std::string::npos) << flags;
  }
  // The serve-only bounds: --threads ≤ serve::kMaxWorkers, --listen ≤
  // 65535. Every case also passes -o, which --serve refuses before any
  // worker starts — so even a parser that let the value through could
  // not spawn the threads; the usage text shows the parser refused.
  for (const char* flags : {"--serve --threads 4294967295 -o /dev/null",
                            "--serve --threads 257 -o /dev/null",
                            "--serve --listen 70000 -o /dev/null"}) {
    const auto err = run_plimc_stderr(flags, status);
    EXPECT_EQ(exit_code(), 2) << flags;
    EXPECT_NE(err.find("usage: plimc"), std::string::npos) << flags;
    EXPECT_EQ(err.find("not supported with --serve"), std::string::npos)
        << flags;
  }
  // In-range values still parse.
  const auto out =
      run_plimc("--benchmark ctrl --banks 2 --effort 1 --json -", status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(out.find("\"banks\":2"), std::string::npos);
}

TEST(PlimcCli, WarningsGoToStderrAndKeepExitZero) {
  if (!plimc_available()) {
    GTEST_SKIP() << "plimc binary not in the working directory";
  }
  // --degrade without --cap is inert: a warning, never a failure.
  int status = 0;
  auto err = run_plimc_stderr("--benchmark ctrl --degrade --json -", status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(err.find("warning[degradation-without-cap]"), std::string::npos);
  // The hint names the flag plimc actually accepts.
  EXPECT_NE(err.find("--cap N"), std::string::npos);

  // A degraded-but-successful compile: retry + degradation warnings on
  // stderr, exit 0, and stdout stays pure JSON (warnings must not leak
  // into a machine-read stream).
  const auto out =
      run_plimc("--benchmark int2float --cap 18 --degrade --json -", status);
  EXPECT_EQ(status, 0);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.front(), '{');
  EXPECT_EQ(out.find("warning["), std::string::npos);
  err = run_plimc_stderr("--benchmark int2float --cap 18 --degrade --json -",
                         status);
  EXPECT_EQ(status, 0);
  EXPECT_NE(err.find("warning[rram-cap-retry]"), std::string::npos);
  EXPECT_NE(err.find("warning[rram-cap-degraded]"), std::string::npos);

  // Below the live-set lower bound every rung fails: error on stderr,
  // non-zero exit.
  err = run_plimc_stderr("--benchmark int2float --cap 5 --degrade --json -",
                         status);
  EXPECT_NE(status, 0);
  EXPECT_NE(err.find("error[rram-cap-exceeded]"), std::string::npos);
  EXPECT_NE(err.find("live-set lower bound"), std::string::npos);
}

TEST(Pipeline, CustomRewriteEffortIsHonored) {
  const auto request =
      CompileRequest::from_mig(circuits::build_benchmark("cavlc"), "cavlc");
  auto options = column_options(Column::rewriting_and_compilation);
  options.rewrite.effort = 1;
  const auto r1 = Driver(options).run(request);
  options.rewrite.effort = 6;
  const auto r6 = Driver(options).run(request);
  ASSERT_TRUE(r1.ok() && r6.ok());
  EXPECT_LE(r6.stats.compile.num_instructions,
            r1.stats.compile.num_instructions + 8);
}

}  // namespace
}  // namespace plim
