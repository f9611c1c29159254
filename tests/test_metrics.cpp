#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "circuits/epfl.hpp"
#include "driver/driver.hpp"
#include "mig/rewriting.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"
#include "util/trace.hpp"

namespace plim {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::MetricsRegistry::global().set_enabled(false);
    util::MetricsRegistry::global().reset();
  }
  void TearDown() override {
    util::MetricsRegistry::global().set_enabled(false);
    util::MetricsRegistry::global().reset();
  }
};

TEST_F(MetricsTest, DisabledRegistryRecordsNothing) {
  auto& reg = util::MetricsRegistry::global();
  ASSERT_FALSE(reg.enabled());
  reg.counter_add("c", 5);
  reg.gauge_set("g", 1.5);
  reg.observe("h", 3.0);
  EXPECT_EQ(reg.counter("c"), 0u);
  EXPECT_EQ(reg.gauge("g"), 0.0);
  EXPECT_EQ(reg.histogram("h").count, 0u);
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.histograms().empty());
}

TEST_F(MetricsTest, CountersAreMonotone) {
  auto& reg = util::MetricsRegistry::global();
  reg.set_enabled(true);
  std::uint64_t last = reg.counter("ops");
  for (int i = 0; i < 100; ++i) {
    reg.counter_add("ops", static_cast<std::uint64_t>(i % 3));
    const auto now = reg.counter("ops");
    EXPECT_GE(now, last);  // never goes backwards, even on +0
    last = now;
  }
  EXPECT_EQ(last, 99u);  // sum of i % 3 for i in [0, 100)

  // Saturates at the top instead of wrapping to a smaller value.
  reg.counter_add("sat", ~std::uint64_t{0});
  reg.counter_add("sat", 10);
  EXPECT_EQ(reg.counter("sat"), ~std::uint64_t{0});
}

TEST_F(MetricsTest, CountersMonotoneUnderConcurrency) {
  auto& reg = util::MetricsRegistry::global();
  reg.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kAdds = 1000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      for (int i = 0; i < kAdds; ++i) {
        reg.counter_add("concurrent");
      }
    });
  }
  for (auto& thread : pool) {
    thread.join();
  }
  EXPECT_EQ(reg.counter("concurrent"),
            static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
  auto& reg = util::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.gauge_set("depth", 3.0);
  reg.gauge_set("depth", 1.0);
  EXPECT_EQ(reg.gauge("depth"), 1.0);
}

TEST_F(MetricsTest, HistogramTracksDistribution) {
  auto& reg = util::MetricsRegistry::global();
  reg.set_enabled(true);
  for (int i = 1; i <= 100; ++i) {
    reg.observe("latency", static_cast<double>(i));
  }
  const auto h = reg.histogram("latency");
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.min, 1.0);
  EXPECT_EQ(h.max, 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Log2 buckets give coarse quantiles; assert they are ordered and in
  // a sane band rather than pinning exact interpolation artifacts.
  const auto p50 = h.quantile(0.50);
  const auto p99 = h.quantile(0.99);
  EXPECT_GE(p50, 16.0);
  EXPECT_LE(p50, 80.0);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 100.0);
  EXPECT_GE(h.quantile(0.0), 1.0);
  EXPECT_LE(h.quantile(1.0), 100.0);
}

TEST_F(MetricsTest, WriteJsonEmitsEveryKind) {
  auto& reg = util::MetricsRegistry::global();
  reg.set_enabled(true);
  reg.counter_add("refine.moves_kept", 7);
  reg.gauge_set("banks", 4.0);
  reg.observe("gain", 2.0);
  util::JsonWriter json;
  json.begin_object();
  reg.write_json(json);
  json.end_object();
  const auto& doc = json.str();
  EXPECT_NE(doc.find("\"counters\":{\"refine.moves_kept\":7}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"gauges\":{\"banks\":4"), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\":{\"gain\":{\"count\":1"),
            std::string::npos);
  const auto summary = reg.summary();
  EXPECT_NE(summary.find("refine.moves_kept = 7"), std::string::npos);
  EXPECT_NE(summary.find("gain: count=1"), std::string::npos);
}

TEST_F(MetricsTest, SchedulerFeedsRegistry) {
  auto& reg = util::MetricsRegistry::global();
  reg.set_enabled(true);
  Options options;
  options.banks = 2;
  options.verify.enabled = false;
  const Driver driver(options);
  const auto outcome = driver.run(CompileRequest::from_benchmark("ctrl"));
  ASSERT_TRUE(outcome.ok()) << outcome.error_summary();
  // The list scheduler ran at least once (refinement trials + final).
  EXPECT_GE(reg.counter("sched.list.runs"), 1u);
  EXPECT_GE(reg.histogram("sched.list.ready_depth_mean").count, 1u);
  // Refinement tallies match the schedule stats' own accounting.
  ASSERT_TRUE(outcome.stats.schedule.has_value());
  // One of those runs list-scheduled the emitted program in full.
  EXPECT_GE(reg.counter("sched.list.ops"),
            outcome.stats.schedule->parallel_instructions);
  EXPECT_EQ(reg.counter("refine.moves_tried"),
            outcome.stats.schedule->refine_moves_tried);
  EXPECT_EQ(reg.counter("refine.moves_kept") +
                reg.counter("refine.moves_rejected"),
            reg.counter("refine.moves_tried"));
  // The incremental screen's tallies agree between the registry and the
  // schedule stats: screened (estimate-only) trials are a subset of all
  // trials and never outnumber them.
  EXPECT_EQ(reg.counter("refine.moves_screened"),
            outcome.stats.schedule->refine_moves_screened);
  EXPECT_LE(reg.counter("refine.moves_screened"),
            reg.counter("refine.moves_tried"));
  // The default evaluator mode is incremental, and refine publishes it.
  EXPECT_EQ(reg.gauge("refine.incremental"), 1.0);
  // Driver-level aggregates surfaced into the report's metrics object.
  EXPECT_EQ(outcome.stats.metrics.refine_moves_tried,
            outcome.stats.schedule->refine_moves_tried);
  EXPECT_EQ(outcome.stats.metrics.refine_moves_kept,
            outcome.stats.schedule->refine_moves_kept);
  EXPECT_EQ(outcome.stats.metrics.refine_moves_screened,
            outcome.stats.schedule->refine_moves_screened);
}

TEST_F(MetricsTest, RewriteFeedsRegistry) {
  auto& reg = util::MetricsRegistry::global();
  reg.set_enabled(true);
  const auto network = circuits::build_benchmark("int2float");
  mig::RewriteStats stats;
  (void)mig::rewrite_for_plim(network, {}, &stats);
  const auto passes = reg.counter("mig.rewrite.passes");
  const auto nodes_built = reg.counter("mig.rewrite.nodes_built");
  const auto compactions = reg.counter("mig.rewrite.compactions");
  // Algorithm 1 at the default effort 4: four cycles of five passes.
  EXPECT_EQ(passes, 20u);
  // Each pass built at least the network it returned.
  EXPECT_GE(nodes_built, passes * stats.gates_after);
  // Passes that leave nothing dangling skip their compaction rebuild.
  EXPECT_GE(compactions, 1u);
  EXPECT_LT(compactions, passes);
  // The counters are work counts: a second run adds exactly as much.
  (void)mig::rewrite_for_plim(network);
  EXPECT_EQ(reg.counter("mig.rewrite.passes"), 2 * passes);
  EXPECT_EQ(reg.counter("mig.rewrite.nodes_built"), 2 * nodes_built);
  EXPECT_EQ(reg.counter("mig.rewrite.compactions"), 2 * compactions);
}

}  // namespace
}  // namespace plim
