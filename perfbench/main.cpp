// perfbench: the end-to-end benchmark of the PLiM compiler.
//
//   perfbench --workload <table1_serial|banked_decoupled|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> --run-dir <dir>
//
// Prints per-circuit rows and notes as "# " lines, then one JSON result
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end list below, measured with no layer timing;
// with --trace 1 they are the per-layer list, from a separate run that
// times each layer from outside by calling its public functions.

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <set>
#include <string>

#include "bench.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// One list per mode; BENCHMARK.json names the same metrics. A workload
// that does not load a layer reports that layer's metrics as 0.
constexpr MetricSpec kEndToEnd[] = {
    {"gates_per_s", "gates/s"},
    {"requests_per_s", "1/s"},
    {"compile_ms_geomean", "ms"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"miss_p50_ms", "ms"},
    {"instructions_geomean", "count"},
    {"rrams_geomean", "count"},
    {"steps_geomean", "count"},
    {"makespan_cycles_geomean", "cycles"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"io.read_blif_ms", "ms"},
    {"mig.rewrite_ms", "ms"},
    {"mig.gates_after", "count"},
    {"mig.depth_after", "count"},
    {"core.compile_ms", "ms"},
    {"core.verify_ms", "ms"},
    {"core.peak_live_rrams", "count"},
    {"sched.schedule_ms", "ms"},
    {"sched.refine_ms", "ms"},
    {"sched.refine_moves_tried", "count"},
    {"sched.refine_full_evals", "count"},
    {"sched.refine_keep_ratio", "ratio"},
    {"sched.decoupled_timing_ms", "ms"},
    {"sched.verify_ms", "ms"},
    {"sched.transfers", "count"},
    {"sched.sync_tokens", "count"},
    {"sched.bus_stalls", "count"},
    {"sched.stream_reorder_saved_cycles", "cycles"},
    {"serve.structural_key_ms", "ms"},
    {"serve.cache_lookup_us", "us"},
    {"serve.cache_insert_us", "us"},
    {"serve.evictions", "count"},
    {"serve.queue_ms", "ms"},
    {"serve.hit_rate", "ratio"},
    {"serve.hit_p50_ms", "ms"},
    {"driver.run_ms", "ms"},
    {"driver.self_ms", "ms"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <table1_serial|banked_decoupled|"
               "serve_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "--run-dir <dir>\n";
  std::exit(2);
}

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  bool have_run_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--run-dir") {
        args.run_dir = value;
        have_run_dir = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + flag);
    }
  }
  if (args.workload.empty() || !have_run_dir || !(args.seconds > 0.0)) {
    usage("--workload, --run-dir and a positive --seconds are required");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  perfbench::Result result;
  try {
    if (args.workload == "table1_serial" ||
        args.workload == "banked_decoupled") {
      result = perfbench::run_compile_workload(args);
    } else if (args.workload == "serve_mixed") {
      result = perfbench::run_serve_workload(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
  result.values["peak_rss_mb"] = perfbench::peak_rss_mb();

  std::set<std::string> known;
  for (const auto& m : kEndToEnd) {
    known.insert(m.name);
  }
  for (const auto& m : kPerLayer) {
    known.insert(m.name);
  }
  for (const auto& [name, value] : result.values) {
    if (known.count(name) == 0) {
      std::cerr << "perfbench: internal error: unlisted metric " << name
                << '\n';
      return 1;
    }
  }

  const auto print_metrics = [&](const auto& specs) {
    bool first = true;
    for (const auto& m : specs) {
      const auto it = result.values.find(m.name);
      const double value = it == result.values.end() ? 0.0 : it->second;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name,
                  std::isfinite(value) ? value : 0.0, m.unit);
      first = false;
    }
  };
  const bool correct = result.failed == 0 && result.fidelity;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  if (args.trace) {
    print_metrics(kPerLayer);
  } else {
    print_metrics(kEndToEnd);
  }
  std::printf("}}\n");
  return 0;
}
