// serve_mixed: a closed loop against an in-process serve::Server on a
// Unix socket. Two client connections each send their next request only
// after the previous reply arrived (daemon callers wait for their
// answer); the server runs two compile workers with Options banks = 4,
// lockstep (the steps objective).
//
// Requests are BLIF paths into a pool written at set-up: a fixed corpus
// of mig::random_mig networks whose sizes are spaced evenly so that the
// server loads them as about 200–3000 gates (BLIF turns each majority
// gate into its AND/OR cover), plus the small EPFL control circuits,
// each re-ordered by mig::shuffle_topological from the run seed.
// The stream walks a seeded cyclic order of the whole pool, and each
// walked circuit is followed by two requests that repeat circuits among
// the last eight walked, so exactly two thirds of the requests are
// repeats. (Drawing each request as a repeat with probability 2/3 let the
// hit share vary from 60% to 66% across seeds, and latency_p50_ms, which
// sits on the hit path, with it: spread 0.159.) The cache budget
// holds about a third of the pool, so LRU eviction runs: repeats mostly
// hit (BLIF parse + structural hash + LRU lookup), and the cyclic walk
// mostly misses (the full pipeline plus cache insert and eviction). With
// most requests hitting, latency_p50_ms follows the hit path and
// miss_p50_ms the miss path.
//
// Every two seconds the loop pauses: both clients wait for their reply,
// and the ReferenceKernel runs once on each CPU the process may use while
// the workers idle. The untraced run reports each segment's timings at
// reference speed, scaled by the kernel runs around it. (Pinning the
// server to two CPUs and timing only those spread the hit path's median
// twice as far across seeds: 0.167 against 0.088.)

#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "circuits/epfl.hpp"
#include "io/blif.hpp"
#include "mig/random.hpp"
#include "serve/cache.hpp"
#include "serve/server.hpp"
#include "serve/structural_hash.hpp"

namespace perfbench {

using namespace plim;

namespace {

constexpr unsigned kRandomCircuits = 40;
/// random_mig sizes, spaced evenly so every seed has the same size mix.
constexpr std::uint32_t kMinGates = 60;
constexpr std::uint32_t kMaxGates = 780;
const char* const kControlCircuits[] = {"cavlc", "ctrl",     "dec",   "i2c",
                                        "int2float", "priority", "router"};
constexpr unsigned kClients = 2;
constexpr unsigned kWorkers = 2;
constexpr std::uint32_t kBanks = 4;
/// Each walked circuit is followed by kRepeats requests, each for one of
/// the last kRecentWindow circuits walked (itself included).
constexpr std::size_t kRecentWindow = 8;
constexpr std::size_t kRepeats = 2;
constexpr std::size_t kStreamLength = 200000;
/// Compiled-program cache budget: about a third of the pool's distinct
/// working set (measured estimated outcome bytes, see CompileCache).
constexpr std::size_t kCacheBytes = std::size_t{7} << 18;  // 1.75 MiB
constexpr unsigned kSetupRepeats = 25;
/// The closed loop pauses after every segment of this length.
constexpr double kSegmentMs = 2000.0;
constexpr std::uint64_t kCorpusSeed = 0x5e27e;

Options server_compile_options() {
  Options options;
  options.banks = kBanks;  // lockstep execution: the steps objective
  return options;
}

// ---- inputs ------------------------------------------------------------------

struct Inputs {
  std::vector<std::string> paths;    ///< BLIF pool
  std::vector<std::uint32_t> stream;  ///< pool index of request k
  /// Requests until every pool circuit was sent at least once; a run
  /// serves at least this many, so quality covers the whole pool.
  std::size_t covering_prefix = 0;
};

Inputs make_inputs(const std::string& run_dir, std::uint64_t seed) {
  Inputs in;
  const auto dir = std::filesystem::path(run_dir) / "pool";
  std::filesystem::create_directories(dir);
  util::Rng rng(seed);
  const auto write = [&](const mig::Mig& network, const std::string& name) {
    const auto path = (dir / (name + ".blif")).string();
    std::ofstream out(path);
    io::write_blif(network, out, name);
    out.close();
    if (!out) {
      throw std::runtime_error("cannot write " + path);
    }
    in.paths.push_back(path);
  };
  for (unsigned i = 0; i < kRandomCircuits; ++i) {
    mig::RandomMigOptions opts;
    opts.num_gates = kMinGates + (kMaxGates - kMinGates) * i /
                                     (kRandomCircuits - 1);
    opts.num_pis = 16 + (i * 7) % 49;
    opts.num_pos = 4 + (i * 11) % 29;
    // A fixed corpus of functions; the seed re-orders each one's nodes,
    // as the compile workloads do with the EPFL circuits.
    const auto network = mig::random_mig(opts, kCorpusSeed + i);
    write(mig::shuffle_topological(network, rng.next()),
          "r" + std::to_string(i));
  }
  for (const char* name : kControlCircuits) {
    write(mig::shuffle_topological(circuits::build_benchmark(name), rng.next()),
          name);
  }

  std::vector<std::uint32_t> order(in.paths.size());
  std::size_t cursor = order.size();
  std::vector<std::uint32_t> walked;
  std::vector<bool> seen(in.paths.size(), false);
  std::size_t unseen = in.paths.size();
  in.stream.reserve(kStreamLength);
  while (in.stream.size() < kStreamLength) {
    if (cursor == order.size()) {  // a new lap in a new order
      std::iota(order.begin(), order.end(), 0u);
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.below(i + 1)]);
      }
      cursor = 0;
    }
    const auto pick = order[cursor++];
    walked.push_back(pick);
    in.stream.push_back(pick);
    if (!seen[pick]) {
      seen[pick] = true;
      if (--unseen == 0) {
        in.covering_prefix = in.stream.size();
      }
    }
    const auto window = std::min(kRecentWindow, walked.size());
    for (std::size_t r = 0; r < kRepeats; ++r) {
      in.stream.push_back(walked[walked.size() - 1 - rng.below(window)]);
    }
  }
  return in;
}

// ---- machine speed -----------------------------------------------------------

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) {
    throw std::runtime_error("no CPU to run on");
  }
  return cpus;
}

/// Pins the calling thread to one CPU for the scope's lifetime.
class PinnedScope {
 public:
  explicit PinnedScope(int cpu) {
    CPU_ZERO(&saved_);
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    CPU_SET(cpu, &pinned);
    if (::sched_setaffinity(0, sizeof pinned, &pinned) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
  }
  ~PinnedScope() {
    static_cast<void>(::sched_setaffinity(0, sizeof saved_, &saved_));
  }
  PinnedScope(const PinnedScope&) = delete;
  PinnedScope& operator=(const PinnedScope&) = delete;

 private:
  cpu_set_t saved_;
};

/// The reference kernel's wall-clock on `cpus`: one run on each, geomean.
/// Called while the workers idle.
double probe_cpus(ReferenceKernel& kernel, const std::vector<int>& cpus) {
  double log_sum = 0.0;
  for (const int cpu : cpus) {
    const PinnedScope pin(cpu);
    log_sum += std::log(kernel.run_ms());
  }
  return std::exp(log_sum / static_cast<double>(cpus.size()));
}

// ---- server and clients ------------------------------------------------------

/// One JSON-lines client connection (closed loop: one request in flight).
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    struct sockaddr_un addr {};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    // The server binds inside serve(), on its own thread: retry briefly.
    for (int attempt = 0; attempt < 5000; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) {
        throw std::runtime_error("socket() failed");
      }
      if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof addr) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    throw std::runtime_error("cannot connect to " + socket_path);
  }
  ~Client() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line and waits for its response line.
  std::string call(const std::string& line) {
    std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const auto n = ::write(fd_, framed.data() + sent, framed.size() - sent);
      if (n <= 0) {
        throw std::runtime_error("server connection closed on write");
      }
      sent += static_cast<std::size_t>(n);
    }
    std::size_t end = 0;
    while ((end = buffer_.find('\n')) == std::string::npos) {
      char chunk[65536];
      const auto n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) {
        throw std::runtime_error("server connection closed on read");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string response = buffer_.substr(0, end);
    buffer_.erase(0, end + 1);
    return response;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// An in-process compile daemon on a Unix socket plus its connected
/// clients; the destructor disconnects, drains and joins.
class RunningServer {
 public:
  RunningServer(const std::string& socket_path, std::size_t cache_bytes) {
    serve::ServerOptions sopts;
    sopts.workers = kWorkers;
    sopts.cache_bytes = cache_bytes;
    sopts.stdio = false;
    sopts.unix_socket = socket_path;
    server_ = std::make_unique<serve::Server>(server_compile_options(), sopts);
    // serve() returns once stop() flags the drain; a listener it could
    // not set up shows as the clients' connect failure below.
    thread_ = std::thread([this]() { static_cast<void>(server_->serve()); });
    try {
      for (unsigned c = 0; c < kClients; ++c) {
        clients_.push_back(std::make_unique<Client>(socket_path));
        if (clients_.back()->call("{\"id\":\"ping\",\"cmd\":\"ping\"}")
                .find("\"pong\":true") == std::string::npos) {
          throw std::runtime_error("server did not answer ping");
        }
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~RunningServer() { stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  [[nodiscard]] Client& client(unsigned c) { return *clients_[c]; }

 private:
  void stop() {
    clients_.clear();
    server_->request_shutdown();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::thread thread_;
};

// ---- closed loop -------------------------------------------------------------

struct Response {
  std::size_t index = 0;  ///< position in the request stream
  double latency_ms = 0.0;  ///< client-observed
  double scaled_ms = 0.0;   ///< latency_ms at reference speed
  double queue_ms = 0.0;    ///< from the response envelope
  bool ok = false;
  bool hit = false;
  std::string report;  ///< the StatsReport object, timing normalized
};

double number_after(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\":");
  if (pos == std::string::npos) {
    return 0.0;
  }
  return std::strtod(line.c_str() + pos + key.size() + 3, nullptr);
}

Response parse_response(const std::string& line) {
  Response r;
  r.ok = line.find("\"ok\":true") != std::string::npos;
  r.hit = line.find("\"cache\":\"hit\"") != std::string::npos;
  r.queue_ms = number_after(line, "queue_ms");
  // "report" is the envelope's last field.
  const auto pos = line.find("\"report\":");
  if (pos != std::string::npos && line.size() >= pos + 10) {
    r.report = line.substr(pos + 9, line.size() - pos - 10);
  }
  return r;
}

/// The closed loop's responses in stream order, and its length: the
/// summed segments, as measured and at reference speed.
struct Loop {
  std::vector<Response> responses;
  double wall_s = 0.0;
  double scaled_s = 0.0;
  std::vector<double> probes_ms;  ///< the kernel runs between segments
};

Loop closed_loop(RunningServer& server, const Inputs& in, double seconds,
                 ReferenceKernel& kernel, const std::vector<int>& cpus) {
  Loop loop;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> finished{false};
  std::vector<std::vector<Response>> per_client(kClients);
  std::vector<std::string> errors(kClients);
  const auto started = Clock::now();
  loop.probes_ms.push_back(probe_cpus(kernel, cpus));
  while (!finished) {
    const auto segment_started = Clock::now();
    const auto client_loop = [&](unsigned c) noexcept {
      try {
        while (ms_since(segment_started) < kSegmentMs) {
          const auto k = next.fetch_add(1);
          if (k >= in.stream.size() ||
              (k >= in.covering_prefix &&
               ms_since(started) >= seconds * 1000.0)) {
            finished = true;
            return;
          }
          const auto request = "{\"id\":\"" + std::to_string(k) +
                               "\",\"blif\":\"" + in.paths[in.stream[k]] +
                               "\"}";
          const auto t0 = Clock::now();
          const auto line = server.client(c).call(request);
          auto response = parse_response(line);
          response.latency_ms = ms_since(t0);
          response.index = k;
          per_client[c].push_back(std::move(response));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
        finished = true;
      }
    };
    std::vector<std::size_t> segment_begin;
    for (const auto& responses : per_client) {
      segment_begin.push_back(responses.size());
    }
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, c);
    }
    for (auto& t : clients) {
      t.join();
    }
    const double segment_ms = ms_since(segment_started);
    // Both clients have their replies: the workers idle while the kernel
    // runs on every CPU.
    loop.probes_ms.push_back(probe_cpus(kernel, cpus));
    const double before = loop.probes_ms[loop.probes_ms.size() - 2];
    const double after = loop.probes_ms.back();
    loop.wall_s += segment_ms / 1000.0;
    loop.scaled_s += at_reference_speed(segment_ms, before, after) / 1000.0;
    for (unsigned c = 0; c < kClients; ++c) {
      for (auto k = segment_begin[c]; k < per_client[c].size(); ++k) {
        auto& r = per_client[c][k];
        r.scaled_ms = at_reference_speed(r.latency_ms, before, after);
      }
    }
  }
  for (const auto& error : errors) {
    if (!error.empty()) {
      throw std::runtime_error("client: " + error);
    }
  }
  for (auto& responses : per_client) {
    for (auto& r : responses) {
      loop.responses.push_back(std::move(r));
    }
  }
  std::sort(loop.responses.begin(), loop.responses.end(),
            [](const Response& a, const Response& b) {
              return a.index < b.index;
            });
  return loop;
}

/// Per pool circuit: its responses' latencies and its one report.
struct CircuitRow {
  std::vector<double> hit_ms, miss_ms;
  std::string report;
};

/// Checks every response: ok, verified, and byte-identical to the first
/// miss of its circuit (so each hit equals the miss that filled it); a
/// circuit that hits must have missed. Returns the failures.
std::uint64_t check_responses(const Inputs& in,
                              const std::vector<Response>& responses,
                              std::vector<CircuitRow>& rows) {
  rows.assign(in.paths.size(), {});
  for (const auto& r : responses) {
    auto& row = rows[in.stream[r.index]];
    if (!r.hit && row.report.empty()) {
      row.report = r.report;
    }
    (r.hit ? row.hit_ms : row.miss_ms).push_back(r.scaled_ms);
  }
  std::uint64_t failed = 0;
  for (const auto& r : responses) {
    const auto& row = rows[in.stream[r.index]];
    if (!r.ok || r.report.find("\"verified\":true") == std::string::npos ||
        row.report.empty() || r.report != row.report) {
      ++failed;
      std::fprintf(stderr, "perfbench: request %zu (%s) failed its check\n",
                   r.index, in.paths[in.stream[r.index]].c_str());
    }
  }
  return failed;
}

double report_field(const std::string& report, const std::string& key,
                    const std::string& within = "") {
  const auto from = within.empty() ? 0 : report.find("\"" + within + "\":{");
  return from == std::string::npos ? 0.0
                                   : number_after(report.substr(from), key);
}

void add_quality(Result& result, const Inputs& in,
                 const std::vector<CircuitRow>& rows) {
  std::vector<double> instructions, rrams, steps, makespan, compile_ms;
  std::printf("# %-32s %6s %5s %5s %10s %10s %7s %5s %7s %9s\n", "circuit",
              "gates", "hits", "miss", "miss_p50", "hit_p50", "#I", "#R",
              "steps", "makespan");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    instructions.push_back(report_field(row.report, "instructions"));
    rrams.push_back(report_field(row.report, "rrams"));
    steps.push_back(report_field(row.report, "steps", "schedule"));
    makespan.push_back(report_field(row.report, "makespan_cycles", "schedule"));
    compile_ms.push_back(median(row.miss_ms));
    std::printf("# %-32s %6.0f %5zu %5zu %10.3f %10.3f %7.0f %5.0f %7.0f "
                "%9.0f\n",
                in.paths[i].c_str(), report_field(row.report, "initial_gates"),
                row.hit_ms.size(), row.miss_ms.size(), median(row.miss_ms),
                median(row.hit_ms), instructions.back(), rrams.back(),
                steps.back(), makespan.back());
  }
  auto& v = result.values;
  v["instructions_geomean"] = geomean(instructions);
  v["rrams_geomean"] = geomean(rrams);
  v["steps_geomean"] = geomean(steps);
  v["makespan_cycles_geomean"] = geomean(makespan);
  v["compile_ms_geomean"] = geomean(compile_ms);
}

// ---- traced replay -----------------------------------------------------------

/// Per-request layer samples of the serial replay.
struct ReplaySamples {
  std::vector<double> io_ms, key_ms, lookup_us, insert_us, rewrite_ms,
      compile_ms, verify_ms, schedule_ms, sched_verify_ms, refine_ms,
      decoupled_timing_ms, run_ms, layered_ms, self_ms;
  /// Misses only: (layered, front door) wall-clock.
  std::vector<double> miss_layered_ms, miss_run_ms;
  WorkCounters counters;
  /// Estimated cache bytes of each distinct circuit compiled.
  std::map<std::uint32_t, std::size_t> outcome_bytes;
};

/// Replays the first `count` requests serially, twice per request: through
/// Driver::run_cached (the server's path) and through the layer functions
/// against a mirror cache of the same budget. Both must agree with each
/// other and with the closed loop's report for the circuit.
void replay_layers(const Inputs& in, std::size_t count,
                   const std::vector<CircuitRow>& rows, ReplaySamples& s,
                   Result& result, serve::CompileCache& mirror) {
  const auto options = server_compile_options();
  const Driver driver(options);
  serve::CompileCache reference(kCacheBytes);
  for (std::size_t k = 0; k < count; ++k) {
    const auto& path = in.paths[in.stream[k]];
    ++result.attempted;

    Driver::CachedOutcome front;
    double run_ms = 0.0;
    const auto run_front = [&]() {
      const auto t0 = Clock::now();
      front = driver.run_cached(CompileRequest::from_blif(path), reference);
      run_ms = ms_since(t0);
    };

    // A hit leaves the layer times at zero: it runs no pipeline.
    LayeredRun layered;
    bool layered_hit = false;
    double layered_ms = 0.0;
    const auto run_layered = [&]() {
      auto t0 = Clock::now();
      std::ifstream file(path);
      const auto network = io::read_blif(file);
      s.io_ms.push_back(ms_since(t0));
      t0 = Clock::now();
      const auto key = serve::structural_key(network, options);
      s.key_ms.push_back(ms_since(t0));
      t0 = Clock::now();
      const auto cached = mirror.lookup(key);
      s.lookup_us.push_back(ms_since(t0) * 1000.0);
      layered_ms =
          s.io_ms.back() + s.key_ms.back() + s.lookup_us.back() / 1000.0;
      layered_hit = cached != nullptr;
      if (cached) {
        layered.outcome = *cached;
        layered.outcome.stats.benchmark = path;
        return;
      }
      layered = run_layers(network, path, options);
      t0 = Clock::now();
      mirror.insert(key, std::make_shared<const CompileOutcome>(layered.outcome));
      s.insert_us.push_back(ms_since(t0) * 1000.0);
      layered_ms += layered.times.sum() + s.insert_us.back() / 1000.0;
    };

    // Alternate which side runs first so neither inherits warm caches.
    if (k % 2 == 0) {
      run_front();
      run_layered();
    } else {
      run_layered();
      run_front();
    }
    const auto& t = layered.times;
    s.rewrite_ms.push_back(t.rewrite_ms);
    s.compile_ms.push_back(t.compile_ms);
    s.verify_ms.push_back(t.verify_ms);
    s.schedule_ms.push_back(t.schedule_ms);
    s.sched_verify_ms.push_back(t.sched_verify_ms);
    s.run_ms.push_back(run_ms);
    s.layered_ms.push_back(layered_ms);
    s.self_ms.push_back(run_ms - layered_ms);

    const auto report = normalized_report(layered.outcome.stats);
    const auto& served = rows[in.stream[k]].report;
    if (!front.outcome.ok() || front.cache_hit != layered_hit ||
        report != normalized_report(front.outcome.stats) ||
        (!served.empty() && report != served)) {
      result.fidelity = false;
      std::fprintf(stderr,
                   "perfbench: layered replay diverges from the serving path "
                   "on request %zu (%s)\n",
                   k, path.c_str());
    }
    if (layered_hit) {
      s.refine_ms.push_back(0.0);
      s.decoupled_timing_ms.push_back(0.0);
      continue;
    }
    s.miss_layered_ms.push_back(layered_ms);
    s.miss_run_ms.push_back(run_ms);
    s.outcome_bytes[in.stream[k]] =
        serve::CompileCache::approx_bytes(layered.outcome);
    s.counters.add(layered.outcome.stats);
    const auto probes = probe_scheduler(layered, options, path);
    s.refine_ms.push_back(probes.refine_ms);
    s.decoupled_timing_ms.push_back(probes.decoupled_timing_ms);
  }
}

void add_layer_metrics(Result& result, const ReplaySamples& s,
                       const serve::CompileCache& mirror, std::size_t count) {
  auto& v = result.values;
  v["io.read_blif_ms"] = mean(s.io_ms);
  v["serve.structural_key_ms"] = mean(s.key_ms);
  v["serve.cache_lookup_us"] = mean(s.lookup_us);
  v["serve.cache_insert_us"] = mean(s.insert_us);
  v["mig.rewrite_ms"] = mean(s.rewrite_ms);
  v["core.compile_ms"] = mean(s.compile_ms);
  v["core.verify_ms"] = mean(s.verify_ms);
  v["sched.schedule_ms"] = mean(s.schedule_ms);
  v["sched.verify_ms"] = mean(s.sched_verify_ms);
  v["sched.refine_ms"] = mean(s.refine_ms);
  v["sched.decoupled_timing_ms"] = mean(s.decoupled_timing_ms);
  v["driver.run_ms"] = mean(s.run_ms);
  v["driver.self_ms"] = mean(s.self_ms);
  s.counters.report(result, count);
  const auto stats = mirror.stats();
  v["serve.evictions"] = static_cast<double>(stats.evictions);
  v["serve.hit_rate"] = stats.hit_rate();
  v["trace.overhead"] =
      geomean(s.miss_layered_ms) / geomean(s.miss_run_ms) - 1.0;
  const double layered_ms = mean(s.layered_ms);
  std::printf("# replay of %zu requests: %llu hits, %llu misses, %llu "
              "evictions; layered path %.3f ms/request (run_cached %.3f), "
              "of which io %.1f%%, structural key %.1f%%, rewrite %.1f%%, "
              "schedule %.1f%%\n",
              count, static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions), layered_ms,
              v["driver.run_ms"], 100 * v["io.read_blif_ms"] / layered_ms,
              100 * v["serve.structural_key_ms"] / layered_ms,
              100 * v["mig.rewrite_ms"] / layered_ms,
              100 * v["sched.schedule_ms"] / layered_ms);
  std::size_t working_set = 0;
  for (const auto& [circuit, bytes] : s.outcome_bytes) {
    working_set += bytes;
  }
  std::printf("# cache budget %zu bytes for a working set of %zu bytes over "
              "%zu circuits\n",
              kCacheBytes, working_set, s.outcome_bytes.size());
}

}  // namespace

Result run_serve_workload(const Args& args) {
  const auto socket_path = args.run_dir + "/serve.sock";
  const auto cpus = allowed_cpus();
  ReferenceKernel kernel;
  Inputs in;
  std::unique_ptr<RunningServer> server;
  // Set-up runs on this thread, between reference kernel runs on it.
  std::vector<double> setup_times;
  double before_ms = kernel.run_ms();
  for (unsigned i = 0; i < kSetupRepeats; ++i) {
    server.reset();  // the previous set-up's drain is not set-up work
    const auto t0 = Clock::now();
    in = make_inputs(args.run_dir, args.seed);
    server = std::make_unique<RunningServer>(socket_path, kCacheBytes);
    const double raw_ms = ms_since(t0);
    const double after_ms = kernel.run_ms();
    setup_times.push_back(at_reference_speed(raw_ms, before_ms, after_ms) /
                          1000.0);
    before_ms = after_ms;
  }
  const double setup_s = median(setup_times);

  Result result;
  const auto loop = closed_loop(*server, in, args.seconds, kernel, cpus);
  server.reset();
  const auto& responses = loop.responses;
  result.attempted += responses.size();
  std::vector<CircuitRow> rows;
  result.failed += check_responses(in, responses, rows);
  add_quality(result, in, rows);

  std::vector<double> all_ms, raw_ms, miss_ms, hit_ms, queue_ms;
  double compiled_gates = 0.0;
  for (const auto& r : responses) {
    all_ms.push_back(r.scaled_ms);
    raw_ms.push_back(r.latency_ms);
    (r.hit ? hit_ms : miss_ms).push_back(r.scaled_ms);
    queue_ms.push_back(r.queue_ms);
    if (!r.hit) {
      compiled_gates +=
          report_field(rows[in.stream[r.index]].report, "initial_gates");
    }
  }
  const auto tail = tail_latency(all_ms);
  const auto [lo, hi] =
      std::minmax_element(loop.probes_ms.begin(), loop.probes_ms.end());
  std::printf("# reference kernel on each of %zu CPUs between %zu "
              "segments: median %.3f ms (%.3f–%.3f); timings below are at "
              "reference speed (%.1f ms)\n",
              cpus.size(), loop.probes_ms.size() - 1, median(loop.probes_ms),
              *lo, *hi, kReferenceMs);
  std::printf("# %zu requests in %.3f s (%.3f s at reference speed) from %u "
              "closed-loop clients, %zu hits (%.1f%%); latency_tail_ms is "
              "p%.2f of %zu samples; hit p50 %.3f ms; raw p50 %.3f ms\n",
              responses.size(), loop.wall_s, loop.scaled_s, kClients,
              hit_ms.size(),
              100.0 * static_cast<double>(hit_ms.size()) /
                  static_cast<double>(responses.size()),
              tail.percentile, tail.samples, harrell_davis(hit_ms, 0.5),
              harrell_davis(raw_ms, 0.5));

  auto& v = result.values;
  if (args.trace) {
    v["serve.queue_ms"] = mean(queue_ms);
    v["serve.hit_p50_ms"] = harrell_davis(hit_ms, 0.5);
    serve::CompileCache mirror(kCacheBytes);
    ReplaySamples samples;
    const auto count = in.covering_prefix;
    replay_layers(in, count, rows, samples, result, mirror);
    add_layer_metrics(result, samples, mirror, count);
    return result;
  }
  v["requests_per_s"] = static_cast<double>(responses.size()) / loop.scaled_s;
  v["gates_per_s"] = compiled_gates / loop.scaled_s;
  v["latency_p50_ms"] = harrell_davis(all_ms, 0.5);
  v["latency_tail_ms"] = tail.value;
  v["miss_p50_ms"] = harrell_davis(miss_ms, 0.5);
  v["setup_s"] = setup_s;
  return result;
}

}  // namespace perfbench
