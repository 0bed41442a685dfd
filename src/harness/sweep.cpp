#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>

namespace amrt::harness {

namespace {
unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("AMRT_SWEEP_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}
}  // namespace

SweepRunner::SweepRunner(SweepOptions opts)
    : threads_{resolve_threads(opts.threads)}, on_progress_{std::move(opts.on_progress)} {}

void SweepRunner::for_each(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(threads_, n));
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards first_error, done and the progress callback
  std::size_t done = 0;
  std::exception_ptr first_error;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock{mu};
        if (!first_error) first_error = std::current_exception();
      }
      if (on_progress_) {
        // Counted under the lock, so the callback sees done = 1..n in order.
        std::lock_guard<std::mutex> lock{mu};
        on_progress_(++done, n);
      }
    }
  };

  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
}

std::vector<ExperimentResult> SweepRunner::run(const std::vector<ExperimentConfig>& points) {
  return map_points(points, [](const ExperimentConfig& cfg) { return run_leaf_spine(cfg); });
}

SweepRunner make_bench_runner(const BenchOptions& opts, const char* tag) {
  SweepOptions sopts;
  sopts.threads = opts.threads;
  const std::string name = tag;
  sopts.on_progress = [name](std::size_t done, std::size_t total) {
    std::fprintf(stderr, "  %s %zu/%zu\n", name.c_str(), done, total);
  };
  return SweepRunner{sopts};
}

void export_json_if_requested(const BenchOptions& opts,
                              const std::vector<ExperimentConfig>& points,
                              const std::vector<ExperimentResult>& results) {
  if (opts.json_path.empty()) return;
  std::ofstream out{opts.json_path};
  if (!out) throw std::runtime_error("cannot open --json path: " + opts.json_path);
  write_results_json(out, points, results);
}

void write_results_json(std::ostream& os, const std::vector<ExperimentConfig>& points,
                        const std::vector<ExperimentResult>& results) {
  os << "[\n";
  const std::size_t n = std::min(points.size(), results.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& c = points[i];
    const auto& r = results[i];
    os << "  {\"proto\":\"" << transport::to_string(c.proto) << "\""
       << ",\"workload\":\"" << workload::abbrev(c.workload) << "\""
       << ",\"engine\":\"" << workload::to_string(c.engine.engine) << "\""
       << ",\"load\":" << c.load
       << ",\"n_flows\":" << c.n_flows
       << ",\"seed\":" << c.seed
       << ",\"leaves\":" << c.leaves
       << ",\"spines\":" << c.spines
       << ",\"hosts_per_leaf\":" << c.hosts_per_leaf
       << ",\"afct_us\":" << r.fct_all.afct_us
       << ",\"p99_us\":" << r.fct_all.p99_us
       << ",\"small_afct_us\":" << r.fct_small.afct_us
       << ",\"large_afct_us\":" << r.fct_large.afct_us
       << ",\"mean_slowdown\":" << r.fct_all.mean_slowdown
       << ",\"utilization\":" << r.mean_utilization
       << ",\"max_queue_pkts\":" << r.max_queue_pkts
       << ",\"drops\":" << r.drops
       << ",\"trims\":" << r.trims
       << ",\"faulted\":" << r.faulted
       << ",\"bytes_delivered\":" << r.bytes_delivered
       << ",\"flows_started\":" << r.flows_started
       << ",\"flows_completed\":" << r.flows_completed
       << ",\"groups\":" << r.group_stats.groups
       << ",\"groups_complete\":" << r.group_stats.complete
       << ",\"group_p99_us\":" << r.group_stats.p99_us
       << ",\"requests\":" << r.request_stats.groups
       << ",\"requests_complete\":" << r.request_stats.complete
       << ",\"request_p99_us\":" << r.request_stats.p99_us
       << ",\"events\":" << r.events
       << ",\"sim_seconds\":" << r.sim_seconds
       << ",\"wall_seconds\":" << r.wall_seconds
       << "}" << (i + 1 < n ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace amrt::harness
