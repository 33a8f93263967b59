#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <fstream>
#include <thread>
#include <utility>

#include "tracer.hpp"

namespace perfbench {

void Outcome::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

void Outcome::expect_same_counts(
    const std::map<std::string, std::int64_t>& counts) {
  if (work_counts.empty()) {
    work_counts = counts;
    return;
  }
  ++attempted;
  if (counts != work_counts)
    fail("non-determinism: a repeated pass changed its exact work counts");
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

namespace {

/// Set-up batches per measurement window (at most), and the least time one
/// batch builds for, so that it holds several builds.
constexpr std::size_t kSetupBatches = 16;
constexpr double kSetupBatchS = 0.025;

}  // namespace

SetupSampler::SetupSampler(std::function<Built()> rebuild, double window_s)
    : rebuild_(std::move(rebuild)),
      interval_s_(window_s / static_cast<double>(kSetupBatches)),
      next_(now()) {}

void SetupSampler::maybe_sample() {
  if (!active_ || per_build_s_.size() > kSetupBatches ||
      ufc::util::seconds_between(next_, now()) < interval_s_)
    return;
  const Tick start = now();
  Built previous;
  double fastest_s = 1e300;
  do {
    const Tick build_start = now();
    Built next = rebuild_();
    fastest_s = std::min(fastest_s, seconds_since(build_start));
    previous = std::move(next);
  } while (seconds_since(start) < kSetupBatchS);
  previous.reset();
  per_build_s_.push_back(fastest_s);
  wall_spent_ += seconds_since(start);
  next_ = now();
}

Metric SetupSampler::metric() const {
  return {"setup_s", "s", median(per_build_s_), per_build_s_.size()};
}

double reference_block_s() {
  static volatile std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  std::uint64_t a = seed, b = a + 1, c = a + 2, d = a + 3, e = a + 4,
                f = a + 5, g = a + 6, h = a + 7;
  const auto step = [](std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  };
  const double start = thread_cpu_seconds();
  for (int k = 0; k < 4000; ++k) {
    step(a), step(b), step(c), step(d), step(e), step(f), step(g), step(h);
    // Keeps the streams in scalar registers: no vectorization, no folding.
    asm volatile(""
                 : "+r"(a), "+r"(b), "+r"(c), "+r"(d), "+r"(e), "+r"(f),
                   "+r"(g), "+r"(h));
  }
  const double spent = thread_cpu_seconds() - start;
  seed = a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;
  return spent;
}

OperationTimes::OperationTimes(Placement placement) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (placement == Placement::Spread &&
      sched_getaffinity(0, sizeof allowed, &allowed) == 0)
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
}

void OperationTimes::stop() {
  cpu_s_.push_back(cpu_seconds() - start_);
  const Tick wall_start = now();
  if (cpus_.empty()) {
    reference_s_.push_back(reference_block_s());
  } else {
    cpu_set_t original;
    CPU_ZERO(&original);
    sched_getaffinity(0, sizeof original, &original);
    double total = 0.0;
    for (std::size_t cpu : cpus_) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      total += reference_block_s();
    }
    sched_setaffinity(0, sizeof original, &original);
    reference_s_.push_back(total / static_cast<double>(cpus_.size()));
  }
  reference_wall_s_ += seconds_since(wall_start);
}

double OperationTimes::cpu_s() const { return sum(cpu_s_); }

double OperationTimes::reference_blocks() const {
  double blocks = 0.0;
  for (std::size_t k = 0; k < cpu_s_.size(); ++k) {
    const auto first = reference_s_.begin() +
                       static_cast<std::ptrdiff_t>(k >= 2 ? k - 2 : 0);
    const auto last = reference_s_.begin() +
                      static_cast<std::ptrdiff_t>(
                          std::min(k + 3, reference_s_.size()));
    blocks += cpu_s_[k] / median(std::vector<double>(first, last));
  }
  return blocks;
}

std::vector<Metric> Window::gated(const SetupSampler& setup) const {
  return {{"iteration_cost", "ref", median(iteration_cost),
           iteration_cost.size()},
          setup.metric()};
}

std::vector<Metric> Window::cpu_times() const {
  return {{"iteration_cpu_us", "us", median(iteration_cpu_us),
           iteration_cpu_us.size()},
          {"operation_cpu_ms", "ms", median(operation_cpu_ms),
           operation_cpu_ms.size()}};
}

Metric Window::tracing_overhead() const {
  return {"obs.tracing_overhead", "ratio",
          median(traced_pass_s) / median(pass_s), traced_pass_s.size()};
}

Window measure_window(const RunConfig& config, Tracer* tracer,
                      const char* pass_name, SetupSampler& setup,
                      Outcome& out,
                      const std::function<PassWork(bool traced)>& run_pass) {
  Window window;
  const Tick begin = now();
  for (int k = 0;; ++k) {
    const bool traced = tracer != nullptr && k % 2 == 1;
    setup.set_active(!traced);
    const double setup_wall = setup.wall_spent();
    Timed span(traced ? tracer : nullptr, pass_name, "workload", 0, kPassSpan);
    const PassWork work = run_pass(traced);
    const double wall_s = span.stop() - (setup.wall_spent() - setup_wall) -
                          work.operations.reference_wall_s();
    out.expect_same_counts(work.counts);
    ++out.passes;
    if (traced) {
      window.traced_pass_s.push_back(wall_s);
    } else {
      const auto iterations = static_cast<double>(work.iterations);
      window.pass_s.push_back(wall_s);
      window.iteration_cost.push_back(work.operations.reference_blocks() /
                                      iterations);
      window.iteration_cpu_us.push_back(work.operations.cpu_s() * 1e6 /
                                        iterations);
      window.operation_cpu_ms.push_back(
          work.operations.cpu_s() * 1e3 /
          static_cast<double>(work.operations.size()));
    }
    const bool need_traced = tracer != nullptr && window.traced_pass_s.empty();
    if (seconds_since(begin) >= config.seconds && !need_traced) break;
  }
  setup.set_active(true);
  return window;
}

namespace {

double max_rss_mb(int who) {
  rusage usage{};
  if (getrusage(who, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

double thread_cpu_seconds() {
  timespec self{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &self);
  return static_cast<double>(self.tv_sec) +
         static_cast<double>(self.tv_nsec) * 1e-9;
}

double cpu_seconds() {
  timespec self{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &self);
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return static_cast<double>(self.tv_sec) +
         static_cast<double>(self.tv_nsec) * 1e-9 +
         seconds(children.ru_utime) + seconds(children.ru_stime);
}

double peak_rss_mb_self() { return max_rss_mb(RUSAGE_SELF); }
double peak_rss_mb_children() { return max_rss_mb(RUSAGE_CHILDREN); }

int parallel_width() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, cores));
}

Stamp host_stamp() {
  Stamp stamp;
  stamp.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos)
        stamp.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      break;
    }
  }
  if (stamp.cpu_model.empty()) stamp.cpu_model = "unknown";
  stamp.compiler = UFC_PERFBENCH_COMPILER;
  stamp.build_type = UFC_PERFBENCH_BUILD_TYPE;
#if defined(__SANITIZE_ADDRESS__)
  stamp.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  stamp.sanitizer = "thread";
#else
  stamp.sanitizer = "none";
#endif
#if defined(__OPTIMIZE__)
  stamp.optimized = stamp.sanitizer == "none" && stamp.build_type != "Debug";
#else
  stamp.optimized = false;
#endif
  return stamp;
}

}  // namespace perfbench
