// Shared vocabulary of the benchmark program: run configuration, metric
// records, the per-workload outcome, order statistics and the host stamp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/clock.hpp"

namespace perfbench {

class Tracer;

/// What one invocation was asked to do (see main.cpp for the flags).
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;    ///< Measurement window; at least one pass runs.
  bool trace = false;
  int threads = 1;          ///< min(4, nproc): the parallel workloads' width.
  std::string scratch_dir;  ///< Where the fleet's private socket dirs go.
};

/// One reported number. `samples` is how many measurements the value
/// summarizes (a median over passes, a percentile over operations, ...).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 1;
};

/// Everything a workload returns to main.
struct Outcome {
  std::int64_t attempted = 0;  ///< Checked operations.
  std::int64_t failed = 0;     ///< Operations whose output check failed.
  std::vector<std::string> failures;  ///< First few failure descriptions.
  std::size_t passes = 0;             ///< Complete workload passes measured.
  /// The gated end-to-end metrics (BENCHMARK.json `end_to_end`).
  std::vector<Metric> end_to_end;
  /// Wall-clock and memory numbers under workload-specific names (week_s,
  /// slot_p95_ms, ...): printed and written to the result file, not gated.
  std::vector<Metric> named;
  /// Per-layer metrics (traced run only; BENCHMARK.json `per_layer`).
  std::vector<Metric> per_layer;
  /// Deterministic work counts of one pass; every pass must repeat them.
  std::map<std::string, std::int64_t> work_counts;

  /// Records a failed check (counted, first few messages kept).
  void fail(const std::string& what);
  /// Counts one checked operation, failing it when `ok` is false.
  void check(bool ok, const std::string& what);
  /// Compares a pass's work counts with the first pass's; any difference is
  /// non-determinism and fails the run.
  void expect_same_counts(const std::map<std::string, std::int64_t>& counts);
};

/// Order statistics with linear interpolation between closest ranks.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
double sum(const std::vector<double>& values);

/// Monotonic clock helpers over util/clock.hpp.
using Tick = ufc::util::MonotonicTick;
inline Tick now() { return ufc::util::monotonic_now(); }
inline double seconds_since(Tick from) {
  return ufc::util::seconds_between(from, now());
}

/// CPU seconds used so far by this process (all threads) and its reaped
/// children. Unlike wall time, it does not count time spent waiting for a
/// CPU, a lock or another process.
double cpu_seconds();
/// CPU seconds the calling thread has used so far.
double thread_cpu_seconds();

/// Peak resident set size of this process, and of its largest reaped child,
/// in MB (getrusage).
double peak_rss_mb_self();
double peak_rss_mb_children();

/// The set-up metric. The workload's inputs are built once before the
/// first pass and then rebuilt in up to 16 batches spread evenly over the
/// measurement window; a batch repeats the build for at least 25 ms and
/// keeps its fastest build. setup_s is the median over the first build and
/// those batches. On a shared virtual machine a core's speed changes from
/// one moment to the next: the fastest build of a batch is the one that
/// other machines' work slowed least, and batches spread over the window see
/// the same mix of moments as the passes do.
class SetupSampler {
 public:
  /// A rebuilt set of inputs, kept until the next build is timed so that
  /// freeing it is not.
  using Built = std::shared_ptr<const void>;
  template <typename T>
  static Built keep(T value) {
    return std::make_shared<const T>(std::move(value));
  }

  /// `rebuild` builds the inputs again (wrap its result with keep()).
  SetupSampler(std::function<Built()> rebuild, double window_s);

  /// Builds the inputs the passes use, timed as the first sample.
  template <typename Build>
  auto first(Build&& build) {
    const Tick start = now();
    auto result = build();
    per_build_s_.push_back(seconds_since(start));
    next_ = now();
    return result;
  }

  /// Times one batch when the interval since the last one has elapsed and
  /// sampling is on. Call it between operations, outside their timing.
  void maybe_sample();
  /// Traced passes do not sample, so their spans cover the pass.
  void set_active(bool active) { active_ = active; }

  /// Wall seconds spent sampling so far, which the measurement window
  /// takes out of the pass it was spent in.
  double wall_spent() const { return wall_spent_; }

  Metric metric() const;

 private:
  std::function<Built()> rebuild_;
  double interval_s_;
  Tick next_;
  bool active_ = true;
  std::vector<double> per_build_s_;
  double wall_spent_ = 0.0;
};

/// Times the reference block once on the calling thread and returns its CPU
/// seconds. The block is fixed scalar integer work, eight independent
/// xorshift64 streams of 4000 steps (about 30 us). It competes for the
/// core's execution units, so a neighbour on the same physical core that
/// slows the solver slows it too (README, "Why reference blocks"), and no
/// change to the library touches it.
double reference_block_s();

/// Where a workload's operations run, and so where the reference block is
/// timed after each of them.
enum class Placement {
  Serial,  ///< On the calling thread (paper_week).
  Spread,  ///< Over all allowed CPUs: a thread pool or forked workers.
};

/// The CPU time of each operation of a pass, each followed by a timing of
/// the reference block where the operation ran: on the calling thread's CPU
/// (Serial), or on every allowed CPU in turn, averaged (Spread).
class OperationTimes {
 public:
  explicit OperationTimes(Placement placement);

  /// Bracket one operation; stop() then times the reference block.
  void start() { start_ = cpu_seconds(); }
  void stop();

  std::size_t size() const { return cpu_s_.size(); }
  /// CPU seconds of all operations.
  double cpu_s() const;
  /// CPU time of all operations in reference blocks: each operation's CPU
  /// time divided by the median of the reference timings after it and its
  /// two neighbours on either side.
  double reference_blocks() const;
  /// Wall seconds spent timing the reference block, which the measurement
  /// window takes out of the pass.
  double reference_wall_s() const { return reference_wall_s_; }

 private:
  /// Allowed CPUs (Spread); empty for Serial.
  std::vector<std::size_t> cpus_;
  double start_ = 0.0;
  std::vector<double> cpu_s_;
  std::vector<double> reference_s_;
  double reference_wall_s_ = 0.0;
};

/// What one pass did, as the measurement window counts it.
struct PassWork {
  std::int64_t iterations = 0;  ///< ADM-G iterations (protocol rounds on
                                ///< fleet_week).
  /// The pass's operations: slot solves, ticks or fleet solves.
  OperationTimes operations;
  /// Exact work counts; every pass of a run must repeat them.
  std::map<std::string, std::int64_t> counts;
};

/// Pass times collected by measure_window.
struct Window {
  std::vector<double> pass_s;            ///< Untraced passes, wall.
  std::vector<double> traced_pass_s;     ///< Traced passes, wall.
  std::vector<double> iteration_cost;    ///< Untraced passes.
  std::vector<double> iteration_cpu_us;  ///< Untraced passes.
  std::vector<double> operation_cpu_ms;  ///< Untraced passes.

  /// The gated end-to-end metrics (BENCHMARK.json `end_to_end`):
  /// iteration_cost, CPU time per iteration in reference blocks, median
  /// over passes, and setup_s.
  std::vector<Metric> gated(const SetupSampler& setup) const;
  /// iteration_cpu_us and operation_cpu_ms: CPU time per iteration and per
  /// operation, medians over passes. Printed, not gated: both move with the
  /// host's load, and operation_cpu_ms also with the seed's iteration count.
  std::vector<Metric> cpu_times() const;
  /// obs.tracing_overhead: median traced / median untraced pass wall.
  Metric tracing_overhead() const;
};

/// Runs passes until `config.seconds` have elapsed, at least one. A traced
/// run alternates untraced and traced passes, so the tracing overhead
/// compares the two within one process, and runs at least one of each.
/// `run_pass(traced)` runs one pass and times its operations; the pass's
/// wall time, less set-up sampling and reference blocks, is measured here,
/// and its exact work counts are checked against the first pass's.
Window measure_window(const RunConfig& config, Tracer* tracer,
                      const char* pass_name, SetupSampler& setup,
                      Outcome& out,
                      const std::function<PassWork(bool traced)>& run_pass);

/// Host and build fingerprint stamped on every result.
struct Stamp {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool optimized = false;  ///< Built with optimization and no sanitizer.
  std::string sanitizer;   ///< "none", "address", "thread".
};
Stamp host_stamp();

/// min(4, nproc): the thread / process width of the parallel workloads.
int parallel_width();

// The three workloads. Each runs its passes through measure_window, checks
// every operation's output and fills the outcome. With a tracer the traced
// passes record spans and the per-layer metrics are computed.
Outcome run_paper_week(const RunConfig& config, Tracer* tracer);
Outcome run_controller_week(const RunConfig& config, Tracer* tracer);
Outcome run_fleet_week(const RunConfig& config, Tracer* tracer);

}  // namespace perfbench
