// In-memory span recorder for the traced run, plus the engine observer that
// turns ADM-G phase profiles into per-iteration child spans.
//
// Span levels: 0 = workload pass, 1 = operation (slot, tick, fleet solve),
// 2 = layer call made by the benchmark, 3 = engine iteration, 4 = engine
// phase. All spans of one operation share its id. Spans are
// written out at the end as Chrome trace-event JSON (chrome://tracing,
// https://ui.perfetto.dev).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "admm/telemetry.hpp"
#include "harness.hpp"

namespace perfbench {

enum SpanLevel : std::uint8_t {
  kPassSpan = 0,
  kOpSpan = 1,
  kLayerSpan = 2,
  kIterationSpan = 3,
  kPhaseSpan = 4,
};

class Tracer {
 public:
  /// Spans beyond this many are counted as dropped instead of kept, which
  /// bounds the trace file; per-layer numbers never come from spans.
  static constexpr std::size_t kMaxSpans = 300000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A fresh operation id (ids start at 1; 0 tags pass-level spans).
  std::uint64_t next_op() { return next_op_.fetch_add(1) + 1; }

  /// Thread-safe. `name` and `layer` must be string literals.
  void record(const char* name, const char* layer, std::uint64_t op,
              Tick start, Tick end, SpanLevel level);

  /// Writes {"traceEvents": [...]} with `metadata` (a JSON object text) as
  /// otherData. Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& metadata) const;

  std::size_t span_count() const;
  std::size_t dropped() const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    std::uint64_t op;
    double start_us;
    double duration_us;
    std::uint32_t tid;
    SpanLevel level;
  };

  Tick origin_;
  std::atomic<std::uint64_t> next_op_{0};
  mutable std::mutex mutex_;  // guards spans_, dropped_, tids_
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::map<std::thread::id, std::uint32_t> tids_;
};

/// Times one call; when a tracer is attached, records it as a span.
class Timed {
 public:
  Timed(Tracer* tracer, const char* name, const char* layer, std::uint64_t op,
        SpanLevel level)
      : tracer_(tracer), name_(name), layer_(layer), op_(op), level_(level),
        start_(now()) {}

  /// Ends the span and returns its wall seconds.
  double stop() {
    const Tick end = now();
    if (tracer_ != nullptr)
      tracer_->record(name_, layer_, op_, start_, end, level_);
    return ufc::util::seconds_between(start_, end);
  }

 private:
  Tracer* tracer_;
  const char* name_;
  const char* layer_;
  std::uint64_t op_;
  SpanLevel level_;
  Tick start_;
};

/// Summed ADM-G phase profiles (seconds) and iteration counts. As the engine
/// reports them, the lambda pass and the gate are wall time, while the
/// prediction and correction phases sum every worker thread's time; the
/// iteration wall (step plus gate) is wall time at any thread count.
struct PhaseTotals {
  double lambda_pass = 0.0;
  double prediction = 0.0;
  double correction = 0.0;
  double gate = 0.0;
  double iteration_wall = 0.0;
  std::int64_t iterations = 0;
  std::int64_t solves = 0;

  PhaseTotals& operator+=(const PhaseTotals& other) {
    lambda_pass += other.lambda_pass;
    prediction += other.prediction;
    correction += other.correction;
    gate += other.gate;
    iteration_wall += other.iteration_wall;
    iterations += other.iterations;
    solves += other.solves;
    return *this;
  }
};

/// Thread-safe engine observer (controller tenants solve in parallel). Sums
/// every sample's PhaseProfile and, while span recording is on, rebuilds the
/// iteration as an iteration span with its four phases as children, tagged
/// with the current operation id. Attach with AdmgOptions::observer plus
/// profile_phases; both are pinned bit-neutral.
class PhaseObserver final : public ufc::admm::IterationObserver {
 public:
  explicit PhaseObserver(Tracer* tracer) : tracer_(tracer) {}

  void set_op(std::uint64_t op) { op_.store(op); }
  void set_record_spans(bool on) { record_spans_.store(on); }

  void on_iteration(const ufc::admm::IterationSample& sample) override;
  void on_solve_end(const ufc::admm::SolveCore& core) override;

  /// Returns the totals accumulated since the last take() and resets them.
  PhaseTotals take();

 private:
  Tracer* tracer_;
  std::atomic<std::uint64_t> op_{0};
  std::atomic<bool> record_spans_{false};
  std::mutex mutex_;  // guards totals_
  PhaseTotals totals_;
};

}  // namespace perfbench
