#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>

#include "admm/solve_core.hpp"

namespace perfbench {

Tracer::Tracer() : origin_(now()) { spans_.reserve(1 << 16); }

void Tracer::record(const char* name, const char* layer, std::uint64_t op,
                    Tick start, Tick end, SpanLevel level) {
  const double start_us =
      ufc::util::seconds_between(origin_, start) * 1e6;
  const double duration_us = ufc::util::seconds_between(start, end) * 1e6;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  const auto [it, inserted] = tids_.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size()));
  spans_.push_back(
      Span{name, layer, op, start_us, duration_us, it->second, level});
}

std::size_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::size_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& metadata) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  out << std::setprecision(15) << "{\"displayTimeUnit\":\"ms\",\"otherData\":"
      << metadata << ",\"droppedSpans\":" << dropped_ << ",\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << span.name
        << "\",\"cat\":\"" << span.layer << "\",\"ph\":\"X\",\"ts\":"
        << span.start_us << ",\"dur\":" << span.duration_us
        << ",\"pid\":1,\"tid\":" << span.tid << ",\"args\":{\"op\":" << span.op
        << ",\"level\":" << static_cast<int>(span.level) << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void PhaseObserver::on_iteration(const ufc::admm::IterationSample& sample) {
  if (!sample.has_phases) return;
  const ufc::admm::PhaseProfile& phases = sample.phases;
  if (tracer_ != nullptr && record_spans_.load()) {
    // The sample arrives right after the gate closes; the step ran for
    // wall_seconds before it. Lay the phases out back to back from there.
    const Tick end = now();
    const auto at = [&](double seconds_before_end) {
      return end - std::chrono::duration_cast<Tick::duration>(
                       std::chrono::duration<double>(seconds_before_end));
    };
    const double total = sample.wall_seconds + phases.gate_seconds;
    const std::uint64_t op = op_.load();
    double offset = total;
    const auto phase = [&](const char* name, double seconds) {
      tracer_->record(name, "admm", op, at(offset), at(offset - seconds),
                      kPhaseSpan);
      offset -= seconds;
    };
    tracer_->record("admm.iteration", "admm", op, at(total), end,
                    kIterationSpan);
    const double lambda = std::min(phases.lambda_pass_seconds,
                                   sample.wall_seconds);
    phase("admm.lambda_pass", lambda);
    // Prediction and correction are summed over worker threads; share the
    // rest of the step's wall time between them in that proportion.
    const double rest = sample.wall_seconds - lambda;
    const double summed =
        phases.prediction_seconds + phases.correction_seconds;
    const double share =
        summed > 0.0 ? std::min(1.0, rest / summed) : 0.0;
    phase("admm.prediction", phases.prediction_seconds * share);
    phase("admm.correction", phases.correction_seconds * share);
    tracer_->record("admm.gate", "admm", op, at(phases.gate_seconds), end,
                    kPhaseSpan);
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_.lambda_pass += phases.lambda_pass_seconds;
  totals_.prediction += phases.prediction_seconds;
  totals_.correction += phases.correction_seconds;
  totals_.gate += phases.gate_seconds;
  totals_.iteration_wall += sample.wall_seconds + phases.gate_seconds;
  ++totals_.iterations;
}

void PhaseObserver::on_solve_end(const ufc::admm::SolveCore& /*core*/) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++totals_.solves;
}

PhaseTotals PhaseObserver::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  PhaseTotals out = totals_;
  totals_ = PhaseTotals{};
  return out;
}

}  // namespace perfbench
