// ufc_perfbench: the repository benchmark (see ../README.md).
//
//   ufc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--results <dir>] [--git-sha <sha>]
//
// Runs one workload for the measurement window, checks its outputs, writes
// a stamped result file (and, traced, a Chrome trace) into --results, and
// prints as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1) the workload measured, each with its sample count. run.py
// checks them against BENCHMARK.json, the one list of metrics. Exit codes:
// 0 result printed, 1 workload error, 2 usage, 3 refused build (unoptimized
// or sanitized).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

int usage(const std::string& why) {
  std::cerr << "ufc_perfbench: " << why << "\n"
            << "usage: ufc_perfbench --workload "
               "<paper_week|controller_week|fleet_week>\n"
               "                     --seed <n> --seconds <s> --trace <0|1>\n"
               "                     [--results <dir>] [--git-sha <sha>]\n";
  return 2;
}

template <typename T>
bool parse_number(const std::string& text, T& out) {
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc() && result.ptr == text.data() + text.size();
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string metrics_object(const std::vector<Metric>& list) {
  std::ostringstream out;
  out << "{";
  for (std::size_t k = 0; k < list.size(); ++k) {
    const Metric& m = list[k];
    out << (k ? ", " : "") << "\"" << m.name << "\": {\"value\": "
        << number(m.value) << ", \"unit\": \"" << m.unit
        << "\", \"samples\": " << m.samples << "}";
  }
  out << "}";
  return out.str();
}

std::string stamp_object(const Stamp& stamp, const RunConfig& config,
                         const std::string& git_sha) {
  std::ostringstream out;
  out << "{\"nproc\": " << stamp.nproc << ", \"cpu_model\": \""
      << json_escape(stamp.cpu_model) << "\", \"compiler\": \""
      << json_escape(stamp.compiler) << "\", \"build_type\": \""
      << stamp.build_type << "\", \"sanitizer\": \"" << stamp.sanitizer
      << "\", \"git_sha\": \"" << json_escape(git_sha)
      << "\", \"workload\": \"" << config.workload
      << "\", \"seed\": " << config.seed
      << ", \"seconds\": " << number(config.seconds)
      << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"threads\": " << config.threads << "}";
  return out.str();
}

void print_summary(const Outcome& out, const std::vector<Metric>& reported) {
  for (const auto* list : {&out.named, &reported})
    for (const Metric& m : *list)
      std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
                << " (n=" << m.samples << ")\n";
  for (const auto& [name, count] : out.work_counts)
    std::cout << "  exact " << name << " = " << count << "\n";
  for (const auto& failure : out.failures)
    std::cout << "  FAILED: " << failure << "\n";
}

int run(int argc, char** argv) {
  RunConfig config;
  std::string results = ".";
  std::string git_sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++k];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_number(value, config.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, config.seconds) || config.seconds <= 0.0)
        return usage("bad --seconds");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--results") {
      results = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  Outcome (*workload)(const RunConfig&, Tracer*) = nullptr;
  if (config.workload == "paper_week") workload = run_paper_week;
  if (config.workload == "controller_week") workload = run_controller_week;
  if (config.workload == "fleet_week") workload = run_fleet_week;
  if (workload == nullptr) return usage("unknown workload " + config.workload);

  const Stamp stamp = host_stamp();
  if (!stamp.optimized) {
    std::cerr << "ufc_perfbench: refusing to time a " << stamp.build_type
              << " build (sanitizer: " << stamp.sanitizer
              << "); build Release or RelWithDebInfo\n";
    return 3;
  }
  config.threads = parallel_width();
  std::filesystem::create_directories(results);
  config.scratch_dir = results;

  Tracer tracer;
  const Outcome out = workload(config, config.trace ? &tracer : nullptr);

  const auto& reported = config.trace ? out.per_layer : out.end_to_end;
  bool finite = true;
  for (const Metric& m : reported) finite &= std::isfinite(m.value);
  if (!finite) {
    std::cerr << "ufc_perfbench: a metric is not finite\n";
    return 1;
  }

  const std::string stamp_json = stamp_object(stamp, config, git_sha);
  const std::string base = results + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  std::string trace_path;
  if (config.trace) {
    trace_path = base + ".trace.json";
    if (!tracer.write_chrome(trace_path, stamp_json)) {
      std::cerr << "ufc_perfbench: cannot write " << trace_path << "\n";
      return 1;
    }
  }

  std::cout << "ufc_perfbench " << stamp_json << "\n";
  std::cout << config.workload << ": " << out.passes << " passes, "
            << out.attempted << " checked operations, " << out.failed
            << " failed\n";
  print_summary(out, reported);
  if (config.trace)
    std::cout << "  trace: " << trace_path << " (" << tracer.span_count()
              << " spans, " << tracer.dropped() << " dropped)\n";

  {
    std::ofstream file(base + ".json");
    file << "{\"stamp\": " << stamp_json << ", \"attempted\": "
         << out.attempted << ", \"failed\": " << out.failed
         << ", \"passes\": " << out.passes << ", \"failures\": [";
    for (std::size_t k = 0; k < out.failures.size(); ++k)
      file << (k ? ", " : "") << "\"" << json_escape(out.failures[k]) << "\"";
    file << "], \"end_to_end\": " << metrics_object(out.end_to_end)
         << ", \"workload_metrics\": " << metrics_object(out.named);
    if (config.trace)
      file << ", \"per_layer\": " << metrics_object(out.per_layer)
           << ", \"trace_file\": \"" << json_escape(trace_path) << "\"";
    file << ", \"work_counts\": {";
    bool first = true;
    for (const auto& [name, count] : out.work_counts) {
      file << (first ? "" : ", ") << "\"" << name << "\": " << count;
      first = false;
    }
    file << "}}\n";
  }

  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics_object(reported) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "ufc_perfbench: " << error.what() << "\n";
    return 1;
  }
}
