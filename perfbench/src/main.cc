// perfbench — the repository benchmark binary. perfbench/run.py builds it
// and runs it; see perfbench/METRICS.md for the workloads and metrics.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --work-dir DIR --out-dir DIR [--source-id ID]
//
// Prints, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ledger
// (--trace 1). Exits 1 when a correctness check failed, 2 on bad usage and
// 3 when the binary is not an optimised build.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimisedBuild = true;
#else
constexpr bool kOptimisedBuild = false;
#endif

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      a->trace = value == "1";
    } else if (flag == "--work-dir") {
      a->work_dir = value;
    } else if (flag == "--out-dir") {
      a->out_dir = value;
    } else if (flag == "--source-id") {
      a->source_id = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds >= 1 && !a->work_dir.empty() &&
         !a->out_dir.empty();
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool with_base) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += JsonEscape(m.name) + ": {\"value\": " + FormatDouble(m.value) +
           ", \"unit\": " + JsonEscape(m.unit);
    if (with_base && m.has_base) {
      out += ", \"num\": " + FormatDouble(m.num) +
             ", \"den\": " + FormatDouble(m.den);
    }
    out += "}";
  }
  return out + "}";
}

std::string SeriesJson(
    const std::map<std::string, std::vector<double>>& series) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, values] : series) {
    if (!first) out += ", ";
    first = false;
    out += JsonEscape(k) + ": [";
    for (size_t i = 0; i < values.size(); ++i) {
      out += (i > 0 ? ", " : "") + FormatDouble(values[i]);
    }
    out += "]";
  }
  return out + "}";
}

std::string EnvJson(const Environment& env) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : env.fields) {
    if (!first) out += ", ";
    first = false;
    out += JsonEscape(k) + ": " + JsonEscape(v);
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: %s --workload W --seed N --seconds S --trace 0|1 "
            "--work-dir DIR --out-dir DIR [--source-id ID]\n",
            argv[0]);
    return 2;
  }
  if (!kOptimisedBuild) {
    fprintf(stderr, "perfbench: refusing to report from a non-optimised "
                    "build (%s)\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  RunResult (*run)(const Args&) = nullptr;
  if (args.workload == "tpcc_ilm") run = RunTpccIlm;
  if (args.workload == "kv_wire") run = RunKvWire;
  if (args.workload == "kv_durable") run = RunKvDurable;
  if (args.workload == "htap") run = RunHtap;
  if (run == nullptr) {
    fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  std::filesystem::create_directories(args.out_dir);

  RunResult r = run(args);
  r.env.Set("workload", args.workload);
  r.env.Set("seed", std::to_string(args.seed));
  r.env.Set("seconds", args.seconds);
  r.env.Set("trace", args.trace ? "1" : "0");
  r.env.Set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  r.env.Set("build_type", PERFBENCH_BUILD_TYPE);
  r.env.Set("compiler", PERFBENCH_COMPILER);
  r.env.Set("source_id", args.source_id.empty() ? "unknown" : args.source_id);
  if (!r.correct) {
    fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", r.failure.c_str());
  }

  const std::vector<Metric>& metrics =
      args.trace ? r.ledger.metrics() : r.end_to_end;
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (args.trace) {
    // The ledger, each ratio with its base, then the span file.
    for (const Metric& m : metrics) {
      if (m.has_base) {
        printf("ledger %-36s %16.6f %-10s = %.6g / %.6g\n", m.name.c_str(),
               m.value, m.unit.c_str(), m.num, m.den);
      } else {
        printf("ledger %-36s %16.6f %s\n", m.name.c_str(), m.value,
               m.unit.c_str());
      }
    }
    const std::string span_path = stem + ".spans.jsonl";
    if (WriteSpanFile(span_path, r.spans, 200'000)) {
      printf("spans written to %s\n", span_path.c_str());
    }
  }
  const std::string result_doc =
      "{\"env\": " + EnvJson(r.env) + ", \"correct\": " +
      (r.correct ? "true" : "false") + ", \"failure\": " +
      JsonEscape(r.failure) + ", \"metrics\": " + MetricsJson(metrics, true) +
      ", \"series\": " + SeriesJson(r.series) + "}\n";
  if (FILE* f = fopen((stem + ".json").c_str(), "w")) {
    fputs(result_doc.c_str(), f);
    fclose(f);
  }
  printf("env %s\n", EnvJson(r.env).c_str());
  printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
         "\"metrics\": %s}\n",
         r.correct ? "true" : "false", static_cast<long long>(r.attempted),
         static_cast<long long>(r.failed), MetricsJson(metrics, false).c_str());
  fflush(stdout);
  return r.correct ? 0 : 1;
}
