// The repo benchmark's workload runner. perfbench/run.py builds it and runs
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--git-sha <sha>]
//
// Set-up (database, load, reference results, warm-up) runs at least four
// times and until two seconds have gone, at most nine times; setup_s is the
// median, so cheap set-ups get more samples. The last set-up is measured. --trace 0 runs
// the closed loop untraced for --seconds and reports the end-to-end
// metrics. --trace 1 runs half the time untraced and half traced (spans
// around each call into a layer) and reports the per-layer metrics, which
// include the traced/untraced throughput ratio. A human-readable report comes
// first; the last line of stdout is the result object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Exits 1 when any output check failed or any statement failed, and 2 on a
// usage or set-up error or a build without optimization.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "metrics.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/run";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

bool OptimizedBuild() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Report-only context: the sample count or the base of a ratio.
  std::string note;
};

/// Per-layer numbers from a traced phase's spans.
struct LayerTimes {
  std::vector<std::vector<double>> duration_us = std::vector<std::vector<double>>(kNumLayers);
  std::vector<double> self_ns = std::vector<double>(kNumLayers, 0.0);
  double stmt_ns = 0;
  size_t statements = 0;

  double MedianUs(int layer) const { return Median(duration_us[static_cast<size_t>(layer)]); }
  double Share(int layer) const {
    return Ratio(self_ns[static_cast<size_t>(layer)], stmt_ns);
  }
};

LayerTimes SummarizeSpans(const std::vector<Span>& spans) {
  LayerTimes t;
  const std::vector<int64_t> self = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto layer = static_cast<size_t>(s.layer);
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    t.duration_us[layer].push_back(dur / 1e3);
    t.self_ns[layer] += static_cast<double>(self[i]);
    if (s.layer == kStmt) {
      t.stmt_ns += dur;
      ++t.statements;
    }
  }
  return t;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "stmt,id,parent,layer,start_ns,end_ns\n";
  for (const Span& s : spans) {
    out << s.stmt << ',' << s.id << ',' << s.parent << ',' << LayerName(s.layer) << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
}

/// A latency sample's median and tail as two metrics named
/// `<prefix>_p50_ms` and `<prefix>_tail_ms`, with the sample count and the
/// percentile used in their notes. `tail` is read from `ms`.
void AddLatency(const std::string& prefix, const std::vector<double>& ms, const Tail& tail,
                std::vector<Metric>* m) {
  const std::string n = "n=" + std::to_string(tail.samples);
  m->push_back({prefix + "_p50_ms", Median(ms), "ms", n});
  m->push_back({prefix + "_tail_ms", tail.value, "ms",
                n + " p" + std::to_string(tail.percentile) + " beyond=" +
                    std::to_string(tail.beyond) +
                    (tail.blocks > 1 ? " median of " + std::to_string(tail.blocks) +
                                           " consecutive blocks"
                                     : "") +
                    (tail.supported ? "" : " (too few samples for a tail)")});
}

/// read_tail_ms is the median of the tails of consecutive blocks of at
/// least this many reads (so each block's tail is its p95), at most
/// kTailBlocksMax blocks; fewer than 2 * kTailBlockMin reads are one block.
constexpr size_t kTailBlockMin = 1000;
constexpr size_t kTailBlocksMax = 20;

std::vector<Metric> EndToEnd(const PhaseResult& r, const std::vector<double>& setups) {
  std::vector<Metric> m;
  const std::vector<double> in_order = InCompletionOrder(r.read_ms, r.read_done_ns);
  AddLatency("read", r.read_ms, BlockTail(in_order, kTailBlockMin, kTailBlocksMax), &m);
  m.push_back({"throughput_qps", Ratio(static_cast<double>(r.completed), r.wall_s), "1/s",
               "n=" + std::to_string(r.completed) + " wall_s=" + Num(r.wall_s)});
  m.push_back({"setup_s", Median(setups), "s", "median of n=" + std::to_string(setups.size())});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB", "process peak"});
  return m;
}

/// Report-only end-to-end numbers: the pooled read p99, write latencies
/// (serving_mix) and the failure ratio, which is 0 on a healthy run and so
/// cannot be a gated metric; the result object carries it as
/// attempted/failed.
std::vector<Metric> ReportOnly(const PhaseResult& r) {
  std::vector<Metric> m;
  m.push_back({"read_p99_ms", Percentile(r.read_ms, 99), "ms",
               "n=" + std::to_string(r.read_ms.size()) + " pooled"});
  if (!r.write_ms.empty()) AddLatency("write", r.write_ms, TailLatency(r.write_ms), &m);
  const uint64_t failed = r.errors + r.wrong;
  m.push_back({"failed_ratio", Ratio(static_cast<double>(failed), static_cast<double>(r.attempted)),
               "ratio", std::to_string(failed) + "/" + std::to_string(r.attempted)});
  return m;
}

std::string Base(uint64_t num, uint64_t den) {
  return std::to_string(num) + "/" + std::to_string(den);
}

std::vector<Metric> PerLayer(const Workload& w, const PhaseResult& u, const PhaseResult& t,
                             const LayerTimes& lt) {
  const Counters& c = u.counters;
  const auto per_stmt = [&](uint64_t v) {
    return Ratio(static_cast<double>(v), static_cast<double>(c.statements));
  };
  const std::string n_stmt = "per statement, n=" + std::to_string(c.statements);
  const auto n_spans = [&](int layer) {
    return "n=" + std::to_string(lt.duration_us[static_cast<size_t>(layer)].size());
  };
  const double u_qps = Ratio(static_cast<double>(u.completed), u.wall_s);
  const double t_qps = Ratio(static_cast<double>(t.completed), t.wall_s);
  const bool served = !lt.duration_us[kServerRun].empty();
  const double dispatch_us =
      served ? lt.MedianUs(kServerRun) - lt.MedianUs(kExecute) : 0;

  std::vector<Metric> m;
  m.push_back({"sql.parse_us", lt.MedianUs(kParse), "us", n_spans(kParse)});
  m.push_back({"sql.parse_share", lt.Share(kParse), "fraction", "self time"});
  m.push_back({"sql.bind_us", lt.MedianUs(kBind), "us", n_spans(kBind)});
  m.push_back({"sql.bind_share", lt.Share(kBind), "fraction", "self time"});
  m.push_back({"sql.normalize_us", lt.MedianUs(kNormalize), "us", n_spans(kNormalize)});
  m.push_back({"sql.normalize_share", lt.Share(kNormalize), "fraction", "self time"});
  m.push_back({"optimizer.plan_us", lt.MedianUs(kPlan), "us", n_spans(kPlan)});
  m.push_back({"optimizer.plan_share", lt.Share(kPlan), "fraction", "self time"});
  m.push_back({"optimizer.requests",
               Ratio(static_cast<double>(t.counters.optimizer_requests),
                     static_cast<double>(t.counters.planned)),
               "count", "per planned statement, n=" + std::to_string(t.counters.planned)});
  m.push_back({"optimizer.plan_bytes",
               Ratio(static_cast<double>(t.counters.plan_bytes),
                     static_cast<double>(t.counters.planned)),
               "B", "per planned statement"});
  m.push_back({"db.plan_cache_hit_ratio",
               Ratio(static_cast<double>(u.cache_hits), static_cast<double>(u.cache_lookups)),
               "ratio", Base(u.cache_hits, u.cache_lookups)});
  m.push_back({"db.execute_us", lt.MedianUs(kExecute), "us", n_spans(kExecute)});
  m.push_back({"db.execute_share", lt.Share(kExecute), "fraction", "self time"});
  m.push_back({"exec.tuples_scanned_per_s", Ratio(static_cast<double>(c.tuples_scanned), u.wall_s),
               "1/s", "tuples=" + std::to_string(c.tuples_scanned)});
  m.push_back({"exec.rows_out", per_stmt(c.rows_out), "rows", n_stmt});
  m.push_back({"exec.rows_moved", per_stmt(c.rows_moved), "rows", n_stmt});
  m.push_back({"runtime.partitions_scanned_ratio",
               Ratio(static_cast<double>(c.parts_scanned), static_cast<double>(c.parts_total)),
               "ratio", Base(c.parts_scanned, c.parts_total)});
  m.push_back({"runtime.joinfilter_reject_ratio",
               Ratio(static_cast<double>(c.joinfilter_rejected),
                     static_cast<double>(c.joinfilter_probed)),
               "ratio", Base(c.joinfilter_rejected, c.joinfilter_probed)});
  m.push_back({"runtime.spill_bytes_written", per_stmt(c.spill_bytes_written), "B", n_stmt});
  m.push_back({"runtime.spill_bytes_read", per_stmt(c.spill_bytes_read), "B", n_stmt});
  m.push_back({"runtime.spill_passes", per_stmt(c.spill_passes), "count", n_stmt});
  m.push_back({"runtime.sort_runs", per_stmt(c.sort_runs), "count", n_stmt});
  m.push_back({"storage.chunk_skip_ratio",
               Ratio(static_cast<double>(c.chunks_skipped), static_cast<double>(c.chunks_total)),
               "ratio", Base(c.chunks_skipped, c.chunks_total)});
  m.push_back({"storage.partition_overhead_ratio", w.PartitionOverheadRatio(u), "ratio",
               "median SELECT * latency, 361 parts / unpartitioned"});
  m.push_back({"storage.load_rows_per_s",
               Ratio(static_cast<double>(w.rows_loaded()), w.load_seconds()), "1/s",
               "rows=" + std::to_string(w.rows_loaded())});
  m.push_back({"server.dispatch_us", dispatch_us, "us",
               "median SessionManager::Run - median Database::Execute"});
  m.push_back({"server.run_share", lt.Share(kServerRun), "fraction", "self time"});
  m.push_back({"server.group_waits", static_cast<double>(u.group_waits), "count", ""});
  m.push_back({"server.peak_queue_depth", static_cast<double>(u.peak_queue_depth), "count", ""});
  m.push_back({"server.rejected", static_cast<double>(u.rejected), "count", ""});
  m.push_back({"common.cpu_per_wall", Ratio(u.cpu_s, u.wall_s), "s/s",
               "cpu_s=" + Num(u.cpu_s)});
  m.push_back({"trace.overhead_ratio", Ratio(t_qps, u_qps), "ratio",
               "traced qps " + Num(t_qps) + " / untraced qps " + Num(u_qps)});
  m.push_back({"trace.remainder_share", lt.Share(kStmt), "fraction",
               "statement time no layer span covers"});
  return m;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %-9s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>] [--git-sha <sha>]\n");
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure a build without optimization "
                         "(build type %s)\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  WorkloadConfig config;
  config.seed = args.seed;
  config.spill_dir = args.out_dir + "/spill-" + std::to_string(getpid());
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, config);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  constexpr size_t kMinSetups = 4;
  constexpr size_t kMaxSetups = 9;
  constexpr double kMinSetupSeconds = 2.0;
  std::vector<double> setups;
  double setup_total = 0;
  while (setups.size() < kMaxSetups &&
         (setups.size() < kMinSetups || setup_total < kMinSetupSeconds)) {
    const int64_t t0 = NowNs();
    const mppdb::Status st = workload->Setup();
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total += setups.back();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", st.ToString().c_str());
      return 2;
    }
  }

  PhaseResult untraced = workload->Run(args.trace ? args.seconds / 2 : args.seconds, false);
  PhaseResult traced;
  if (args.trace) traced = workload->Run(args.seconds / 2, true);
  const mppdb::Status final_check = workload->FinalCheck();
  std::filesystem::remove_all(config.spill_dir, ec);

  // Provenance, then the report.
  std::string prov = "{\"provenance\": {\"workload\": " + Quote(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
                     ", \"optimized\": true, \"nproc\": " + std::to_string(CpuCount()) +
                     ", \"git_sha\": " + Quote(args.git_sha) +
                     ", \"segments\": " + std::to_string(kSegments) + ", \"seconds\": " + Num(args.seconds) +
                     ", \"trace\": " + std::to_string(args.trace) + ", \"sizes\": {";
  bool first = true;
  for (const auto& [k, v] : workload->Sizes()) {
    prov += (first ? "" : ", ") + Quote(k) + ": " + Quote(v);
    first = false;
  }
  prov += "}}}";
  std::printf("%s\n", prov.c_str());

  std::vector<Metric> metrics;
  if (args.trace) {
    const LayerTimes lt = SummarizeSpans(traced.spans);
    metrics = PerLayer(*workload, untraced, traced, lt);
    PrintTable("per-layer metrics (traced half of the run):", metrics);
    double shares = 0;
    for (int l = 0; l < kNumLayers; ++l) shares += lt.Share(l);
    std::printf("  layer self-time shares + remainder = %.6f of %zu traced statements\n",
                shares, lt.statements);
    const std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".csv";
    WriteSpans(path, traced.spans);
    std::printf("  spans written to %s\n", path.c_str());
  } else {
    metrics = EndToEnd(untraced, setups);
    PrintTable("end-to-end metrics:", metrics);
    PrintTable("report-only:", ReportOnly(untraced));
    const std::vector<std::string> kinds = workload->KindNames();
    std::printf("per-statement-kind latency (median ms, n):\n");
    for (size_t k = 0; k < untraced.kind_ms.size() && k < kinds.size(); ++k) {
      std::printf("  %-34s %16.6g %zu\n", kinds[k].c_str(), Median(untraced.kind_ms[k]),
                  untraced.kind_ms[k].size());
    }
  }

  PhaseResult all = std::move(untraced);
  all.Merge(std::move(traced));
  const uint64_t failed = all.errors + all.wrong;
  const bool correct = all.wrong == 0 && final_check.ok();
  for (const std::string& msg : all.messages) std::printf("check: %s\n", msg.c_str());
  if (!final_check.ok()) std::printf("check: %s\n", final_check.ToString().c_str());

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(all.attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
