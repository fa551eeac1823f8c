// End-to-end benchmark of the hetsort library's public entry points.
//
//   hetsort_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--scratch-dir DIR] [--trace-out FILE] [--git-sha SHA]
//   hetsort_e2e --smoke [--scratch-dir DIR]
//   hetsort_e2e --list
//
// Each workload drives one real job type on one fixed input family:
//
//   inmem-f64-uniform         HeterogeneousSorter::sort_bytes, f64 uniform
//   inmem-kv64-dupheavy-auto  sort_bytes, kv64 duplicate-heavy, planner on
//   extsort-f64               io::external_sort_file through run files
//   serve-closed-4            service::JobScheduler, closed loop, 4 clients
//
// With --trace 0 every operation runs with no span recorder installed and the
// run reports the end-to-end metrics. With --trace 1 the run first measures
// untraced operations (for obs.trace_overhead_frac), then installs an
// obs::SpanRecorder and taps the lane's ElementOps (taps.h) and reports the
// per-layer metrics as medians over the traced operations. Every output is
// checked: sortedness under the lane's total order plus an order-independent
// multiset fingerprint against the generated input.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit status: 0 when every output
// verified, 1 on a failed operation or attribution check, 2 when the build is
// not optimized or the scratch directory has less than 1 GiB free. --smoke
// runs all four workloads traced and untraced at tiny sizes and exits non-zero
// on any failure or violated check. --list prints the workload and metric
// names.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/het_sorter.h"
#include "data/generators.h"
#include "data/verify.h"
#include "io/external_sort.h"
#include "io/run_file.h"
#include "model/platforms.h"
#include "obs/counters.h"
#include "obs/span.h"
#include "obs/trace_io.h"
#include "service/scheduler.h"
#include "taps.h"

#ifndef HETSORT_E2E_BUILD_TYPE
#define HETSORT_E2E_BUILD_TYPE "unknown"
#endif

namespace {

namespace fs = std::filesystem;
using namespace hs;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Metric dictionary. `run.py --smoke` checks that BENCHMARK.json lists the
// same names and units.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_s", "s"},
    {"throughput_meps", "Melem/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"cpu.device_sort_s", "s"},
    {"cpu.device_sort_calls", "count"},
    {"cpu.device_sort_meps", "Melem/s"},
    {"cpu.pair_merge_s", "s"},
    {"cpu.pair_merge_calls", "count"},
    {"cpu.multiway_merge_s", "s"},
    {"cpu.multiway_merge_calls", "count"},
    {"cpu.radix_span_s", "s"},
    {"core.sort_bytes_s", "s"},
    {"core.pipeline_other_s", "s"},
    {"core.planner_s", "s"},
    {"sim.makespan_s", "virtual_s"},
    {"sim.busy_pinned_alloc_s", "virtual_s"},
    {"sim.busy_staging_s", "virtual_s"},
    {"sim.busy_htod_s", "virtual_s"},
    {"sim.busy_gpu_sort_s", "virtual_s"},
    {"sim.busy_dtoh_s", "virtual_s"},
    {"sim.busy_pair_merge_s", "virtual_s"},
    {"sim.busy_multiway_s", "virtual_s"},
    {"sim.missing_overhead_s", "virtual_s"},
    {"counters.pcie_bytes", "bytes"},
    {"counters.radix_passes_executed", "count"},
    {"counters.radix_passes_skipped", "count"},
    {"counters.merge_elements", "count"},
    {"counters.merge_deferred_elements", "count"},
    {"counters.pinned_alloc_bytes", "bytes"},
    {"io.run_formation_s", "s"},
    {"io.merge_s", "s"},
    {"io.merge_meps", "Melem/s"},
    {"io.other_s", "s"},
    {"io.runs", "count"},
    {"service.submit_p50_s", "s"},
    {"service.submit_p99_s", "s"},
    {"service.queue_wait_p50_s", "s"},
    {"service.queue_wait_p99_s", "s"},
    {"service.run_interactive_p50_s", "s"},
    {"service.run_batch_p50_s", "s"},
    {"service.jobs_completed", "count"},
    {"service.jobs_failed", "count"},
    {"service.retries", "count"},
    {"service.degraded_grants", "count"},
    {"data.generate_s", "s"},
    {"data.verify_s", "s"},
    {"obs.trace_overhead_frac", "fraction"},
    {"obs.spans_per_op", "count"},
    {"bench.latency_p90_s", "s"},
    {"bench.ops", "count"},
};

// ---------------------------------------------------------------------------
// Workloads. Sizes are fixed per workload so every run of every commit sorts
// the same amount of data; only the seed changes the values. Every input is
// larger than a 105 MiB last-level cache, so the staging copies, buffer page
// faults and copy-back pay DRAM bandwidth as they do on real data.
// ---------------------------------------------------------------------------

enum class Kind { kInMemory, kExternal, kServe };

struct Workload {
  const char* name;
  Kind kind;
  const char* lane;  // element lane (in-memory workloads)
  data::Distribution dist;
  core::DeviceEnginePolicy engine;
  std::uint64_t n;             // elements per operation (in-memory, extsort)
  std::uint64_t batch_size;    // pipeline batch (in-memory)
  std::uint64_t budget_elems;  // run size (extsort)
};

// inmem-f64-uniform sorts 4 batches of 32 MiB, so each batch's LSD radix twin
// streams from DRAM as a device-sized batch does. With 8 MiB batches the twin
// ran from whatever share of the shared last-level cache other tenants left
// it, and its time swung 0.36-0.69 s per sort on the reference host; 32 MiB
// batches held within +-7%. inmem-kv64-dupheavy-auto keeps 16 batches of
// 500 000 records, at which the planner picks the hybrid MSD engine (one
// executed pass per batch); at 2 000 000-record batches it picks another.
// 8 runs for the external sort.
constexpr Workload kWorkloads[] = {
    {"inmem-f64-uniform", Kind::kInMemory, "f64", data::Distribution::kUniform,
     core::DeviceEnginePolicy::kFixedRadix, 16'000'000, 4'000'000, 0},
    {"inmem-kv64-dupheavy-auto", Kind::kInMemory, "kv64",
     data::Distribution::kDuplicateHeavy, core::DeviceEnginePolicy::kAdaptive,
     8'000'000, 500'000, 0},
    {"extsort-f64", Kind::kExternal, "f64", data::Distribution::kUniform,
     core::DeviceEnginePolicy::kFixedRadix, 16'000'000, 0, 2'000'000},
    {"serve-closed-4", Kind::kServe, "f64", data::Distribution::kUniform,
     core::DeviceEnginePolicy::kFixedRadix, 0, 0, 0},
};

/// The same workload at smoke size: 1 M elements in 8 batches or runs, and
/// 10x smaller service jobs.
Workload smoke_size(Workload w) {
  switch (w.kind) {
    case Kind::kInMemory:
      w.n = 1'000'000;
      w.batch_size = 125'000;
      break;
    case Kind::kExternal:
      w.n = 1'000'000;
      w.budget_elems = 125'000;
      break;
    case Kind::kServe:
      break;
  }
  return w;
}

// Closed-loop service traffic: 2 workers, 4 clients (2x workers, so the fair
// queue always has a choice), 90% interactive jobs of 100 k doubles and 10%
// batch jobs of 1 M doubles. A batch job outgrows the default 16 MiB grant's
// run size and forms 2 runs; an interactive job forms 1. Every block of 10
// submissions holds exactly one batch job at a seeded position, so every
// window sees the same mix.
constexpr unsigned kServeWorkers = 2;
constexpr unsigned kServeClients = 4;
constexpr std::size_t kServeQueueCapacity = 64;
constexpr std::uint64_t kServeMixBlock = 10;
constexpr std::uint64_t kInteractiveElems = 100'000;
constexpr std::uint64_t kBatchElems = 1'000'000;
constexpr std::uint64_t kServeBudgetBytes = 64ull << 20;

// Set-up is repeated and its median reported, so set-up time is comparable
// between runs.
constexpr unsigned kSetupRounds = 5;
// Untimed operations after set-up: caches, the thread pool and the radix
// scratch are warm before the first timed operation. One external sort, over
// two seconds long, warms the page cache and the pool on its own.
constexpr unsigned kWarmups = 2;
constexpr unsigned kExternalWarmups = 1;
// Operations per phase even when --seconds is shorter than one operation.
constexpr unsigned kMinOps = 3;
// Share of a --trace 1 run spent on untraced operations, the baseline of
// obs.trace_overhead_frac.
constexpr double kUntracedShare = 0.4;
constexpr std::uint64_t kVerifyChunk = 1 << 20;
constexpr std::uint64_t kMinFreeScratch = 1ull << 30;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool list = false;
  std::string scratch_dir = ".bench_build/scratch";
  std::string trace_out;
  std::string git_sha;
};

/// What one workload run produced: operation counts, metric values by name,
/// and the spans kept for --trace-out.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t check_failures = 0;  // attribution self-checks violated
  std::map<std::string, double> values;
  std::vector<obs::Span> spans;

  void op_done(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void check(bool holds, const char* what) {
    if (holds) return;
    ++check_failures;
    std::fprintf(stderr, "attribution check failed: %s\n", what);
  }
};

// ---------------------------------------------------------------------------
// Statistics and measurement helpers.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Runs `op` until `seconds` have passed and at least `min_ops` ran.
template <typename Fn>
void measure_for(double seconds, unsigned min_ops, Fn&& op) {
  const auto start = Clock::now();
  for (unsigned i = 0; i < min_ops || since(start) < seconds; ++i) op();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Streams a raw doubles file and checks it is a sorted permutation of the
/// input whose multiset fingerprint is `want_fp`.
bool verify_sorted_file(const std::string& path, std::uint64_t n,
                        std::uint64_t want_fp) {
  if (io::count_doubles(path) != n) return false;
  std::uint64_t fp = 0;
  double prev = 0;
  for (std::uint64_t start = 0; start < n; start += kVerifyChunk) {
    const std::vector<double> v =
        io::read_doubles_range(path, start, std::min(kVerifyChunk, n - start));
    if (!data::is_sorted_ascending(v)) return false;
    const double edge[2] = {prev, v.front()};
    if (start > 0 && !data::is_sorted_ascending(edge)) return false;
    prev = v.back();
    fp += data::multiset_fingerprint(v);  // the fingerprint is a sum
  }
  return fp == want_fp;
}

// ---------------------------------------------------------------------------
// Span attribution. Every wall span is assigned to the operation that caused
// it; per-operation sums then feed per-layer medians.
// ---------------------------------------------------------------------------

constexpr std::int64_t kNoOp = -1;

/// Per-operation sum of wall-span seconds matching (category, name). An
/// empty `name` matches every name; spans nested in a span of the same
/// category are then skipped, so nested calls are not counted twice.
std::vector<double> per_op_seconds(const std::vector<obs::Span>& spans,
                                   const std::vector<std::int64_t>& op_of,
                                   std::size_t ops, std::string_view category,
                                   std::string_view name = {}) {
  std::vector<double> out(ops, 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::Span& s = spans[i];
    if (op_of[i] == kNoOp || s.clock != obs::Clock::kWall ||
        s.category != category || (!name.empty() && s.name != name)) {
      continue;
    }
    if (name.empty() && s.parent != obs::kNoParent &&
        spans[s.parent].category == category) {
      continue;
    }
    out[static_cast<std::size_t>(op_of[i])] += s.end - s.start;
  }
  return out;
}

std::vector<double> per_op_counts(const std::vector<std::int64_t>& op_of,
                                  std::size_t ops) {
  std::vector<double> out(ops, 0.0);
  for (const std::int64_t op : op_of) {
    if (op != kNoOp) out[static_cast<std::size_t>(op)] += 1;
  }
  return out;
}

/// Operation ids for spans recorded in consecutive index ranges, one range
/// per sequential operation.
std::vector<std::int64_t> ops_from_ranges(
    std::size_t total,
    const std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  std::vector<std::int64_t> op_of(total, kNoOp);
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    for (std::size_t i = ranges[k].first; i < ranges[k].second && i < total;
         ++i) {
      op_of[i] = static_cast<std::int64_t>(k);
    }
  }
  return op_of;
}

/// Tags every span's name with its operation id for --trace-out, so one
/// operation's spans share an identifier across threads and clocks.
void tag_spans(std::vector<obs::Span>& spans,
               const std::vector<std::int64_t>& op_of) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (op_of[i] != kNoOp) spans[i].name += " #op" + std::to_string(op_of[i]);
  }
}

/// Records one benchmark-side wall span (the operation boundary).
void record_bench_span(obs::SpanRecorder& rec, std::string name, double start,
                       double end, std::uint64_t bytes) {
  obs::Span s;
  s.name = std::move(name);
  s.category = "Bench";
  s.start = start;
  s.end = end;
  s.clock = obs::Clock::kWall;
  s.bytes = bytes;
  rec.record(std::move(s));
}

/// The end-to-end metrics of an untraced phase, plus its latency tail and
/// sample count. `n` elements per operation give the throughput at the
/// median latency.
void set_end_to_end(Outcome& res, double setup_s,
                    const std::vector<double>& latency, std::uint64_t n) {
  const double p50 = median(latency);
  res.values["setup_s"] = setup_s;
  res.values["latency_p50_s"] = p50;
  res.values["throughput_meps"] =
      p50 > 0 ? static_cast<double>(n) / p50 / 1e6 : 0;
  res.values["peak_rss_mb"] = peak_rss_mib();
  res.values["bench.latency_p90_s"] = quantile(latency, 0.9);
  res.values["bench.ops"] = static_cast<double>(latency.size());
}

void set_counter_layers(Outcome& res,
                        const std::vector<obs::CounterSnapshot>& deltas) {
  const auto med = [&](auto get) {
    std::vector<double> v;
    v.reserve(deltas.size());
    for (const obs::CounterSnapshot& d : deltas) {
      v.push_back(static_cast<double>(get(d)));
    }
    return median(v);
  };
  using obs::Counter;
  res.values["counters.pcie_bytes"] =
      med([](const auto& d) { return d.pcie_round_trip_bytes(); });
  res.values["counters.radix_passes_executed"] = med(
      [](const auto& d) { return d.value(Counter::kRadixPassesExecuted); });
  res.values["counters.radix_passes_skipped"] = med(
      [](const auto& d) { return d.value(Counter::kRadixPassesSkipped); });
  res.values["counters.merge_elements"] =
      med([](const auto& d) { return d.value(Counter::kMergeElements); });
  res.values["counters.merge_deferred_elements"] = med(
      [](const auto& d) { return d.value(Counter::kMergeDeferredElements); });
  res.values["counters.pinned_alloc_bytes"] =
      med([](const auto& d) { return d.value(Counter::kBytesPinnedAlloc); });
}

/// io.* from each operation's ExternalSort spans; `elems[k]` is operation
/// k's input size.
void set_io_layers(Outcome& res, const std::vector<std::int64_t>& op_of,
                   const std::vector<double>& elems,
                   const std::vector<double>& runs) {
  const std::size_t ops = elems.size();
  const auto span_s = [&](const char* name) {
    return per_op_seconds(res.spans, op_of, ops, "ExternalSort", name);
  };
  const std::vector<double> total = span_s("external-sort");
  const std::vector<double> formation = span_s("run-formation");
  const std::vector<double> merge = span_s("merge");
  std::vector<double> other(ops), merge_meps(ops);
  for (std::size_t k = 0; k < ops; ++k) {
    other[k] = total[k] - formation[k] - merge[k];
    merge_meps[k] = merge[k] > 0 ? elems[k] / merge[k] / 1e6 : 0;
  }
  res.values["io.run_formation_s"] = median(formation);
  res.values["io.merge_s"] = median(merge);
  res.values["io.merge_meps"] = median(merge_meps);
  res.values["io.other_s"] = median(other);
  res.values["io.runs"] = median(runs);
}

/// Per-layer values every traced workload reports, then the operation tags
/// on the spans kept for --trace-out. `overhead` is obs.trace_overhead_frac.
void finish_traced(Outcome& res, const std::vector<std::int64_t>& op_of,
                   std::size_t ops, const std::vector<double>& generate,
                   const std::vector<double>& verify, double overhead) {
  res.values["cpu.radix_span_s"] =
      median(per_op_seconds(res.spans, op_of, ops, "CpuSort"));
  res.values["data.generate_s"] = median(generate);
  res.values["data.verify_s"] = median(verify);
  res.values["obs.trace_overhead_frac"] = overhead;
  res.values["obs.spans_per_op"] = median(per_op_counts(op_of, ops));
  tag_spans(res.spans, op_of);
}

/// a / b - 1, or 0 when b is 0.
double excess(double a, double b) { return b > 0 ? a / b - 1 : 0; }

/// Installs a span recorder for the lifetime of the guard.
class RecorderInstall {
 public:
  explicit RecorderInstall(obs::SpanRecorder& rec) { obs::install(&rec); }
  ~RecorderInstall() { obs::install(nullptr); }
  RecorderInstall(const RecorderInstall&) = delete;
  RecorderInstall& operator=(const RecorderInstall&) = delete;
};

void report_error(const char* where, const std::exception& e) {
  std::fprintf(stderr, "%s failed: %s\n", where, e.what());
}

// ---------------------------------------------------------------------------
// In-memory workloads: HeterogeneousSorter::sort_bytes.
// ---------------------------------------------------------------------------

Outcome run_in_memory(const Workload& w, const Options& o) {
  Outcome res;
  const cpu::ElementOps* base = cpu::element_ops_by_name(w.lane);
  if (base == nullptr) throw std::runtime_error("unknown lane");
  const std::size_t elem = base->elem_size;
  core::SortConfig cfg;
  cfg.batch_size = w.batch_size;
  cfg.device_engine = w.engine;

  std::vector<std::byte> pristine, work;
  std::uint64_t want_fp = 0;
  std::optional<core::HeterogeneousSorter> sorter;
  std::vector<double> setup, generate;
  for (unsigned round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    pristine = data::generate_lane(w.lane, w.dist, w.n, o.seed);
    generate.push_back(since(t0));
    want_fp = data::multiset_fingerprint_bytes(pristine, elem);
    work = std::vector<std::byte>(pristine.begin(), pristine.end());
    sorter.emplace(model::platform1(), cfg);
    setup.push_back(since(t0));
  }

  struct Op {
    bool ok = false;
    double wall = 0, verify = 0;
    core::Report report;
  };
  const auto run_op = [&](const cpu::ElementOps& ops) {
    std::memcpy(work.data(), pristine.data(), work.size());  // untimed
    Op op;
    try {
      const auto t0 = Clock::now();
      op.report = sorter->sort_bytes(work, w.n, ops);
      op.wall = since(t0);
      const auto tv = Clock::now();
      op.ok = data::is_sorted_by_key(work, elem, base->extract_key) &&
              data::multiset_fingerprint_bytes(work, elem) == want_fp;
      op.verify = since(tv);
    } catch (const std::exception& e) {
      report_error("sort_bytes", e);
    }
    res.op_done(op.ok);
    return op;
  };

  for (unsigned i = 0; i < kWarmups; ++i) run_op(*base);

  std::vector<double> plain;
  const double plain_seconds = o.trace ? o.seconds * kUntracedShare : o.seconds;
  measure_for(plain_seconds, kMinOps, [&] {
    const Op op = run_op(*base);
    if (op.ok) plain.push_back(op.wall);
  });

  set_end_to_end(res, median(setup), plain, w.n);
  if (!o.trace) return res;

  obs::SpanRecorder rec;
  bench::OpsTaps taps;
  const cpu::ElementOps tapped = bench::tap_element_ops(*base, taps);
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<double> wall, verify, dev_s, dev_calls, dev_meps, pair_s,
      pair_calls, multi_s, multi_calls, other_s;
  std::vector<double> makespan, pinned, staging, htod, gpu_sort, dtoh,
      sim_pair, sim_multi, missing;
  std::vector<obs::CounterSnapshot> deltas;
  {
    const RecorderInstall installed(rec);
    measure_for(o.seconds - plain_seconds, kMinOps, [&] {
      taps.reset();
      const std::size_t begin = rec.size();
      const double t0 = rec.now();
      const Op op = run_op(tapped);
      record_bench_span(rec, "sort_bytes", t0, t0 + op.wall, work.size());
      record_bench_span(rec, "verify", t0 + op.wall,
                        t0 + op.wall + op.verify, work.size());
      ranges.emplace_back(begin, rec.size());
      if (!op.ok) return;
      const double dev = taps.device_sort.seconds();
      const double pm = taps.pair_merge.seconds();
      const double mw = taps.multiway.seconds();
      res.check(dev + pm + mw <= op.wall,
                "device_sort + pair_merge + multiway_merge <= sort_bytes");
      res.check(op.report.counters.pcie_round_trip_bytes() == 2 * w.n * elem,
                "pcie_bytes == 2 * n * elem_size");
      wall.push_back(op.wall);
      verify.push_back(op.verify);
      dev_s.push_back(dev);
      dev_calls.push_back(static_cast<double>(taps.device_sort.calls.load()));
      dev_meps.push_back(
          dev > 0 ? static_cast<double>(taps.device_sort.elems.load()) / dev /
                        1e6
                  : 0);
      pair_s.push_back(pm);
      pair_calls.push_back(static_cast<double>(taps.pair_merge.calls.load()));
      multi_s.push_back(mw);
      multi_calls.push_back(static_cast<double>(taps.multiway.calls.load()));
      other_s.push_back(op.wall - dev - pm - mw);
      const core::Report& r = op.report;
      makespan.push_back(r.end_to_end);
      pinned.push_back(r.busy.pinned_alloc);
      staging.push_back(r.busy.staging_total());
      htod.push_back(r.busy.htod);
      gpu_sort.push_back(r.busy.gpu_sort);
      dtoh.push_back(r.busy.dtoh);
      sim_pair.push_back(r.busy.pair_merge);
      sim_multi.push_back(r.busy.multiway_merge);
      missing.push_back(r.missing_overhead());
      deltas.push_back(r.counters);
    });
  }

  res.spans = rec.snapshot();
  const std::vector<std::int64_t> op_of =
      ops_from_ranges(res.spans.size(), ranges);
  const std::size_t ops = ranges.size();
  auto& v = res.values;
  v["cpu.device_sort_s"] = median(dev_s);
  v["cpu.device_sort_calls"] = median(dev_calls);
  v["cpu.device_sort_meps"] = median(dev_meps);
  v["cpu.pair_merge_s"] = median(pair_s);
  v["cpu.pair_merge_calls"] = median(pair_calls);
  v["cpu.multiway_merge_s"] = median(multi_s);
  v["cpu.multiway_merge_calls"] = median(multi_calls);
  v["core.sort_bytes_s"] = median(wall);
  v["core.pipeline_other_s"] = median(other_s);
  v["core.planner_s"] =
      median(per_op_seconds(res.spans, op_of, ops, "Planner"));
  v["sim.makespan_s"] = median(makespan);
  v["sim.busy_pinned_alloc_s"] = median(pinned);
  v["sim.busy_staging_s"] = median(staging);
  v["sim.busy_htod_s"] = median(htod);
  v["sim.busy_gpu_sort_s"] = median(gpu_sort);
  v["sim.busy_dtoh_s"] = median(dtoh);
  v["sim.busy_pair_merge_s"] = median(sim_pair);
  v["sim.busy_multiway_s"] = median(sim_multi);
  v["sim.missing_overhead_s"] = median(missing);
  set_counter_layers(res, deltas);
  finish_traced(res, op_of, ops, generate, verify,
                excess(median(wall), median(plain)));
  return res;
}

// ---------------------------------------------------------------------------
// External sort: io::external_sort_file on a raw file of doubles.
// ---------------------------------------------------------------------------

Outcome run_external(const Workload& w, const Options& o) {
  Outcome res;
  const fs::path dir = fs::path(o.scratch_dir) / "extsort";
  fs::create_directories(dir / "tmp");
  const std::string input = (dir / "input.bin").string();
  const std::string output = (dir / "output.bin").string();

  std::uint64_t want_fp = 0;
  std::vector<double> setup, generate;
  for (unsigned round = 0; round < kSetupRounds; ++round) {
    const auto t0 = Clock::now();
    const std::vector<double> values = data::generate(w.dist, w.n, o.seed);
    generate.push_back(since(t0));
    want_fp = data::multiset_fingerprint(values);
    // A fresh file each round: truncating the previous one would wait for
    // its writeback.
    fs::remove(input);
    io::write_doubles(input, values);
    setup.push_back(since(t0));
  }

  io::ExternalSortConfig ecfg;
  ecfg.memory_budget_elems = w.budget_elems;
  ecfg.temp_dir = (dir / "tmp").string();
  ecfg.journal = true;

  struct Op {
    bool ok = false;
    double wall = 0, verify = 0;
    io::ExternalSortStats stats;
  };
  const auto run_op = [&] {
    Op op;
    try {
      const auto t0 = Clock::now();
      op.stats = io::external_sort_file(input, output, ecfg);
      op.wall = since(t0);
      const auto tv = Clock::now();
      op.ok = verify_sorted_file(output, w.n, want_fp);
      op.verify = since(tv);
    } catch (const std::exception& e) {
      report_error("external_sort_file", e);
    }
    fs::remove(output);
    res.op_done(op.ok);
    return op;
  };

  for (unsigned i = 0; i < kExternalWarmups; ++i) run_op();

  std::vector<double> plain;
  const double plain_seconds = o.trace ? o.seconds * kUntracedShare : o.seconds;
  measure_for(plain_seconds, kMinOps, [&] {
    const Op op = run_op();
    if (op.ok) plain.push_back(op.wall);
  });

  set_end_to_end(res, median(setup), plain, w.n);
  if (!o.trace) {
    fs::remove_all(dir);
    return res;
  }

  obs::SpanRecorder rec;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<double> wall, verify, runs, makespan;
  std::vector<obs::CounterSnapshot> deltas;
  {
    const RecorderInstall installed(rec);
    measure_for(o.seconds - plain_seconds, kMinOps, [&] {
      const std::size_t begin = rec.size();
      const obs::CounterSnapshot before = obs::counters().snapshot();
      const double t0 = rec.now();
      const Op op = run_op();
      const obs::CounterSnapshot delta = obs::counters().snapshot() - before;
      record_bench_span(rec, "external_sort_file", t0, t0 + op.wall,
                        w.n * sizeof(double));
      record_bench_span(rec, "verify", t0 + op.wall, t0 + op.wall + op.verify,
                        w.n * sizeof(double));
      ranges.emplace_back(begin, rec.size());
      if (!op.ok) return;
      res.check(delta.pcie_round_trip_bytes() == 2 * w.n * sizeof(double),
                "pcie_bytes == 2 * n * elem_size");
      wall.push_back(op.wall);
      verify.push_back(op.verify);
      runs.push_back(static_cast<double>(op.stats.num_runs));
      makespan.push_back(op.stats.pipeline_virtual_seconds);
      deltas.push_back(delta);
    });
  }
  fs::remove_all(dir);

  res.spans = rec.snapshot();
  const std::vector<std::int64_t> op_of =
      ops_from_ranges(res.spans.size(), ranges);
  const std::size_t ops = ranges.size();
  res.values["sim.makespan_s"] = median(makespan);
  set_counter_layers(res, deltas);
  set_io_layers(res, op_of,
                std::vector<double>(ops, static_cast<double>(w.n)), runs);
  finish_traced(res, op_of, ops, generate, verify,
                excess(median(wall), median(plain)));
  return res;
}

// ---------------------------------------------------------------------------
// Service: a closed loop of clients against service::JobScheduler.
// ---------------------------------------------------------------------------

/// One finished job as the client saw it.
struct FinishedJob {
  std::string name;
  bool batch = false;
  std::uint64_t n = 0, seed = 0;
  double submit_s = 0;     // time inside submit(), manifest rewrite included
  double latency = 0;      // submit() call -> observed completion
  bool in_window = false;  // completed before the window closed
  bool ok = false;
  double generate_s = 0, verify_s = 0;
  double client_start = 0, client_end = 0;  // recorder timeline, if traced
  service::JobOutcome outcome;
};

/// Checks finished jobs on its own thread, so verifying one output never
/// delays noticing the next completion. A job passes when its output is a
/// sorted permutation of the input regenerated from its seed; its job
/// directory is deleted either way.
class JobVerifier {
 public:
  explicit JobVerifier(fs::path jobs_dir)
      : jobs_dir_(std::move(jobs_dir)), thread_([this] { loop(); }) {}
  ~JobVerifier() { stop(); }
  JobVerifier(const JobVerifier&) = delete;
  JobVerifier& operator=(const JobVerifier&) = delete;

  void push(FinishedJob job) {
    {
      const std::lock_guard lk(mu_);
      queue_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

  /// Verifies every job pushed so far and returns them.
  std::vector<FinishedJob> finish() {
    stop();
    return std::move(done_);
  }

 private:
  void stop() {
    {
      const std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  void loop() {
    for (;;) {
      FinishedJob job;
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      verify(job);
      done_.push_back(std::move(job));
    }
  }

  void verify(FinishedJob& job) const {
    const fs::path dir = jobs_dir_ / job.name;
    if (job.outcome.state == service::JobState::kCompleted) {
      try {
        const auto tg = Clock::now();
        const std::uint64_t want_fp = data::multiset_fingerprint(
            data::generate(data::Distribution::kUniform, job.n, job.seed));
        job.generate_s = since(tg);
        const auto tv = Clock::now();
        job.ok = verify_sorted_file((dir / "output.bin").string(), job.n,
                                    want_fp);
        job.verify_s = since(tv);
      } catch (const std::exception& e) {
        report_error("service job verification", e);
      }
    } else {
      std::fprintf(stderr, "job %s ended %s: %s\n", job.name.c_str(),
                   std::string(service::job_state_name(job.outcome.state))
                       .c_str(),
                   job.outcome.error.c_str());
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  fs::path jobs_dir_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<FinishedJob> queue_;  // guarded by mu_
  bool stop_ = false;              // guarded by mu_
  std::vector<FinishedJob> done_;  // verifier thread only, until joined
  std::thread thread_;             // last: uses every member above
};

/// Drives one JobScheduler with a closed loop of kServeClients clients from
/// the calling thread: each completion is resubmitted at once and handed to
/// a JobVerifier. Jobs still in flight when the window closes are drained
/// and verified but count toward neither throughput nor latency.
class ServeClient {
 public:
  ServeClient(service::JobScheduler& sched, const fs::path& service_dir,
              std::string prefix, std::uint64_t seed, std::uint64_t scale,
              obs::SpanRecorder* rec)
      : sched_(sched),
        jobs_dir_(service_dir / "jobs"),
        prefix_(std::move(prefix)),
        rng_(seed),
        scale_(scale),
        rec_(rec) {}

  /// Runs one job per flag (batch or interactive) to completion.
  std::vector<FinishedJob> run_jobs(const std::vector<bool>& batch_flags) {
    JobVerifier verifier(jobs_dir_);
    for (const bool batch : batch_flags) submit(batch);
    drain(0, verifier);
    return verifier.finish();
  }

  /// Runs the closed loop for `seconds`.
  std::vector<FinishedJob> run_window(double seconds) {
    JobVerifier verifier(jobs_dir_);
    window_start_ = Clock::now();
    for (unsigned c = 0; c < kServeClients; ++c) submit(draw_batch());
    drain(seconds, verifier);
    return verifier.finish();
  }

 private:
  struct Inflight {
    FinishedJob job;
    Clock::time_point submitted;
  };

  bool draw_batch() {
    if (mix_slot_ == 0) batch_slot_ = rng_.bounded(kServeMixBlock);
    const bool batch = mix_slot_ == batch_slot_;
    mix_slot_ = (mix_slot_ + 1) % kServeMixBlock;
    return batch;
  }

  void submit(bool batch) {
    Inflight f;
    FinishedJob& job = f.job;
    job.name = prefix_ + std::to_string(next_id_++);
    job.batch = batch;
    job.n = (batch ? kBatchElems : kInteractiveElems) / scale_;
    job.seed = rng_();
    service::JobSpec spec;
    spec.name = job.name;
    spec.dist = data::Distribution::kUniform;
    spec.n = job.n;
    spec.seed = job.seed;
    spec.job_class = batch ? "batch" : "interactive";
    spec.output_path = (jobs_dir_ / job.name / "output.bin").string();
    if (rec_ != nullptr) job.client_start = rec_->now();
    f.submitted = Clock::now();
    sched_.submit(std::move(spec));
    job.submit_s = since(f.submitted);
    inflight_.push_back(std::move(f));
  }

  void drain(double window_seconds, JobVerifier& verifier) {
    while (!inflight_.empty()) {
      bool progressed = false;
      for (std::size_t i = 0; i < inflight_.size();) {
        service::JobOutcome out = sched_.outcome(inflight_[i].job.name);
        if (out.state == service::JobState::kQueued ||
            out.state == service::JobState::kRunning) {
          ++i;
          continue;
        }
        Inflight f = std::move(inflight_[i]);
        inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(i));
        f.job.latency = since(f.submitted);
        f.job.in_window = since(window_start_) < window_seconds;
        if (rec_ != nullptr) f.job.client_end = rec_->now();
        f.job.outcome = std::move(out);
        if (f.job.in_window) submit(draw_batch());
        verifier.push(std::move(f.job));
        progressed = true;
      }
      if (!progressed) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }

  service::JobScheduler& sched_;
  fs::path jobs_dir_;
  std::string prefix_;  // job names are unique per scheduler
  Xoshiro256 rng_;
  std::uint64_t scale_;
  obs::SpanRecorder* rec_;
  std::uint64_t next_id_ = 0;
  std::uint64_t mix_slot_ = 0, batch_slot_ = 0;  // position in the mix block
  Clock::time_point window_start_ = Clock::now();
  std::vector<Inflight> inflight_;
};

std::unique_ptr<service::JobScheduler> make_scheduler(const fs::path& dir) {
  service::SchedulerConfig cfg;
  cfg.service_dir = dir.string();
  cfg.workers = kServeWorkers;
  cfg.queue_capacity = kServeQueueCapacity;
  cfg.host_budget_bytes = kServeBudgetBytes;
  cfg.classes = {{"interactive", 4.0}, {"batch", 1.0}};
  return std::make_unique<service::JobScheduler>(cfg);
}

void count_ops(Outcome& res, const std::vector<FinishedJob>& jobs) {
  for (const FinishedJob& r : jobs) res.op_done(r.ok);
}

/// Jobs completed inside the window, per second, in million elements.
double window_meps(const std::vector<FinishedJob>& jobs, double window) {
  double elems = 0;
  for (const FinishedJob& r : jobs) {
    if (r.in_window && r.ok) elems += static_cast<double>(r.n);
  }
  return window > 0 ? elems / window / 1e6 : 0;
}

Outcome run_serve(const Options& o) {
  Outcome res;
  const std::uint64_t scale = o.smoke ? 10 : 1;
  const fs::path root = fs::path(o.scratch_dir) / "serve";
  fs::remove_all(root);

  // Set-up: a fresh service directory and scheduler, then one job of each
  // class run to completion (thread start, first-job lazy initialisation).
  std::unique_ptr<service::JobScheduler> sched;
  std::vector<double> setup;
  fs::path dir;
  for (unsigned round = 0; round < kSetupRounds; ++round) {
    sched.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = root / ("setup" + std::to_string(round));
    const auto t0 = Clock::now();
    sched = make_scheduler(dir);
    count_ops(res, ServeClient(*sched, dir, "w", o.seed + round, scale, nullptr)
                       .run_jobs({false, true}));
    setup.push_back(since(t0));
  }

  const double plain_seconds = o.trace ? o.seconds * kUntracedShare : o.seconds;
  const std::vector<FinishedJob> plain =
      ServeClient(*sched, dir, "p", o.seed, scale, nullptr)
          .run_window(plain_seconds);
  count_ops(res, plain);
  const double plain_meps = window_meps(plain, plain_seconds);
  sched.reset();

  // Latency is the interactive class's, the class with a latency objective;
  // batch jobs count toward throughput.
  std::vector<double> latency;
  for (const FinishedJob& r : plain) {
    if (r.in_window && r.ok && !r.batch) latency.push_back(r.latency);
  }
  set_end_to_end(res, median(setup), latency, 0);
  res.values["throughput_meps"] = plain_meps;  // measured, not from latency
  if (!o.trace) {
    fs::remove_all(root);
    return res;
  }

  // Traced window on a fresh scheduler, so both windows start from the same
  // manifest size.
  const fs::path traced_dir = root / "traced";
  sched = make_scheduler(traced_dir);
  obs::SpanRecorder rec;
  const double traced_seconds = o.seconds - plain_seconds;
  std::vector<FinishedJob> jobs;
  obs::CounterSnapshot delta;
  {
    const RecorderInstall installed(rec);
    const obs::CounterSnapshot before = obs::counters().snapshot();
    jobs = ServeClient(*sched, traced_dir, "t", o.seed, scale, &rec)
               .run_window(traced_seconds);
    delta = obs::counters().snapshot() - before;
    count_ops(res, jobs);
    for (const FinishedJob& r : jobs) {
      record_bench_span(rec, "client:" + r.name, r.client_start, r.client_end,
                        r.n * sizeof(double));
    }
  }
  sched.reset();
  fs::remove_all(root);

  // Operation ids: the library's "job:<name>" span roots and the client's
  // "client:<name>" spans name the same job.
  res.spans = rec.snapshot();
  std::map<std::string, std::int64_t> op_by_name;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    op_by_name[jobs[k].name] = static_cast<std::int64_t>(k);
  }
  std::vector<std::int64_t> op_of(res.spans.size(), kNoOp);
  for (std::size_t i = 0; i < res.spans.size(); ++i) {
    std::size_t root_i = i;
    while (res.spans[root_i].parent != obs::kNoParent) {
      root_i = res.spans[root_i].parent;
    }
    const std::string& name = res.spans[root_i].name;
    const auto colon = name.find(':');
    if (colon == std::string::npos) continue;
    const auto it = op_by_name.find(name.substr(colon + 1));
    if (it != op_by_name.end()) op_of[i] = it->second;
  }
  const std::size_t ops = jobs.size();

  std::vector<double> elems, submit, wait, run_i, run_b, makespan, generate,
      verify, runs;
  std::uint64_t all_elems = 0;
  double completed = 0, failed = 0, retries = 0, degraded = 0;
  for (const FinishedJob& r : jobs) {
    const service::JobOutcome& out = r.outcome;
    elems.push_back(static_cast<double>(r.n));
    all_elems += r.n;
    submit.push_back(r.submit_s);
    wait.push_back(out.queue_wait_seconds);
    (r.batch ? run_b : run_i).push_back(out.run_seconds);
    makespan.push_back(out.virtual_seconds);
    runs.push_back(static_cast<double>(out.stats.num_runs));
    generate.push_back(r.generate_s);
    verify.push_back(r.verify_s);
    completed += out.state == service::JobState::kCompleted ? 1 : 0;
    failed += r.ok ? 0 : 1;
    retries += out.attempts > 0 ? out.attempts - 1 : 0;
    degraded += out.degraded ? 1 : 0;
  }
  res.check(delta.pcie_round_trip_bytes() == 2 * all_elems * sizeof(double),
            "pcie_bytes == 2 * n * elem_size summed over the window's jobs");
  set_io_layers(res, op_of, elems, runs);
  std::vector<obs::CounterSnapshot> per_job(1, delta);
  for (auto& value : per_job[0].values) value /= std::max<std::size_t>(1, ops);
  set_counter_layers(res, per_job);

  auto& v = res.values;
  v["sim.makespan_s"] = median(makespan);
  v["service.submit_p50_s"] = median(submit);
  v["service.submit_p99_s"] = quantile(submit, 0.99);
  v["service.queue_wait_p50_s"] = median(wait);
  v["service.queue_wait_p99_s"] = quantile(wait, 0.99);
  v["service.run_interactive_p50_s"] = median(run_i);
  v["service.run_batch_p50_s"] = median(run_b);
  v["service.jobs_completed"] = completed;
  v["service.jobs_failed"] = failed;
  v["service.retries"] = retries;
  v["service.degraded_grants"] = degraded;
  finish_traced(res, op_of, ops, generate, verify,
                excess(plain_meps, window_meps(jobs, traced_seconds)));
  return res;
}

// ---------------------------------------------------------------------------
// Environment header, result printing, and the command line.
// ---------------------------------------------------------------------------

constexpr bool kOptimizedBuild =
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    false;
#else
    true;
#endif

std::uint64_t llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::uint64_t>(v);
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::uint64_t kib = 0;
  f >> kib;
  return kib * 1024;
}

std::string filesystem_name(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string env_json(const Options& o) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"env\": {\"build_type\": \"%s\", \"nproc\": %u, \"llc_bytes\": %llu, "
      "\"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
      "\"scratch_fs\": \"%s\", \"git_sha\": \"%s\"}}",
      HETSORT_E2E_BUILD_TYPE, std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(llc_bytes()),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      json_escape(filesystem_name(o.scratch_dir)).c_str(),
      json_escape(o.git_sha.empty() ? "unknown" : o.git_sha).c_str());
  return buf;
}

/// Prints the human-readable metric table and the result line (last line of
/// standard output). Returns true when every output verified.
bool print_result(const Outcome& res, bool trace) {
  const std::span<const MetricDef> defs =
      trace ? std::span<const MetricDef>(kPerLayer)
            : std::span<const MetricDef>(kEndToEnd);
  const bool correct = res.failed == 0 && res.check_failures == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed + res.check_failures);
  json += ", \"metrics\": {";
  const auto value_of = [&](const char* name) {
    const auto it = res.values.find(name);
    const double v = it == res.values.end() ? 0.0 : it->second;
    return std::isfinite(v) ? v : 0.0;
  };
  bool first = true;
  for (const MetricDef& d : defs) {
    const double value = value_of(d.name);
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", value);
    std::printf("  %-34s %14.6g %s\n", d.name, value, d.unit);
    json += first ? "" : ", ";
    json += "\"" + std::string(d.name) + "\": {\"value\": " + num +
            ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}}";
  if (!trace) {
    std::printf("  (%.0f timed ops, latency p90 %.6g s; not gated)\n",
                value_of("bench.ops"), value_of("bench.latency_p90_s"));
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Outcome run_workload(const Workload& w, const Options& o) {
  switch (w.kind) {
    case Kind::kInMemory: return run_in_memory(w, o);
    case Kind::kExternal: return run_external(w, o);
    case Kind::kServe: return run_serve(o);
  }
  return {};
}

void write_trace(const Outcome& res, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open --trace-out file " + path);
  obs::export_chrome_trace(res.spans, f);
}

/// Every workload, untraced and traced, at smoke size. Fails on any failed
/// operation, violated attribution check, or end-to-end metric that reads 0.
int run_smoke(Options o) {
  bool ok = true;
  for (const Workload& full : kWorkloads) {
    const Workload w = smoke_size(full);
    for (const bool trace : {false, true}) {
      o.trace = trace;
      o.seconds = w.kind == Kind::kServe ? 1.0 : 0.2;
      std::printf("== %s trace=%d\n", w.name, trace ? 1 : 0);
      const Outcome res = run_workload(w, o);
      ok = print_result(res, trace) && ok;
      if (!trace) {
        for (const MetricDef& d : kEndToEnd) {
          const auto it = res.values.find(d.name);
          if (it == res.values.end() || !(it->second > 0)) {
            std::fprintf(stderr, "%s: %s is not positive\n", w.name, d.name);
            ok = false;
          }
        }
      }
    }
  }
  std::printf("smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

/// Prints every workload name and every metric name with its unit as one
/// JSON object, which run.py checks against BENCHMARK.json.
void print_names() {
  const auto metrics = [](std::span<const MetricDef> defs) {
    std::string s = "{";
    for (const MetricDef& d : defs) {
      s += (s.size() > 1 ? ", \"" : "\"") + std::string(d.name) + "\": \"" +
           d.unit + "\"";
    }
    return s + "}";
  };
  std::string workloads;
  for (const Workload& w : kWorkloads) {
    workloads += (workloads.empty() ? "\"" : ", \"") + std::string(w.name) + "\"";
  }
  std::printf("{\"workloads\": [%s], \"end_to_end\": %s, \"per_layer\": %s}\n",
              workloads.c_str(), metrics(kEndToEnd).c_str(),
              metrics(kPerLayer).c_str());
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: hetsort_e2e --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scratch-dir DIR] "
               "[--trace-out FILE] [--git-sha SHA]\n       hetsort_e2e "
               "--smoke [--scratch-dir DIR]\n       hetsort_e2e --list\n"
               "workloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        o.workload = value();
      } else if (flag == "--seed") {
        o.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (flag == "--scratch-dir") {
        o.scratch_dir = value();
      } else if (flag == "--trace-out") {
        o.trace_out = value();
      } else if (flag == "--git-sha") {
        o.git_sha = value();
      } else if (flag == "--smoke") {
        o.smoke = true;
      } else if (flag == "--list") {
        o.list = true;
      } else {
        usage("unknown flag");
      }
    } catch (const std::logic_error&) {
      usage("malformed number");
    }
  }
  if (!(o.seconds > 0) || o.seconds > 3600) usage("--seconds out of range");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.list) {
    print_names();
    return 0;
  }
  const Workload* w = o.smoke ? nullptr : find_workload(o.workload);
  if (!o.smoke && w == nullptr) usage("unknown or missing --workload");
  if (!o.smoke && !kOptimizedBuild) {
    std::fprintf(stderr, "refusing to measure a %s build\n",
                 HETSORT_E2E_BUILD_TYPE);
    return 2;
  }
  fs::create_directories(o.scratch_dir);
  if (!o.smoke && fs::space(o.scratch_dir).available < kMinFreeScratch) {
    std::fprintf(stderr, "scratch dir %s has less than 1 GiB free\n",
                 o.scratch_dir.c_str());
    return 2;
  }
  std::printf("%s\n", env_json(o).c_str());
  try {
    if (o.smoke) return run_smoke(o);
    const Outcome res = run_workload(*w, o);
    if (!o.trace_out.empty()) write_trace(res, o.trace_out);
    return print_result(res, o.trace) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark aborted: %s\n", e.what());
    return 1;
  }
}
