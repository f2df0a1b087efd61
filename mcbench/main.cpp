// mcbench: the end-to-end benchmark of mcdc.
//
//   mcbench --workload hot-hits|wide-miss|het-merge --seed N --seconds S
//           --trace 0|1 [--trace-out FILE]
//
// Generates the workload's stream from the seed, then drives the public
// APIs of the serial service, the sharded engine, the SC kernel and the
// off-line planners over it, checking every output against the serial
// reference. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it runs the same phases once untraced and once under the span
// tracer and prints the per-layer metrics. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is 0
// only when every check passed. NOTES.md explains the workloads and metrics.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/solve.h"
#include "core/offline_dp.h"
#include "core/online_sc.h"
#include "engine/streaming_engine.h"
#include "harness.h"
#include "service/data_service.h"
#include "tracer.h"
#include "util/rng.h"
#include "workload/generators.h"

#ifndef MCBENCH_BUILD_TYPE
#define MCBENCH_BUILD_TYPE "unknown"
#endif

namespace mcbench {
namespace {

using mcdc::MultiItemRequest;
using Stream = std::vector<MultiItemRequest>;

constexpr std::size_t kBlock = 1024;        // records per closed-loop span
constexpr std::size_t kPacedBlock = 32;     // records per span at the paced rate
constexpr std::size_t kLadderBlock = 256;   // records per span of a sustained-rate probe
constexpr std::size_t kWarmupRecords = 65536;
constexpr int kMinRounds = 5;       // recorded measuring rounds per run, at least
constexpr int kMaxRounds = 200;
constexpr std::size_t kMinPlanPasses = 3;
constexpr double kPlanShare = 0.3;  // planner passes stop at this share of time
constexpr std::size_t kPlanChunkItems = 32;  // items per timed part of a het planner pass
constexpr double kLatencyLimitUs = 1000.0;  // the sustained-rate p50 limit
constexpr double kLadderStep = 1.04;        // ratio between ladder rungs
constexpr int kCoarseStep = 6;              // staircase rungs per probe before the first flip
constexpr int kProbesPerRound = 2;
constexpr std::size_t kMinFineProbes = 12;
constexpr double kReconcileTolerance = 0.05;  // unattributed share per phase
// Ring capacity per producer x shard lane. At the default 1024 a closed-loop
// producer overruns the ring every ~0.1 ms and both sides fall into the
// 200 us sleep of the block/idle paths; throughput then swings between
// 4.5 and 14 Mreq/s from run to run on hot-hits (NOTES.md). 64 Ki slots
// keep the workers busy through a producer sleep.
constexpr std::size_t kLaneCapacity = 65536;

struct Workload {
  const char* name;
  int servers;
  int items;
  double arrival_rate;
  int requests;
  const char* cost;  // "" = homogeneous lambda = mu = 1, else a het spec
  int producers;
  double paced_mreq_s;         // the fixed offered rate of lat_p50_us
  std::size_t paced_records;   // records per paced pass (a stream prefix)
  double ladder_lo;            // Mreq/s, lowest rung
  double ladder_hi;            // Mreq/s, highest rung, far above today's rates
};

const Workload kWorkloads[] = {
    {"hot-hits", 16, 512, 5000.0, 2000000, "", 1, 0.25, 100000, 3.0, 120.0},
    {"wide-miss", 64, 262144, 5.0, 1000000, "", 1, 0.5, 150000, 0.5, 50.0},
    {"het-merge", 16, 4096, 500.0, 2000000, "tier=12x4;mu=2|1;lam=1|4|2", 2, 3.0, 1000000, 3.0, 120.0},
};

/// This process's thread ids, ascending (creation order).
std::vector<int> thread_ids() {
  std::vector<int> ids;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    ids.push_back(std::atoi(e.path().filename().c_str()));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Pins thread `tid` (0 = the caller) to one CPU, wrapping around the CPUs
/// there are; a no-op on boxes with fewer than three.
void pin_thread(int tid, int cpu) {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (cpus < 3) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % cpus, &set);
  sched_setaffinity(tid, sizeof set, &set);
}

double secs_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e9; }

/// This CPU's speed on a fixed chain of dependent multiply-adds, in
/// G steps/s. Co-tenants and host frequency changes move it, so printing it
/// with every run tells a slow box from a slow program.
double calibration_gsteps() {
  constexpr int kSteps = 20'000'000;
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 1;
  for (int i = 0; i < kSteps; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  const double secs = secs_since(t0);
  volatile std::uint64_t sink = x;
  (void)sink;
  return kSteps / secs / 1e9;
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Correctness accounting: records attempted and records failed, plus the
/// first few failure messages.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int messages = 0;

  void fail(std::uint64_t records, const std::string& what) {
    failed += std::max<std::uint64_t>(records, 1);
    if (messages++ < 10) std::printf("CHECK FAIL: %s\n", what.c_str());
  }
};

/// Requests (births included) of every item whose outcome differs from the
/// reference, bit for bit; all of them when the totals or item sets differ.
std::uint64_t mismatched_records(const mcdc::ServiceReport& got, const mcdc::ServiceReport& ref) {
  const std::uint64_t all = ref.requests + ref.items;
  if (got.per_item.size() != ref.per_item.size()) return all;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < ref.per_item.size(); ++i) {
    const auto& a = got.per_item[i];
    const auto& b = ref.per_item[i];
    if (a.item != b.item || a.origin != b.origin || a.birth != b.birth ||
        a.requests != b.requests || a.cost != b.cost || a.caching_cost != b.caching_cost ||
        a.transfer_cost != b.transfer_cost || a.transfers != b.transfers || a.hits != b.hits) {
      bad += b.requests + 1;
    }
  }
  if (bad == 0 && (got.total_cost != ref.total_cost || got.requests != ref.requests)) bad = all;
  return bad;
}

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed, bool trace) : w_(w), tracer_(trace) {
    mcdc::MultiItemConfig cfg;
    cfg.num_servers = w.servers;
    cfg.num_items = w.items;
    cfg.num_requests = w.requests;
    cfg.arrival_rate = w.arrival_rate;
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope s(tracer_, "workload");
      mcdc::Rng rng(seed);
      stream_ = mcdc::gen_multi_item(rng, cfg);
    }
    gen_s_ = secs_since(t0);
    if (*w.cost != '\0') {
      het_ = std::make_shared<const mcdc::HeterogeneousCostModel>(
          mcdc::HeterogeneousCostModel::parse(w.cost));
      cm_ = mcdc::ServingCostModel(het_);
    } else {
      cm_ = mcdc::ServingCostModel(mcdc::CostModel(1.0, 1.0));
    }
    sopts_.recording = mcdc::RecordingMode::kCostsOnly;
    ecfg_.num_shards = 2;
    ecfg_.deterministic = true;
    ecfg_.policy = mcdc::BackpressurePolicy::kBlock;
    ecfg_.queue_capacity = kLaneCapacity;
    ecfg_.service_options = sopts_;
  }

  const Stream& stream() const { return stream_; }
  double gen_s() const { return gen_s_; }
  Tracer& tracer() { return tracer_; }
  Checks& checks() { return checks_; }

  // ---- serial service ----------------------------------------------------

  struct SerialRun {
    double secs = 0.0;
    double request_s = 0.0;
    double finish_s = 0.0;
    std::size_t hits = 0;
    std::size_t resident_bytes = 0;
    mcdc::ServiceReport report;
  };

  SerialRun serial(std::span<const MultiItemRequest> in) {
    SerialRun r;
    // The outer span also covers resident_bytes() and the destructor.
    Tracer::Scope whole(tracer_, "service");
    mcdc::OnlineDataService svc(w_.servers, cm_, sopts_);
    const std::int64_t t0 = now_ns();
    for (std::size_t k = 0; k < in.size(); k += kBlock) {
      Tracer::Scope s(tracer_, "service");
      r.hits += svc.request_span(in.subspan(k, std::min(kBlock, in.size() - k)));
    }
    const std::int64_t t1 = now_ns();
    r.resident_bytes = svc.resident_bytes();
    const std::int64_t t2 = now_ns();
    {
      Tracer::Scope s(tracer_, "service");
      r.report = svc.finish();
    }
    r.finish_s = secs_since(t2);
    r.request_s = static_cast<double>(t1 - t0) / 1e9;
    r.secs = r.request_s + r.finish_s;
    checks_.attempted += in.size();
    return r;
  }

  // ---- sharded engine ----------------------------------------------------

  struct EngineRun {
    double secs = 0.0;
    double ctor_s = 0.0;
    double submit_s = 0.0;
    double finish_s = 0.0;
    mcdc::ServiceReport report;
    mcdc::EngineStats stats;
    mcdc::obs::LatencyHistogramSnapshot queue_wait, merge_stall, apply, e2e;
    // paced passes only
    std::vector<double> lat_us;
    std::vector<double> late_us;
    std::uint64_t backlog_max = 0;
  };

  /// The stream's first `n` records split round-robin over the workload's
  /// producer sessions, so each session's times stay strictly increasing.
  std::vector<Stream> split(std::size_t n) const {
    std::vector<Stream> parts(static_cast<std::size_t>(w_.producers));
    for (std::size_t i = 0; i < n; ++i) parts[i % parts.size()].push_back(stream_[i]);
    return parts;
  }

  /// Closed loop: construction, every block submitted back to back,
  /// close, finish(). Timed from construction to finish().
  EngineRun engine_closed(const std::vector<Stream>& parts, bool telemetry) {
    EngineRun r;
    auto cfg = ecfg_;
    cfg.telemetry = telemetry;
    const std::int64_t t0 = now_ns();
    std::unique_ptr<mcdc::StreamingEngine> eng;
    std::vector<mcdc::IngressSession> sessions;
    {
      Tracer::Scope s(tracer_, "engine.ctor");
      eng = make_engine(cfg);
      for (std::size_t p = 0; p < parts.size(); ++p) sessions.push_back(eng->open_producer());
    }
    r.ctor_s = secs_since(t0);
    const std::size_t per = kBlock / parts.size();
    const std::size_t len = parts[0].size();
    for (std::size_t k = 0; k < len; k += per) {
      Tracer::Scope s(tracer_, "engine.submit");
      submit_block(sessions, parts, k, per);
    }
    for (auto& s : sessions) s.close();
    const std::int64_t t2 = now_ns();
    r.submit_s = secs_since(t0) - r.ctor_s;
    {
      Tracer::Scope s(tracer_, "engine.finish");
      r.report = eng->finish();
    }
    r.finish_s = secs_since(t2);
    r.secs = secs_since(t0);
    Tracer::Scope s(tracer_, "engine.teardown");
    collect(*eng, r);
    sessions.clear();
    eng.reset();
    release_cpu();
    return r;
  }

  /// Open loop at `mreq_s`: block k is due at start + k * block / rate; a
  /// block completes at the first poll whose summed retired count covers
  /// it. Sessions are closed before the final blocks are awaited: under the
  /// deterministic merge a producer's last records retire only once every
  /// other producer's watermark has passed them, or that producer closed.
  EngineRun engine_paced(const std::vector<Stream>& parts, double mreq_s, std::size_t block) {
    EngineRun r;
    const auto engine = make_engine(ecfg_);
    mcdc::StreamingEngine& eng = *engine;
    std::vector<mcdc::IngressSession> sessions;
    for (std::size_t p = 0; p < parts.size(); ++p) sessions.push_back(eng.open_producer());
    const std::size_t per = block / parts.size();
    const std::size_t len = parts[0].size();
    const std::size_t blocks = (len + per - 1) / per;
    std::vector<std::uint64_t> submitted(parts.size(), 0);
    std::uint64_t total = 0;
    auto retired = [&] {
      std::uint64_t sum = 0;
      for (std::size_t p = 0; p < sessions.size(); ++p) sum += submitted[p] - sessions[p].in_flight();
      return sum;
    };
    SpanCompletions done;
    const std::int64_t start = now_ns();
    const OpenLoopSchedule sched(start, mreq_s * 1e6, block);
    const double ns_per_block = 1e9 * static_cast<double>(block) / (mreq_s * 1e6);
    std::size_t k = 0;
    while (k < blocks) {
      std::int64_t now = now_ns();
      const std::int64_t due = sched.due_ns(k);
      if (now >= due) {
        r.late_us.push_back(static_cast<double>(now - due) / 1e3);
        for (std::size_t p = 0; p < parts.size(); ++p) {
          const std::size_t take = std::min(per, parts[p].size() - std::min(parts[p].size(), k * per));
          submitted[p] += take;
          total += take;
        }
        submit_block(sessions, parts, k * per, per);
        done.submitted(total, due);
        ++k;
        now = now_ns();
      }
      const std::uint64_t ret = retired();
      done.poll(ret, now, r.lat_us);
      const auto due_blocks = std::min<std::uint64_t>(
          blocks, static_cast<std::uint64_t>(static_cast<double>(now - start) / ns_per_block) + 1);
      const std::uint64_t due_records = std::min<std::uint64_t>(due_blocks * block, len * parts.size());
      if (due_records > ret) r.backlog_max = std::max(r.backlog_max, due_records - ret);
      for (int i = 0; i < 16; ++i) cpu_relax();
    }
    for (auto& s : sessions) s.close();
    while (done.outstanding() > 0) {
      done.poll(retired(), now_ns(), r.lat_us);
      cpu_relax();
    }
    r.report = eng.finish();
    collect(eng, r);
    sessions.clear();
    release_cpu();
    return r;
  }

  /// Per item, an engine pass must equal the serial reference bit for bit,
  /// with nothing refused and everything submitted retired.
  void check_engine(const EngineRun& r, const mcdc::ServiceReport& ref, const char* what) {
    const std::uint64_t records = ref.requests + ref.items;
    checks_.attempted += records;
    std::uint64_t retired = 0;
    for (const auto& p : r.stats.producers) retired += p.retired;
    if (r.stats.dropped != 0 || r.stats.submitted != records || retired != records) {
      checks_.fail(records - std::min(records, retired) + r.stats.dropped,
                   std::string(what) + ": submitted " + std::to_string(r.stats.submitted) +
                       ", retired " + std::to_string(retired) + ", dropped " +
                       std::to_string(r.stats.dropped) + " of " + std::to_string(records));
    }
    if (const auto bad = mismatched_records(r.report, ref); bad != 0) {
      checks_.fail(bad, std::string(what) + ": report differs from the serial service");
    }
  }

  // ---- SC kernel replay --------------------------------------------------

  /// Replays every item's instance through SpeculativeCache::observe and
  /// checks each item's costs against the service report. Returns seconds.
  double sc_replay(const std::vector<mcdc::ItemInstance>& insts, const mcdc::ServiceReport& ref) {
    Tracer::Scope whole(tracer_, "core.sc");  // the checks and teardown too
    std::uint64_t bad = 0;
    std::uint64_t records = 0;
    std::vector<mcdc::OnlineScResult> results;
    results.reserve(insts.size());
    const std::int64_t t0 = now_ns();
    for (const auto& inst : insts) {
      mcdc::SpeculativeCache sc(w_.servers, inst.origin, cm_, sopts_);
      const auto& seq = inst.sequence;
      for (mcdc::RequestIndex i = 1; i <= seq.n(); ++i) sc.observe(seq.server(i), seq.time(i));
      sc.finish(seq.time(seq.n()));
      results.push_back(sc.take_result());
    }
    const double secs = secs_since(t0);
    if (results.size() != ref.per_item.size()) {
      checks_.fail(ref.requests + ref.items, "sc replay: item count differs from the service");
      return secs;
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& a = results[i];
      const auto& b = ref.per_item[i];
      records += b.requests + 1;
      if (insts[i].item != b.item || a.total_cost != b.cost || a.caching_cost != b.caching_cost ||
          a.transfer_cost != b.transfer_cost || a.hits != b.hits || a.misses != b.transfers) {
        bad += b.requests + 1;
      }
    }
    checks_.attempted += records;
    if (bad != 0) checks_.fail(bad, "sc replay: per-item costs differ from the service");
    return secs;
  }

  // ---- off-line planner --------------------------------------------------

  struct PlanRun {
    double secs = 0.0;
    double total_cost = 0.0;
    // Wall time of each part of the pass, in a fixed order: the one
    // plan_offline_service call when homogeneous; service_instances, the
    // heuristic on each run of kPlanChunkItems items, and freeing the
    // instances, when heterogeneous.
    std::vector<double> parts_s;
  };

  /// The workload's planner: plan_offline_service (the O(mn) DP) when
  /// homogeneous; service_instances + solve_offline(kHetHeuristic) when
  /// heterogeneous. kHetHeuristic is explicit: kAuto would pick the
  /// exponential exact oracle for every item on <= 14 servers.
  PlanRun plan() {
    PlanRun r;
    const std::int64_t t0 = now_ns();
    if (!het_) {
      Tracer::Scope s(tracer_, "planner");
      r.total_cost = mcdc::plan_offline_service(stream_, w_.servers, cm_.hom()).total_cost;
    } else {
      std::vector<mcdc::ItemInstance> insts;
      {
        Tracer::Scope s(tracer_, "service");
        insts = mcdc::service_instances(stream_, w_.servers);
      }
      r.parts_s.push_back(secs_since(t0));
      Tracer::Scope s(tracer_, "planner");
      mcdc::SolveOptions opt;
      opt.algorithm = mcdc::OfflineAlgorithm::kHetHeuristic;
      for (std::size_t lo = 0; lo < insts.size(); lo += kPlanChunkItems) {
        const std::int64_t c0 = now_ns();
        const std::size_t hi = std::min(insts.size(), lo + kPlanChunkItems);
        for (std::size_t i = lo; i < hi; ++i) {
          r.total_cost += mcdc::solve_offline(insts[i].sequence, *het_, opt).optimal_cost;
        }
        r.parts_s.push_back(secs_since(c0));
      }
      const std::int64_t f0 = now_ns();
      std::vector<mcdc::ItemInstance>().swap(insts);
      r.parts_s.push_back(secs_since(f0));
    }
    r.secs = secs_since(t0);
    if (r.parts_s.empty()) r.parts_s.push_back(r.secs);
    return r;
  }

  /// Per-request planner cost on already-built instances: the DP (homogeneous
  /// workloads only) and the het heuristic (on the homogeneous lift when the
  /// workload is homogeneous, where it must match the DP).
  void plan_layers(const std::vector<mcdc::ItemInstance>& insts, double& dp_ns, double& het_ns) {
    const double n = static_cast<double>(stream_.size());
    mcdc::SolveOptions opt;
    opt.algorithm = mcdc::OfflineAlgorithm::kHetHeuristic;
    double dp_cost = 0.0;
    dp_ns = 0.0;
    if (!het_) {
      const std::int64_t t0 = now_ns();
      for (const auto& inst : insts) dp_cost += mcdc::solve_offline(inst.sequence, cm_.hom()).optimal_cost;
      dp_ns = static_cast<double>(now_ns() - t0) / n;
    }
    const mcdc::HeterogeneousCostModel lift =
        het_ ? *het_ : mcdc::HeterogeneousCostModel(w_.servers, cm_.hom());
    double het_cost = 0.0;
    const std::int64_t t1 = now_ns();
    for (const auto& inst : insts) het_cost += mcdc::solve_offline(inst.sequence, lift, opt).optimal_cost;
    het_ns = static_cast<double>(now_ns() - t1) / n;
    if (!het_ && std::fabs(het_cost - dp_cost) > 1e-9 * std::max(1.0, dp_cost)) {
      checks_.fail(stream_.size(), "het heuristic on the homogeneous lift differs from the DP");
    }
  }

  // ---- set-up ------------------------------------------------------------

  /// Builds the serial service and the engine and runs the warm-up pass
  /// (the first kWarmupRecords through both). Returns seconds; the engine
  /// constructor's share goes to `ctor_s`.
  double setup_once(const std::vector<Stream>& warm_parts, double& ctor_s) {
    const std::int64_t t0 = now_ns();
    mcdc::OnlineDataService svc(w_.servers, cm_, sopts_);
    const std::int64_t tc = now_ns();
    auto eng = make_engine(ecfg_);
    std::vector<mcdc::IngressSession> sessions;
    for (std::size_t p = 0; p < warm_parts.size(); ++p) sessions.push_back(eng->open_producer());
    ctor_s = secs_since(tc);
    const std::size_t n = std::min(kWarmupRecords, stream_.size());
    svc.request_span(std::span<const MultiItemRequest>(stream_.data(), n));
    const auto ref = svc.finish();
    for (std::size_t p = 0; p < warm_parts.size(); ++p) sessions[p].submit_span(warm_parts[p]);
    for (auto& s : sessions) s.close();
    const auto rep = eng->finish();
    const double secs = secs_since(t0);
    sessions.clear();
    eng.reset();
    release_cpu();
    if (mismatched_records(rep, ref) != 0) checks_.fail(n, "warm-up: engine differs from serial");
    return secs;
  }

  bool heterogeneous() const { return het_ != nullptr; }

 private:
  void submit_block(std::vector<mcdc::IngressSession>& sessions, const std::vector<Stream>& parts,
                    std::size_t k, std::size_t per) {
    for (std::size_t p = 0; p < parts.size(); ++p) {
      if (k >= parts[p].size()) continue;
      sessions[p].submit_span(
          std::span<const MultiItemRequest>(parts[p].data() + k, std::min(per, parts[p].size() - k)));
    }
  }

  /// Places the engine's threads: this thread, the producer, on CPU 0 and
  /// each new worker on a CPU of its own from 1 up, until release_cpu()
  /// after the engine is gone. Left to itself the scheduler often stacks
  /// two of the three busy threads on one CPU after a single-threaded phase
  /// and takes over a second to spread them; a stacked worker runs once per
  /// 3 ms time slice and paced p50 reads ~2.8 ms instead of ~9 us.
  std::unique_ptr<mcdc::StreamingEngine> make_engine(const mcdc::EngineConfig& cfg) const {
    const auto before = thread_ids();
    auto eng = std::make_unique<mcdc::StreamingEngine>(w_.servers, cm_, cfg);
    int cpu = 1;
    for (const int tid : thread_ids()) {
      if (std::find(before.begin(), before.end(), tid) == before.end()) pin_thread(tid, cpu++);
    }
    pin_thread(0, 0);
    return eng;
  }

  /// Lets this thread run anywhere again, for the single-threaded phases.
  static void release_cpu() {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned c = 0; c < std::thread::hardware_concurrency(); ++c) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
  }

  static void collect(const mcdc::StreamingEngine& eng, EngineRun& r) {
    r.stats = eng.stats();
    if (eng.telemetry_enabled()) {
      r.queue_wait = eng.queue_wait_snapshot();
      r.merge_stall = eng.merge_stall_snapshot();
      r.apply = eng.apply_snapshot();
      r.e2e = eng.e2e_snapshot();
    }
  }

  const Workload& w_;
  Tracer tracer_;
  Checks checks_;
  Stream stream_;
  double gen_s_ = 0.0;
  std::shared_ptr<const mcdc::HeterogeneousCostModel> het_;
  mcdc::ServingCostModel cm_{mcdc::CostModel(1.0, 1.0)};
  mcdc::SpeculativeCachingOptions sopts_;
  mcdc::EngineConfig ecfg_;
};

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Checks& c, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  std::string out = "{\"correct\": ";
  out += c.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(c.attempted, 1));
  out += ", \"failed\": " + std::to_string(c.failed) + ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics[i].name.c_str(), v, metrics[i].unit);
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The best pass of a run. Co-tenants of this kind of virtual machine slow
/// memory-touching code by up to a fifth for seconds at a time (NOTES.md);
/// the least-disturbed pass is the estimate such spells move least.
double best(const std::vector<double>& v) { return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()); }

double mreq_s(std::size_t records, double secs) { return static_cast<double>(records) / secs / 1e6; }

double last_quarter_p50(const std::vector<double>& lat) {
  return median(std::vector<double>(lat.begin() + static_cast<std::ptrdiff_t>(lat.size() * 3 / 4), lat.end()));
}

int run(const Workload& w, std::uint64_t seed, double seconds, bool trace, const std::string& trace_out) {
  const CpuTimes cpu0 = read_cpu_times();
  const double calib0 = calibration_gsteps();
  std::printf("box: nproc=%u cpu=\"%s\" build=%s\n", std::thread::hardware_concurrency(),
              cpu_model().c_str(), MCBENCH_BUILD_TYPE);
  Bench b(w, seed, trace);
  const Stream& stream = b.stream();
  const std::size_t n = stream.size();
  std::printf("workload %s seed %llu: %zu records, stream hash %016llx, generated in %.3f s\n", w.name,
              static_cast<unsigned long long>(seed), n, static_cast<unsigned long long>(stream_hash(stream)),
              b.gen_s());
  Tracer& tr = b.tracer();
  Checks& checks = b.checks();
  const auto parts = b.split(n);
  const auto warm_parts = b.split(std::min(kWarmupRecords, n));
  const auto paced_parts = b.split(std::min(w.paced_records, n));

  // References: the serial service on the whole stream and on the paced
  // prefix.
  Bench::SerialRun ref;
  mcdc::ServiceReport paced_ref;
  {
    Tracer::Scope s(tr, "phase.reference");
    ref = b.serial(stream);
    paced_ref = b.serial(std::span(stream).first(std::min(w.paced_records, n))).report;
  }
  std::printf("serial reference: total cost %.6f, hits %zu of %zu\n", ref.report.total_cost, ref.hits, n);
  // Peak RSS of serving: the stream, its producer split and the serial
  // service at its peak. Read before any engine thread or the planner runs:
  // per-thread allocator arenas make later readings wander by 10% from run
  // to run, and the planner holds every item's request sequence at once.
  const double peak_rss_mb = static_cast<double>(read_vmhwm_kb()) / 1024.0;

  std::vector<Metric> out;
  if (!trace) {
    // The measured phases run in rounds — set-up, serial, closed-loop
    // engine, telemetry engine, paced engine, two probes of the
    // sustained-rate staircase, and a planner pass while the planner has
    // used less than 30 % of the time — until the measuring time is
    // used. Interleaving spreads the box's slow spells over every metric
    // alike. Single-threaded throughputs report their best pass (the
    // planner: the sum of its parts' fastest times); the engine's, whose
    // best pass was the less steady (NOTES.md), and everything else report
    // their median.
    std::vector<double> setup_s, serial_r, ingest_r, tele_r, lat_p50, plan_r;
    double plan_secs = 0.0, sc_over_plan = 0.0;
    // Fastest time of each part of the planner over the passes. A het pass
    // takes 1.2-1.7 s, so a whole pass rarely misses all of the box's slow
    // spells; its parts of 32 items (about 10 ms each) mostly do.
    std::vector<double> plan_part_min;
    auto plan_pass = [&] {
      const auto r = b.plan();
      plan_secs += r.secs;
      plan_r.push_back(mreq_s(n, r.secs));
      sc_over_plan = ref.report.total_cost / r.total_cost;
      if (plan_part_min.empty()) plan_part_min = r.parts_s;
      for (std::size_t i = 0; i < plan_part_min.size(); ++i) {
        plan_part_min[i] = std::min(plan_part_min[i], r.parts_s[i]);
      }
    };

    // Sustained rate: a staircase on the fixed geometric ladder. A probe
    // paces the whole stream at one rung and passes when p50, over the pass
    // and over its last quarter (a growing backlog shows there first), stays
    // within the limit. From the rung nearest the warm-up round's closed-loop
    // rate the staircase moves six rungs per probe, up on a pass and down
    // on a failure, until the outcome first flips; from then on one rung per
    // probe. It settles around the highest sustained rung, and a scheduling
    // gap that fails a good rung costs one step, not the search. The metric
    // is the median of the rungs passed after the first flip.
    std::vector<double> ladder;
    for (double r = w.ladder_lo; r <= w.ladder_hi * 1.0001; r *= kLadderStep) ladder.push_back(r);
    const int top = static_cast<int>(ladder.size()) - 1;
    int rung = -1;
    int last = -1;  // outcome of the previous probe: -1 none, 0 failed, 1 passed
    bool fine = false;
    std::size_t fine_probes = 0;
    std::vector<double> sustained_rungs;
    auto ladder_step = [&] {
      const double rate = ladder[static_cast<std::size_t>(rung)];
      const auto r = b.engine_paced(parts, rate, kLadderBlock);
      b.check_engine(r, ref.report, "ladder engine");
      const double p50 = median(r.lat_us), tail = last_quarter_p50(r.lat_us);
      const bool ok = p50 <= kLatencyLimitUs && tail <= kLatencyLimitUs;
      std::printf("ladder %7.3f Mreq/s: p50 %9.1f us, last-quarter p50 %9.1f us: %s\n", rate, p50, tail,
                  ok ? "sustained" : "not sustained");
      if (last >= 0 && (last == 1) != ok) fine = true;
      last = ok ? 1 : 0;
      if (fine) {
        ++fine_probes;
        if (ok) sustained_rungs.push_back(rate);
      }
      const int step = fine ? 1 : kCoarseStep;
      rung = std::clamp(rung + (ok ? step : -step), 0, top);
    };

    // Round 0 warms up and is checked but not recorded: the first engine
    // passes of a process measured at half the speed of later ones.
    const std::int64_t t0 = now_ns();
    for (int round = 0; round <= kMaxRounds; ++round) {
      const bool record = round > 0;
      if (round > kMinRounds && secs_since(t0) >= seconds) break;
      double c = 0.0;
      const double setup = b.setup_once(warm_parts, c);
      const auto serial = b.serial(stream);
      if (mismatched_records(serial.report, ref.report) != 0) checks.fail(n, "serial pass differs");
      const auto ingest = b.engine_closed(parts, false);
      b.check_engine(ingest, ref.report, "closed-loop engine");
      const auto tele = b.engine_closed(parts, true);
      b.check_engine(tele, ref.report, "telemetry engine");
      const auto paced = b.engine_paced(paced_parts, w.paced_mreq_s, kPacedBlock);
      b.check_engine(paced, paced_ref, "paced engine");
      if (!record) {
        const double warm = mreq_s(n, ingest.secs);
        rung = 0;
        while (rung < top && ladder[static_cast<std::size_t>(rung)] * std::sqrt(kLadderStep) < warm) ++rung;
        continue;
      }
      setup_s.push_back(setup);
      serial_r.push_back(mreq_s(n, serial.secs));
      ingest_r.push_back(mreq_s(n, ingest.secs));
      tele_r.push_back(mreq_s(n, tele.secs));
      lat_p50.push_back(median(paced.lat_us));
      for (int i = 0; i < kProbesPerRound; ++i) ladder_step();
      if (plan_secs < kPlanShare * secs_since(t0)) plan_pass();
    }
    while (fine_probes < kMinFineProbes) ladder_step();
    while (plan_r.size() < kMinPlanPasses) plan_pass();
    const double sustained = median(sustained_rungs);
    // The SC kernel replay must reproduce every item's service costs.
    b.sc_replay(mcdc::service_instances(stream, w.servers), ref.report);
    if (!b.heterogeneous() && !(sc_over_plan >= 1.0)) {
      checks.fail(n, "SC beat the optimal planner on a homogeneous workload");
    }
    auto show = [](const char* what, const std::vector<double>& v) {
      std::printf("%s passes:", what);
      for (double x : v) std::printf(" %.4g", x);
      std::printf("\n");
    };
    show("serial Mreq/s", serial_r);
    show("ingest Mreq/s", ingest_r);
    show("ingest_tele Mreq/s", tele_r);
    show("paced p50 us", lat_p50);
    show("plan Mreq/s", plan_r);
    const double plan_best_s = std::accumulate(plan_part_min.begin(), plan_part_min.end(), 0.0);
    std::printf("plan: %zu parts, their fastest times add up to %.4f s\n", plan_part_min.size(), plan_best_s);
    show("setup s", setup_s);
    out = {
        {"serial_mreq_s", best(serial_r), "Mreq/s"},
        {"ingest_mreq_s", median(ingest_r), "Mreq/s"},
        {"ingest_tele_mreq_s", median(tele_r), "Mreq/s"},
        {"lat_p50_us", median(lat_p50), "us"},
        {"sustained_mreq_s", sustained, "Mreq/s"},
        {"plan_mreq_s", mreq_s(n, plan_best_s), "Mreq/s"},
        {"sc_over_plan", sc_over_plan, "ratio"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // Untraced, then traced: the same closed-loop phases, each once.
    struct PhaseOut {
      Bench::SerialRun serial;
      Bench::EngineRun ingest, tele;
      double replay_s = 0.0;
      double plan_s = 0.0;
    };
    std::vector<double> ctor_s;
    for (int i = 0; i < kMinRounds; ++i) {
      double c = 0.0;
      b.setup_once(warm_parts, c);
      ctor_s.push_back(c);
    }
    std::vector<mcdc::ItemInstance> insts;
    auto phases = [&](PhaseOut& o) {
      const std::int64_t t0 = now_ns();
      {
        Tracer::Scope s(tr, "phase.serial");
        o.serial = b.serial(stream);
      }
      {
        Tracer::Scope s(tr, "phase.sc");
        {
          Tracer::Scope s2(tr, "service");
          insts = mcdc::service_instances(stream, w.servers);
        }
        o.replay_s = b.sc_replay(insts, o.serial.report);
        Tracer::Scope s3(tr, "model");  // freeing the request sequences
        insts.clear();
        insts.shrink_to_fit();
      }
      {
        Tracer::Scope s(tr, "phase.ingest");
        o.ingest = b.engine_closed(parts, false);
      }
      {
        Tracer::Scope s(tr, "phase.ingest_tele");
        o.tele = b.engine_closed(parts, true);
      }
      {
        Tracer::Scope s(tr, "phase.plan");
        o.plan_s = b.plan().secs;
      }
      return secs_since(t0);
    };
    PhaseOut cold, hot;
    Tracer off(false);
    std::swap(off, tr);  // untraced pass first
    const double untraced_s = phases(cold);
    std::swap(off, tr);
    const double traced_s = phases(hot);
    for (const auto* r : {&cold.ingest, &cold.tele, &hot.ingest, &hot.tele}) {
      b.check_engine(*r, ref.report, "traced-run engine");
    }
    for (const auto* r : {&cold.serial, &hot.serial}) {
      if (mismatched_records(r->report, ref.report) != 0) checks.fail(n, "traced-run serial pass differs");
    }

    // Reconciliation: within every phase the layer spans must cover the
    // phase's wall time up to the tolerance.
    double phase_total = 0.0, phase_self = 0.0;
    for (const auto& s : tr.spans()) {
      if (s.parent != -1 || std::string(s.name).rfind("phase.", 0) != 0) continue;
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      const double self = dur - static_cast<double>(s.child_ns);
      phase_total += dur;
      phase_self += self;
      std::printf("reconcile %-18s wall %9.3f ms, unattributed %7.3f ms (%.2f%%)\n", s.name, dur / 1e6,
                  self / 1e6, 100.0 * self / dur);
      if (self > kReconcileTolerance * dur) {
        checks.fail(1, std::string("layers do not add up to ") + s.name + " within 5%");
      }
    }
    const auto self = tr.self_ms();
    for (const auto& [name, ms] : self) std::printf("self %-20s %10.3f ms\n", name.c_str(), ms);
    auto self_of = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    if (!trace_out.empty()) {
      std::ofstream f(trace_out);
      f << tr.chrome_json();
      std::printf("trace: %zu spans written to %s\n", tr.spans().size(), trace_out.c_str());
    }

    // Planner layers on prebuilt instances.
    double dp_ns = 0.0, het_ns = 0.0, instances_s = 0.0;
    {
      const std::int64_t t0 = now_ns();
      insts = mcdc::service_instances(stream, w.servers);
      instances_s = secs_since(t0);
      b.plan_layers(insts, dp_ns, het_ns);
      insts.clear();
      insts.shrink_to_fit();
    }

    // One paced pass for the tails.
    // One paced pass to warm up, only checked, as in the measuring rounds.
    b.check_engine(b.engine_paced(paced_parts, w.paced_mreq_s, kPacedBlock), paced_ref, "paced engine");
    const auto paced = b.engine_paced(paced_parts, w.paced_mreq_s, kPacedBlock);
    b.check_engine(paced, paced_ref, "paced engine");
    const TailSummary lat = summarize(paced.lat_us);
    const TailSummary late = summarize(paced.late_us);
    std::printf("paced at %.2f Mreq/s: p50 %.1f us, p90 %.1f us (%zu beyond), p99 %.1f us (%zu beyond), "
                "%zu samples; generator late p99 %.1f us\n",
                w.paced_mreq_s, lat.p50, lat.p90, lat.beyond_p90, lat.p99, lat.beyond_p99, lat.samples,
                late.p99);

    const auto& st = cold.ingest.stats;
    const double kreq = static_cast<double>(n) / 1e3;
    std::uint64_t batches = 0, batched = 0, merge_stalls = 0, ties = 0;
    std::size_t qmax = 0, merge_depth = 0;
    double smax = 0.0, ssum = 0.0;
    for (const auto& s : st.shards) {
      batches += s.batches.batches;
      batched += s.batches.requests;
      qmax = std::max(qmax, s.queue.max_depth);
      merge_stalls += s.merge_stalls;
      ties += s.ties_broken;
      merge_depth = std::max(merge_depth, s.merge_depth_max);
      smax = std::max(smax, static_cast<double>(s.requests));
      ssum += static_cast<double>(s.requests);
    }
    const double ingest_rate = mreq_s(n, cold.ingest.secs);
    const double tele_rate = mreq_s(n, cold.tele.secs);
    const auto& tele = cold.tele;
    const double untraced_plan_rate = mreq_s(n, cold.plan_s);
    std::printf("untraced: serial %.3f, ingest %.3f, telemetry %.3f, plan %.3f Mreq/s\n",
                mreq_s(n, cold.serial.secs), ingest_rate, tele_rate, untraced_plan_rate);
    out = {
        {"service.request_ns", hot.serial.request_s * 1e9 / static_cast<double>(n), "ns"},
        {"core.sc.observe_ns", hot.replay_s * 1e9 / static_cast<double>(n), "ns"},
        {"service.finish_ms", hot.serial.finish_s * 1e3, "ms"},
        {"service.resident_mb", static_cast<double>(cold.serial.resident_bytes) / (1024.0 * 1024.0), "MB"},
        {"service.hit_share", static_cast<double>(cold.serial.hits) / static_cast<double>(n), "ratio"},
        {"engine.submit_ns", hot.ingest.submit_s * 1e9 / static_cast<double>(n), "ns"},
        {"engine.stalls_per_kreq", static_cast<double>(st.stalls) / kreq, "1/kreq"},
        {"engine.batch_mean", batches ? static_cast<double>(batched) / static_cast<double>(batches) : 0.0, "count"},
        {"engine.queue_depth_max", static_cast<double>(qmax), "count"},
        {"engine.shard_skew", ssum > 0 ? smax / (ssum / static_cast<double>(st.shards.size())) : 0.0, "ratio"},
        {"engine.finish_ms", hot.ingest.finish_s * 1e3, "ms"},
        {"engine.merge_stalls_per_kreq", static_cast<double>(merge_stalls) / kreq, "1/kreq"},
        {"engine.merge_depth_max", static_cast<double>(merge_depth), "count"},
        {"engine.ties_broken", static_cast<double>(ties), "count"},
        {"engine.merge_stall_p50_us", tele.merge_stall.p50_ns() / 1e3, "us"},
        {"engine.queue_wait_p50_us", tele.queue_wait.p50_ns() / 1e3, "us"},
        {"engine.apply_p50_us", tele.apply.p50_ns() / 1e3, "us"},
        {"engine.e2e_p50_us", tele.e2e.p50_ns() / 1e3, "us"},
        {"obs.telemetry_overhead", ingest_rate / tele_rate - 1.0, "ratio"},
        {"engine.ctor_ms", median(ctor_s) * 1e3, "ms"},
        {"core.dp.solve_ns", dp_ns, "ns"},
        {"baselines.het_heuristic.solve_ns", het_ns, "ns"},
        {"service.instances_ms", instances_s * 1e3, "ms"},
        {"workload.gen_s", b.gen_s(), "s"},
        {"paced.lat_p90_us", lat.p90, "us"},
        {"paced.lat_p99_us", lat.p99, "us"},
        {"paced.samples", static_cast<double>(lat.samples), "count"},
        {"paced.gen_late_p99_us", late.p99, "us"},
        {"paced.backlog_max", static_cast<double>(paced.backlog_max), "count"},
        {"box.steal_share", steal_share(cpu0, read_cpu_times()), "ratio"},
        {"box.calib_gsteps", (calib0 + calibration_gsteps()) / 2, "Gstep/s"},
        {"trace.workload.self_ms", self_of("workload"), "ms"},
        {"trace.service.self_ms", self_of("service"), "ms"},
        {"trace.core.sc.self_ms", self_of("core.sc"), "ms"},
        {"trace.planner.self_ms", self_of("planner"), "ms"},
        {"trace.engine.submit.self_ms", self_of("engine.submit"), "ms"},
        {"trace.engine.finish.self_ms", self_of("engine.finish"), "ms"},
        {"trace.unattributed_share", phase_total > 0 ? phase_self / phase_total : 0.0, "ratio"},
        {"trace.overhead", traced_s / untraced_s - 1.0, "ratio"},
    };
  }
  std::printf("box: steal share %.4f over the run; calibration %.4f G steps/s at the start, %.4f at the end\n",
              steal_share(cpu0, read_cpu_times()), calib0, calibration_gsteps());
  print_result(checks, out);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mcbench

int main(int argc, char** argv) {
  // Keep freed memory in the process, as a long-running server does: each
  // pass rebuilds the service state (150 MB on wide-miss), and with glibc's
  // defaults the first passes of a run re-fault it from the kernel and run
  // at two thirds of the speed of later ones.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string workload, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(val, nullptr);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--trace-out") trace_out = val;
    else {
      std::fprintf(stderr, "mcbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  for (const auto& w : mcbench::kWorkloads) {
    if (workload == w.name) {
      try {
        return mcbench::run(w, seed, seconds, trace != 0, trace_out);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "mcbench: %s\n", e.what());
        return 1;
      }
    }
  }
  std::fprintf(stderr, "mcbench: unknown workload '%s' (hot-hits|wide-miss|het-merge)\n", workload.c_str());
  return 2;
}
