// One shard of the streaming engine: the producer lanes into it, a worker
// thread, and a private OnlineDataService owning every item hashed here.
//
// Transport: one SpscLane (engine/ingress.h) per producer, registered via
// add_lane() at open_producer and sealed by freeze_lanes() at the first
// submit. Producers publish wait-free; the worker polls its lanes and
// drains each one in lane-FIFO order (ring, then kSpill side-car).
//
// Multi-producer ingestion (docs/ENGINE.md, "Ingestion sessions"): each
// lane carries one session's strictly-increasing-time FIFO. The worker
// buffers records per producer in merge lanes and emits them in global
// (time, producer_id, seq) order — the deterministic cross-producer merge
// that keeps the engine bit-identical to the serial service no matter how
// producer threads interleave. A lane's head may only be emitted once
// every other open lane either has a buffered record or a watermark
// snapshot proving its future records are strictly later; the snapshot
// is taken *before* a full drain of every lane, which is what makes
// trusting it sound (the merge-safety argument in the doc). With a single
// producer the worker bypasses the merge buffers entirely and applies
// records in arrival order.
//
// Memory: the shard's service is its arena — item state lives in the
// service-owned slab (docs/ENGINE.md "Memory model"), so steady-state
// ingest allocates nothing on the worker thread and teardown releases the
// whole item population chunk-wise. The service is CachePadded: adjacent
// shards in the engine's array never false-share.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine_config.h"
#include "engine/engine_stats.h"
#include "engine/ingress.h"
#include "obs/observer.h"
#include "obs/timeseries.h"
#include "service/data_service.h"
#include "util/concurrency.h"

namespace mcdc {

/// Structure-of-arrays scratch for the single-producer ring drain: hot
/// request fields land in parallel columns so (a) the ring slots retire in
/// one head store — the producer gets its capacity back before the service
/// work even starts — and (b) the apply loop walks three dense arrays
/// instead of striding over 40-byte records. Reserved once to ring
/// capacity; clear() keeps the storage (no steady-state allocation).
struct RequestSoA {
  std::vector<int> items;
  std::vector<ServerId> servers;
  std::vector<Time> times;

  void reserve(std::size_t n) {
    items.reserve(n);
    servers.reserve(n);
    times.reserve(n);
  }
  void clear() {
    items.clear();
    servers.clear();
    times.clear();
  }
  std::size_t size() const { return items.size(); }
  void push(int item, ServerId server, Time time) {
    items.push_back(item);
    servers.push_back(server);
    times.push_back(time);
  }
};

class EngineShard {
 public:
  /// `options` are the per-shard service options (observer already
  /// rewired by the engine for thread safety; not owned).
  /// `telemetry_registry` is non-null iff EngineConfig::telemetry is on:
  /// the shard pre-allocates its stage latency histograms and span ring
  /// there (and registers its standard per-shard metrics into it when no
  /// observer registry is attached).
  EngineShard(int index, int num_servers, const ServingCostModel& cm,
              const EngineConfig& cfg,
              const SpeculativeCachingOptions& options,
              obs::MetricsRegistry* telemetry_registry = nullptr);

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;
  ~EngineShard();

  void start();

  /// Register a producer's lane on this shard (open_producer; before the
  /// first submit anywhere). Returns the lane the producer pushes into;
  /// the shard keeps ownership.
  SpscLane* add_lane(ProducerState* p);

  /// Seal the lane set: called (once) at the first submit. After this the
  /// lane vector is immutable, so the worker scans it without locking.
  void freeze_lanes();

  /// Stop the worker once every lane is closed and drained, join it
  /// (rethrowing anything it threw), and return the shard's service report
  /// (per_item ascending by item id). The worker builds that report on
  /// its own thread as soon as every lane is closed and drained; this
  /// call only joins, snapshots the lane statistics, and hands it over.
  ServiceReport drain_and_finish();

  /// Valid after drain_and_finish().
  ShardStats stats() const;

  int index() const { return index_; }

  /// Instantaneous ingest depth (any thread): the sum of lane ring
  /// occupancies and spill side-cars. The TelemetrySampler's per-shard
  /// probe.
  std::size_t queue_depth() const;

  // Telemetry read-outs: null with telemetry off. The histograms are
  // lock-free (readable any time); the span ring is single-writer, so
  // spans() is only safe after drain_and_finish().
  const obs::LatencyHistogram* queue_wait_hist() const {
    return queue_wait_ns_;
  }
  const obs::LatencyHistogram* merge_stall_hist() const {
    return merge_stall_ns_;
  }
  const obs::LatencyHistogram* apply_hist() const { return apply_ns_; }
  const obs::LatencyHistogram* e2e_hist() const { return e2e_ns_; }

  /// Retained stage spans, oldest first; empty with telemetry off.
  std::vector<obs::TelemetrySpan> telemetry_spans() const;

 private:
  /// Per-producer merge lane: the FIFO of this producer's records that
  /// have been drained but not yet emitted, plus the watermark snapshot
  /// taken before the most recent full drain of every lane.
  struct Lane {
    std::deque<IngressRecord> buf;
    ProducerState* state = nullptr;
    double wm_snap = 0.0;
    bool closed = false;
    Time last_time = 0.0;       ///< per-lane replay-order check
    std::uint64_t last_seq = 0;
    bool saw_any = false;
    std::uint64_t retired_pending = 0;  ///< batched into state->retired
  };

  /// Worker body: wait for the lane freeze (or stop), run drain_loop(),
  /// then build the shard report; a failure is kept for drain_and_finish().
  void run();
  /// Drain, merge and apply until every lane is closed and empty.
  void drain_loop();
  /// Consume everything in `src` (SpscLane::drain order): into the merge
  /// lane `ml`, or — single-producer — into the SoA scratch (telemetry
  /// off) / straight through process_record (telemetry on). `deq_ns`
  /// feeds the queue-wait histogram (0 with telemetry off).
  std::size_t drain_lane(SpscLane& src, Lane& ml, bool single,
                         std::uint64_t deq_ns);
  /// Emit every merge-eligible record; with `flush_all` (every lane closed
  /// and drained — no further input can exist) lanes are treated as
  /// closed. Returns true when records remain parked (merge stalled).
  bool process_eligible(bool flush_all);
  /// The deterministic cross-producer merge order: (time, producer id).
  /// seq never ties across lanes (each lane is already FIFO by seq).
  /// Stamp-blind by contract — mcdc-lint proves no telemetry stamp read
  /// is reachable from here (rule `stamp`).
  static bool merge_precedes(const IngressRecord& a, const IngressRecord& b);
  /// The lane whose head is globally minimal under merge_precedes, or
  /// nullptr when every lane is empty; sets `tie` when the winner shares
  /// its time with another lane's head.
  Lane* select_merge_head(bool& tie);
  void process_record(const IngressRecord& r);
  void flush_retired();

  const int index_;
  const bool deterministic_;
  const BackpressurePolicy policy_;  ///< effective (deterministic kDrop->kBlock)
  const std::size_t lane_capacity_;  ///< per-lane ring capacity
  CachePadded<OnlineDataService> service_;
  std::thread worker_;
  std::exception_ptr failure_;
  bool joined_ = false;

  // Lane registry: mutated only under lanes_mu_ and only before
  // freeze_lanes(); the worker waits on the condvar for the freeze (or
  // stop) and then reads the vector lock-free.
  mutable std::mutex lanes_mu_;
  std::condition_variable lanes_cv_;
  std::vector<std::unique_ptr<SpscLane>> spsc_lanes_;
  std::atomic<bool> lanes_frozen_{false};
  std::atomic<bool> stop_{false};

  // Worker-local state.
  RequestSoA soa_;
  BatchStats batch_stats_;
  std::vector<Lane> lanes_;
  std::size_t producers_seen_ = 0;
  std::size_t merge_buffered_ = 0;   ///< total records parked across lanes
  std::size_t merge_depth_max_ = 0;
  std::uint64_t merge_stalls_ = 0;
  std::uint64_t ties_broken_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t batch_emitted_ = 0;  ///< requests emitted since last counter flush
  Time last_time_seen_ = 0.0;
  bool saw_request_ = false;
  std::size_t items_ = 0;
  Cost cost_ = 0.0;
  std::size_t resident_bytes_ = 0;  ///< sampled by the worker at the end
  ServiceReport report_;            ///< built by the worker at the end
  QueueStats queue_stats_;  ///< one consistent snapshot, taken at drain

  // Per-shard registry metrics (null without an observer registry and
  // with telemetry off).
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  obs::Counter* enqueue_stalls_ = nullptr;
  obs::Counter* requests_ = nullptr;
  obs::Gauge* cost_total_ = nullptr;
  obs::Gauge* shard_resident_bytes_ = nullptr;
  obs::Gauge* merge_depth_ = nullptr;
  obs::Counter* merge_stall_counter_ = nullptr;

  // Pipeline telemetry (all null/empty when EngineConfig::telemetry is
  // off; pre-allocated in the constructor when on, so the worker records
  // without allocating). Stage definitions: docs/ENGINE.md,
  // "Pipeline-stage latencies".
  obs::LatencyHistogram* queue_wait_ns_ = nullptr;  ///< submit -> dequeue
  obs::LatencyHistogram* merge_stall_ns_ = nullptr; ///< stall episode length
  obs::LatencyHistogram* apply_ns_ = nullptr;       ///< dequeue -> applied
  obs::LatencyHistogram* e2e_ns_ = nullptr;         ///< submit -> retire
  std::unique_ptr<obs::SpanRing> spans_;            ///< worker-only writer

  // Worker-local telemetry bookkeeping (meaningless when telemetry off).
  std::uint64_t stall_started_ns_ = 0;     ///< open merge-stall episode
  std::uint64_t batch_min_submit_ns_ = 0;  ///< oldest stamp in this batch
  std::uint64_t batch_requests_ = 0;       ///< stamped requests in batch
  std::uint64_t last_deq_ns_ = 0;
  std::uint64_t telemetry_batches_ = 0;    ///< resident-refresh amortizer
};

}  // namespace mcdc
