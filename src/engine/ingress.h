// Multi-producer ingestion sessions for the streaming engine.
//
// A real service is fed by many uncoordinated sources, so ingestion is
// organized around sessions: each producer opens an IngressSession
// (StreamingEngine::open_producer()) and submits its own
// strictly-increasing-time subsequence from its own thread. The session
// stamps every submission with the producer id and a per-producer
// monotone sequence number; shard workers merge the per-producer FIFO
// streams back into one time-ordered stream, breaking equal-timestamp
// ties deterministically by (producer_id, seq). docs/ENGINE.md
// ("Ingestion sessions") derives why this keeps the N-producer run
// bit-identical to the serial service regardless of thread interleaving.
//
// The submission API is BATCHED: submit_span() validates a whole span,
// then stamps, sequences, and publishes it in sub-spans of at most
// queue_capacity records — one ring publication per shard per sub-span,
// then one watermark advance to the sub-span's last time. Every shard gets
// its first records after one sub-span is stamped, not after the shards
// before it took their whole share of the span.
//
// Transport: one SpscLane per producer×shard — a lock-free SpscRing with
// exactly one writer (the session) and one reader (the shard worker), so
// the hot path is wait-free loads/stores (spsc_ring.h carries the
// memory-ordering proof), plus a mutex-guarded kSpill side-car touched
// only when the ring is full. SpscLane owns both halves of the lane-FIFO
// rule: the producer's policy push and the worker's drain order.
//
// Threading contract:
//  * open_producer() calls must all happen before the first submit
//    anywhere on the engine (enforced; the merge needs the full producer
//    set before it can order anything).
//  * Each session is single-threaded; distinct sessions may run on
//    distinct threads concurrently.
//  * All producer threads must be quiesced (joined or otherwise
//    synchronized) before finish(); sessions must not outlive the engine.
//    Once every session is closed, each shard worker drains its lanes and
//    builds its own shard report; finish() only joins and merges them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "engine/engine_config.h"
#include "engine/spsc_ring.h"
#include "model/request.h"
#include "util/contracts.h"
#include "util/types.h"

namespace mcdc {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

class StreamingEngine;
struct SpscLane;
struct IngressRecord;

/// Engine-owned per-producer state. Stable address (the engine stores
/// these behind unique_ptrs); shard workers reach it through their lane
/// registration, producers through their IngressSession.
struct ProducerState {
  std::uint32_t id = 0;

  /// Highest time this producer has finished submitting (stored with
  /// release order *after* the lane push). A shard worker that snapshots
  /// the watermark before draining its lane is guaranteed to have seen
  /// every record from this producer with time <= the snapshot — the
  /// merge-safety argument in docs/ENGINE.md. With submit_span the store
  /// happens once per sub-span (after every shard bucket of that sub-span
  /// is pushed), value = the sub-span's last time.
  std::atomic<double> watermark{0.0};

  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> retired{0};  ///< processed by shard workers
  std::atomic<std::uint64_t> dropped{0};  ///< rejected by kDrop backpressure
  std::atomic<bool> closed{false};

  // Producer-thread-only (read by finish() after the quiesce contract).
  Time last_time = 0.0;
  std::uint64_t seq = 0;
  std::uint64_t spans = 0;             ///< spans submitted; tags lane pushes
  std::uint64_t credit_throttles = 0;  ///< spans over the credit window
  std::uint64_t max_in_flight = 0;     ///< peak submitted - retired
  std::uint64_t credit_wait_ns = 0;    ///< wall time spent in throttle yields
                                       ///< (measured only with telemetry on)

  /// This producer's ring lane on each shard (index = shard). Shard-owned;
  /// filled at open_producer.
  std::vector<SpscLane*> lanes;

  /// Producer-thread-only per-shard routing buckets for submit_span:
  /// one sub-span's records are stamped into their shard's bucket, then
  /// each non-empty bucket is pushed into its lane in one operation.
  /// Capacity grows to at most queue_capacity records per bucket (the
  /// sub-span bound; amortized, no steady-state allocation).
  std::vector<std::vector<IngressRecord>> scratch;

  // Registry handles (created at open_producer when an observer with a
  // metrics registry is attached; published once at session close).
  obs::Counter* m_submitted = nullptr;
  obs::Counter* m_credit_throttles = nullptr;
  obs::Gauge* m_max_in_flight = nullptr;
  obs::Counter* m_credit_wait_ns = nullptr;  ///< telemetry only
};

/// One element of a shard's ingest lane: a stamped request.
struct IngressRecord {
  int item = 0;
  ServerId server = 0;
  Time time = 0.0;
  std::uint32_t producer = 0;
  std::uint64_t seq = 0;
  /// Telemetry stamp (obs::telemetry_now_ns at submit); 0 with telemetry
  /// off. Feeds the queue-wait and end-to-end histograms only — the
  /// deterministic merge orders strictly by (time, producer, seq) and
  /// never consults wall-clock stamps (bit-identity is stamp-blind).
  std::uint64_t submit_ns = 0;
};

// Lane-slot layout guards: records are copied between producer threads,
// ring buffers, and merge lanes by the millions — they must stay memcpy-
// safe, and a silent size/alignment change would shift every lane
// capacity and resident-bytes figure the benches report.
static_assert(std::is_trivially_copyable_v<IngressRecord>,
              "IngressRecord must be memcpy-safe (ring/merge-lane slots)");
static_assert(sizeof(IngressRecord) == 40 && alignof(IngressRecord) == 8,
              "IngressRecord layout changed — revisit lane capacity and "
              "resident-bytes accounting before accepting the new size");

// A blocked producer (kBlock on a full ring) or an idle worker yields this
// many times before conceding the timeslice with a sleep — cheap
// reactivity when the other side is running, bounded burn when it is not
// (matters on few-core hosts where producer and worker share a core).
inline constexpr std::size_t kSpinYields = 64;

// The sleep between re-checks once the yields are spent. Ring tails and
// watermarks advance without signalling (a push is just a store), so the
// waiting side polls.
inline constexpr std::chrono::microseconds kStallRecheck{200};

/// One producer×shard ingest lane: a wait-free ring plus the kSpill
/// side-car and the lane's share of QueueStats. Owned by the shard; the
/// producer holds a raw pointer (ProducerState::lanes).
///
/// The lane is a strict FIFO across ring and side-car. Two rules keep it
/// so, one per side, both implemented here:
///  * push_span (producer) uses the ring only while the side-car is
///    empty, so a parked record is never overtaken by a later ring push;
///  * drain (worker) reads the side-car count BEFORE it drains the ring,
///    and splices only if that count was non-zero (see drain()).
///
/// Counter ownership is single-writer by design: `enqueued`, `dropped`,
/// `spilled`, `stalls` are written by the producer thread only and read
/// by the shard only after the worker joined (the drain snapshot);
/// `max_depth_seen` is worker-only. No atomics needed, no torn reads
/// possible — the shard publishes one post-quiesce snapshot.
struct SpscLane {
  SpscLane(std::size_t capacity, BackpressurePolicy backpressure)
      : ring(capacity), policy(backpressure) {}

  SpscRing<IngressRecord> ring;
  const BackpressurePolicy policy;
  ProducerState* state = nullptr;

  // Producer-thread-only counters (read at drain, after quiesce).
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t spilled = 0;
  std::uint64_t stalls = 0;
  /// Producer-thread-only: tag of the last span that found the ring full
  /// (see push_span). 0 = none; tag 0 is never remembered.
  std::uint64_t full_span = 0;

  /// kSpill overflow side-car: when the ring is full the producer parks
  /// records here (FIFO) instead of blocking or dropping. The mutex is
  /// touched ONLY on that overflow path and by the worker's splice; the
  /// common path stays lock-free. `overflow_count` mirrors the deque size
  /// so both sides can check emptiness without the lock; the producer
  /// raises it, only the worker clears it.
  std::mutex spill_mu;
  std::deque<IngressRecord> overflow;
  std::atomic<std::size_t> overflow_count{0};

  // Worker-side high-water sample of this lane's depth (ring + overflow),
  // taken at each drain; summed across lanes at the final snapshot.
  std::size_t max_depth_seen = 0;

  /// Producer side: push `n` stamped records under the lane's policy, in
  /// one ring publication when they fit. kBlock spins until the worker
  /// makes room, kDrop rejects the tail that does not fit, kSpill parks it
  /// in the side-car. Returns records accepted (== n except under kDrop).
  /// The lane's producer thread only.
  ///
  /// `span` tags the pushes of one span submitted in several sub-spans
  /// (non-zero, unique per span); 0 makes this call a span of its own.
  /// Within a tagged span kBlock counts one stall, and kDrop keeps only
  /// the prefix that fits: once the lane dropped a record of the span, it
  /// drops the span's later records too, so none slips in behind a gap.
  std::size_t push_span(const IngressRecord* data, std::size_t n,
                        std::uint64_t span = 0) {
    if (n == 0) return 0;
    const bool span_hit_full = span != 0 && span == full_span;
    switch (policy) {
      case BackpressurePolicy::kBlock: {
        std::size_t done = ring.try_push_span(data, n);
        if (done < n) {
          // One stall episode per span. The worker always drains rings
          // (even merge-stalled or after a failure), so this terminates.
          if (!span_hit_full) ++stalls;
          full_span = span;
          std::size_t spins = 0;
          while (done < n) {
            if (++spins <= kSpinYields) {
              std::this_thread::yield();
            } else {
              std::this_thread::sleep_for(kStallRecheck);
            }
            done += ring.try_push_span(data + done, n - done);
          }
        }
        enqueued += n;
        return n;
      }
      case BackpressurePolicy::kDrop: {
        const std::size_t done =
            span_hit_full ? 0 : ring.try_push_span(data, n);
        if (done < n) full_span = span;
        dropped += n - done;
        enqueued += done;
        return done;
      }
      case BackpressurePolicy::kSpill: {
        // Lossless overflow. A producer-side read of 0 is exact ("the
        // worker spliced everything I ever parked"), because only the
        // worker lowers the count.
        std::size_t done = 0;
        if (overflow_count.load(std::memory_order_relaxed) == 0) {
          done = ring.try_push_span(data, n);
        }
        if (done < n) {
          const std::lock_guard<std::mutex> lk(spill_mu);
          overflow.insert(overflow.end(), data + done, data + n);
          overflow_count.store(overflow.size(), std::memory_order_release);
          spilled += n - done;
        }
        enqueued += n;
        return n;
      }
    }
    MCDC_UNREACHABLE("bad BackpressurePolicy %d", static_cast<int>(policy));
  }

  /// Worker side: hand every record the lane holds to `sink`, in lane
  /// FIFO order — the ring, then the side-car. Returns records consumed.
  ///
  /// The side-car count is acquire-loaded BEFORE the ring drain. If it is
  /// non-zero, the producer cannot touch the ring until the splice below
  /// clears it, so every ring record is older than every parked one. If it
  /// is zero, records parked during this drain wait for the next one,
  /// which drains the ring prefix published with them first. Loading the
  /// count after the ring drain instead would let a producer push a span's
  /// prefix into the ring and park its tail in between, and the splice
  /// would emit that tail ahead of the prefix.
  template <typename Sink>
  std::size_t drain(Sink&& sink) {
    const std::size_t parked = overflow_count.load(std::memory_order_acquire);
    const std::size_t depth = ring.size_approx() + parked;
    if (depth > max_depth_seen) max_depth_seen = depth;
    std::size_t got = ring.consume_all(sink);
    if (parked > 0) {
      const std::lock_guard<std::mutex> lk(spill_mu);
      for (const IngressRecord& r : overflow) sink(r);
      got += overflow.size();
      overflow.clear();
      overflow_count.store(0, std::memory_order_relaxed);
    }
    return got;
  }

  /// Instantaneous depth (ring + side-car); a gauge, racy by nature.
  std::size_t depth_approx() const {
    return ring.size_approx() +
           overflow_count.load(std::memory_order_relaxed);
  }
};

/// A producer's handle into the engine. Move-only; single-threaded;
/// closes itself on destruction. Obtain via
/// StreamingEngine::open_producer().
class IngressSession {
 public:
  IngressSession() = default;
  IngressSession(const IngressSession&) = delete;
  IngressSession& operator=(const IngressSession&) = delete;
  IngressSession(IngressSession&& other) noexcept;
  IngressSession& operator=(IngressSession&& other) noexcept;
  ~IngressSession();

  /// False for a default-constructed or moved-from handle.
  bool valid() const { return state_ != nullptr; }

  std::uint32_t id() const;

  /// THE ingestion API: stamp, sequence, and push a whole span of records
  /// with one lane publication per shard per sub-span of at most
  /// queue_capacity records. Validation is atomic — the entire span is
  /// checked (servers in range, times strictly increasing within the span
  /// and beyond this session's last time) before ANY record is pushed, so
  /// a bad span throws std::invalid_argument with nothing partially
  /// submitted. Throws std::logic_error once closed. An empty span is a
  /// no-op (returns 0 without starting ingest). Returns the number of
  /// records accepted: == batch.size() unless kDrop backpressure rejected
  /// some.
  std::size_t submit_span(std::span<const MultiItemRequest> batch);

  /// Announce end-of-stream: releases the merge from waiting on this
  /// producer's watermark (workers still drain whatever the lanes hold,
  /// spill side-cars included). Idempotent;
  /// finish() force-closes any session left open.
  void close();

  bool closed() const;

  /// Requests submitted but not yet processed by shard workers (the
  /// quantity the credit window throttles).
  std::uint64_t in_flight() const;

 private:
  friend class StreamingEngine;
  IngressSession(StreamingEngine* engine, ProducerState* state)
      : engine_(engine), state_(state) {}

  StreamingEngine* engine_ = nullptr;
  ProducerState* state_ = nullptr;
};

/// The name the API is documented under: a ProducerHandle *is* an
/// ingestion session.
using ProducerHandle = IngressSession;

}  // namespace mcdc
