// Online replica-management policies for the simulator.
//
//  * ScSimPolicy        — the paper's Speculative Caching (§V), re-implemented
//                         on top of the generic policy API. Intentionally a
//                         second, independent implementation: tests require
//                         cost equality with core/online_sc.cpp. One set of
//                         SC rules (refresh on use, refresh the source on a
//                         transfer, last-copy pin, (expiry, ordinal) victim
//                         order, epochs); only the window a refresh grants
//                         varies, and it comes from one of three sources:
//                           static    — factor * lambda / mu (the paper's SC),
//                                       optionally retuned per monitoring
//                                       interval by a WindowController
//                                       (ScSimPolicy::adaptive);
//                           sampled   — the classical randomized ski-rental
//                                       window, drawn once per copy
//                                       (ScSimPolicy::randomized);
//                           predicted — keep for lambda / mu or drop at once,
//                                       as a NextUseOracle predicts the next
//                                       use (ScSimPolicy::predictive).
//  * AlwaysMigratePolicy— one copy that follows the request stream
//                         (transfer on every server change, never replicate).
//  * StaticHomePolicy   — the copy never leaves the origin; remote requests
//                         are served by transfer-and-discard.
//  * FullReplicationPolicy — replicate on first touch, never delete.
//  * LruKPolicy         — capacity-driven baseline: at most k replicas,
//                         least-recently-used eviction (classic caching
//                         transplanted into the cloud cost model; Table I's
//                         left column).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "model/cost_model.h"
#include "model/request.h"
#include "sim/policy.h"
#include "util/rng.h"

namespace mcdc {

class AlwaysMigratePolicy final : public OnlinePolicy {
 public:
  explicit AlwaysMigratePolicy(ServerId origin) : holder_(origin) {}
  std::string name() const override { return "always-migrate"; }
  void on_request(ReplicaContext& ctx, ServerId server, RequestIndex index) override;

 private:
  ServerId holder_;
};

class StaticHomePolicy final : public OnlinePolicy {
 public:
  explicit StaticHomePolicy(ServerId origin) : home_(origin) {}
  std::string name() const override { return "static-home"; }
  void on_request(ReplicaContext& ctx, ServerId server, RequestIndex index) override;

 private:
  ServerId home_;
};

class FullReplicationPolicy final : public OnlinePolicy {
 public:
  explicit FullReplicationPolicy(ServerId origin) : last_(origin) {}
  std::string name() const override { return "full-replication"; }
  void on_request(ReplicaContext& ctx, ServerId server, RequestIndex index) override;

 private:
  ServerId last_;
};

class LruKPolicy final : public OnlinePolicy {
 public:
  LruKPolicy(int num_servers, ServerId origin, std::size_t capacity);
  std::string name() const override { return "lru-" + std::to_string(capacity_); }
  void on_request(ReplicaContext& ctx, ServerId server, RequestIndex index) override;

 private:
  std::size_t capacity_;
  ServerId last_;
  std::vector<std::uint64_t> last_use_;
  std::uint64_t counter_ = 0;
};

/// Returns the predicted gap until the next request on `server`, given the
/// current request index and time. +infinity means "no further request".
using NextUseOracle = std::function<Time(ServerId server, RequestIndex index,
                                         Time now)>;

/// Oracle built from the ground-truth sequence with multiplicative
/// log-normal-ish noise: predicted = actual * exp(noise * N(0,1)).
/// noise = 0 is a perfect oracle.
NextUseOracle make_sequence_oracle(const RequestSequence& seq, double noise,
                                   Rng& rng);

/// Oracle that predicts the opposite of the truth relative to the window
/// (worst case for the trusting policy).
NextUseOracle make_adversarial_oracle(const RequestSequence& seq, Time delta_t);

/// What a WindowController observes over one monitoring interval. All
/// counters cover the interval just ended, not the whole run.
struct WindowIntervalStats {
  Time interval = 0.0;          ///< interval length in simulated time
  std::size_t requests = 0;
  std::size_t hits = 0;         ///< requests that found a local copy
  std::size_t misses = 0;       ///< requests served by a transfer
  std::size_t expirations = 0;  ///< copies that expired unused
  std::size_t slo_missed = 0;   ///< network-time world only; 0 otherwise
  /// Distinct (item, server) pairs that received requests this interval —
  /// the denominator for the per-pair arrival-rate estimate lambda-hat.
  std::size_t active_pairs = 0;
};

/// A controller's retuning decision, applied to all subsequent holds.
struct WindowDecision {
  /// New speculation factor: delta_t = factor * lambda / mu.
  double factor = 1.0;
  /// New epoch length in transfers (0 = no epoch resets).
  std::size_t epoch_transfers = 0;
};

/// Measure-then-adapt hook: called once per monitoring interval with the
/// observed hit/transfer/expiry mix; returns the window/epoch retuning.
/// Implementations live above sim/ (scenlab::AdaptiveController); sim only
/// defines the contract so both the instantaneous policy_runner world and
/// the scenlab network-time world can drive the same controller.
class WindowController {
 public:
  virtual ~WindowController() = default;
  virtual WindowDecision on_interval(const WindowIntervalStats& stats,
                                     const WindowDecision& current) = 0;
  /// Called at the start of each run so one controller can serve many
  /// per-item policy instances in sequence.
  virtual void reset() {}
};

/// Speculative Caching with a pluggable window source (see the header
/// block). The constructor builds the static source; the named
/// constructors build the others.
class ScSimPolicy final : public OnlinePolicy {
 public:
  /// Static window factor * lambda / mu; epoch_transfers = 0 means no
  /// epoch resets.
  ScSimPolicy(const CostModel& cm, ServerId origin,
              std::size_t epoch_transfers = 0,
              double speculation_factor = 1.0);

  /// Sampled window: each copy, when created, draws lambda / mu *
  /// ln(1 + u (e - 1)), u uniform on [0, 1) from `rng` (density e^x/(e-1)
  /// scaled by lambda / mu), and keeps it for its life. No epochs.
  static ScSimPolicy randomized(const CostModel& cm, ServerId origin, Rng& rng);

  /// Predicted window: on every refresh the copy is kept for lambda / mu if
  /// `oracle` predicts its next use within that window, dropped at once
  /// otherwise. No epochs.
  ///
  /// Consistency: with perfect predictions it never pays for a wasted
  /// speculative window (saving up to lambda per drop). Robustness: a wrong
  /// "drop" costs one extra transfer lambda where SC would have paid the
  /// wasted window lambda anyway; bench_predictions measures the trade-off
  /// as prediction noise grows.
  static ScSimPolicy predictive(const CostModel& cm, ServerId origin,
                                NextUseOracle oracle);

  /// Static window at `initial`, retuned every `interval` of simulated time
  /// by `controller` via self-scheduled wake-ups. A null controller keeps
  /// the initial decision for the whole run.
  static ScSimPolicy adaptive(const CostModel& cm, ServerId origin,
                              Time interval, WindowController* controller,
                              WindowDecision initial = {});

  std::string name() const override { return name_; }
  void on_start(ReplicaContext& ctx) override;
  void on_request(ReplicaContext& ctx, ServerId server, RequestIndex index) override;
  void on_wake(ReplicaContext& ctx) override;

 private:
  enum class Source : std::uint8_t { kStatic, kSampled, kPredicted };

  /// The window a refresh of `s` grants; `new_copy` marks the copy's
  /// creation (the sampled source draws then).
  Time window(ReplicaContext& ctx, ServerId s, RequestIndex index,
              bool new_copy);
  void refresh(ReplicaContext& ctx, ServerId s, RequestIndex index,
               bool new_copy = false);
  void drop_due_copies(ReplicaContext& ctx) const;
  void set_decision(WindowDecision decision);
  void monitor_tick(ReplicaContext& ctx);

  const char* name_ = "sc";
  Source source_ = Source::kStatic;
  Time delta_base_;  ///< lambda / mu
  Time delta_t_;     ///< static window at the current decision
  WindowDecision decision_;
  Rng* rng_ = nullptr;           ///< sampled source
  std::vector<Time> sampled_;    ///< sampled source: each copy's window
  NextUseOracle oracle_;         ///< predicted source
  WindowController* controller_ = nullptr;
  Time interval_ = 0.0;
  Time next_monitor_ = 0.0;
  std::size_t epoch_transfers_ = 0;
  ServerId last_request_server_;
  std::vector<Time> expiry_;
  std::vector<std::uint64_t> ordinal_;
  std::uint64_t counter_ = 0;

  WindowIntervalStats tick_;  ///< accumulates over the current interval
  std::vector<std::uint64_t> pair_mark_;  ///< active_pairs dedup per interval
  std::uint64_t tick_id_ = 0;
};

}  // namespace mcdc
