#include "sim/policies.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace mcdc {

namespace {

std::vector<std::vector<Time>> times_by_server(const RequestSequence& seq) {
  std::vector<std::vector<Time>> by(static_cast<std::size_t>(seq.m()));
  for (RequestIndex i = 1; i <= seq.n(); ++i) {
    by[static_cast<std::size_t>(seq.server(i))].push_back(seq.time(i));
  }
  return by;
}

Time true_gap(const std::vector<std::vector<Time>>& by, ServerId s, Time now) {
  const auto& v = by[static_cast<std::size_t>(s)];
  auto it = std::upper_bound(v.begin(), v.end(), now + kEps);
  if (it == v.end()) return std::numeric_limits<Time>::infinity();
  return *it - now;
}

}  // namespace

NextUseOracle make_sequence_oracle(const RequestSequence& seq, double noise,
                                   Rng& rng) {
  auto by = times_by_server(seq);
  Rng* noise_rng = &rng;
  return [by = std::move(by), noise, noise_rng](ServerId s, RequestIndex,
                                                Time now) -> Time {
    const Time gap = true_gap(by, s, now);
    if (std::isinf(gap) || noise <= 0.0) return gap;
    return gap * std::exp(noise * noise_rng->normal());
  };
}

NextUseOracle make_adversarial_oracle(const RequestSequence& seq, Time delta_t) {
  auto by = times_by_server(seq);
  return [by = std::move(by), delta_t](ServerId s, RequestIndex, Time now) -> Time {
    const Time gap = true_gap(by, s, now);
    // Lie exactly across the keep/drop threshold.
    if (gap <= delta_t) return 10.0 * delta_t;
    return 0.5 * delta_t;
  };
}

// ---------------- ScSimPolicy ----------------

ScSimPolicy::ScSimPolicy(const CostModel& cm, ServerId origin,
                         std::size_t epoch_transfers, double speculation_factor)
    : delta_base_(cm.lambda / cm.mu),
      delta_t_(speculation_factor * cm.lambda / cm.mu),
      decision_{speculation_factor, epoch_transfers},
      last_request_server_(origin) {}

ScSimPolicy ScSimPolicy::randomized(const CostModel& cm, ServerId origin,
                                    Rng& rng) {
  ScSimPolicy p(cm, origin);
  p.name_ = "rand-ski";
  p.source_ = Source::kSampled;
  p.rng_ = &rng;
  return p;
}

ScSimPolicy ScSimPolicy::predictive(const CostModel& cm, ServerId origin,
                                    NextUseOracle oracle) {
  ScSimPolicy p(cm, origin);
  p.name_ = "predictive-sc";
  p.source_ = Source::kPredicted;
  p.oracle_ = std::move(oracle);
  return p;
}

ScSimPolicy ScSimPolicy::adaptive(const CostModel& cm, ServerId origin,
                                  Time interval, WindowController* controller,
                                  WindowDecision initial) {
  if (controller != nullptr && !(interval > 0.0)) {
    throw std::invalid_argument(
        "ScSimPolicy::adaptive: a controller needs interval > 0");
  }
  ScSimPolicy p(cm, origin);
  p.name_ = controller == nullptr ? "sc-tunable" : "sc-adaptive";
  p.set_decision(initial);
  p.interval_ = interval;
  p.controller_ = controller;
  return p;
}

void ScSimPolicy::set_decision(WindowDecision decision) {
  if (decision.factor <= 0.0) decision.factor = 1.0;
  decision_ = decision;
  delta_t_ = decision_.factor * delta_base_;
}

void ScSimPolicy::on_start(ReplicaContext& ctx) {
  const auto m = static_cast<std::size_t>(ctx.num_servers());
  expiry_.assign(m, 0.0);
  ordinal_.assign(m, 0);
  sampled_.assign(m, delta_base_);
  pair_mark_.assign(m, 0);
  tick_id_ = 1;
  tick_ = {};
  if (controller_ != nullptr) {
    controller_->reset();
    next_monitor_ = interval_;
    ctx.wake_at(next_monitor_);
  }
  refresh(ctx, last_request_server_, 0, /*new_copy=*/true);
}

Time ScSimPolicy::window(ReplicaContext& ctx, ServerId s, RequestIndex index,
                         bool new_copy) {
  switch (source_) {
    case Source::kStatic:
      return delta_t_;
    case Source::kSampled:
      if (new_copy) {
        // Inverse-CDF sample of the optimal randomized ski-rental density
        // f(x) = e^x / (e - 1) on [0, 1), scaled to the deterministic window.
        const double u = rng_->uniform();
        sampled_[static_cast<std::size_t>(s)] =
            delta_t_ * std::log(1.0 + u * (std::numbers::e - 1.0));
      }
      return sampled_[static_cast<std::size_t>(s)];
    case Source::kPredicted:
      // Trust the prediction, capped by SC's window.
      return oracle_(s, index, ctx.now()) <= delta_t_ ? delta_t_ : 0.0;
  }
  return delta_t_;
}

void ScSimPolicy::refresh(ReplicaContext& ctx, ServerId s, RequestIndex index,
                          bool new_copy) {
  expiry_[static_cast<std::size_t>(s)] =
      ctx.now() + window(ctx, s, index, new_copy);
  ordinal_[static_cast<std::size_t>(s)] = ++counter_;
  ctx.wake_at(expiry_[static_cast<std::size_t>(s)]);
}

void ScSimPolicy::on_request(ReplicaContext& ctx, ServerId server,
                             RequestIndex index) {
  ++tick_.requests;
  if (pair_mark_[static_cast<std::size_t>(server)] != tick_id_) {
    pair_mark_[static_cast<std::size_t>(server)] = tick_id_;
    ++tick_.active_pairs;
  }
  if (ctx.has_copy(server)) {
    ++tick_.hits;
    refresh(ctx, server, index);
  } else {
    ++tick_.misses;
    ServerId src = last_request_server_;
    if (!ctx.has_copy(src) || src == server) {
      // Defensive: fall back to the most recently used holder.
      std::uint64_t best = 0;
      src = kNoServer;
      for (const ServerId h : ctx.holders()) {
        if (src == kNoServer || ordinal_[static_cast<std::size_t>(h)] >= best) {
          best = ordinal_[static_cast<std::size_t>(h)];
          src = h;
        }
      }
    }
    ctx.transfer(src, server);
    refresh(ctx, src, index);  // the source gets a fresh window too (step 3)
    // Target refreshed after: the tie rule keeps it.
    refresh(ctx, server, index, /*new_copy=*/true);

    if (decision_.epoch_transfers > 0 &&
        ++epoch_transfers_ >= decision_.epoch_transfers) {
      for (const ServerId h : ctx.holders()) {
        if (h != server) ctx.drop(h);
      }
      epoch_transfers_ = 0;
    }
  }
  last_request_server_ = server;
}

/// Drop every due copy (expiry <= now) in (expiry, ordinal) order, never
/// touching the last copy (paper §V step 4 incl. the tie and last-copy
/// rules).
void ScSimPolicy::drop_due_copies(ReplicaContext& ctx) const {
  while (ctx.copy_count() > 1) {
    ServerId victim = kNoServer;
    for (const ServerId h : ctx.holders()) {
      const auto i = static_cast<std::size_t>(h);
      if (expiry_[i] > ctx.now() + kEps) continue;
      if (victim == kNoServer) {
        victim = h;
        continue;
      }
      const auto v = static_cast<std::size_t>(victim);
      if (expiry_[i] < expiry_[v] - kEps ||
          (almost_equal(expiry_[i], expiry_[v]) && ordinal_[i] < ordinal_[v])) {
        victim = h;
      }
    }
    if (victim == kNoServer) break;
    ctx.drop(victim);
  }
}

void ScSimPolicy::monitor_tick(ReplicaContext& ctx) {
  while (controller_ != nullptr && ctx.now() >= next_monitor_ - kEps) {
    tick_.interval = interval_;
    set_decision(controller_->on_interval(tick_, decision_));
    tick_ = {};
    ++tick_id_;
    next_monitor_ += interval_;
    ctx.wake_at(next_monitor_);
  }
}

void ScSimPolicy::on_wake(ReplicaContext& ctx) {
  const std::size_t before = ctx.copy_count();
  drop_due_copies(ctx);
  tick_.expirations += before - ctx.copy_count();
  monitor_tick(ctx);
}

// ---------------- AlwaysMigratePolicy ----------------

void AlwaysMigratePolicy::on_request(ReplicaContext& ctx, ServerId server,
                                     RequestIndex /*index*/) {
  if (server == holder_) return;
  ctx.transfer(holder_, server);
  ctx.drop(holder_);
  holder_ = server;
}

// ---------------- StaticHomePolicy ----------------

void StaticHomePolicy::on_request(ReplicaContext& ctx, ServerId server,
                                  RequestIndex /*index*/) {
  if (server == home_) return;
  ctx.transfer(home_, server);
  ctx.drop(server);  // serve and discard immediately
}

// ---------------- FullReplicationPolicy ----------------

void FullReplicationPolicy::on_request(ReplicaContext& ctx, ServerId server,
                                       RequestIndex /*index*/) {
  if (!ctx.has_copy(server)) {
    const ServerId src = ctx.has_copy(last_) ? last_ : ctx.holders().front();
    ctx.transfer(src, server);
  }
  last_ = server;
}

// ---------------- LruKPolicy ----------------

LruKPolicy::LruKPolicy(int num_servers, ServerId origin, std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)), last_(origin) {
  last_use_.assign(static_cast<std::size_t>(num_servers), 0);
  last_use_[static_cast<std::size_t>(origin)] = ++counter_;
}

void LruKPolicy::on_request(ReplicaContext& ctx, ServerId server,
                            RequestIndex /*index*/) {
  if (!ctx.has_copy(server)) {
    const ServerId src = ctx.has_copy(last_) ? last_ : ctx.holders().front();
    ctx.transfer(src, server);
  }
  last_use_[static_cast<std::size_t>(server)] = ++counter_;
  last_ = server;
  while (ctx.copy_count() > capacity_) {
    ServerId victim = kNoServer;
    for (const ServerId h : ctx.holders()) {
      if (h == server) continue;
      if (victim == kNoServer || last_use_[static_cast<std::size_t>(h)] <
                                     last_use_[static_cast<std::size_t>(victim)]) {
        victim = h;
      }
    }
    if (victim == kNoServer) break;
    ctx.drop(victim);
  }
}

}  // namespace mcdc
